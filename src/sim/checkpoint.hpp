/// \file checkpoint.hpp
/// \brief Checkpoint/resume for simulation runs: the sealed `.ckpt` format,
///        the periodic CheckpointSink, and the resume surface the engine uses.
///
/// The learning governors only pay off over long horizons, and a crash at
/// frame 900M of a streaming run used to restart learning from zero. A
/// checkpoint captures *everything* a run's future depends on — the
/// governor's full learning state (gov::Governor::save_state), the platform's
/// thermal/DVFS/sensor state (hw::Platform::save_state), the frame position
/// of the deterministic frame stream, the run's O(1) aggregates, and the last
/// epoch observation pending delivery to the governor — so a resumed run is
/// **bit-identical** to one that never stopped, pinned per registered
/// governor by the differential tests in tests/test_checkpoint.cpp.
///
/// A `.ckpt` is a sealed file (common/sealed.hpp: 64 B header, sealed
/// payload, tmp+rename saves), magic "PRIMECK\0", version 2, with one
/// header word:
///
///     offset size header word
///         24    8 u64 frame position (epochs executed before the snapshot)
///
/// The payload carries, in order: governor display name,
/// application name, platform shape (OPP count, core count and — since
/// version 2 — the hw::Platform::shape_fingerprint over the full V-F
/// table), the RunResult aggregates, the optional last EpochObservation,
/// then the length-prefixed opaque governor and platform state blobs. A
/// producer killed mid-write leaves the previous checkpoint intact, and a
/// torn file is rejected with a specific error instead of resuming from
/// garbage.
///
/// Identity is enforced on load+resume: the stored governor name and platform
/// shape must pass qlib::PolicyShape::mismatch against the resuming run
/// (resuming `shen-rl-upd` state into `pid-slack` fails loudly), the
/// application name must match exactly, and the opaque blobs additionally
/// fail closed on any structural mismatch (common::SerialError).
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <stdexcept>
#include <string>

#include "gov/governor.hpp"
#include "sim/telemetry.hpp"

namespace prime::sim {

/// \brief File identification bytes at offset 0.
inline constexpr std::array<unsigned char, 8> kCheckpointMagic = {
    'P', 'R', 'I', 'M', 'E', 'C', 'K', '\0'};
/// \brief The format version this build reads and writes. Version 2 added
///        the platform shape fingerprint to the payload.
inline constexpr std::uint32_t kCheckpointVersion = 2;

/// \brief Error thrown on malformed, incompatible, torn or mismatched
///        checkpoints. Messages name the offending file and expectation.
class CheckpointError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// \brief In-memory image of one checkpoint: run identity, position,
///        aggregates, the pending observation and the opaque state blobs.
struct Checkpoint {
  std::string governor;            ///< Governor display name (identity).
  std::string application;         ///< Application name (identity).
  /// Platform shape at snapshot time, validated on resume: governors size
  /// their learning tables lazily from the action/core space, so resuming
  /// onto a platform with a different OPP table or core count would silently
  /// re-initialise the restored state on the first decision.
  std::uint64_t opp_count = 0;     ///< OPP-table size (the action space).
  std::uint64_t core_count = 0;    ///< Cluster core count.
  /// hw::Platform::shape_fingerprint() at snapshot time: core count plus the
  /// exact V-F table bits, so resume additionally rejects a platform with
  /// the same table *size* but different operating points.
  std::uint64_t platform_fingerprint = 0;
  std::uint64_t frame_position = 0;///< Epochs executed before the snapshot.
  RunResult aggregates;            ///< Partial run aggregates at the snapshot.
  bool has_last = false;           ///< Whether an observation is pending.
  gov::EpochObservation last;      ///< Observation of epoch frame_position-1.
  std::string governor_state;      ///< gov::Governor::save_state payload.
  std::string platform_state;      ///< hw::Platform::save_state payload.

  /// \brief Serialise header + payload onto \p out and seal in place
  ///        (requires a seekable stream). Throws CheckpointError when any
  ///        write fails.
  void write(std::ostream& out) const;

  /// \brief Parse and validate a checkpoint. \p label names the source in
  ///        errors (a path, usually). Throws CheckpointError on bad magic,
  ///        version skew, unsealed files, truncation or trailing bytes.
  [[nodiscard]] static Checkpoint read(std::istream& in,
                                       const std::string& label);

  /// \brief Write to \p path atomically: serialise+seal into `path.tmp`,
  ///        then rename over \p path, so an existing checkpoint survives a
  ///        crash mid-write.
  void save_file(const std::string& path) const;

  /// \brief Load and validate the checkpoint at \p path.
  [[nodiscard]] static Checkpoint load_file(const std::string& path);
};

/// \brief Produces a point-in-time Checkpoint of the running simulation;
///        the engine (which owns the state) hands it to the sinks in its
///        RunBinding.
using CheckpointSnapshotFn = std::function<Checkpoint()>;

/// \brief Telemetry sink writing periodic checkpoints. Spec:
///        `checkpoint(path=out/run.ckpt,every=50000)`.
///
/// The sink decides *when* (every n-th epoch, plus once at run end so a
/// completed run can be extended later); the engine provides *what* through
/// bind() — the RunBinding's snapshot function over the live governor,
/// platform and aggregates. Snapshots ride the existing epoch event path,
/// are read-only with respect to the run (a checkpointed run executes
/// identically to an unobserved one) and overwrite the same path atomically,
/// so the file always holds the most recent complete snapshot. `every=0` writes only the final
/// run-end checkpoint. A board that cannot checkpoint (more than one DVFS
/// domain) makes bind() throw std::invalid_argument; the multi-app engine
/// does not bind at all, and the sink then fails loudly at run begin instead
/// of silently recording nothing.
class CheckpointSink : public TelemetrySink {
 public:
  /// \brief Write to \p path every \p every epochs (0 = run end only).
  explicit CheckpointSink(std::string path, std::size_t every = 0);

  /// \brief Keep the run's snapshot function; throws
  ///        std::invalid_argument when the run cannot checkpoint.
  void bind(const RunBinding* run) override;

  void on_run_begin(const RunContext& ctx) override;
  void on_epoch(const EpochRecord& record, gov::Governor& governor) override;
  void on_run_end(const RunResult& result) override;

  [[nodiscard]] const std::string& path() const noexcept { return path_; }
  [[nodiscard]] std::size_t every() const noexcept { return every_; }
  /// \brief Snapshots written in the current (or last finished) run.
  [[nodiscard]] std::size_t snapshots_written() const noexcept {
    return written_;
  }

 private:
  void write_snapshot();

  std::string path_;
  std::size_t every_;
  CheckpointSnapshotFn snapshot_;
  std::size_t seen_ = 0;
  std::size_t written_ = 0;
};

}  // namespace prime::sim

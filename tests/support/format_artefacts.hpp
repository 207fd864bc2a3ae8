/// \file format_artefacts.hpp
/// \brief Deterministic sample files of the three sealed formats.
///
/// The format goldens pin these bytes, and the corruption grid and the
/// mutation fuzz start from them: one `.ckpt` per registered governor (a
/// 200-frame streaming h264 run, snapshot after frame kCheckpointFrame), a
/// leaf, a merged and a fleet-merged `.qpol`, the `.fsum` of a 2-cell
/// shard that carries policy records, and the output of every registered
/// governor's state merger. Each set is built once per process.
#pragma once

#include <string>
#include <vector>

namespace prime::testing_support {

/// \brief One sample file: a short stable name and the file's bytes.
struct Artefact {
  std::string name;
  std::string bytes;
};

/// \brief Frame after which the sample checkpoints are taken.
inline constexpr std::size_t kCheckpointFrame = 120;

/// \brief One `.ckpt` per registered governor, named by the governor.
[[nodiscard]] const std::vector<Artefact>& checkpoint_artefacts();
/// \brief The leaf ("leaf"), merged ("merged") and fleet-merged ("fleet")
///        `.qpol` entries.
[[nodiscard]] const std::vector<Artefact>& policy_artefacts();
/// \brief The 2-cell shard summary ("shard").
[[nodiscard]] const std::vector<Artefact>& summary_artefacts();
/// \brief One entry per registered governor with a state merger, named by
///        the governor: the accumulator() and extract_state() bytes of two
///        trained payloads (different seeds) folded together, of an
///        untrained and a trained payload, and of an untrained one alone.
[[nodiscard]] const std::vector<Artefact>& merger_artefacts();

/// \brief Whole-file read (empty when the file cannot be opened).
[[nodiscard]] std::string read_file(const std::string& path);
/// \brief Whole-file write, truncating.
void write_file(const std::string& path, const std::string& bytes);

}  // namespace prime::testing_support

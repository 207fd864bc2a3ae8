#include "sim/checkpoint.hpp"

#include <utility>

#include "common/sealed.hpp"
#include "common/serial.hpp"
#include "sim/run_binding.hpp"

namespace prime::sim {

namespace {

constexpr common::SealedFormat kFormat{
    kCheckpointMagic, kCheckpointVersion, "checkpoint", "checkpoint",
    &common::throw_as<CheckpointError>};

void write_observation(common::StateWriter& w,
                       const gov::EpochObservation& obs) {
  w.size(obs.epoch);
  w.f64(obs.period);
  w.f64(obs.frame_time);
  w.f64(obs.window);
  w.u64(obs.total_cycles);
  // Same byte layout as StateWriter::vec_u64 (count + elements); core_cycles
  // is a CycleSpan view now, so the elements are written directly.
  w.u64(obs.core_cycles.size());
  for (const common::Cycles c : obs.core_cycles) w.u64(c);
  w.size(obs.opp_index);
  w.f64(obs.avg_power);
  w.f64(obs.temperature);
  w.boolean(obs.deadline_met);
}

gov::EpochObservation read_observation(common::StateReader& r) {
  gov::EpochObservation obs;
  obs.epoch = r.size();
  obs.period = r.f64();
  obs.frame_time = r.f64();
  obs.window = r.f64();
  obs.total_cycles = r.u64();
  obs.core_cycles = r.vec_u64();
  obs.opp_index = r.size();
  obs.avg_power = r.f64();
  obs.temperature = r.f64();
  obs.deadline_met = r.boolean();
  return obs;
}

}  // namespace

void Checkpoint::write(std::ostream& out) const {
  const auto payload = [&](common::StateWriter& w) {
    w.str(governor);
    w.str(application);
    w.u64(opp_count);
    w.u64(core_count);
    w.u64(platform_fingerprint);
    aggregates.save_state(w);
    w.boolean(has_last);
    if (has_last) write_observation(w, last);
    w.blob(governor_state);
    w.blob(platform_state);
  };
  common::write_sealed(out, kFormat, {frame_position}, payload);
}

Checkpoint Checkpoint::read(std::istream& in, const std::string& label) {
  Checkpoint ck;
  const auto payload = [&](common::StateReader& r) {
    ck.governor = r.str();
    ck.application = r.str();
    ck.opp_count = r.u64();
    ck.core_count = r.u64();
    ck.platform_fingerprint = r.u64();
    ck.aggregates.load_state(r);
    ck.aggregates.governor = ck.governor;
    ck.aggregates.application = ck.application;
    ck.has_last = r.boolean();
    if (ck.has_last) ck.last = read_observation(r);
    ck.governor_state = r.blob();
    ck.platform_state = r.blob();
  };
  ck.frame_position = common::read_sealed(in, kFormat, label, payload)[0];
  return ck;
}

void Checkpoint::save_file(const std::string& path) const {
  common::save_sealed_file(path, kFormat,
                           [&](std::ostream& out) { write(out); });
}

Checkpoint Checkpoint::load_file(const std::string& path) {
  Checkpoint ck;
  common::load_sealed_file(path, kFormat,
                           [&](std::istream& in) { ck = read(in, path); });
  return ck;
}

// --- CheckpointSink ----------------------------------------------------------

CheckpointSink::CheckpointSink(std::string path, std::size_t every)
    : path_(std::move(path)), every_(every) {
  if (path_.empty()) {
    throw std::invalid_argument("CheckpointSink: a path is required");
  }
}

void CheckpointSink::bind(const RunBinding* run) {
  if (run != nullptr && !run->snapshot) {
    throw std::invalid_argument(
        "run_simulation: checkpoint sinks are not yet supported on "
        "multi-domain platforms (" +
        std::to_string(run->platform.domain_count()) +
        " DVFS domains configured)");
  }
  snapshot_ = run != nullptr ? run->snapshot : nullptr;
}

void CheckpointSink::on_run_begin(const RunContext&) {
  if (!snapshot_) {
    throw std::logic_error(
        "CheckpointSink '" + path_ +
        "': not bound to a run — checkpointing is only supported by the "
        "single-app engine (run_simulation), which binds attached checkpoint "
        "sinks at run begin");
  }
  seen_ = 0;
  written_ = 0;
}

void CheckpointSink::on_epoch(const EpochRecord&, gov::Governor&) {
  ++seen_;
  if (every_ > 0 && seen_ % every_ == 0) write_snapshot();
}

void CheckpointSink::on_run_end(const RunResult&) {
  // Always leave a final checkpoint: a completed run can then be *extended*
  // (resume with a larger max_frames) without replaying its history.
  write_snapshot();
}

void CheckpointSink::write_snapshot() {
  snapshot_().save_file(path_);
  ++written_;
}

// --- Registry entry ----------------------------------------------------------

namespace {

const TelemetrySinkRegistrar reg_checkpoint{
    telemetry_registry(), "checkpoint",
    "periodic resumable snapshots: checkpoint(path=out/run.ckpt,every=50000); "
    "every=0 writes only the final run-end checkpoint",
    [](const common::Spec& spec) {
      const std::string path = spec.get_string("path", "");
      const std::size_t every = spec.get_count("every", 0, 0);
      if (path.empty()) {
        const auto unknown = spec.unrequested_keys();
        if (!unknown.empty()) {
          throw common::UnknownKeyError("telemetry sink", "checkpoint",
                                        unknown, spec.requested_keys());
        }
        throw std::invalid_argument(
            "telemetry sink 'checkpoint': a path is required, e.g. "
            "checkpoint(path=out/run.ckpt,every=50000)");
      }
      return std::make_unique<CheckpointSink>(path, every);
    }};

}  // namespace

}  // namespace prime::sim

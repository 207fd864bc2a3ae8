#include "rtm/manycore.hpp"

#include <algorithm>
#include <memory>
#include <stdexcept>

#include "common/serial.hpp"
#include "gov/registry.hpp"

namespace prime::rtm {

ManycoreRtmGovernor::ManycoreRtmGovernor(const ManycoreRtmParams& params)
    : RtmGovernor(params.base), mc_params_(params) {}

double ManycoreRtmGovernor::workload_coordinate(
    const gov::DecisionContext& ctx, const gov::EpochObservation& last) {
  // Maintain one EWMA predictor per core (lazily sized to the cluster).
  if (predictors_.size() != ctx.cores) {
    predictors_.assign(ctx.cores, EwmaPredictor(params_.ewma_gamma));
  }
  double total_pred = 0.0;
  for (std::size_t j = 0; j < ctx.cores; ++j) {
    const common::Cycles actual =
        j < last.core_cycles.size() ? last.core_cycles[j] : 0;
    total_pred += static_cast<double>(predictors_[j].observe(actual));
  }
  // Keep the cluster-level predictor in sync so predictor()/Fig. 3 analysis
  // reflects the total workload as well.
  const common::Cycles total_predicted = ewma_.observe(last.total_cycles);

  // Round-robin learner core: one core's state per decision epoch.
  learner_ = ctx.epoch % std::max<std::size_t>(1, ctx.cores);
  const double learner_pred =
      static_cast<double>(predictors_[learner_].prediction());

  switch (mc_params_.mode) {
    case WorkloadStateMode::kNormalized:
      // Eq. (7): the learner core's share of the total predicted workload.
      return total_pred <= 0.0 ? 0.0 : learner_pred / total_pred;
    case WorkloadStateMode::kAbsolute:
    default: {
      // The learner core's predicted load against the largest per-core load
      // seen so far; preserves workload magnitude in the state.
      max_cycles_seen_ = std::max(
          max_cycles_seen_, static_cast<double>(total_predicted));
      const double per_core_max =
          max_cycles_seen_ / static_cast<double>(std::max<std::size_t>(1, ctx.cores));
      return per_core_max <= 0.0 ? 0.0 : learner_pred / per_core_max;
    }
  }
}

void ManycoreRtmGovernor::reset() {
  RtmGovernor::reset();
  predictors_.clear();
  learner_ = 0;
}

void ManycoreRtmGovernor::save_state(std::ostream& out) const {
  RtmGovernor::save_state(out);
  common::StateWriter w(out);
  w.size(predictors_.size());
  for (const EwmaPredictor& predictor : predictors_) {
    predictor.save_state(w);
  }
  w.size(learner_);
}

void ManycoreRtmGovernor::load_state(std::istream& in) {
  RtmGovernor::load_state(in);
  common::StateReader r(in);
  const std::size_t predictor_count = r.size();
  // Bound before the eager allocation: a corrupt count must fail closed.
  if (predictor_count > 4096) {
    throw common::SerialError("rtm-manycore state: implausible predictor "
                              "count " + std::to_string(predictor_count));
  }
  predictors_.assign(predictor_count, EwmaPredictor(params_.ewma_gamma));
  for (EwmaPredictor& predictor : predictors_) {
    predictor.load_state(r);
  }
  learner_ = r.size();
}

std::unique_ptr<gov::StateMerger> ManycoreRtmGovernor::make_state_merger()
    const {
  return gov::make_weighted_merger(
      kMergeTag, std::make_unique<ManycoreRtmGovernor>(mc_params_));
}

namespace {

ManycoreRtmParams manycore_params_from_spec(const common::Spec& spec,
                                            std::uint64_t seed,
                                            WorkloadStateMode default_mode) {
  ManycoreRtmParams p;
  p.base = rtm_params_from_spec(spec, seed);
  p.mode = default_mode;
  if (spec.has("mode")) {
    const std::string mode = spec.get_string("mode", "");
    if (mode == "absolute") {
      p.mode = WorkloadStateMode::kAbsolute;
    } else if (mode == "normalized") {
      p.mode = WorkloadStateMode::kNormalized;
    } else {
      throw std::invalid_argument(
          "rtm-manycore: mode must be 'absolute' or 'normalized', got '" +
          mode + "'");
    }
  }
  return p;
}

const gov::GovernorRegistrar kRegisterManycore{
    gov::governor_registry(), "rtm-manycore",
    "proposed many-core shared-Q-table RTM (Section II-D); keys: all rtm "
    "keys plus mode=absolute|normalized",
    [](const common::Spec& spec, std::uint64_t seed) {
      return std::make_unique<ManycoreRtmGovernor>(
          manycore_params_from_spec(spec, seed, WorkloadStateMode::kAbsolute));
    }};

const gov::GovernorRegistrar kRegisterManycoreNormalized{
    gov::governor_registry(), "rtm-manycore-normalized",
    "many-core RTM with the literal eq. (7) per-core share normalisation",
    [](const common::Spec& spec, std::uint64_t seed) {
      return std::make_unique<ManycoreRtmGovernor>(manycore_params_from_spec(
          spec, seed, WorkloadStateMode::kNormalized));
    }};

}  // namespace

}  // namespace prime::rtm

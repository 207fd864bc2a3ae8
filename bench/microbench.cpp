/// \file microbench.cpp
/// \brief google-benchmark microbenchmarks of the RTM's hot paths.
///
/// The paper's overhead argument (Section III-D) rests on the governor being
/// cheap enough to run inside a kernel timer callback: these benches measure
/// the actual cost of the Q-table update, EPD sampling, state mapping, full
/// governor decisions and simulated epochs, so the OverheadParams defaults
/// can be sanity-checked against real numbers on the build machine.
#include <benchmark/benchmark.h>

#include <optional>

#include "common/rng.hpp"
#include "hw/platform.hpp"
#include "rtm/discretizer.hpp"
#include "rtm/ewma.hpp"
#include "rtm/manycore.hpp"
#include "rtm/policy.hpp"
#include "rtm/qtable.hpp"
#include "sim/experiment.hpp"
#include "wl/video.hpp"

namespace {

using namespace prime;

void BM_QTableUpdate(benchmark::State& state) {
  rtm::QTable q(25, 19);
  common::Rng rng(1);
  std::size_t s = 0;
  for (auto _ : state) {
    const std::size_t a = rng.next_u64() % 19;
    const std::size_t sn = rng.next_u64() % 25;
    q.update(s, a, 0.5, sn, 0.25, 0.5);
    s = sn;
  }
  benchmark::DoNotOptimize(q.best_value(0));
}
BENCHMARK(BM_QTableUpdate);

void BM_QTableBestAction(benchmark::State& state) {
  rtm::QTable q(25, 19);
  common::Rng rng(2);
  for (std::size_t s = 0; s < 25; ++s) {
    for (std::size_t a = 0; a < 19; ++a) q.set_q(s, a, rng.uniform());
  }
  std::size_t s = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(q.best_action(s));
    s = (s + 1) % 25;
  }
}
BENCHMARK(BM_QTableBestAction);

void BM_EpdSample(benchmark::State& state) {
  const hw::OppTable opps = hw::OppTable::odroid_xu3_a15();
  const rtm::EpdPolicy epd;
  common::Rng rng(3);
  double slack = -0.4;
  for (auto _ : state) {
    benchmark::DoNotOptimize(epd.sample(opps, slack, rng));
    slack = slack >= 0.4 ? -0.4 : slack + 0.01;
  }
}
BENCHMARK(BM_EpdSample);

void BM_StateMapping(benchmark::State& state) {
  const rtm::Discretizer disc;
  rtm::EwmaPredictor ewma(0.6);
  common::Rng rng(4);
  for (auto _ : state) {
    const auto cc = static_cast<common::Cycles>(rng.uniform(8.0e7, 1.6e8));
    const common::Cycles pred = ewma.observe(cc);
    benchmark::DoNotOptimize(
        disc.state_of(static_cast<double>(pred) / 2.0e8, rng.uniform(-0.3, 0.3)));
  }
}
BENCHMARK(BM_StateMapping);

void BM_RtmDecide(benchmark::State& state) {
  const hw::OppTable opps = hw::OppTable::odroid_xu3_a15();
  rtm::ManycoreRtmGovernor g;
  gov::DecisionContext ctx;
  ctx.period = 0.040;
  ctx.cores = 4;
  ctx.opps = &opps;
  std::optional<gov::EpochObservation> obs;
  std::size_t epoch = 0;
  std::size_t idx = 0;
  for (auto _ : state) {
    ctx.epoch = epoch;
    idx = g.decide(ctx, obs);
    gov::EpochObservation o;
    o.epoch = epoch;
    o.period = 0.040;
    o.frame_time = 0.030;
    o.window = 0.040;
    o.core_cycles = {30000000, 31000000, 29000000, 30000000};
    o.total_cycles = 120000000;
    o.opp_index = idx;
    o.deadline_met = true;
    obs = std::move(o);
    ++epoch;
  }
  benchmark::DoNotOptimize(idx);
}
BENCHMARK(BM_RtmDecide);

void BM_ClusterEpoch(benchmark::State& state) {
  // The engine's call: run_epoch_into against one reused scratch.
  auto platform = hw::Platform::odroid_xu3_a15();
  const std::vector<common::Cycles> work{30000000, 31000000, 29000000,
                                         30000000};
  hw::EpochScratch scratch;
  for (auto _ : state) {
    platform->cluster().run_epoch_into(work.data(), work.size(), 0.040, 0.0,
                                       1.0e9, scratch);
    benchmark::DoNotOptimize(scratch.energy);
  }
}
BENCHMARK(BM_ClusterEpoch);

void BM_VideoTraceGeneration(benchmark::State& state) {
  const wl::VideoTraceGenerator g = wl::VideoTraceGenerator::h264_football();
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(g.generate(n, 42));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_VideoTraceGeneration)->Arg(100)->Arg(1000);

void BM_FullSimulation(benchmark::State& state) {
  const auto frames = static_cast<std::size_t>(state.range(0));
  auto platform = hw::Platform::odroid_xu3_a15();
  sim::ExperimentSpec spec;
  spec.workload = "h264";
  spec.frames = frames;
  const wl::Application app = sim::make_application(spec, *platform);
  const auto governor = sim::make_governor("rtm-manycore");
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        sim::run_simulation(*platform, app, *governor));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(frames));
}
BENCHMARK(BM_FullSimulation)->Arg(100)->Arg(1000)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();

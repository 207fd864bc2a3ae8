/// \file test_epoch_goldens.cpp
/// \brief Frozen digests of the epoch loop's observable output.
///
/// Every registered governor runs a 200-frame streaming h264 on 1-, 2- and
/// 4-domain boards under every placement and three block sizes; each run
/// digests to one FNV-1a value over its `.bt` bytes plus the RunResult
/// aggregate bits. Block size is an execution-strategy knob, so the golden
/// table carries no block axis: every block size must land on the same
/// digest. Two multi-application runs (one and two domains) pin per-app
/// aggregates and overridden-epoch counts the same way.
///
/// A digest change means the simulator's output changed. Refactors of the
/// epoch loop must leave every entry untouched; an intended model change
/// re-captures the table and says so.
#include <gtest/gtest.h>

#include <bit>
#include <cctype>
#include <cstdio>
#include <cstdint>
#include <fstream>
#include <iterator>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "common/config.hpp"
#include "common/hash.hpp"
#include "sim/engine.hpp"
#include "sim/experiment.hpp"
#include "sim/multiapp.hpp"
#include "sim/telemetry.hpp"

namespace prime::sim {
namespace {

constexpr std::size_t kFrames = 200;

std::unique_ptr<hw::Platform> make_board(std::size_t clusters,
                                         std::size_t cores_each) {
  common::Config cfg;
  cfg.set_int("hw.clusters", static_cast<long long>(clusters));
  cfg.set_int("hw.cores", static_cast<long long>(cores_each));
  return hw::Platform::from_config(cfg);
}

std::string read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

void hash_result(common::Fnv1a64& h, const RunResult& r) {
  h.u64(r.epoch_count);
  h.u64(r.deadline_misses);
  h.f64(r.total_energy);
  h.f64(r.measured_energy);
  h.f64(r.total_time);
  h.f64(r.performance_sum);
  h.f64(r.power_sum);
}

std::string hex(std::uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

// Captured from the simulator before the single- and multi-domain epoch
// loops were merged; keyed "governor/domains/placement".
const std::map<std::string, std::uint64_t>& engine_goldens() {
  static const std::map<std::string, std::uint64_t> table = {
      {"conservative/1/packed", 0x1f1fbe2ee7dc3d25},
      {"conservative/1/rect", 0x1f1fbe2ee7dc3d25},
      {"conservative/1/spread", 0x1f1fbe2ee7dc3d25},
      {"conservative/2/packed", 0xb695b4905e431ba6},
      {"conservative/2/rect", 0xe93f2d02f783f845},
      {"conservative/2/spread", 0x830f77a1c78873b5},
      {"conservative/4/packed", 0xd4f32a703cc34110},
      {"conservative/4/rect", 0xc09843d18507dbc8},
      {"conservative/4/spread", 0xc09843d18507dbc8},
      {"mcdvfs/1/packed", 0x81ee3e624e51d273},
      {"mcdvfs/1/rect", 0x81ee3e624e51d273},
      {"mcdvfs/1/spread", 0x81ee3e624e51d273},
      {"mcdvfs/2/packed", 0x50336324395862fb},
      {"mcdvfs/2/rect", 0xbccad1b49246f4ac},
      {"mcdvfs/2/spread", 0x4145b07fb8be7b4c},
      {"mcdvfs/4/packed", 0xb779a5ba9eb5ec98},
      {"mcdvfs/4/rect", 0xc79b1d3d78dc5053},
      {"mcdvfs/4/spread", 0xc79b1d3d78dc5053},
      {"ondemand/1/packed", 0x2c2ef7f382afbfbf},
      {"ondemand/1/rect", 0x2c2ef7f382afbfbf},
      {"ondemand/1/spread", 0x2c2ef7f382afbfbf},
      {"ondemand/2/packed", 0x8bd4d4516153563d},
      {"ondemand/2/rect", 0x8a4565bff74ef966},
      {"ondemand/2/spread", 0x273e5c318783ace7},
      {"ondemand/4/packed", 0x644e962272233a75},
      {"ondemand/4/rect", 0x903e291c5532d734},
      {"ondemand/4/spread", 0x903e291c5532d734},
      {"oracle/1/packed", 0x8a7b6c06e0f0d1d9},
      {"oracle/1/rect", 0x8a7b6c06e0f0d1d9},
      {"oracle/1/spread", 0x8a7b6c06e0f0d1d9},
      {"oracle/2/packed", 0xe61f4741f2d25c23},
      {"oracle/2/rect", 0x71cc3e4288471e88},
      {"oracle/2/spread", 0x883c0afeacbf9824},
      {"oracle/4/packed", 0x56a5d02f21687bc5},
      {"oracle/4/rect", 0x1ce8cdb542867928},
      {"oracle/4/spread", 0x1ce8cdb542867928},
      {"performance/1/packed", 0x7fb2d6b9efbcae11},
      {"performance/1/rect", 0x7fb2d6b9efbcae11},
      {"performance/1/spread", 0x7fb2d6b9efbcae11},
      {"performance/2/packed", 0xea587fd3368ff2c8},
      {"performance/2/rect", 0x789c5e9f5bf23fde},
      {"performance/2/spread", 0xa1d5039f80406f1f},
      {"performance/4/packed", 0x60d4ccbed77addf0},
      {"performance/4/rect", 0x2a0a04e6119c5b8c},
      {"performance/4/spread", 0x2a0a04e6119c5b8c},
      {"pid/1/packed", 0x00319cbf2675cddd},
      {"pid/1/rect", 0x00319cbf2675cddd},
      {"pid/1/spread", 0x00319cbf2675cddd},
      {"pid/2/packed", 0x7befc4d0f9769b61},
      {"pid/2/rect", 0x17ae4c5e955709a9},
      {"pid/2/spread", 0x3cdb5d0e0511c9e6},
      {"pid/4/packed", 0xb7d1906eb6296e10},
      {"pid/4/rect", 0x3e296104ae7df9a1},
      {"pid/4/spread", 0x3e296104ae7df9a1},
      {"powersave/1/packed", 0xcbf9919d9f03fa5b},
      {"powersave/1/rect", 0xcbf9919d9f03fa5b},
      {"powersave/1/spread", 0xcbf9919d9f03fa5b},
      {"powersave/2/packed", 0xed7434f132fe6ebf},
      {"powersave/2/rect", 0x52895ef7e894830e},
      {"powersave/2/spread", 0xd71cfcd7c9a2c331},
      {"powersave/4/packed", 0xd144414c99197e83},
      {"powersave/4/rect", 0xa6fbac0c18e3fe59},
      {"powersave/4/spread", 0xa6fbac0c18e3fe59},
      {"rtm-manycore-normalized/1/packed", 0x95740c99ae922f14},
      {"rtm-manycore-normalized/1/rect", 0x95740c99ae922f14},
      {"rtm-manycore-normalized/1/spread", 0x95740c99ae922f14},
      {"rtm-manycore-normalized/2/packed", 0x7acd139c985ae555},
      {"rtm-manycore-normalized/2/rect", 0x6614fc2114ac8a66},
      {"rtm-manycore-normalized/2/spread", 0x262128ae383a1126},
      {"rtm-manycore-normalized/4/packed", 0xaa226d6987beea6f},
      {"rtm-manycore-normalized/4/rect", 0x0c3b47843d1786fe},
      {"rtm-manycore-normalized/4/spread", 0x0c3b47843d1786fe},
      {"rtm-manycore/1/packed", 0x29c8f44666b9f3a7},
      {"rtm-manycore/1/rect", 0x29c8f44666b9f3a7},
      {"rtm-manycore/1/spread", 0x29c8f44666b9f3a7},
      {"rtm-manycore/2/packed", 0x0cbfab72a96adefa},
      {"rtm-manycore/2/rect", 0x6614fc2114ac8a66},
      {"rtm-manycore/2/spread", 0x262128ae383a1126},
      {"rtm-manycore/4/packed", 0xb09a1e9ba5e8a4e4},
      {"rtm-manycore/4/rect", 0x0c3b47843d1786fe},
      {"rtm-manycore/4/spread", 0x0c3b47843d1786fe},
      {"rtm-thermal/1/packed", 0x4ac2b1b0a1f6114e},
      {"rtm-thermal/1/rect", 0x4ac2b1b0a1f6114e},
      {"rtm-thermal/1/spread", 0x4ac2b1b0a1f6114e},
      {"rtm-thermal/2/packed", 0xf3cd96b074756313},
      {"rtm-thermal/2/rect", 0x04d035f77665fd39},
      {"rtm-thermal/2/spread", 0xe5682d1bf0a34988},
      {"rtm-thermal/4/packed", 0x2efe3ac41429bc44},
      {"rtm-thermal/4/rect", 0x1fdbc2e691979d91},
      {"rtm-thermal/4/spread", 0x1fdbc2e691979d91},
      {"rtm-upd/1/packed", 0xbe63530da236eaed},
      {"rtm-upd/1/rect", 0xbe63530da236eaed},
      {"rtm-upd/1/spread", 0xbe63530da236eaed},
      {"rtm-upd/2/packed", 0xc50f5e0cbd93c1d0},
      {"rtm-upd/2/rect", 0x074c6fc9d19b7a8b},
      {"rtm-upd/2/spread", 0xfacdb586bab1a30b},
      {"rtm-upd/4/packed", 0x2f53487524223785},
      {"rtm-upd/4/rect", 0x01195e52ab23966b},
      {"rtm-upd/4/spread", 0x01195e52ab23966b},
      {"rtm/1/packed", 0x846bdb987cb973d9},
      {"rtm/1/rect", 0x846bdb987cb973d9},
      {"rtm/1/spread", 0x846bdb987cb973d9},
      {"rtm/2/packed", 0xf90502aafaff2c20},
      {"rtm/2/rect", 0x377f981f5bbcef03},
      {"rtm/2/spread", 0xd09578c600359cf8},
      {"rtm/4/packed", 0x0d68501e21bc45fa},
      {"rtm/4/rect", 0x3e1df3078f447e61},
      {"rtm/4/spread", 0x3e1df3078f447e61},
      {"schedutil/1/packed", 0x4321aca917080b17},
      {"schedutil/1/rect", 0x4321aca917080b17},
      {"schedutil/1/spread", 0x4321aca917080b17},
      {"schedutil/2/packed", 0xf9434eb1e38def2b},
      {"schedutil/2/rect", 0x2e5c25c3a8f01729},
      {"schedutil/2/spread", 0xa0929f773ad3d96c},
      {"schedutil/4/packed", 0xee08857dc7ced070},
      {"schedutil/4/rect", 0x79d38fd6bd7b24c3},
      {"schedutil/4/spread", 0x79d38fd6bd7b24c3},
      {"shen-rl/1/packed", 0xe95a30b80dba1ebf},
      {"shen-rl/1/rect", 0xe95a30b80dba1ebf},
      {"shen-rl/1/spread", 0xe95a30b80dba1ebf},
      {"shen-rl/2/packed", 0xcfbc543ed02388c9},
      {"shen-rl/2/rect", 0x445f85f40b6f37cb},
      {"shen-rl/2/spread", 0x4bc6332dc66af159},
      {"shen-rl/4/packed", 0x2d4a37010486bcb8},
      {"shen-rl/4/rect", 0xd8e69414a6f1e3de},
      {"shen-rl/4/spread", 0xd8e69414a6f1e3de},
      {"thermal-cap/1/packed", 0x4ac2b1b0a1f6114e},
      {"thermal-cap/1/rect", 0x4ac2b1b0a1f6114e},
      {"thermal-cap/1/spread", 0x4ac2b1b0a1f6114e},
      {"thermal-cap/2/packed", 0xf3cd96b074756313},
      {"thermal-cap/2/rect", 0x04d035f77665fd39},
      {"thermal-cap/2/spread", 0xe5682d1bf0a34988},
      {"thermal-cap/4/packed", 0x2efe3ac41429bc44},
      {"thermal-cap/4/rect", 0x1fdbc2e691979d91},
      {"thermal-cap/4/spread", 0x1fdbc2e691979d91},
      {"userspace/1/packed", 0xabf5dd44e3f3925a},
      {"userspace/1/rect", 0xabf5dd44e3f3925a},
      {"userspace/1/spread", 0xabf5dd44e3f3925a},
      {"userspace/2/packed", 0xc9efb56158fc502a},
      {"userspace/2/rect", 0x97deb890e6fb4ee3},
      {"userspace/2/spread", 0x72f9a48b160de300},
      {"userspace/4/packed", 0xb7afd1feb3ddcfc2},
      {"userspace/4/rect", 0xc18bafbefc5de048},
      {"userspace/4/spread", 0xc18bafbefc5de048},
  };
  return table;
}

using EngineCase = std::tuple<std::string, std::size_t, std::string,
                              std::size_t>;

class EngineGolden : public testing::TestWithParam<EngineCase> {};

TEST_P(EngineGolden, DigestMatches) {
  const auto& [governor, domains, placement, block] = GetParam();
  const auto board = make_board(domains, 4);
  ExperimentSpec spec;
  spec.workload = "h264";
  spec.fps = 30.0;
  spec.frames = kFrames;
  spec.stream = true;
  const wl::Application app = make_application(spec, *board);
  const auto gov = make_governor(governor);

  const std::string key =
      governor + "/" + std::to_string(domains) + "/" + placement;
  const std::string path = testing::TempDir() + "golden-" +
                           std::to_string(domains) + "-" + placement + "-" +
                           std::to_string(block) + ".bt";
  const auto sink = make_sink("bintrace(path=" + path + ")");
  RunOptions options;
  options.max_frames = kFrames;
  options.block_frames = block;
  options.placement = placement;
  options.sinks = {sink.get()};
  const RunResult r = run_simulation(*board, app, *gov, options);
  ASSERT_EQ(r.epoch_count, kFrames);

  common::Fnv1a64 h;
  const std::string bt = read_bytes(path);
  ASSERT_FALSE(bt.empty());
  h.bytes(bt.data(), bt.size());
  hash_result(h, r);

  const auto& table = engine_goldens();
  const auto it = table.find(key);
  ASSERT_NE(it, table.end()) << "missing golden: {\"" << key << "\", "
                             << hex(h.value()) << "},";
  EXPECT_EQ(hex(h.value()), hex(it->second)) << key << " block " << block;
}

std::string case_name(const testing::TestParamInfo<EngineCase>& info) {
  const auto& [governor, domains, placement, block] = info.param;
  std::string name = governor + "_d" + std::to_string(domains) + "_" +
                     placement + "_b" + std::to_string(block);
  for (char& c : name) {
    if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
  }
  return name;
}

INSTANTIATE_TEST_SUITE_P(
    AllGovernors, EngineGolden,
    testing::Combine(testing::ValuesIn(governor_names()),
                     testing::Values(std::size_t{1}, std::size_t{2},
                                     std::size_t{4}),
                     testing::Values(std::string("packed"),
                                     std::string("spread"),
                                     std::string("rect")),
                     testing::Values(std::size_t{1}, std::size_t{7},
                                     std::size_t{64})),
    case_name);

// --- Multi-application ------------------------------------------------------

wl::Application make_multi_app(const char* workload, std::uint64_t seed,
                               const hw::Platform& platform) {
  ExperimentSpec spec;
  spec.workload = workload;
  spec.fps = 25.0;
  spec.frames = kFrames;
  spec.seed = seed;
  spec.threads = 2;
  spec.target_utilisation = 0.20;
  return make_application(spec, platform);
}

/// Every governor drives both applications of one board; the digest folds
/// each run's per-app aggregates, overridden-epoch counts and board totals.
std::uint64_t multiapp_digest(std::size_t domains, std::size_t cores_each,
                              const std::vector<std::size_t>& cores_a,
                              const std::vector<std::size_t>& cores_b) {
  common::Fnv1a64 h;
  for (const std::string& name : governor_names()) {
    const auto board = make_board(domains, cores_each);
    const wl::Application a = make_multi_app("mpeg4", 1, *board);
    const wl::Application b = make_multi_app("fft", 2, *board);
    std::vector<std::unique_ptr<gov::Governor>> governors;
    governors.push_back(make_governor(name, 11));
    governors.push_back(make_governor(name, 22));
    const std::vector<AppPlacement> placements = {{&a, cores_a},
                                                  {&b, cores_b}};
    const MultiAppResult r =
        run_multi_simulation(*board, placements, governors, kFrames);
    h.token(name);
    for (const RunResult& app : r.per_app) hash_result(h, app);
    for (const std::size_t n : r.overridden_epochs) h.u64(n);
    h.f64(r.total_energy);
    h.f64(r.total_time);
  }
  return h.value();
}

TEST(MultiAppGolden, SingleDomainDigestMatches) {
  EXPECT_EQ(hex(multiapp_digest(1, 4, {0, 1}, {2, 3})), "0x841d8be609f9fcf6");
}

TEST(MultiAppGolden, TwoDomainDigestMatches) {
  // Both applications straddle both domains, so every epoch arbitrates.
  EXPECT_EQ(hex(multiapp_digest(2, 2, {0, 2}, {1, 3})), "0x174e1ccac5fd93c5");
}

}  // namespace
}  // namespace prime::sim

/// \file test_qlib.cpp
/// \brief Tests for the warm-start policy library: PolicyKey canonical
///        encoding, sealed `.qpol` round-trips and key-fingerprint skew,
///        PolicyLibrary storage, the merge algebra (associativity, order
///        invariance, self-merge idempotence, per-axis mismatch errors),
///        engine warm starts, the qlib publish sink, and the fleet-merge
///        bit-identity differential (any shard count, kill/retry included).
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/serial.hpp"
#include "fleet/driver.hpp"
#include "fleet/population.hpp"
#include "fleet/runner.hpp"
#include "fleet/summary.hpp"
#include "gov/merge.hpp"
#include "hw/platform.hpp"
#include "qlib/library.hpp"
#include "qlib/policy.hpp"
#include "qlib/sink.hpp"
#include "rtm/rtm_governor.hpp"
#include "sim/engine.hpp"
#include "sim/experiment.hpp"
#include "sim/telemetry.hpp"

namespace prime::qlib {
namespace {

std::string temp_dir(const std::string& name) {
  const std::string dir = testing::TempDir() + "qlib-tests/" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

std::string read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

void write_bytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

wl::Application make_app(const std::string& workload, std::uint64_t seed,
                         const hw::Platform& platform, double fps = 25.0,
                         std::size_t frames = 200) {
  sim::ExperimentSpec spec;
  spec.workload = workload;
  spec.fps = fps;
  spec.frames = frames;
  spec.seed = seed;
  return sim::make_application(spec, platform);
}

/// Train one governor on a short run and return its leaf policy entry.
PolicyEntry train_leaf(const hw::Platform& platform, const std::string& spec,
                       std::uint64_t gov_seed, std::uint64_t trace_seed,
                       const std::string& workload = "mpeg4") {
  const wl::Application app = make_app(workload, trace_seed, platform);
  const auto governor = sim::make_governor(spec, gov_seed);
  const sim::RunResult run = sim::run_simulation(
      const_cast<hw::Platform&>(platform), app, *governor);
  return make_leaf_entry(platform, *governor, workload, 25.0, spec,
                         run.epoch_count);
}

/// Assert \p fn throws QlibError whose message contains \p needle.
template <typename Fn>
void expect_qlib_error(Fn&& fn, const std::string& needle) {
  try {
    fn();
    FAIL() << "expected QlibError containing '" << needle << "'";
  } catch (const QlibError& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << "actual message: " << e.what();
  }
}

// --- PolicyKey ---------------------------------------------------------------

TEST(PolicyKey, WorkloadClassDropsParametersAndTrims) {
  EXPECT_EQ(PolicyKey::workload_class_of("flat(mean=2e8,cv=0.1)"), "flat");
  EXPECT_EQ(PolicyKey::workload_class_of("mpeg4"), "mpeg4");
  EXPECT_EQ(PolicyKey::workload_class_of("  h264 "), "h264");
}

TEST(PolicyKey, FpsBandsQuantiseToTheFiveFpsGrid) {
  EXPECT_EQ(PolicyKey::fps_band_of(25.0), 25u);
  EXPECT_EQ(PolicyKey::fps_band_of(27.0), 25u);
  EXPECT_EQ(PolicyKey::fps_band_of(28.0), 30u);
  EXPECT_EQ(PolicyKey::fps_band_of(1.0), 5u);   // floor: never a zero band
  EXPECT_EQ(PolicyKey::fps_band_of(0.0), 5u);
}

TEST(PolicyKey, GovernorSpecCanonicalisesThroughSpecParsing) {
  EXPECT_EQ(PolicyKey::canonical_governor_spec("rtm( alpha = 0.25 )"),
            PolicyKey::canonical_governor_spec("rtm(alpha=0.25)"));
  // Display names that are not parseable specs survive verbatim.
  EXPECT_EQ(PolicyKey::canonical_governor_spec("rtm+thermal-cap"),
            "rtm+thermal-cap");
}

TEST(PolicyKey, FingerprintSeparatesEveryKeyComponent) {
  auto platform = hw::Platform::odroid_xu3_a15();
  const PolicyKey base = PolicyKey::make(*platform, "mpeg4", 25.0, "rtm");
  PolicyKey other = base;
  other.workload_class = "h264";
  EXPECT_NE(other.fingerprint(), base.fingerprint());
  other = base;
  other.fps_band = 30;
  EXPECT_NE(other.fingerprint(), base.fingerprint());
  other = base;
  other.governor_spec = "rtm(alpha=0.5)";
  EXPECT_NE(other.fingerprint(), base.fingerprint());
  other = base;
  other.platform_fingerprint ^= 1;
  EXPECT_NE(other.fingerprint(), base.fingerprint());
}

TEST(PolicyKey, FilenameIsSanitisedAndEmbedsTheFingerprint) {
  auto platform = hw::Platform::odroid_xu3_a15();
  const PolicyKey key =
      PolicyKey::make(*platform, "mpeg4", 25.0, "rtm(alpha=0.25)");
  const std::string name = key.filename();
  EXPECT_NE(name.find(".qpol"), std::string::npos);
  EXPECT_EQ(name.find('('), std::string::npos) << name;
  EXPECT_EQ(name.find('='), std::string::npos) << name;
}

// --- .qpol round-trip and corrupt-input rejection ----------------------------

TEST(PolicyEntryFile, RoundTripsExactly) {
  auto platform = hw::Platform::odroid_xu3_a15();
  const PolicyEntry entry = train_leaf(*platform, "rtm", 1, 2);
  EXPECT_EQ(entry.kind, PolicyBlobKind::kLeaf);
  EXPECT_GT(entry.provenance.visit_weight, 0u);
  EXPECT_EQ(entry.provenance.sources, 1u);

  const std::string path = temp_dir("roundtrip") + "/entry.qpol";
  entry.save_file(path);
  const PolicyEntry loaded = PolicyEntry::load_file(path);
  EXPECT_EQ(loaded.key, entry.key);
  EXPECT_EQ(loaded.governor_name, entry.governor_name);
  EXPECT_EQ(loaded.opp_count, entry.opp_count);
  EXPECT_EQ(loaded.core_count, entry.core_count);
  EXPECT_EQ(loaded.kind, entry.kind);
  EXPECT_EQ(loaded.provenance.visit_weight, entry.provenance.visit_weight);
  EXPECT_EQ(loaded.provenance.epochs_trained, entry.provenance.epochs_trained);
  EXPECT_EQ(loaded.provenance.sources, entry.provenance.sources);
  EXPECT_EQ(loaded.provenance.source_fingerprint,
            entry.provenance.source_fingerprint);
  EXPECT_EQ(loaded.blob, entry.blob);

  // save/load/save is byte-stable.
  const std::string again = temp_dir("roundtrip2") + "/entry.qpol";
  loaded.save_file(again);
  EXPECT_EQ(read_bytes(again), read_bytes(path));
}

TEST(PolicyEntryFile, RejectsHeaderKeyFingerprintSkew) {
  auto platform = hw::Platform::odroid_xu3_a15();
  const PolicyEntry entry = train_leaf(*platform, "rtm", 1, 2);
  const std::string dir = temp_dir("fingerprint-skew");
  const std::string path = dir + "/bad.qpol";
  entry.save_file(path);
  // The header key fingerprint (offset 24) disagrees with the payload's key.
  std::string bytes = read_bytes(path);
  bytes[24] = static_cast<char>(bytes[24] ^ 0x01);
  write_bytes(path, bytes);
  expect_qlib_error([&] { (void)PolicyEntry::load_file(path); },
                    "header key fingerprint");
}

TEST(PolicyEntryFile, StateForChecksTheGovernorName) {
  auto platform = hw::Platform::odroid_xu3_a15();
  const PolicyEntry entry = train_leaf(*platform, "rtm", 1, 2);
  const auto matching = sim::make_governor("rtm", 9);
  EXPECT_EQ(entry.state_for(*matching), entry.blob);
  const auto foreign = sim::make_governor("performance", 9);
  expect_qlib_error([&] { (void)entry.state_for(*foreign); }, "governor");
}

// --- PolicyLibrary -----------------------------------------------------------

TEST(PolicyLibrary, PutGetContainsListFind) {
  auto platform = hw::Platform::odroid_xu3_a15();
  const PolicyEntry entry = train_leaf(*platform, "rtm", 1, 2);
  const PolicyLibrary lib(temp_dir("library"));

  EXPECT_FALSE(lib.contains(entry.key));
  const std::string path = lib.put(entry);
  EXPECT_TRUE(lib.contains(entry.key));
  EXPECT_EQ(path, lib.path_for(entry.key));
  EXPECT_EQ(lib.list(), std::vector<std::string>{path});

  const PolicyEntry loaded = lib.get(entry.key);
  EXPECT_EQ(loaded.key, entry.key);
  EXPECT_EQ(loaded.blob, entry.blob);

  // put() of the same key replaces, not duplicates.
  (void)lib.put(entry);
  EXPECT_EQ(lib.list().size(), 1u);

  const auto matches =
      lib.find(entry.governor_name, entry.key.platform_fingerprint,
               entry.key.workload_class, entry.key.fps_band);
  ASSERT_EQ(matches.size(), 1u);
  EXPECT_EQ(matches.front().key, entry.key);
  EXPECT_TRUE(lib.find("nonesuch", entry.key.platform_fingerprint,
                       entry.key.workload_class, entry.key.fps_band)
                  .empty());
}

TEST(PolicyLibrary, MissingKeyAndTornFilesFailClosed) {
  auto platform = hw::Platform::odroid_xu3_a15();
  const PolicyEntry entry = train_leaf(*platform, "rtm", 1, 2);
  const PolicyLibrary lib(temp_dir("library-torn"));
  expect_qlib_error([&] { (void)lib.get(entry.key); }, "no entry");

  // A torn file in the directory surfaces as an error, never as silently
  // skipped knowledge.
  const std::string path = lib.put(entry);
  write_bytes(path, read_bytes(path).substr(0, 40));
  EXPECT_THROW((void)lib.entries(), QlibError);
  EXPECT_THROW((void)lib.get(entry.key), QlibError);
}

// --- Merge algebra -----------------------------------------------------------

TEST(MergeAlgebra, AssociativeAndOrderInvariant) {
  auto platform = hw::Platform::odroid_xu3_a15();
  const PolicyEntry a = train_leaf(*platform, "rtm", 1, 11);
  const PolicyEntry b = train_leaf(*platform, "rtm", 2, 12);
  const PolicyEntry c = train_leaf(*platform, "rtm", 3, 13);

  const PolicyEntry flat = merge_entries({a, b, c});
  EXPECT_EQ(flat.kind, PolicyBlobKind::kMerged);
  EXPECT_EQ(flat.provenance.sources, 3u);
  EXPECT_EQ(flat.provenance.epochs_trained,
            a.provenance.epochs_trained + b.provenance.epochs_trained +
                c.provenance.epochs_trained);
  EXPECT_EQ(flat.provenance.visit_weight,
            a.provenance.visit_weight + b.provenance.visit_weight +
                c.provenance.visit_weight);

  // Any order of the same leaves: identical bytes and provenance.
  const PolicyEntry reordered = merge_entries({c, a, b});
  EXPECT_EQ(reordered.blob, flat.blob);
  EXPECT_EQ(reordered.provenance.visit_weight, flat.provenance.visit_weight);
  EXPECT_EQ(reordered.provenance.source_fingerprint,
            flat.provenance.source_fingerprint);

  // Any grouping: merging a pre-merged accumulator with the remaining leaf
  // yields the same bytes as the flat fold.
  const PolicyEntry grouped = merge_entries({merge_entries({a, b}), c});
  EXPECT_EQ(grouped.blob, flat.blob);
  EXPECT_EQ(grouped.provenance.visit_weight, flat.provenance.visit_weight);
  EXPECT_EQ(grouped.provenance.sources, 3u);
  EXPECT_EQ(grouped.provenance.source_fingerprint,
            flat.provenance.source_fingerprint);
}

TEST(MergeAlgebra, LoadedAccumulatorReserialisesToTheSameBytes) {
  // A resumed fleet shard rebuilds each cell's merger from its checkpointed
  // accumulator and writes that merger's accumulator() into the next
  // summary, so a cell no device touches after the resume must come back
  // byte for byte.
  auto platform = hw::Platform::odroid_xu3_a15();
  const std::string bytes = merge_entries({train_leaf(*platform, "rtm", 1, 11),
                                           train_leaf(*platform, "rtm", 2, 12)})
                                .blob;
  auto merger = sim::make_governor("rtm", 0)->make_state_merger();
  ASSERT_NE(merger, nullptr);
  merger->add_accumulator(bytes);
  EXPECT_EQ(merger->accumulator(), bytes);
}

TEST(MergeAlgebra, CorruptAccumulatorsFailAsQlibErrorsAndFoldNothing) {
  auto platform = hw::Platform::odroid_xu3_a15();
  const PolicyEntry merged =
      merge_entries({train_leaf(*platform, "rtm", 1, 11),
                     train_leaf(*platform, "rtm", 2, 12)});
  const auto governor = sim::make_governor("rtm", 0);
  ASSERT_NO_THROW((void)merged.state_for(*governor));

  // An rtm-q accumulator whose 4x19 table claims 2^40 cells: the sums are
  // read as they come, so it fails on the short read instead of allocating
  // 16 TiB.
  std::ostringstream forged(std::ios::binary);
  common::StateWriter w(forged);
  w.str("rtm-q");
  w.u64(1);  // sources
  w.u64(1);  // weight
  w.boolean(true);
  w.vec_u64({4, 19});
  w.u64(std::uint64_t{1} << 40);
  PolicyEntry huge = merged;
  huge.blob = forged.str();
  expect_qlib_error([&] { (void)huge.state_for(*governor); },
                    "truncated payload");

  // A truncated accumulator is the policy's error, not a SerialError.
  PolicyEntry truncated = merged;
  truncated.blob.resize(merged.blob.size() - 1);
  expect_qlib_error([&] { (void)truncated.state_for(*governor); },
                    "state merge accumulator");

  // A rejected accumulator leaves the merger as it was.
  auto merger = governor->make_state_merger();
  merger->add_accumulator(merged.blob);
  for (const std::string& bad : {huge.blob, truncated.blob}) {
    EXPECT_THROW(merger->add_accumulator(bad), gov::StateMergeError);
    EXPECT_EQ(merger->accumulator(), merged.blob);
  }
}

TEST(MergeAlgebra, OverflowingAccumulatorsFailAsQlibErrorsAndFoldNothing) {
  auto platform = hw::Platform::odroid_xu3_a15();
  const PolicyEntry merged =
      merge_entries({train_leaf(*platform, "rtm", 1, 11),
                     train_leaf(*platform, "rtm", 2, 12)});

  // Rewrite the accumulator's first weighted-Q sum to 2^126 grid units: one
  // copy folds, but two sum past the 128-bit accumulator's range.
  std::istringstream in(merged.blob, std::ios::binary);
  common::StateReader r(in);
  (void)r.str();      // traits name
  (void)r.u64();      // sources
  (void)r.u64();      // weight
  ASSERT_TRUE(r.boolean());
  (void)r.vec_u64();  // dims
  ASSERT_GT(r.u64(), 0u);
  const auto at = static_cast<std::size_t>(in.tellg());
  std::ostringstream sum(std::ios::binary);
  common::StateWriter w(sum);
  w.u64(0);
  w.u64(std::uint64_t{1} << 62);
  PolicyEntry loaded = merged;
  loaded.blob.replace(at, sum.str().size(), sum.str());

  expect_qlib_error([&] { (void)merge_entries({loaded, loaded}); },
                    "exceeds");
  const auto governor = sim::make_governor("rtm", 0);
  auto merger = governor->make_state_merger();
  merger->add_accumulator(loaded.blob);
  EXPECT_EQ(merger->accumulator(), loaded.blob);
  EXPECT_THROW(merger->add_accumulator(loaded.blob), gov::StateMergeError);
  EXPECT_EQ(merger->accumulator(), loaded.blob);
}

TEST(MergeAlgebra, SelfMergeLeavesTheDecisionPolicyUnchanged) {
  auto platform = hw::Platform::odroid_xu3_a15();
  const PolicyEntry a = train_leaf(*platform, "rtm", 1, 11);

  // Merging an entry with itself doubles every visit weight and every
  // weighted Q sum by exactly a power of two, so the averaged Q-values —
  // and with them the greedy policy — are bit-identical. (The extracted
  // *payload* differs legitimately: visit counts are provenance and double.)
  const PolicyEntry once = merge_entries({a});
  const PolicyEntry twice = merge_entries({a, a});
  EXPECT_EQ(twice.provenance.visit_weight, 2 * once.provenance.visit_weight);
  EXPECT_EQ(twice.provenance.epochs_trained,
            2 * once.provenance.epochs_trained);
  // XOR provenance of a duplicated source cancels — documented behaviour.
  EXPECT_EQ(twice.provenance.source_fingerprint, 0u);

  const auto materialise = [&](const PolicyEntry& entry) {
    auto governor = sim::make_governor("rtm", 9);
    std::istringstream in(entry.state_for(*governor), std::ios::binary);
    governor->load_state(in);
    auto* rtm = dynamic_cast<rtm::RtmGovernor*>(governor.get());
    EXPECT_NE(rtm, nullptr);
    EXPECT_NE(rtm->q_table(), nullptr);
    return rtm->q_table()->greedy_policy();
  };
  EXPECT_EQ(materialise(once), materialise(twice));
}

TEST(MergeAlgebra, RejectsEveryIdentitySkewWithASpecificError) {
  auto platform = hw::Platform::odroid_xu3_a15();
  const PolicyEntry a = train_leaf(*platform, "rtm", 1, 11);

  EXPECT_THROW((void)merge_entries({}), QlibError);

  PolicyEntry b = a;
  b.governor_name = "other-governor";
  expect_qlib_error([&] { (void)merge_entries({a, b}); }, "governor");

  b = a;
  b.key.governor_spec = "rtm(alpha=0.97)";
  expect_qlib_error([&] { (void)merge_entries({a, b}); }, "spec");

  b = a;
  b.opp_count += 1;
  expect_qlib_error([&] { (void)merge_entries({a, b}); }, "action space");

  b = a;
  b.core_count += 1;
  expect_qlib_error([&] { (void)merge_entries({a, b}); }, "core count");

  b = a;
  b.key.platform_fingerprint ^= 1;
  expect_qlib_error([&] { (void)merge_entries({a, b}); },
                    "operating points");

  b = a;
  b.key.workload_class = "h264";
  EXPECT_THROW((void)merge_entries({a, b}), QlibError);
}

TEST(MergeAlgebra, NonMergeableGovernorsCannotMerge) {
  auto platform = hw::Platform::odroid_xu3_a15();
  const PolicyEntry entry = train_leaf(*platform, "performance", 1, 2);
  // Leaf publication of a non-mergeable governor works (weight 0) ...
  EXPECT_EQ(entry.provenance.visit_weight, 0u);
  // ... but fleet-merging it fails closed.
  expect_qlib_error([&] { (void)merge_entries({entry, entry}); },
                    "mergeable");
}

// --- Engine warm start -------------------------------------------------------

TEST(WarmStart, FromFileMatchesInProcessTransferExactly) {
  auto platform = hw::Platform::odroid_xu3_a15();
  const wl::Application first = make_app("mpeg4", 1, *platform);
  const wl::Application second = make_app("h264", 2, *platform);

  // In-process transfer (the PR 5 path): train, keep state, run app two.
  const auto transfer = sim::make_governor("rtm", 7);
  const sim::RunResult trained =
      sim::run_simulation(*platform, first, *transfer);
  sim::RunOptions keep;
  keep.reset_governor = false;
  const sim::RunResult reference =
      sim::run_simulation(*platform, second, *transfer, keep);

  // Library transfer: publish the same trained state, warm-start a fresh
  // governor instance from the file.
  const auto publisher = sim::make_governor("rtm", 7);
  (void)sim::run_simulation(*platform, first, *publisher);
  const PolicyEntry leaf = make_leaf_entry(*platform, *publisher, "h264",
                                           25.0, "rtm", trained.epoch_count);
  const std::string path = temp_dir("warm-file") + "/leaf.qpol";
  leaf.save_file(path);

  const auto fresh = sim::make_governor("rtm", 7);
  sim::RunOptions warm;
  warm.warm_start_from = path;
  const sim::RunResult result =
      sim::run_simulation(*platform, second, *fresh, warm);

  // Knowledge-only transfer, bit-identical trajectory.
  EXPECT_EQ(result.epoch_count, reference.epoch_count);
  EXPECT_EQ(result.deadline_misses, reference.deadline_misses);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(result.total_energy),
            std::bit_cast<std::uint64_t>(reference.total_energy));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(result.total_time),
            std::bit_cast<std::uint64_t>(reference.total_time));
}

TEST(WarmStart, DirectoryLookupFindsByRunIdentity) {
  auto platform = hw::Platform::odroid_xu3_a15();
  const std::string dir = temp_dir("warm-dir");
  const PolicyLibrary lib(dir);
  PolicyEntry leaf = train_leaf(*platform, "rtm", 1, 2, "mpeg4");
  (void)lib.put(leaf);

  const wl::Application app = make_app("mpeg4", 3, *platform);
  const auto governor = sim::make_governor("rtm", 9);
  sim::RunOptions warm;
  warm.warm_start_from = dir;
  EXPECT_NO_THROW((void)sim::run_simulation(*platform, app, *governor, warm));

  // A second spec variant under the same run identity makes the directory
  // lookup ambiguous: fail closed, tell the user to name the file.
  PolicyEntry variant = leaf;
  variant.key.governor_spec = "rtm(alpha=0.97)";
  (void)lib.put(variant);
  expect_qlib_error(
      [&] {
        const auto g = sim::make_governor("rtm", 9);
        (void)sim::run_simulation(*platform, app, *g, warm);
      },
      ".qpol");
}

TEST(WarmStart, MissingEntryAndIdentitySkewsFailClosed) {
  auto platform = hw::Platform::odroid_xu3_a15();
  const wl::Application app = make_app("mpeg4", 3, *platform);

  // Empty library: no entry for this run's identity.
  {
    const auto governor = sim::make_governor("rtm", 9);
    sim::RunOptions warm;
    warm.warm_start_from = temp_dir("warm-empty");
    expect_qlib_error(
        [&] { (void)sim::run_simulation(*platform, app, *governor, warm); },
        "no entry");
  }

  // A leaf of one governor cannot warm-start another.
  const PolicyEntry leaf = train_leaf(*platform, "rtm", 1, 2);
  const std::string path = temp_dir("warm-skew") + "/leaf.qpol";
  leaf.save_file(path);
  {
    const auto governor = sim::make_governor("ondemand", 9);
    sim::RunOptions warm;
    warm.warm_start_from = path;
    expect_qlib_error(
        [&] { (void)sim::run_simulation(*platform, app, *governor, warm); },
        "governor");
  }
}

TEST(WarmStart, MutuallyExclusiveWithResume) {
  auto platform = hw::Platform::odroid_xu3_a15();
  const wl::Application app = make_app("mpeg4", 3, *platform);
  const auto governor = sim::make_governor("rtm", 9);
  sim::RunOptions opt;
  opt.warm_start_from = "somewhere.qpol";
  opt.resume_from = "somewhere.ckpt";
  EXPECT_THROW((void)sim::run_simulation(*platform, app, *governor, opt),
               std::invalid_argument);
}

// --- QlibSink (publish path) -------------------------------------------------

TEST(QlibSink, PublishesALeafEntryAtRunEnd) {
  auto platform = hw::Platform::odroid_xu3_a15();
  const wl::Application app = make_app("mpeg4", 1, *platform);
  const auto governor = sim::make_governor("rtm", 7);

  const std::string dir = temp_dir("sink");
  QlibSink sink(dir);
  sink.set_governor_spec("rtm");
  sim::RunOptions opt;
  opt.sinks = {&sink};
  const sim::RunResult run =
      sim::run_simulation(*platform, app, *governor, opt);

  EXPECT_EQ(sink.published(), 1u);
  const PolicyLibrary lib(dir);
  const PolicyKey key = PolicyKey::make(*platform, "mpeg4", 25.0, "rtm");
  ASSERT_TRUE(lib.contains(key)) << sink.last_path();
  const PolicyEntry entry = lib.get(key);
  EXPECT_EQ(entry.kind, PolicyBlobKind::kLeaf);
  EXPECT_EQ(entry.provenance.epochs_trained, run.epoch_count);
  EXPECT_GT(entry.provenance.visit_weight, 0u);
}

TEST(QlibSink, ThrowsWhenUsedOutsideAnEngineRun) {
  QlibSink sink(temp_dir("sink-unbound"));
  sim::RunContext ctx;
  EXPECT_THROW(sink.on_run_begin(ctx), std::logic_error);
}

// --- Fleet merge differential ------------------------------------------------

fleet::PopulationSpec learning_population() {
  fleet::PopulationSpec pop;
  pop.governors = {"rtm", "performance"};
  pop.workloads = {"flat(mean=2e8,cv=0.1)"};
  pop.fps = {30.0};
  pop.devices_per_cell = 3;
  pop.frames = 20;
  pop.base_seed = 99;
  pop.energy_bins = 64;
  pop.miss_bins = 32;
  pop.perf_bins = 32;
  return pop;
}

/// The fleet policy bytes per cell, read back from the report's paths.
std::vector<std::string> policy_bytes(const fleet::PopulationReport& report) {
  std::vector<std::string> out;
  for (const auto& row : report.rows) {
    out.push_back(row.policy_path.empty() ? std::string()
                                          : read_bytes(row.policy_path));
  }
  return out;
}

TEST(FleetPolicyMerge, BitIdenticalAcrossShardCountsAndKillRetry) {
  const fleet::PopulationSpec pop = learning_population();

  // Reference: one shard, sequential in-process.
  fleet::FleetOptions seq;
  seq.shards = 1;
  seq.workers = 0;
  seq.out_dir = temp_dir("fleet-seq");
  fleet::FleetDriver seq_driver(seq);
  const fleet::PopulationReport reference = seq_driver.run(pop);
  const std::vector<std::string> ref_bytes = policy_bytes(reference);

  // The learning cell published a fleet policy; the non-learning cell
  // deterministically did not.
  ASSERT_EQ(reference.rows.size(), 2u);
  std::size_t published = 0;
  for (std::size_t i = 0; i < reference.rows.size(); ++i) {
    const auto& row = reference.rows[i];
    if (row.cell.governor == "rtm") {
      ASSERT_FALSE(row.policy_path.empty());
      const PolicyEntry entry = PolicyEntry::load_file(row.policy_path);
      EXPECT_EQ(entry.kind, PolicyBlobKind::kMerged);
      EXPECT_EQ(entry.provenance.sources, pop.devices_per_cell);
      EXPECT_GT(entry.provenance.visit_weight, 0u);
      ++published;
    } else {
      EXPECT_TRUE(row.policy_path.empty());
    }
  }
  EXPECT_EQ(published, 1u);

  // Same population, 3 shards: identical policy bytes.
  fleet::FleetOptions sharded;
  sharded.shards = 3;
  sharded.workers = 0;
  sharded.out_dir = temp_dir("fleet-sharded");
  fleet::FleetDriver sharded_driver(sharded);
  EXPECT_EQ(policy_bytes(sharded_driver.run(pop)), ref_bytes);

  // Same population, 2 shards across forked workers whose first attempts are
  // all killed after one device: the relaunch resumes the accumulator from
  // the shard checkpoint and the merged policy is still bit-identical.
  fleet::FleetOptions faulty;
  faulty.shards = 2;
  faulty.workers = 2;
  faulty.out_dir = temp_dir("fleet-faulty");
  faulty.checkpoint_every = 1;
  faulty.fail_first_attempt_after = 1;
  fleet::FleetDriver faulty_driver(faulty);
  EXPECT_EQ(policy_bytes(faulty_driver.run(pop)), ref_bytes);
  EXPECT_EQ(faulty_driver.retries_used(), 2u);

  // The warm-start consumer accepts the fleet policy end to end.
  auto platform = hw::Platform::odroid_xu3_a15();
  const wl::Application app =
      make_app("flat(mean=2e8,cv=0.1)", 5, *platform, 30.0, 40);
  const auto governor = sim::make_governor("rtm", 3);
  sim::RunOptions warm;
  warm.warm_start_from = seq.out_dir + "/qlib";
  EXPECT_NO_THROW((void)sim::run_simulation(*platform, app, *governor, warm));
}

TEST(FleetPolicyMerge, ShardSummaryPoliciesRoundTrip) {
  const fleet::PopulationSpec pop = learning_population();
  const std::string dir = temp_dir("summary-rt");
  fleet::Shard shard;
  shard.index = 0;
  shard.count = 1;
  shard.device_begin = 0;
  shard.device_end = pop.device_count();
  fleet::ShardRunnerOptions opts;
  opts.summary_path = dir + "/shard-0.fsum";
  const fleet::ShardSummary summary = fleet::run_shard(pop, shard, opts);

  ASSERT_EQ(summary.policies.size(), summary.cells.size());
  const fleet::ShardSummary loaded =
      fleet::ShardSummary::load_file(opts.summary_path);
  ASSERT_EQ(loaded.policies.size(), summary.policies.size());
  for (const auto& [cell, policy] : summary.policies) {
    const auto it = loaded.policies.find(cell);
    ASSERT_NE(it, loaded.policies.end());
    EXPECT_EQ(it->second.mergeable, policy.mergeable);
    EXPECT_EQ(it->second.shape.governor_name, policy.shape.governor_name);
    EXPECT_EQ(it->second.shape.opp_count, policy.shape.opp_count);
    EXPECT_EQ(it->second.shape.core_count, policy.shape.core_count);
    EXPECT_EQ(it->second.shape.platform_fingerprint,
              policy.shape.platform_fingerprint);
    EXPECT_EQ(it->second.epochs, policy.epochs);
    EXPECT_EQ(it->second.source_fingerprint, policy.source_fingerprint);
    EXPECT_EQ(it->second.accumulator, policy.accumulator);
  }
}

}  // namespace
}  // namespace prime::qlib

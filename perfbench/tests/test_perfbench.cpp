/// \file test_perfbench.cpp
/// \brief The benchmark's own tests: the percentile rule, digest stability,
///        a tiny pass of every workload whose output checks must pass, and
///        a drifted golden digest that must count as a failed operation.
///
/// Usage: perfbench_tests [digest-book]   (CTest passes perfbench/digests.txt)
#include <cmath>
#include <filesystem>
#include <iostream>
#include <string>

#include "bench.hpp"
#include "workloads.hpp"

namespace {

int g_failures = 0;

void expect(bool ok, const std::string& what) {
  if (!ok) {
    ++g_failures;
    std::cerr << "FAIL: " << what << "\n";
  }
}

void test_percentile_rule() {
  using perfbench::tail_percentile_for;
  expect(tail_percentile_for(0) == 0.0, "no samples: no percentile");
  expect(tail_percentile_for(19) == 0.0, "19 samples: median leaves 9.5");
  expect(tail_percentile_for(20) == 50.0, "20 samples: p50");
  expect(tail_percentile_for(99) == 50.0, "99 samples: p90 leaves 9.9");
  expect(tail_percentile_for(100) == 90.0, "100 samples: p90");
  expect(tail_percentile_for(999) == 90.0, "999 samples: p99 leaves 9.99");
  expect(tail_percentile_for(1000) == 99.0, "1000 samples: p99");
  expect(tail_percentile_for(10000) == 99.9, "10000 samples: p99.9");
  std::vector<double> v;
  for (int i = 1; i <= 101; ++i) v.push_back(i);
  expect(perfbench::percentile(v, 50.0) == 51.0, "p50 of 1..101");
  expect(perfbench::percentile(v, 99.0) == 100.0, "p99 of 1..101");
  expect(perfbench::median({3.0, 1.0, 2.0, 4.0}) == 2.5, "even median");
}

void test_digest_stability() {
  prime::sim::RunResult a;
  a.governor = "rtm-manycore";
  a.application = "h264";
  a.epoch_count = 3;
  a.total_energy = 0.1 + 0.2;
  a.deadline_misses = 1;
  prime::sim::RunResult b = a;
  expect(perfbench::digest_run(a) == perfbench::digest_run(b),
         "equal runs digest equal");
  b.total_energy = std::nextafter(a.total_energy, 1.0);
  expect(perfbench::digest_run(a) != perfbench::digest_run(b),
         "one ulp of energy changes the digest");
  // FNV-1a 64 reference value for "a".
  expect(perfbench::fnv_bytes("a") == 0xaf63dc4c8601ec8cULL,
         "FNV-1a of 'a' matches the reference");
  expect(perfbench::hex64(0xabcULL) == "0000000000000abc", "hex64 pads");

  const auto book = perfbench::DigestBook::parse(
      "# comment\nsolo-stream tiny 1 0123456789abcdef\n\n");
  const std::string* hit = book.find("solo-stream", "tiny", 1);
  expect(hit != nullptr && *hit == "0123456789abcdef", "book lookup");
  expect(book.find("solo-stream", "tiny", 2) == nullptr, "book miss");
  bool threw = false;
  try {
    (void)perfbench::DigestBook::parse("solo-stream tiny 1 xyz\n");
  } catch (const std::exception&) {
    threw = true;
  }
  expect(threw, "malformed digest line is rejected");
}

void test_self_time() {
  perfbench::Tracer t;
  const auto root = t.record("root", 0, 0, 100);
  t.record("child", root, 10, 30);
  t.record("child", root, 20, 50);   // overlaps the first child
  t.record("child", root, 90, 120);  // clipped to the parent's end
  const auto sum = t.summarize();
  expect(sum.at("root").total_ns == 100.0, "root total");
  expect(sum.at("root").self_ns == 100.0 - 40.0 - 10.0,
         "self time is span minus the union of children");
  expect(sum.at("child").spans == 3, "child count");
}

void test_tiny_workloads(const std::string& digests) {
  perfbench::DigestBook book;
  if (!digests.empty()) book = perfbench::DigestBook::load(digests);
  const auto dir = std::filesystem::temp_directory_path() /
                   ("perfbench-tests-" + std::to_string(::getpid()));
  for (const std::string& w : perfbench::workload_names()) {
    for (const bool trace : {false, true}) {
      perfbench::Options opt;
      opt.workload = w;
      opt.seed = 1;
      opt.seconds = 0.0;
      opt.trace = trace;
      opt.size = "tiny";
      opt.work_dir = (dir / w).string();
      opt.digests = &book;
      opt.golden = !digests.empty();
      perfbench::Tracer tracer;
      const perfbench::Result r = perfbench::run_workload(opt, tracer);
      const std::string tag = w + (trace ? " traced" : "");
      expect(r.ledger.checks > 0, tag + ": ran output checks");
      expect(r.ledger.checks_failed == 0 && r.ledger.failed == 0,
             tag + ": every check and operation passed" +
                 (r.ledger.failures.empty() ? ""
                                            : " (" + r.ledger.failures[0] + ")"));
      if (!digests.empty()) {
        expect(r.info.count("digest_recorded") == 1,
               tag + ": digest recorded in the book");
      }
      const auto& names = trace ? perfbench::per_layer_names()
                                : perfbench::end_to_end_names();
      for (const std::string& m : names) {
        expect(r.metrics.count(m) == 1, tag + ": reports " + m);
      }
      expect(r.metrics.size() == names.size(),
             tag + ": reports no unlisted metric");
      if (!trace) {
        for (const std::string& m : names) {
          expect(r.metrics.at(m) > 0.0, tag + ": " + m + " is positive");
        }
      } else {
        expect(!tracer.spans().empty(), tag + ": recorded spans");
      }
    }
  }
  std::filesystem::remove_all(dir);
}

/// A wrong golden digest must fail the run and count in failed_ops_ratio,
/// although the run's own seed has no recorded digest to check against.
void test_golden_drift_counts() {
  const auto book = perfbench::DigestBook::parse(
      "solo-stream tiny 1 0000000000000000\n");
  const auto dir = std::filesystem::temp_directory_path() /
                   ("perfbench-golden-" + std::to_string(::getpid()));
  for (const bool trace : {false, true}) {
    perfbench::Options opt;
    opt.workload = "solo-stream";
    opt.seed = 2;
    opt.seconds = 0.0;
    opt.trace = trace;
    opt.size = "tiny";
    opt.work_dir = dir.string();
    opt.digests = &book;
    opt.golden = true;
    perfbench::Tracer tracer;
    const perfbench::Result r = perfbench::run_workload(opt, tracer);
    const std::string tag = trace ? "golden drift, traced" : "golden drift";
    expect(r.ledger.checks_failed == 1 && r.ledger.failed == 1,
           tag + ": exactly the golden digest check failed");
    const double ratio = trace ? r.metrics.at("failed_ops_ratio")
                               : r.info.at("failed_ops_ratio");
    expect(ratio > 0.0, tag + ": failed_ops_ratio counts the golden check");
  }
  std::filesystem::remove_all(dir);
}

}  // namespace

int main(int argc, char** argv) {
  test_percentile_rule();
  test_digest_stability();
  test_self_time();
  test_tiny_workloads(argc > 1 ? argv[1] : "");
  test_golden_drift_counts();
  if (g_failures == 0) std::cout << "perfbench_tests: all passed\n";
  return g_failures == 0 ? 0 : 1;
}

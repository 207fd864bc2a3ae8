/// \file main.cpp
/// \brief Benchmark binary: runs one workload and prints one JSON line
///        with the output-check tally, the metric values and side data.
///
/// Usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
///                  [--size full|tiny] [--work-dir <dir>] [--digests <file>]
///                  [--trace-out <file>]
///
/// perfbench/run.py builds this binary and is the benchmark's entry point.
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <string>

#include "bench.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

volatile std::uint64_t g_calibration_sink = 0;

/// Nanoseconds of a fixed integer loop (median of five), so results from
/// hosts of different speed or load can be told apart.
double calibration_ns() {
  std::vector<double> samples;
  for (int rep = 0; rep < 5; ++rep) {
    std::uint64_t x = 0x9E3779B97F4A7C15ULL;
    const std::int64_t t0 = now_ns();
    for (int i = 0; i < 5'000'000; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
    }
    const std::int64_t t1 = now_ns();
    g_calibration_sink = x;
    samples.push_back(static_cast<double>(t1 - t0));
  }
  return median(samples);
}

std::string fingerprint_json() {
  return std::string("{\"compiler\":\"") + json_escape(PERFBENCH_COMPILER) +
         "\",\"build_type\":\"" + json_escape(PERFBENCH_BUILD_TYPE) +
         "\",\"calibration_ns\":" + json_number(calibration_ns()) + "}";
}

std::string map_json(const std::map<std::string, double>& m) {
  std::string out = "{";
  bool first = true;
  for (const auto& [k, v] : m) {
    if (!first) out += ',';
    first = false;
    out += "\"" + json_escape(k) + "\":" + json_number(v);
  }
  return out + "}";
}

int usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--size full|tiny] [--work-dir <dir>] "
               "[--digests <file>] [--trace-out <file>]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0 || i + 1 >= argc) {
      return usage("bad argument '" + key + "'");
    }
    args[key.substr(2)] = argv[++i];
  }
  try {
    Options opt;
    opt.workload = args["workload"];
    opt.seed = std::stoull(args.count("seed") ? args["seed"] : "1");
    opt.seconds = std::stod(args.count("seconds") ? args["seconds"] : "10");
    opt.trace = args.count("trace") && args["trace"] == "1";
    opt.size = args.count("size") ? args["size"] : "full";
    opt.work_dir = args.count("work-dir") ? args["work-dir"] : "perfbench-work";
    if (opt.size != "full" && opt.size != "tiny") {
      return usage("--size must be full or tiny");
    }
    bool known = false;
    for (const std::string& w : workload_names()) known |= w == opt.workload;
    if (!known) return usage("unknown workload '" + opt.workload + "'");
    DigestBook book;
    if (args.count("digests")) book = DigestBook::load(args["digests"]);
    opt.digests = &book;
    opt.golden = opt.size == "full";
    std::filesystem::create_directories(opt.work_dir);

    Tracer tracer;
    const Result result = run_workload(opt, tracer);
    if (opt.trace && args.count("trace-out")) {
      std::ofstream out(args["trace-out"]);
      out << tracer.to_json() << "\n";
      if (!out) throw std::runtime_error("cannot write the trace file");
    }

    std::string failures = "[";
    for (std::size_t i = 0; i < result.ledger.failures.size(); ++i) {
      if (i > 0) failures += ',';
      failures += "\"" + json_escape(result.ledger.failures[i]) + "\"";
    }
    failures += "]";
    std::cout << "{\"correct\":"
              << (result.ledger.checks_failed == 0 ? "true" : "false")
              << ",\"attempted\":" << result.ledger.attempted
              << ",\"failed\":" << result.ledger.failed
              << ",\"checks\":" << result.ledger.checks
              << ",\"metrics\":" << map_json(result.metrics)
              << ",\"info\":" << map_json(result.info) << ",\"digest\":\""
              << result.digest << "\",\"golden_digest\":\"" << result.golden_digest
              << "\",\"failures\":" << failures
              << ",\"fingerprint\":" << fingerprint_json() << "}" << std::endl;
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}

/// \file bench.hpp
/// \brief Shared pieces of the benchmark program: clocks, process counters,
///        the percentile rule, output digests, the ops/check ledger, the
///        span tracer and the result record every workload fills.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "sim/engine.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Nanoseconds on the steady clock since an arbitrary fixed origin.
[[nodiscard]] std::int64_t now_ns();
[[nodiscard]] double seconds_since(Clock::time_point start);

/// Process CPU time (user + sys) of this process plus its waited-for
/// children, in nanoseconds.
[[nodiscard]] double cpu_ns_self_and_children();
/// Peak resident set of this process or its largest waited-for child, MB.
[[nodiscard]] double peak_rss_mb();

[[nodiscard]] double median(std::vector<double> values);
/// Linear-interpolated percentile \p p in [0, 100] of \p values.
[[nodiscard]] double percentile(std::vector<double> values, double p);
/// The highest of the percentiles 50, 90, 99, 99.9 and 99.99 that leaves at
/// least ten of \p n samples beyond it; 0 when even the median does not.
[[nodiscard]] double tail_percentile_for(std::size_t n);

/// FNV-1a over the bits of every RunResult aggregate (counts as u64, sums as
/// f64 bit patterns) plus the identity labels.
void digest_run(std::uint64_t& h, const prime::sim::RunResult& run);
[[nodiscard]] std::uint64_t digest_run(const prime::sim::RunResult& run);
[[nodiscard]] std::uint64_t fnv_bytes(const std::string& bytes);
[[nodiscard]] std::uint64_t fnv_file(const std::string& path);
[[nodiscard]] std::string hex64(std::uint64_t v);

/// Attempted/failed operations plus the subset that are output checks.
/// Operations are runs, devices, snapshot requests and output checks.
struct Ledger {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t checks = 0;
  std::uint64_t checks_failed = 0;
  std::vector<std::string> failures;  ///< First few failure messages.

  void op(bool ok, const std::string& what);
  void ops(std::uint64_t n) { attempted += n; }
  /// An output check: counts as an operation and as a check.
  bool check(bool ok, const std::string& what);
};

/// Recorded golden digests, keyed "<workload> <size> <seed>".
class DigestBook {
 public:
  DigestBook() = default;
  /// Parses lines "<workload> <size> <seed> <hex digest>"; '#' starts a
  /// comment. Throws std::runtime_error on a malformed line.
  static DigestBook parse(const std::string& text);
  static DigestBook load(const std::string& path);
  [[nodiscard]] const std::string* find(const std::string& workload,
                                        const std::string& size,
                                        std::uint64_t seed) const;

 private:
  std::map<std::string, std::string> entries_;
};

/// One span: a named interval with the id of the span that caused it
/// (0 = root). Spans live in memory and are written out when a run ends.
struct Span {
  std::uint32_t id = 0;
  std::uint32_t parent = 0;
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// Span and count recorder for the traced run. Spans past \p max_spans are
/// dropped (and counted), so memory stays bounded at any run length; the
/// callers additionally sample hot-path spans every Nth epoch.
class Tracer {
 public:
  explicit Tracer(std::size_t max_spans = 200000);

  std::uint32_t begin(const char* name, std::uint32_t parent = 0);
  void end(std::uint32_t id) { end_at(id, now_ns()); }
  /// Close span \p id at \p end_ns (a no-op for a dropped span, id 0).
  void end_at(std::uint32_t id, std::int64_t end_ns);
  /// Record a finished interval.
  std::uint32_t record(const char* name, std::uint32_t parent,
                       std::int64_t start_ns, std::int64_t end_ns);
  void count(const std::string& name, std::uint64_t n = 1) {
    counts_[name] += n;
  }

  [[nodiscard]] const std::vector<Span>& spans() const noexcept {
    return spans_;
  }
  [[nodiscard]] const std::map<std::string, std::uint64_t>& counts()
      const noexcept {
    return counts_;
  }
  [[nodiscard]] std::uint64_t dropped() const noexcept { return dropped_; }

  struct NameSummary {
    std::uint64_t spans = 0;
    double total_ns = 0.0;
    double self_ns = 0.0;  ///< Duration minus the part children cover.
  };
  /// Per span name: count, total and self time (span minus the union of
  /// its children's intervals).
  [[nodiscard]] std::map<std::string, NameSummary> summarize() const;
  /// The whole trace as JSON: spans, counts and the per-name summary.
  [[nodiscard]] std::string to_json() const;

 private:
  std::vector<Span> spans_;
  std::map<std::string, std::uint64_t> counts_;
  std::size_t max_spans_;
  std::uint64_t dropped_ = 0;
};

/// What one workload invocation produced.
struct Result {
  Ledger ledger;
  std::map<std::string, double> metrics;  ///< Reported metric values.
  std::map<std::string, double> info;     ///< Sample counts and side data.
  std::string digest;                     ///< Output digest of one job.
  std::string golden_digest;              ///< Digest of the golden job.
};

/// Options shared by every workload.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string size = "full";   ///< "full" or "tiny" (tests, golden check).
  std::string work_dir;        ///< Directory for the run's artifacts.
  const DigestBook* digests = nullptr;
  /// Also run the golden job: the tiny seed-1 job, whose digest must be in
  /// the book, so output drift shows whatever seed the run was given.
  bool golden = false;
};

/// Minimal JSON string escaping for names and messages.
[[nodiscard]] std::string json_escape(const std::string& s);
/// A double with all its digits ("%.17g"); non-finite values become 0.
[[nodiscard]] std::string json_number(double v);

}  // namespace perfbench

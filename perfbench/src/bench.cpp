#include "bench.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "common/hash.hpp"

namespace perfbench {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

namespace {
double tv_ns(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) * 1e9 +
         static_cast<double>(tv.tv_usec) * 1e3;
}
}  // namespace

double cpu_ns_self_and_children() {
  rusage self{};
  rusage kids{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &kids);
  return tv_ns(self.ru_utime) + tv_ns(self.ru_stime) + tv_ns(kids.ru_utime) +
         tv_ns(kids.ru_stime);
}

double peak_rss_mb() {
  // VmHWM, not RUSAGE_SELF: Linux carries ru_maxrss across execve, so the
  // latter would report the launching process's peak when that was larger.
  long self_kb = -1;
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      self_kb = std::strtol(line.c_str() + 6, nullptr, 10);
      break;
    }
  }
  rusage self{};
  rusage kids{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &kids);
  if (self_kb < 0) self_kb = self.ru_maxrss;
  // ru_maxrss is in kilobytes on Linux.
  return static_cast<double>(std::max(self_kb, kids.ru_maxrss)) / 1024.0;
}

double median(std::vector<double> values) { return percentile(values, 50.0); }

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = (p / 100.0) * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double tail_percentile_for(std::size_t n) {
  double best = 0.0;
  for (const double p : {50.0, 90.0, 99.0, 99.9, 99.99}) {
    // Samples strictly beyond the p-th percentile: n * (1 - p/100), counted
    // with a small tolerance so 1000 samples qualify for p99 exactly.
    if (static_cast<double>(n) * (1.0 - p / 100.0) >= 10.0 - 1e-9) best = p;
  }
  return best;
}

void digest_run(std::uint64_t& h, const prime::sim::RunResult& run) {
  prime::common::Fnv1a64 f;
  f.u64(h);
  f.token(run.governor);
  f.token(run.application);
  f.u64(run.epoch_count);
  f.f64(run.total_energy);
  f.f64(run.measured_energy);
  f.f64(run.total_time);
  f.u64(run.deadline_misses);
  f.f64(run.performance_sum);
  f.f64(run.power_sum);
  h = f.value();
}

std::uint64_t digest_run(const prime::sim::RunResult& run) {
  std::uint64_t h = prime::common::Fnv1a64::kOffsetBasis;
  digest_run(h, run);
  return h;
}

std::uint64_t fnv_bytes(const std::string& bytes) {
  prime::common::Fnv1a64 f;
  f.bytes(bytes.data(), bytes.size());
  return f.value();
}

std::uint64_t fnv_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read '" + path + "'");
  prime::common::Fnv1a64 f;
  std::vector<char> buf(1 << 16);
  while (in) {
    in.read(buf.data(), static_cast<std::streamsize>(buf.size()));
    f.bytes(buf.data(), static_cast<std::size_t>(in.gcount()));
  }
  return f.value();
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

void Ledger::op(bool ok, const std::string& what) {
  ++attempted;
  if (!ok) {
    ++failed;
    if (failures.size() < 8) failures.push_back(what);
  }
}

bool Ledger::check(bool ok, const std::string& what) {
  op(ok, what);
  ++checks;
  if (!ok) ++checks_failed;
  return ok;
}

DigestBook DigestBook::parse(const std::string& text) {
  DigestBook book;
  std::istringstream in(text);
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    std::istringstream fields(line);
    std::string workload, size, seed, digest, extra;
    if (!(fields >> workload)) continue;
    if (!(fields >> size >> seed >> digest) || (fields >> extra) ||
        digest.size() != 16 ||
        digest.find_first_not_of("0123456789abcdef") != std::string::npos ||
        seed.find_first_not_of("0123456789") != std::string::npos) {
      throw std::runtime_error("digest book line " + std::to_string(line_no) +
                               ": expected '<workload> <size> <seed> "
                               "<16 hex digits>'");
    }
    book.entries_[workload + " " + size + " " + seed] = digest;
  }
  return book;
}

DigestBook DigestBook::load(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read digest book '" + path + "'");
  std::stringstream ss;
  ss << in.rdbuf();
  return parse(ss.str());
}

const std::string* DigestBook::find(const std::string& workload,
                                    const std::string& size,
                                    std::uint64_t seed) const {
  const auto it =
      entries_.find(workload + " " + size + " " + std::to_string(seed));
  return it == entries_.end() ? nullptr : &it->second;
}

Tracer::Tracer(std::size_t max_spans) : max_spans_(max_spans) {
  spans_.reserve(std::min<std::size_t>(max_spans, 4096));
}

std::uint32_t Tracer::begin(const char* name, std::uint32_t parent) {
  return record(name, parent, now_ns(), -1);
}

void Tracer::end_at(std::uint32_t id, std::int64_t end_ns) {
  if (id == 0 || id > spans_.size()) return;
  spans_[id - 1].end_ns = end_ns;
}

std::uint32_t Tracer::record(const char* name, std::uint32_t parent,
                             std::int64_t start_ns, std::int64_t end_ns) {
  if (spans_.size() >= max_spans_) {
    ++dropped_;
    return 0;
  }
  Span s;
  s.id = static_cast<std::uint32_t>(spans_.size() + 1);
  s.parent = parent;
  s.name = name;
  s.start_ns = start_ns;
  s.end_ns = end_ns;
  spans_.push_back(s);
  return s.id;
}

std::map<std::string, Tracer::NameSummary> Tracer::summarize() const {
  std::vector<std::vector<std::uint32_t>> children(spans_.size() + 1);
  for (const Span& s : spans_) {
    if (s.parent != 0 && s.parent <= spans_.size()) {
      children[s.parent].push_back(s.id);
    }
  }
  std::map<std::string, NameSummary> out;
  for (const Span& s : spans_) {
    if (s.end_ns < s.start_ns) continue;  // never closed
    const double dur = static_cast<double>(s.end_ns - s.start_ns);
    // Union of the children's intervals clipped to this span.
    std::vector<std::pair<std::int64_t, std::int64_t>> iv;
    for (const std::uint32_t c : children[s.id]) {
      const Span& k = spans_[c - 1];
      if (k.end_ns < k.start_ns) continue;
      const std::int64_t a = std::max(k.start_ns, s.start_ns);
      const std::int64_t b = std::min(k.end_ns, s.end_ns);
      if (b > a) iv.emplace_back(a, b);
    }
    std::sort(iv.begin(), iv.end());
    double covered = 0.0;
    std::int64_t cur_a = 0;
    std::int64_t cur_b = -1;
    for (const auto& [a, b] : iv) {
      if (cur_b < cur_a || a > cur_b) {
        if (cur_b > cur_a) covered += static_cast<double>(cur_b - cur_a);
        cur_a = a;
        cur_b = b;
      } else {
        cur_b = std::max(cur_b, b);
      }
    }
    if (cur_b > cur_a) covered += static_cast<double>(cur_b - cur_a);
    NameSummary& sum = out[s.name];
    ++sum.spans;
    sum.total_ns += dur;
    sum.self_ns += dur - covered;
  }
  return out;
}

std::string Tracer::to_json() const {
  std::string out = "{\"spans\":[";
  bool first = true;
  for (const Span& s : spans_) {
    if (!first) out += ',';
    first = false;
    out += "{\"id\":" + std::to_string(s.id) +
           ",\"parent\":" + std::to_string(s.parent) + ",\"name\":\"" +
           json_escape(s.name) + "\",\"start_ns\":" +
           std::to_string(s.start_ns) +
           ",\"end_ns\":" + std::to_string(s.end_ns) + "}";
  }
  out += "],\"dropped_spans\":" + std::to_string(dropped_) + ",\"counts\":{";
  first = true;
  for (const auto& [name, n] : counts_) {
    if (!first) out += ',';
    first = false;
    out += '"';
    out += json_escape(name);
    out += "\":";
    out += std::to_string(n);
  }
  out += "},\"summary\":{";
  first = true;
  for (const auto& [name, s] : summarize()) {
    if (!first) out += ',';
    first = false;
    out += '"';
    out += json_escape(name);
    out += "\":{\"spans\":";
    out += std::to_string(s.spans);
    out += ",\"total_ns\":";
    out += json_number(s.total_ns);
    out += ",\"self_ns\":";
    out += json_number(s.self_ns);
    out += '}';
  }
  out += "}}";
  return out;
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace perfbench

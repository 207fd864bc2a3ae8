/// \file dashboard.cpp
/// \brief DashboardSink: live snapshot state, JSON rendering, HTTP handlers.

#include "sim/dashboard.hpp"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <utility>

#include "common/spec.hpp"
#include "common/strings.hpp"
#include "sim/bintrace.hpp"
#include "sim/run_binding.hpp"

namespace prime::sim {

namespace {

/// \brief Round-trip exact, so bit-identical values render byte-identically
///        — what the dashboard-vs-aggregate differential compares.
std::string json_f64(double value) { return common::format_exact(value); }

std::string json_u64(std::uint64_t value) { return std::to_string(value); }

/// \brief JSON string literal with the mandatory escapes (names only pass
///        through here; they are short and almost always plain ASCII).
std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
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
  out += '"';
  return out;
}

/// \brief Strict u64 query-parameter parse; returns false on any non-digit,
///        empty value or overflow (the handler answers 400, not a guess).
bool parse_query_u64(const std::string& text, std::uint64_t& out) {
  if (text.empty() ||
      text.find_first_not_of("0123456789") != std::string::npos) {
    return false;
  }
  errno = 0;
  char* end = nullptr;
  const unsigned long long value = std::strtoull(text.c_str(), &end, 10);
  if (errno == ERANGE || end != text.c_str() + text.size()) return false;
  out = value;
  return true;
}

}  // namespace

std::string snapshot_aggregates_json(const RunResult& result) {
  std::string out = "{";
  out += "\"epoch_count\":" + json_u64(result.epoch_count);
  out += ",\"total_energy\":" + json_f64(result.total_energy);
  out += ",\"measured_energy\":" + json_f64(result.measured_energy);
  out += ",\"total_time\":" + json_f64(result.total_time);
  out += ",\"deadline_misses\":" + json_u64(result.deadline_misses);
  out += ",\"performance_sum\":" + json_f64(result.performance_sum);
  out += ",\"power_sum\":" + json_f64(result.power_sum);
  out += ",\"mean_normalized_performance\":" +
         json_f64(result.mean_normalized_performance());
  out += ",\"miss_rate\":" + json_f64(result.miss_rate());
  out += ",\"mean_power\":" + json_f64(result.mean_power());
  out += "}";
  return out;
}

std::string epoch_record_json(const EpochRecord& record) {
  std::string out = "{";
  out += "\"epoch\":" + json_u64(record.epoch);
  out += ",\"period\":" + json_f64(record.period);
  out += ",\"opp_index\":" + json_u64(record.opp_index);
  out += ",\"frequency\":" + json_f64(record.frequency);
  out += ",\"demand\":" + json_u64(record.demand);
  out += ",\"executed\":" + json_u64(record.executed);
  out += ",\"frame_time\":" + json_f64(record.frame_time);
  out += ",\"window\":" + json_f64(record.window);
  out += ",\"energy\":" + json_f64(record.energy);
  out += ",\"sensor_power\":" + json_f64(record.sensor_power);
  out += ",\"temperature\":" + json_f64(record.temperature);
  out += ",\"slack\":" + json_f64(record.slack);
  out += ",\"deadline_met\":";
  out += record.deadline_met ? "true" : "false";
  out += "}";
  return out;
}

DashboardSink::DashboardSink(std::uint16_t port, std::size_t every,
                             std::size_t tail_n, std::string bt_path)
    : port_(port),
      every_(every == 0 ? 1 : every),
      tail_n_(tail_n),
      spec_bt_path_(std::move(bt_path)) {}

DashboardSink::~DashboardSink() {
  // Joining the server thread before any member dies: next_chunk closures
  // and handlers reference the sink's state.
  if (server_) server_->stop();
}

void DashboardSink::on_run_begin(const RunContext& ctx) {
  // Lazy bind (the CsvSink contract): the port is taken only once a run
  // actually starts, never by a trial-constructed, discarded sink. A bind
  // failure (port in use) aborts the run loudly here.
  std::unique_ptr<common::HttpServer> server;
  if (!server_) {
    server = std::make_unique<common::HttpServer>(
        port_, [this](const common::HttpRequest& req) { return handle(req); });
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (server) server_ = std::move(server);
  state_ = "running";
  ctx_ = ctx;
  bound_bt_path_ = run_ != nullptr ? run_->trace_path : std::string();
  live_ = RunResult{};
  live_.governor = ctx.governor;
  live_.application = ctx.application;
  residency_.clear();
  if (tail_n_ > 0) {
    tail_.emplace(tail_n_);
  } else {
    tail_.reset();
  }
  ++version_;
}

void DashboardSink::on_epoch(const EpochRecord& record, gov::Governor&) {
  std::lock_guard<std::mutex> lock(mu_);
  live_.accumulate(record);
  // Bound, every domain's live OPP counts (set before the epoch executed,
  // untouched until the next decision); unbound, the record's opp_index.
  const std::size_t domains =
      run_ != nullptr ? run_->platform.domain_count() : 1;
  if (residency_.size() < domains) residency_.resize(domains);
  for (std::size_t d = 0; d < domains; ++d) {
    const std::size_t opp = run_ != nullptr
                                ? run_->platform.domain(d).current_opp_index()
                                : record.opp_index;
    if (residency_[d].size() <= opp) residency_[d].resize(opp + 1, 0);
    ++residency_[d][opp];
  }
  if (tail_) tail_->push(record);
  if (live_.epoch_count % every_ == 0) ++version_;
}

void DashboardSink::on_run_end(const RunResult& result) {
  std::lock_guard<std::mutex> lock(mu_);
  // The engine's result is the final truth (it carries measured_energy and,
  // on resumed runs, the restored pre-resume aggregates).
  live_ = result;
  state_ = "finished";
  ++runs_completed_;
  ++version_;
}

void DashboardSink::bind(const RunBinding* run) {
  std::lock_guard<std::mutex> lock(mu_);
  run_ = run;
}

std::uint16_t DashboardSink::bound_port() const {
  std::lock_guard<std::mutex> lock(mu_);
  return server_ ? server_->port() : 0;
}

std::uint64_t DashboardSink::requests_served() const {
  std::lock_guard<std::mutex> lock(mu_);
  return server_ ? server_->requests_served() : 0;
}

std::string DashboardSink::snapshot_json() const {
  std::lock_guard<std::mutex> lock(mu_);
  return render_snapshot_locked();
}

std::string DashboardSink::render_snapshot_locked() const {
  std::string out = "{";
  out += "\"governor\":" + json_string(ctx_.governor);
  out += ",\"application\":" + json_string(ctx_.application);
  out += ",\"state\":" + json_string(state_);
  out += ",\"runs_completed\":" + json_u64(runs_completed_);
  out += ",\"planned_frames\":" + json_u64(ctx_.frames);
  out += ",\"aggregates\":" + snapshot_aggregates_json(live_);
  out += ",\"opp_residency\":[";
  for (std::size_t d = 0; d < residency_.size(); ++d) {
    if (d > 0) out += ',';
    out += '[';
    for (std::size_t i = 0; i < residency_[d].size(); ++i) {
      if (i > 0) out += ',';
      out += json_u64(residency_[d][i]);
    }
    out += ']';
  }
  out += "],\"tail\":[";
  if (tail_) {
    for (std::size_t i = 0; i < tail_->size(); ++i) {
      if (i > 0) out += ',';
      out += epoch_record_json((*tail_)[i]);
    }
  }
  out += "]}";
  return out;
}

common::HttpResponse DashboardSink::handle(const common::HttpRequest& req) {
  common::HttpResponse resp;
  if (req.path == "/snapshot") {
    resp.body = snapshot_json();
    resp.body += '\n';
    return resp;
  }
  if (req.path == "/events") {
    resp.content_type = "text/event-stream";
    std::uint64_t last_version;
    {
      std::lock_guard<std::mutex> lock(mu_);
      last_version = version_;
      resp.body = "data: " + render_snapshot_locked() + "\n\n";
    }
    resp.next_chunk = [this, last_version](std::string& chunk) mutable {
      std::lock_guard<std::mutex> lock(mu_);
      if (version_ == last_version) {
        // Nothing new since the last tick (run finished, or a quiet
        // stretch): emit an SSE comment heartbeat. Clients ignore it, but
        // the send fails on a dead peer, so an abandoned watcher's
        // connection closes instead of lingering until the sink dies.
        chunk = ": keep-alive\n\n";
        return true;
      }
      last_version = version_;
      chunk = "data: " + render_snapshot_locked() + "\n\n";
      return true;
    };
    return resp;
  }
  if (req.path == "/window") return handle_window(req);
  resp.status = 404;
  resp.content_type = "text/plain";
  resp.body = "unknown path '" + req.path +
              "' — try /snapshot, /events or /window?from=0&count=32\n";
  return resp;
}

common::HttpResponse DashboardSink::handle_window(
    const common::HttpRequest& req) {
  common::HttpResponse resp;
  std::string bt_path;
  {
    std::lock_guard<std::mutex> lock(mu_);
    bt_path = spec_bt_path_.empty() ? bound_bt_path_ : spec_bt_path_;
  }
  if (bt_path.empty()) {
    resp.status = 404;
    resp.content_type = "text/plain";
    resp.body = "no live .bt trace: attach a bintrace(path=...) sink to the "
                "same run, or give the dashboard a bt= path\n";
    return resp;
  }
  std::uint64_t from = 0;
  std::uint64_t count = 32;
  if (!parse_query_u64(req.query_get("from", "0"), from) ||
      !parse_query_u64(req.query_get("count", "32"), count)) {
    resp.status = 400;
    resp.content_type = "text/plain";
    resp.body = "from= and count= must be unsigned integers\n";
    return resp;
  }
  // Cap the reply: a window is a page of scroll-back, not a bulk export
  // (trace_tool converts whole files).
  constexpr std::uint64_t kMaxWindow = 4096;
  if (count > kMaxWindow) count = kMaxWindow;
  try {
    // A fresh follow-mode reader per request: O(1) header read + one seek
    // per record, and every request observes the current file state.
    BinTraceReader reader = BinTraceReader::follow(bt_path);
    const std::uint64_t total = reader.record_count();
    if (from > total) from = total;
    if (count > total - from) count = total - from;
    std::string body = "{";
    body += "\"path\":" + json_string(reader.path());
    body += ",\"record_count\":" + json_u64(total);
    body += ",\"sealed\":";
    body += reader.sealed() ? "true" : "false";
    body += ",\"from\":" + json_u64(from);
    body += ",\"records\":[";
    for (std::uint64_t i = 0; i < count; ++i) {
      if (i > 0) body += ',';
      body += epoch_record_json(reader.at(static_cast<std::size_t>(from + i)));
    }
    body += "]}\n";
    resp.body = std::move(body);
  } catch (const BinTraceError& e) {
    // Routine early in a run: the producer may not have flushed the header
    // yet. 503 tells a poller to retry, unlike a handler bug's 500.
    resp.status = 503;
    resp.content_type = "text/plain";
    resp.body = std::string(e.what()) + "\n";
  }
  return resp;
}

// --- Registry entry ----------------------------------------------------------

namespace {

const TelemetrySinkRegistrar reg_dashboard{
    telemetry_registry(), "dashboard",
    "live HTTP/SSE snapshot server: "
    "dashboard(port=8080,every=1000,tail=256,bt=out/run.bt)",
    [](const common::Spec& spec) {
      if (!spec.has("port")) {
        throw std::invalid_argument(
            "telemetry sink 'dashboard': a port is required, e.g. "
            "dashboard(port=8080) — port=0 binds an ephemeral port");
      }
      const long long port = spec.get_int("port", -1);
      if (port < 0 || port > 65535) {
        throw std::invalid_argument(
            "telemetry sink 'dashboard': port must be in [0, 65535], got " +
            std::to_string(port));
      }
      const std::size_t every = spec.get_count("every", 1000);
      const std::size_t tail = spec.get_count("tail", 256, 0);
      const std::string bt = spec.get_string("bt", "");
      return std::make_unique<DashboardSink>(static_cast<std::uint16_t>(port),
                                             every, tail, bt);
    }};

}  // namespace

}  // namespace prime::sim

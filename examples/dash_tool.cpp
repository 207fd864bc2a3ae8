/// \file dash_tool.cpp
/// \brief CLI client of the dashboard(port=) telemetry sink.
///
/// The launcher/monitor split: a run (or fleet worker) serves live snapshots
/// over loopback HTTP, and this tool — or curl, or a browser EventSource —
/// watches it from outside the process. Three modes, one per endpoint:
///
///   snapshot   GET /snapshot once and print the JSON. retries=/retry-ms=
///              poll until the server answers — the CI smoke starts polling
///              before the run under test has bound its port.
///   watch      subscribe to /events (SSE) and print each snapshot as it is
///              published; events=N exits after N snapshots (0 = until the
///              run ends and closes the stream).
///   window     GET /window?from=N&count=M — scroll-back records from the
///              run's live .bt, served via the follow-mode reader.
///
/// Usage: dash_tool port=8080 [host=127.0.0.1] [mode=snapshot|watch|window]
///                  [retries=0] [retry-ms=200]   (snapshot/window)
///                  [events=0]                   (watch)
///                  [from=0] [count=32]          (window)
///
/// Exit codes: 0 ok, 1 request/served error, 2 usage error.
#include <chrono>
#include <cstdint>
#include <iostream>
#include <string>
#include <thread>

#include "common/http.hpp"
#include "support/front.hpp"

namespace {

/// GET \p target, retrying connection failures and 5xx answers (the server
/// may not have bound its port, or the .bt header may not be flushed yet).
int get_with_retries(const std::string& host, std::uint16_t port,
                     const std::string& target, std::size_t retries,
                     std::size_t retry_ms) {
  for (std::size_t attempt = 0;; ++attempt) {
    try {
      const prime::common::HttpResult result =
          prime::common::http_get(host, port, target);
      if (result.status == 200) {
        std::cout << result.body;
        return 0;
      }
      if (result.status < 500 || attempt >= retries) {
        std::cerr << "dash_tool: " << host << ":" << port << target
                  << " answered " << result.status << ": " << result.body;
        return 1;
      }
    } catch (const prime::common::HttpError& e) {
      if (attempt >= retries) {
        std::cerr << "dash_tool: " << e.what() << "\n";
        return 1;
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(retry_ms));
  }
}

int watch(const std::string& host, std::uint16_t port, std::size_t events) {
  std::size_t seen = 0;
  const int status = prime::common::http_get_stream(
      host, port, "/events", [&](const std::string& line) {
        // SSE framing: "data: <json>" lines separated by blanks.
        constexpr const char* kPrefix = "data: ";
        if (line.rfind(kPrefix, 0) != 0) return true;
        std::cout << line.substr(6) << "\n" << std::flush;
        ++seen;
        return events == 0 || seen < events;
      });
  if (status != 200) {
    std::cerr << "dash_tool: /events answered " << status << "\n";
    return 1;
  }
  if (seen == 0) {
    std::cerr << "dash_tool: /events closed without a single snapshot\n";
    return 1;
  }
  return 0;
}

int run(const prime::common::Config& cfg) {
  using namespace prime;

  const long long port = cfg.get_int("port", 0);
  if (port <= 0 || port > 65535) {
    std::cerr << "Usage: dash_tool port=8080 [host=127.0.0.1] "
                 "[mode=snapshot|watch|window] [retries=0] [retry-ms=200] "
                 "[events=0] [from=0] [count=32]\n";
    return 2;
  }
  const std::string host = cfg.get_string("host", "127.0.0.1");
  const std::string mode = cfg.get_string("mode", "snapshot");
  const std::size_t retries = cfg.get_count("retries", 0, 0);
  const std::size_t retry_ms = cfg.get_count("retry-ms", 200, 0);

  if (mode == "snapshot") {
    return get_with_retries(host, static_cast<std::uint16_t>(port),
                            "/snapshot", retries, retry_ms);
  }
  if (mode == "watch") {
    return watch(host, static_cast<std::uint16_t>(port),
                 cfg.get_count("events", 0, 0));
  }
  if (mode == "window") {
    const std::string target =
        "/window?from=" + std::to_string(cfg.get_count("from", 0, 0)) +
        "&count=" + std::to_string(cfg.get_count("count", 32, 0));
    return get_with_retries(host, static_cast<std::uint16_t>(port), target,
                            retries, retry_ms);
  }
  std::cerr << "dash_tool: unknown mode '" << mode
            << "' (snapshot|watch|window)\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  return prime::front::run_main("dash_tool", argc, argv, run);
}

/// \file http.hpp
/// \brief Minimal HTTP/1.1 server and client over POSIX sockets.
///
/// The transport under the live dashboard telemetry sink (sim/dashboard.hpp):
/// a deliberately small, dependency-free subset of HTTP — GET requests, fixed
/// responses with Content-Length, and Server-Sent-Event streams delimited by
/// connection close. The server binds the loopback interface only (telemetry
/// is an operator surface, not a public one) and serves every connection
/// from one thread: a poll() loop over non-blocking sockets, so a
/// long-lived SSE watcher or a silent peer never blocks one-shot snapshot
/// polls. There is no pipelining, keep-alive, TLS or request-body handling —
/// the dashboard's clients (dash_tool, curl, a browser EventSource) need
/// none of it.
///
/// The client half (http_get / http_get_stream) is blocking; it exists for
/// dash_tool and the tests and speaks exactly the subset the server serves.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>

namespace prime::common {

/// \brief Error thrown by the HTTP client and server setup paths (bind
///        failure, connect failure, malformed peer traffic). Messages name
///        the endpoint and the operation that failed.
class HttpError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// \brief One parsed request: method, target split into path + query map.
struct HttpRequest {
  std::string method;  ///< "GET", ... (uppercased as received).
  std::string target;  ///< The raw request target ("/window?from=0&count=8").
  std::string path;    ///< Target up to '?' ("/window").
  std::map<std::string, std::string> query;  ///< Decoded query parameters.

  /// \brief Query parameter \p key, or \p fallback when absent.
  [[nodiscard]] std::string query_get(const std::string& key,
                                      const std::string& fallback) const {
    const auto it = query.find(key);
    return it == query.end() ? fallback : it->second;
  }
};

/// \brief How often the server asks a stream for its next chunk.
inline constexpr std::chrono::milliseconds kStreamTick{250};

/// \brief A handler's reply. Leave \p next_chunk empty for a fixed body
///        (served with Content-Length); set it for a streaming response
///        (Server-Sent Events): the server writes the headers and body, then
///        calls next_chunk and writes each produced chunk until it returns
///        false, the client disconnects, or the server stops.
///
/// next_chunk must not block: it runs on the server thread, which serves
/// every other connection too. The server calls it at most once per
/// kStreamTick per stream, and only once the stream's previous chunk is
/// fully sent, so a producer that always has something to say is paced by
/// the tick, and one with nothing new should emit a comment heartbeat (a
/// dead peer then fails the next send and the stream closes).
struct HttpResponse {
  int status = 200;
  std::string content_type = "application/json";
  std::string body;
  std::function<bool(std::string& chunk)> next_chunk;
};

/// \brief Loopback HTTP server: one thread runs a poll() loop over the
///        listen socket and every live connection.
///
/// The handler and next_chunk run on that thread — they must be
/// thread-safe against the owner's mutations (the dashboard sink locks its
/// snapshot state) and should return quickly, since every other connection
/// waits while they run. A thrown handler exception becomes a 500 with the
/// exception text; the server itself never propagates connection errors.
/// A connection whose peer sends nothing, or accepts no bytes, for 10 s is
/// closed, and so is one whose request header exceeds 16 KB. When accept
/// fails for want of a resource (the process is out of fds or memory), the
/// server leaves waiting connections in the backlog and retries when one of
/// its connections closes or after kStreamTick, instead of spinning.
class HttpServer {
 public:
  using Handler = std::function<HttpResponse(const HttpRequest&)>;

  /// \brief Bind 127.0.0.1:\p port and start accepting. Port 0 binds an
  ///        ephemeral port — read the chosen one back with port(). Throws
  ///        HttpError when the socket cannot be bound (port in use, no
  ///        permission).
  HttpServer(std::uint16_t port, Handler handler);
  /// \brief Stops the server (see stop()).
  ~HttpServer();

  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  /// \brief The bound port (the ephemeral choice when constructed with 0).
  [[nodiscard]] std::uint16_t port() const noexcept;
  /// \brief Requests answered so far (counted when the response is
  ///        dispatched; kept across connections).
  [[nodiscard]] std::uint64_t requests_served() const noexcept;

  /// \brief Stop accepting, close every open connection (live streams
  ///        included) and join the server thread. Returns as soon as the
  ///        handler or next_chunk call in flight, if any, returns — it
  ///        does not wait out a tick. Idempotent; called by the destructor.
  void stop();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// \brief A fixed (non-streaming) response received by the client.
struct HttpResult {
  int status = 0;
  std::string body;
};

/// \brief Blocking GET of http://\p host:\p port\p target. Reads the whole
///        body (Content-Length or until close). Throws HttpError on connect
///        failure, timeout or a malformed response — an HTTP error status is
///        returned, not thrown.
[[nodiscard]] HttpResult http_get(const std::string& host, std::uint16_t port,
                                  const std::string& target,
                                  int timeout_ms = 5000);

/// \brief Streaming GET: deliver the response body line by line (without the
///        trailing newline) to \p on_line as it arrives — the client half of
///        an SSE feed. Returns the response status once the stream ends;
///        \p on_line returning false closes it early. \p timeout_ms bounds
///        each read, not the whole stream.
int http_get_stream(const std::string& host, std::uint16_t port,
                    const std::string& target,
                    const std::function<bool(const std::string& line)>& on_line,
                    int timeout_ms = 5000);

}  // namespace prime::common

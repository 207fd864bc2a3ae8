/// \file http.cpp
/// \brief POSIX-socket implementation of the minimal HTTP server/client.

#include "common/http.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <thread>
#include <vector>

namespace prime::common {
namespace {

/// \brief Close \p fd if open and mark it closed. Tolerates -1.
void close_fd(int& fd) {
  if (fd >= 0) {
    ::close(fd);
    fd = -1;
  }
}

/// \brief Send all of \p data on blocking \p fd; returns false on any
///        error (peer gone). MSG_NOSIGNAL keeps a dead peer from raising
///        SIGPIPE.
bool send_all(int fd, const std::string& data) {
  std::size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n = ::send(fd, data.data() + sent, data.size() - sent,
                             MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

/// \brief %xx-decode a URL component ('+' is left alone: the dashboard never
///        emits it and the tools never send it).
std::string url_decode(const std::string& in) {
  std::string out;
  out.reserve(in.size());
  for (std::size_t i = 0; i < in.size(); ++i) {
    if (in[i] == '%' && i + 2 < in.size()) {
      const auto hex = [](char c) -> int {
        if (c >= '0' && c <= '9') return c - '0';
        if (c >= 'a' && c <= 'f') return c - 'a' + 10;
        if (c >= 'A' && c <= 'F') return c - 'A' + 10;
        return -1;
      };
      const int hi = hex(in[i + 1]);
      const int lo = hex(in[i + 2]);
      if (hi >= 0 && lo >= 0) {
        out.push_back(static_cast<char>(hi * 16 + lo));
        i += 2;
        continue;
      }
    }
    out.push_back(in[i]);
  }
  return out;
}

/// \brief Split "path?a=1&b=2" into the request's path/query fields.
void parse_target(const std::string& target, HttpRequest& req) {
  req.target = target;
  const std::size_t qpos = target.find('?');
  req.path = target.substr(0, qpos);
  if (qpos == std::string::npos) return;
  std::string rest = target.substr(qpos + 1);
  std::size_t start = 0;
  while (start <= rest.size()) {
    std::size_t amp = rest.find('&', start);
    if (amp == std::string::npos) amp = rest.size();
    const std::string pair = rest.substr(start, amp - start);
    if (!pair.empty()) {
      const std::size_t eq = pair.find('=');
      if (eq == std::string::npos) {
        req.query[url_decode(pair)] = "";
      } else {
        req.query[url_decode(pair.substr(0, eq))] =
            url_decode(pair.substr(eq + 1));
      }
    }
    start = amp + 1;
  }
}

const char* status_text(int status) {
  switch (status) {
    case 200: return "OK";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 500: return "Internal Server Error";
    case 503: return "Service Unavailable";
    default: return "Unknown";
  }
}

/// \brief Parse the request line of a complete header block. Returns false
///        on a malformed line.
bool parse_request(const std::string& head, HttpRequest& req) {
  const std::string line = head.substr(0, head.find("\r\n"));
  const std::size_t sp1 = line.find(' ');
  if (sp1 == std::string::npos) return false;
  const std::size_t sp2 = line.find(' ', sp1 + 1);
  if (sp2 == std::string::npos) return false;
  req.method = line.substr(0, sp1);
  parse_target(line.substr(sp1 + 1, sp2 - sp1 - 1), req);
  return !req.method.empty() && !req.path.empty();
}

std::string response_head(int status, const std::string& content_type,
                          bool streaming, std::size_t body_len) {
  std::string head = "HTTP/1.1 " + std::to_string(status) + " " +
                     status_text(status) + "\r\n";
  head += "Content-Type: " + content_type + "\r\n";
  head += "Connection: close\r\n";
  head += "Cache-Control: no-cache\r\n";
  if (!streaming) {
    head += "Content-Length: " + std::to_string(body_len) + "\r\n";
  }
  head += "\r\n";
  return head;
}

/// \brief Connect to \p host:\p port with send/recv timeouts; throws
///        HttpError on failure. Caller owns the returned fd.
int connect_to(const std::string& host, std::uint16_t port, int timeout_ms) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    throw HttpError("http: socket() failed: " +
                    std::string(std::strerror(errno)));
  }
  timeval tv{};
  tv.tv_sec = timeout_ms / 1000;
  tv.tv_usec = (timeout_ms % 1000) * 1000;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof tv);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    throw HttpError("http: bad host address '" + host + "'");
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    throw HttpError("http: connect to " + host + ":" + std::to_string(port) +
                    " failed: " + err);
  }
  return fd;
}

/// \brief Send the GET request line; throws HttpError on failure.
void send_get(int fd, const std::string& host, const std::string& target) {
  const std::string req = "GET " + target +
                          " HTTP/1.1\r\nHost: " + host +
                          "\r\nConnection: close\r\n\r\n";
  if (!send_all(fd, req)) {
    throw HttpError("http: failed to send request for " + target);
  }
}

/// \brief Parse "HTTP/1.1 200 OK" + headers out of a received prefix.
///        Returns the byte offset where the body starts, or npos if the
///        header block is not complete yet.
std::size_t parse_response_head(const std::string& buf, int& status,
                                long long& content_length) {
  const std::size_t head_end = buf.find("\r\n\r\n");
  if (head_end == std::string::npos) return std::string::npos;
  const std::size_t eol = buf.find("\r\n");
  const std::string line = buf.substr(0, eol);
  const std::size_t sp = line.find(' ');
  if (sp == std::string::npos || line.compare(0, 5, "HTTP/") != 0) {
    throw HttpError("http: malformed status line '" + line + "'");
  }
  status = std::atoi(line.c_str() + sp + 1);
  content_length = -1;
  std::size_t pos = eol + 2;
  while (pos < head_end) {
    std::size_t next = buf.find("\r\n", pos);
    if (next == std::string::npos || next > head_end) next = head_end;
    std::string header = buf.substr(pos, next - pos);
    for (char& c : header) c = static_cast<char>(std::tolower(c));
    if (header.compare(0, 15, "content-length:") == 0) {
      content_length = std::atoll(header.c_str() + 15);
    }
    pos = next + 2;
  }
  return head_end + 4;
}

using Clock = std::chrono::steady_clock;

// 16 KB is orders of magnitude beyond any dash_tool/curl request line.
constexpr std::size_t kMaxHeader = 16 * 1024;
// How long a silent or stalled peer may hold its connection.
constexpr auto kIdleLimit = std::chrono::seconds(10);

}  // namespace

struct HttpServer::Impl {
  /// \brief One live connection. It reads a request into `in`, then drains
  ///        `out`; a stream refills `out` from `next_chunk` once per tick.
  struct Conn {
    int fd = -1;
    std::string in;   ///< Request bytes read so far.
    std::string out;  ///< Response bytes not yet sent (from `sent` on).
    std::size_t sent = 0;
    bool responded = false;
    std::function<bool(std::string& chunk)> next_chunk;  ///< Set on a stream.
    /// While waiting on the peer (request or send), when it counts as
    /// stalled; on a drained stream, when next_chunk is due.
    Clock::time_point deadline;
  };

  Handler handler;
  int listen_fd = -1;
  std::uint16_t port = 0;
  std::atomic<bool> stopping{false};
  std::atomic<std::uint64_t> served{0};
  std::thread thread;

  void run();
  bool step(Conn& c, short revents, Clock::time_point now);
  void respond(Conn& c, const HttpRequest& req, Clock::time_point now);
};

void HttpServer::Impl::run() {
  std::vector<Conn> conns;
  std::vector<pollfd> fds;
  // Set while accept4 fails for want of a resource (EMFILE, ENFILE, ENOBUFS,
  // ENOMEM): the refused connection keeps the listen fd readable, so polling
  // it would spin. Accepting resumes when a connection closes (freeing an
  // fd) or at this time point, one kStreamTick after the failure.
  std::optional<Clock::time_point> accept_resume;
  while (!stopping.load(std::memory_order_relaxed)) {
    // Block until I/O or the nearest deadline; with no connection, until I/O.
    Clock::time_point now = Clock::now();
    fds.assign(1, pollfd{listen_fd, accept_resume ? short{0} : short{POLLIN},
                         0});
    int timeout_ms = -1;
    const auto wait_until = [&](Clock::time_point deadline) {
      const auto wait =
          std::chrono::ceil<std::chrono::milliseconds>(deadline - now).count();
      const int ms = static_cast<int>(std::max<decltype(wait)>(wait, 0));
      timeout_ms = timeout_ms < 0 ? ms : std::min(timeout_ms, ms);
    };
    if (accept_resume) wait_until(*accept_resume);
    for (const Conn& c : conns) {
      const short events = !c.responded     ? POLLIN
                           : c.out.empty() ? 0
                                           : POLLOUT;
      fds.push_back(pollfd{c.fd, events, 0});
      wait_until(c.deadline);
    }
    if (::poll(fds.data(), fds.size(), timeout_ms) < 0 && errno != EINTR) {
      break;
    }
    if (stopping.load(std::memory_order_relaxed)) break;
    now = Clock::now();
    // Backwards, so an erase only shifts connections already stepped.
    for (std::size_t i = conns.size(); i-- > 0;) {
      if (!step(conns[i], fds[i + 1].revents, now)) {
        close_fd(conns[i].fd);
        conns.erase(conns.begin() + static_cast<std::ptrdiff_t>(i));
        accept_resume.reset();
      }
    }
    if (accept_resume && now >= *accept_resume) accept_resume.reset();
    if (fds[0].revents & (POLLERR | POLLHUP | POLLNVAL)) break;
    if (fds[0].revents & POLLIN) {
      for (;;) {
        const int fd = ::accept4(listen_fd, nullptr, nullptr,
                                 SOCK_NONBLOCK | SOCK_CLOEXEC);
        if (fd < 0) {
          if (errno == EINTR || errno == ECONNABORTED) continue;
          // EAGAIN: backlog drained. Anything else is a missing resource.
          if (errno != EAGAIN && errno != EWOULDBLOCK) {
            accept_resume = now + kStreamTick;
          }
          break;
        }
        Conn& c = conns.emplace_back();
        c.fd = fd;
        c.deadline = now + kIdleLimit;
      }
    }
  }
  for (Conn& c : conns) close_fd(c.fd);
}

bool HttpServer::Impl::step(Conn& c, short revents, Clock::time_point now) {
  if (revents & (POLLERR | POLLHUP | POLLNVAL)) return false;
  if (!c.responded) {
    if (!(revents & POLLIN)) return now < c.deadline;
    char chunk[4096];
    const ssize_t n = ::recv(c.fd, chunk, sizeof chunk, 0);
    if (n < 0 && (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK)) {
      return true;
    }
    if (n <= 0) return false;
    c.in.append(chunk, static_cast<std::size_t>(n));
    c.deadline = now + kIdleLimit;
    const std::size_t head_end = c.in.find("\r\n\r\n");
    if (head_end == std::string::npos) return c.in.size() <= kMaxHeader;
    if (head_end + 4 > kMaxHeader) return false;
    HttpRequest req;
    if (!parse_request(c.in, req)) return false;
    respond(c, req, now);
  } else if (c.out.empty()) {
    // A drained stream: ask for the next chunk once its tick is due.
    if (now < c.deadline) return true;
    try {
      if (!c.next_chunk(c.out)) return false;
    } catch (const std::exception&) {
      return false;
    }
    c.deadline = now + kIdleLimit;
  }
  while (c.sent < c.out.size()) {
    const ssize_t n = ::send(c.fd, c.out.data() + c.sent,
                             c.out.size() - c.sent, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      return now < c.deadline;
    }
    if (n <= 0) return false;
    c.sent += static_cast<std::size_t>(n);
    c.deadline = now + kIdleLimit;
  }
  c.out.clear();
  c.sent = 0;
  if (!c.next_chunk) return false;  // A fixed response is complete.
  c.deadline = now + kStreamTick;
  return true;
}

void HttpServer::Impl::respond(Conn& c, const HttpRequest& req,
                               Clock::time_point now) {
  HttpResponse resp;
  if (req.method != "GET") {
    resp.status = 400;
    resp.content_type = "text/plain";
    resp.body = "only GET is supported\n";
  } else {
    try {
      resp = handler(req);
    } catch (const std::exception& e) {
      resp = HttpResponse{};
      resp.status = 500;
      resp.content_type = "text/plain";
      resp.body = std::string("handler error: ") + e.what() + "\n";
    }
  }
  const bool streaming = static_cast<bool>(resp.next_chunk);
  // Count the request as served *before* sending the bytes: on loopback a
  // client can read the complete body before this thread returns from
  // send(), so counting afterwards races any caller that checks
  // requests_served() the moment its GET returns.
  served.fetch_add(1, std::memory_order_relaxed);
  c.out = response_head(resp.status, resp.content_type, streaming,
                        resp.body.size()) +
          resp.body;
  c.next_chunk = std::move(resp.next_chunk);
  c.responded = true;
  c.in.clear();
  c.deadline = now + kIdleLimit;
}

HttpServer::HttpServer(std::uint16_t port, Handler handler)
    : impl_(std::make_unique<Impl>()) {
  impl_->handler = std::move(handler);
  impl_->listen_fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
  if (impl_->listen_fd < 0) {
    throw HttpError("http: socket() failed: " +
                    std::string(std::strerror(errno)));
  }
  const int one = 1;
  ::setsockopt(impl_->listen_fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::bind(impl_->listen_fd, reinterpret_cast<sockaddr*>(&addr),
             sizeof addr) != 0) {
    const std::string err = std::strerror(errno);
    close_fd(impl_->listen_fd);
    throw HttpError("http: cannot bind 127.0.0.1:" + std::to_string(port) +
                    ": " + err);
  }
  if (::listen(impl_->listen_fd, 16) != 0) {
    const std::string err = std::strerror(errno);
    close_fd(impl_->listen_fd);
    throw HttpError("http: listen() failed: " + err);
  }
  socklen_t len = sizeof addr;
  ::getsockname(impl_->listen_fd, reinterpret_cast<sockaddr*>(&addr), &len);
  impl_->port = ntohs(addr.sin_port);
  impl_->thread = std::thread([this] { impl_->run(); });
}

HttpServer::~HttpServer() { stop(); }

std::uint16_t HttpServer::port() const noexcept { return impl_->port; }

std::uint64_t HttpServer::requests_served() const noexcept {
  return impl_->served.load(std::memory_order_relaxed);
}

void HttpServer::stop() {
  if (impl_->stopping.exchange(true)) return;  // Already stopped.
  // shutdown() wakes the loop's poll() on the listen fd at once, whatever
  // its timeout; the loop then closes every connection on its way out.
  ::shutdown(impl_->listen_fd, SHUT_RDWR);
  if (impl_->thread.joinable()) impl_->thread.join();
  close_fd(impl_->listen_fd);
}

HttpResult http_get(const std::string& host, std::uint16_t port,
                    const std::string& target, int timeout_ms) {
  const int fd = connect_to(host, port, timeout_ms);
  try {
    send_get(fd, host, target);
    std::string buf;
    char chunk[4096];
    int status = 0;
    long long content_length = -1;
    std::size_t body_start = std::string::npos;
    for (;;) {
      const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
      if (n < 0 && errno == EINTR) continue;
      if (n < 0) {
        throw HttpError("http: recv from " + host + ":" +
                        std::to_string(port) + " failed: " +
                        std::string(std::strerror(errno)));
      }
      if (n == 0) break;
      buf.append(chunk, static_cast<std::size_t>(n));
      if (body_start == std::string::npos) {
        body_start = parse_response_head(buf, status, content_length);
      }
      if (body_start != std::string::npos && content_length >= 0 &&
          buf.size() - body_start >=
              static_cast<std::size_t>(content_length)) {
        break;
      }
    }
    if (body_start == std::string::npos) {
      throw HttpError("http: connection closed before response headers");
    }
    ::close(fd);
    HttpResult result;
    result.status = status;
    result.body = buf.substr(body_start);
    if (content_length >= 0 &&
        result.body.size() > static_cast<std::size_t>(content_length)) {
      result.body.resize(static_cast<std::size_t>(content_length));
    }
    return result;
  } catch (...) {
    ::close(fd);
    throw;
  }
}

int http_get_stream(
    const std::string& host, std::uint16_t port, const std::string& target,
    const std::function<bool(const std::string& line)>& on_line,
    int timeout_ms) {
  const int fd = connect_to(host, port, timeout_ms);
  try {
    send_get(fd, host, target);
    std::string buf;
    char chunk[4096];
    int status = 0;
    long long content_length = -1;
    std::size_t body_start = std::string::npos;
    bool keep_going = true;
    std::size_t scanned = 0;  // Start of the first undelivered line.
    while (keep_going) {
      const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) break;  // Close or timeout ends the stream.
      buf.append(chunk, static_cast<std::size_t>(n));
      if (body_start == std::string::npos) {
        body_start = parse_response_head(buf, status, content_length);
        if (body_start == std::string::npos) continue;
        scanned = body_start;
      }
      for (;;) {
        const std::size_t nl = buf.find('\n', scanned);
        if (nl == std::string::npos) break;
        std::string line = buf.substr(scanned, nl - scanned);
        if (!line.empty() && line.back() == '\r') line.pop_back();
        scanned = nl + 1;
        if (!on_line(line)) {
          keep_going = false;
          break;
        }
      }
    }
    if (body_start == std::string::npos) {
      throw HttpError("http: connection closed before response headers");
    }
    ::close(fd);
    return status;
  } catch (...) {
    ::close(fd);
    throw;
  }
}

}  // namespace prime::common

/// \file test_http.cpp
/// \brief Tests for the minimal loopback HTTP server/client pair under the
///        dashboard sink: request parsing, fixed and streaming responses,
///        handler errors, concurrent and misbehaving clients, and shutdown
///        semantics.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/http.hpp"

namespace prime::common {
namespace {

/// \brief A raw loopback connection to \p port with a 5 s receive timeout,
///        for peers that misbehave in ways http_get cannot.
int raw_connect(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  timeval tv{};
  tv.tv_sec = 5;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0);
  return fd;
}

/// A server answering every request with a fixed body, plus the parsed
/// request captured for inspection.
class EchoFixture {
 public:
  EchoFixture()
      : server_(0, [this](const HttpRequest& req) {
          {
            std::lock_guard<std::mutex> lock(mu_);
            last_ = req;
          }
          HttpResponse res;
          res.body = "hello";
          res.content_type = "text/plain";
          return res;
        }) {}

  HttpServer& server() { return server_; }
  HttpRequest last() {
    std::lock_guard<std::mutex> lock(mu_);
    return last_;
  }

 private:
  std::mutex mu_;
  HttpRequest last_;
  HttpServer server_;  // Last: joins its threads before last_ dies.
};

TEST(HttpServer, EphemeralPortRoundTrip) {
  EchoFixture fx;
  ASSERT_NE(fx.server().port(), 0);
  const HttpResult result = http_get("127.0.0.1", fx.server().port(), "/");
  EXPECT_EQ(result.status, 200);
  EXPECT_EQ(result.body, "hello");
  EXPECT_EQ(fx.server().requests_served(), 1u);
}

TEST(HttpServer, ParsesPathAndQuery) {
  EchoFixture fx;
  (void)http_get("127.0.0.1", fx.server().port(),
                 "/window?from=12&count=8&label=a%20b");
  const HttpRequest req = fx.last();
  EXPECT_EQ(req.method, "GET");
  EXPECT_EQ(req.path, "/window");
  EXPECT_EQ(req.query_get("from", ""), "12");
  EXPECT_EQ(req.query_get("count", ""), "8");
  EXPECT_EQ(req.query_get("label", ""), "a b");  // %20 decoded
  EXPECT_EQ(req.query_get("absent", "fallback"), "fallback");
}

TEST(HttpServer, HandlerStatusPassesThrough) {
  HttpServer server(0, [](const HttpRequest& req) {
    HttpResponse res;
    res.status = req.path == "/ok" ? 200 : 404;
    res.body = res.status == 200 ? "y" : "no such page";
    return res;
  });
  EXPECT_EQ(http_get("127.0.0.1", server.port(), "/ok").status, 200);
  const HttpResult missing = http_get("127.0.0.1", server.port(), "/nope");
  EXPECT_EQ(missing.status, 404);
  EXPECT_EQ(missing.body, "no such page");
}

TEST(HttpServer, HandlerExceptionBecomesA500) {
  HttpServer server(0, [](const HttpRequest&) -> HttpResponse {
    throw std::runtime_error("kaboom");
  });
  const HttpResult result = http_get("127.0.0.1", server.port(), "/");
  EXPECT_EQ(result.status, 500);
  EXPECT_NE(result.body.find("kaboom"), std::string::npos);
}

TEST(HttpServer, ConcurrentClientsAllAnswered) {
  EchoFixture fx;
  constexpr int kClients = 8;
  std::atomic<int> ok{0};
  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (int i = 0; i < kClients; ++i) {
    threads.emplace_back([&] {
      const HttpResult r = http_get("127.0.0.1", fx.server().port(), "/");
      if (r.status == 200 && r.body == "hello") ++ok;
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(ok.load(), kClients);
  EXPECT_EQ(fx.server().requests_served(), static_cast<std::uint64_t>(kClients));
}

TEST(HttpServer, SilentAndHalfSentRequestsDoNotDelayOtherClients) {
  // One server thread serves every connection, so a peer that connects and
  // says nothing, or stops mid-header, must not hold up anyone else. The
  // GET's 2 s timeout is far below the server's 10 s idle limit.
  EchoFixture fx;
  const int silent = raw_connect(fx.server().port());
  const int half = raw_connect(fx.server().port());
  const std::string partial = "GET /half HT";
  ASSERT_EQ(::send(half, partial.data(), partial.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(partial.size()));
  const HttpResult result =
      http_get("127.0.0.1", fx.server().port(), "/", 2000);
  EXPECT_EQ(result.status, 200);
  EXPECT_EQ(result.body, "hello");
  EXPECT_EQ(fx.server().requests_served(), 1u);
  ::close(silent);
  ::close(half);
}

TEST(HttpServer, OversizedHeaderClosesWithoutCallingTheHandler) {
  std::atomic<int> calls{0};
  HttpServer server(0, [&](const HttpRequest&) {
    ++calls;
    return HttpResponse{};
  });
  const int fd = raw_connect(server.port());
  std::string request = "GET / HTTP/1.1\r\n";
  while (request.size() <= 17 * 1024) {
    request += "X-Pad: " + std::string(100, 'a') + "\r\n";
  }
  request += "\r\n";
  // The server may hang up mid-send; only what it answers matters here.
  (void)::send(fd, request.data(), request.size(), MSG_NOSIGNAL);
  char byte = 0;
  const ssize_t n = ::recv(fd, &byte, 1, 0);
  const int err = errno;
  EXPECT_TRUE(n == 0 || (n < 0 && err != EAGAIN && err != EWOULDBLOCK))
      << "expected the connection closed without a reply, recv gave " << n;
  ::close(fd);
  EXPECT_EQ(calls.load(), 0);
  EXPECT_EQ(server.requests_served(), 0u);
}

TEST(HttpServer, OpenStreamDoesNotDelayFixedRequests) {
  // An endless producer on the one server thread: each tick it has a new
  // event, and the stream stays open until the server stops.
  HttpServer server(0, [](const HttpRequest& req) {
    HttpResponse res;
    res.content_type = "text/plain";
    res.body = "fixed";
    if (req.path == "/events") {
      res.content_type = "text/event-stream";
      res.body = "data: first\n\n";
      res.next_chunk = [](std::string& chunk) {
        chunk = "data: tick\n\n";
        return true;
      };
    }
    return res;
  });
  std::atomic<bool> streaming{false};
  std::thread watcher([&] {
    (void)http_get_stream("127.0.0.1", server.port(), "/events",
                          [&](const std::string& line) {
                            if (line.rfind("data: ", 0) == 0) streaming = true;
                            return true;
                          });
  });
  while (!streaming) std::this_thread::yield();
  for (int i = 0; i < 5; ++i) {
    const HttpResult result =
        http_get("127.0.0.1", server.port(), "/fixed", 2000);
    EXPECT_EQ(result.status, 200);
    EXPECT_EQ(result.body, "fixed");
  }
  server.stop();
  watcher.join();
  EXPECT_EQ(server.requests_served(), 6u);
}

TEST(HttpServer, StreamingResponseDeliversChunksAsLines) {
  // An SSE-shaped stream: three events, then the producer ends the stream.
  HttpServer server(0, [](const HttpRequest&) {
    HttpResponse res;
    res.content_type = "text/event-stream";
    res.body = "data: 0\n\n";
    auto n = std::make_shared<int>(0);
    res.next_chunk = [n](std::string& chunk) {
      if (++*n > 2) return false;
      chunk = "data: " + std::to_string(*n) + "\n\n";
      return true;
    };
    return res;
  });
  std::vector<std::string> events;
  const int status = http_get_stream(
      "127.0.0.1", server.port(), "/events", [&](const std::string& line) {
        if (line.rfind("data: ", 0) == 0) events.push_back(line.substr(6));
        return true;
      });
  EXPECT_EQ(status, 200);
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0], "0");
  EXPECT_EQ(events[2], "2");
}

TEST(HttpServer, ClientCanCloseAStreamEarly) {
  // An endless producer: only the client's on_line=false ends this stream.
  HttpServer server(0, [](const HttpRequest&) {
    HttpResponse res;
    res.content_type = "text/event-stream";
    res.body = "data: tick\n\n";
    res.next_chunk = [](std::string& chunk) {
      chunk = "data: tick\n\n";
      return true;
    };
    return res;
  });
  int seen = 0;
  const int status = http_get_stream(
      "127.0.0.1", server.port(), "/events", [&](const std::string& line) {
        if (line.rfind("data: ", 0) == 0) ++seen;
        return seen < 3;
      });
  EXPECT_EQ(status, 200);
  EXPECT_EQ(seen, 3);
}

TEST(HttpServer, StopInterruptsALiveStream) {
  // stop() must cut a stream whose producer never finishes — the dashboard
  // destructor relies on this to join SSE watchers at run teardown.
  HttpServer server(0, [](const HttpRequest&) {
    HttpResponse res;
    res.content_type = "text/event-stream";
    res.body = "data: first\n\n";
    res.next_chunk = [](std::string& chunk) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      chunk = "data: more\n\n";
      return true;
    };
    return res;
  });
  std::atomic<bool> got_first{false};
  std::thread client([&] {
    (void)http_get_stream("127.0.0.1", server.port(), "/events",
                          [&](const std::string& line) {
                            if (line.rfind("data: ", 0) == 0) {
                              got_first = true;
                            }
                            return true;  // never hang up from this side
                          });
  });
  while (!got_first) std::this_thread::yield();
  server.stop();   // must unblock the stream...
  client.join();   // ...or this join would hang the test
  SUCCEED();
}

TEST(HttpServer, StopIsIdempotentAndRefusesNewConnections) {
  EchoFixture fx;
  const std::uint16_t port = fx.server().port();
  (void)http_get("127.0.0.1", port, "/");
  fx.server().stop();
  fx.server().stop();  // second stop is a no-op
  EXPECT_THROW((void)http_get("127.0.0.1", port, "/"), HttpError);
}

TEST(HttpClient, ConnectFailureThrowsNamingTheEndpoint) {
  // Grab an ephemeral port, then close the server so nothing listens on it.
  std::uint16_t dead_port = 0;
  {
    HttpServer probe(0, [](const HttpRequest&) { return HttpResponse{}; });
    dead_port = probe.port();
  }
  try {
    (void)http_get("127.0.0.1", dead_port, "/");
    FAIL() << "expected HttpError";
  } catch (const HttpError& e) {
    EXPECT_NE(std::string(e.what()).find(std::to_string(dead_port)),
              std::string::npos);
  }
}

TEST(HttpServer, PortCollisionThrows) {
  EchoFixture fx;
  EXPECT_THROW(HttpServer(fx.server().port(),
                          [](const HttpRequest&) { return HttpResponse{}; }),
               HttpError);
}

}  // namespace
}  // namespace prime::common

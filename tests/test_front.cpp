/// \file test_front.cpp
/// \brief Unit tests for the command-line front end every main runs through:
///        unread keys, exceptions and a body's own exit status, and the
///        fail-closed RSS bound.
#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "support/front.hpp"

namespace prime::front {
namespace {

struct Outcome {
  int status;
  std::string err;
};

Outcome run(const std::vector<const char*>& args, const Body& body) {
  std::vector<const char*> argv = {"tool"};
  argv.insert(argv.end(), args.begin(), args.end());
  std::ostringstream err;
  const int status = run_main("tool", static_cast<int>(argv.size()),
                              argv.data(), body, err);
  return {status, err.str()};
}

int reads_frames(const common::Config& cfg) {
  (void)cfg.get_count("frames", 3000);
  return 0;
}

TEST(Front, ReadKeysPass) {
  const Outcome o = run({"frames=100"}, reads_frames);
  EXPECT_EQ(o.status, 0);
  EXPECT_EQ(o.err, "");
}

TEST(Front, AnUnreadKeyExitsOneNamingIt) {
  const Outcome o = run({"frame=100"}, reads_frames);
  EXPECT_EQ(o.status, 1);
  EXPECT_NE(o.err.find("unknown key 'frame'"), std::string::npos) << o.err;
  EXPECT_NE(o.err.find("Did you mean 'frames'?"), std::string::npos) << o.err;
  EXPECT_EQ(o.err.find('\n'), o.err.size() - 1) << "one line: " << o.err;
}

TEST(Front, BadValuesExitOneNamingTheKey) {
  for (const char* arg : {"frames=abc", "frames=-1", "frames=0"}) {
    const Outcome o = run({arg}, reads_frames);
    EXPECT_EQ(o.status, 1) << arg;
    EXPECT_EQ(o.err.rfind("tool: key 'frames' ", 0), 0u) << o.err;
  }
}

TEST(Front, AThrowingBodyExitsOneWithNameAndWhat) {
  const Outcome o = run({}, [](const common::Config&) -> int {
    throw std::runtime_error("disk on fire");
  });
  EXPECT_EQ(o.status, 1);
  EXPECT_EQ(o.err, "tool: disk on fire\n");
}

TEST(Front, ABodysOwnStatusPassesThrough) {
  // A usage message's 2 stays 2, and the body that bailed early is not
  // blamed for the keys it never got to read.
  const Outcome o = run({"mode=bogus"}, [](const common::Config&) {
    return 2;
  });
  EXPECT_EQ(o.status, 2);
  EXPECT_EQ(o.err, "");
}

TEST(Front, RssBoundFailsClosed) {
  EXPECT_THROW(check_rss_bound(24.5, 24.0), std::runtime_error);
  EXPECT_THROW(check_rss_bound(-1.0, 24.0), std::runtime_error);
  EXPECT_NO_THROW(check_rss_bound(23.9, 24.0));
  EXPECT_NO_THROW(check_rss_bound(-1.0, 0.0));  // no bound, nothing to enforce
  EXPECT_GT(peak_rss_mb(), 0.0);
}

}  // namespace
}  // namespace prime::front

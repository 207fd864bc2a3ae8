/// \file test_config.cpp
/// \brief Unit tests for the key-value configuration store, and for the
///        count keys every Config and Spec consumer must fail closed on.
#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>
#include <string>
#include <tuple>

#include "common/config.hpp"
#include "fleet/population.hpp"
#include "hw/platform.hpp"
#include "sim/experiment.hpp"
#include "wl/suites.hpp"

namespace prime::common {
namespace {

TEST(Config, SetAndGet) {
  Config c;
  c.set("a.b", "hello");
  EXPECT_TRUE(c.has("a.b"));
  EXPECT_EQ(c.get_string("a.b", "x"), "hello");
  EXPECT_FALSE(c.has("a.c"));
  EXPECT_EQ(c.get_string("a.c", "fallback"), "fallback");
}

TEST(Config, TypedSettersRoundTrip) {
  Config c;
  c.set_double("d", 3.25);
  c.set_int("i", -42);
  c.set_bool("t", true);
  c.set_bool("f", false);
  EXPECT_DOUBLE_EQ(c.get_double("d", 0.0), 3.25);
  EXPECT_EQ(c.get_int("i", 0), -42);
  EXPECT_TRUE(c.get_bool("t", false));
  EXPECT_FALSE(c.get_bool("f", true));
}

TEST(Config, UnparsableValuesFallBack) {
  Config c;
  c.set("x", "not-a-number");
  EXPECT_DOUBLE_EQ(c.get_double("x", 1.5), 1.5);
  EXPECT_EQ(c.get_int("x", 7), 7);
  EXPECT_TRUE(c.get_bool("x", true));
}

TEST(Config, BoolSpellings) {
  Config c;
  for (const char* truthy : {"true", "1", "yes", "on", "TRUE", "Yes"}) {
    c.set("k", truthy);
    EXPECT_TRUE(c.get_bool("k", false)) << truthy;
  }
  for (const char* falsy : {"false", "0", "no", "off", "FALSE"}) {
    c.set("k", falsy);
    EXPECT_FALSE(c.get_bool("k", true)) << falsy;
  }
}

TEST(Config, ParseAssignment) {
  Config c;
  EXPECT_TRUE(c.parse_assignment("app.fps = 30"));
  EXPECT_DOUBLE_EQ(c.get_double("app.fps", 0.0), 30.0);
  EXPECT_FALSE(c.parse_assignment("no-equals-here"));
  EXPECT_FALSE(c.parse_assignment("=value-without-key"));
}

TEST(Config, ParseArgsSkipsNonAssignments) {
  const char* argv[] = {"prog", "a=1", "--flag", "b=two"};
  Config c;
  c.parse_args(4, argv);
  EXPECT_EQ(c.size(), 2u);
  EXPECT_EQ(c.get_int("a", 0), 1);
  EXPECT_EQ(c.get_string("b", ""), "two");
}

TEST(Config, ParseTextWithComments) {
  Config c;
  c.parse_text("# a config file\nx=1\n  y = 2  # inline comment\n\nz=3\n");
  EXPECT_EQ(c.get_int("x", 0), 1);
  EXPECT_EQ(c.get_int("y", 0), 2);
  EXPECT_EQ(c.get_int("z", 0), 3);
}

TEST(Config, OverwriteTakesLatest) {
  Config c;
  c.set("k", "1");
  c.set("k", "2");
  EXPECT_EQ(c.get_int("k", 0), 2);
  EXPECT_EQ(c.size(), 1u);
}

TEST(Config, KeysSorted) {
  Config c;
  c.set("b", "1");
  c.set("a", "1");
  c.set("c", "1");
  const auto keys = c.keys();
  ASSERT_EQ(keys.size(), 3u);
  EXPECT_EQ(keys[0], "a");
  EXPECT_EQ(keys[2], "c");
}

}  // namespace
}  // namespace prime::common

// --- Count keys fail closed -------------------------------------------------

namespace prime {
namespace {

/// (what parses the key, the governor or workload that owns it — "" for
/// platform and population keys —, the key, its smallest accepted value).
enum class Parser { kPlatform, kPopulation, kGovernor, kWorkload };
using CountCase = std::tuple<Parser, std::string, std::string, long long>;

class CountKeys
    : public testing::TestWithParam<std::tuple<CountCase, long long>> {};

TEST_P(CountKeys, ValuesBelowTheMinimumAreRejectedByKey) {
  // A negative count must not wrap through a cast to std::size_t into a
  // huge board, population or OPP index: the parser throws before it builds
  // anything.
  const auto& [parser, spec, key, min] = std::get<0>(GetParam());
  const long long value = std::get<1>(GetParam());
  ASSERT_LT(value, min);
  const std::string text = std::to_string(value);
  try {
    switch (parser) {
      case Parser::kPlatform: {
        common::Config cfg;
        cfg.set(key, text);
        (void)hw::Platform::from_config(cfg);
        break;
      }
      case Parser::kPopulation: {
        common::Config cfg;
        cfg.set("governors", "ondemand");
        cfg.set("workloads", "flat(mean=2e8,cv=0.1)");
        cfg.set(key, text);
        (void)fleet::PopulationSpec::from_config(cfg);
        break;
      }
      case Parser::kGovernor:
        (void)sim::make_governor(spec + "(" + key + "=" + text + ")");
        break;
      case Parser::kWorkload:
        (void)wl::make_workload(spec + "(" + key + "=" + text + ")");
        break;
    }
    FAIL() << key << "=" << text << " accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("'" + key + "'"), std::string::npos)
        << key << "=" << text << ": " << e.what();
  }
}

TEST(CountKeys, SpecKeysAcceptZero) {
  EXPECT_NO_THROW((void)sim::make_governor("schedutil(down-rate=0)"));
  EXPECT_NO_THROW((void)sim::make_governor("userspace(opp=0)"));
  EXPECT_NO_THROW((void)sim::make_governor("conservative(step=0)"));
  EXPECT_NO_THROW((void)sim::make_governor("thermal-cap(step=0)"));
  EXPECT_NO_THROW((void)sim::make_governor("ondemand(sampling=0)"));
  EXPECT_NO_THROW((void)wl::make_workload("video(gop=0)"));
}

std::string count_case_name(
    const testing::TestParamInfo<CountKeys::ParamType>& info) {
  const std::string& spec = std::get<1>(std::get<0>(info.param));
  const std::string& key = std::get<2>(std::get<0>(info.param));
  std::string id = (spec.empty() ? key : spec + "_" + key) +
                   (std::get<1>(info.param) == -1 ? "_neg1" : "_min");
  for (char& c : id) {
    if (c == '-' || c == '.') c = '_';
  }
  return id;
}

INSTANTIATE_TEST_SUITE_P(
    Parsers, CountKeys,
    testing::Combine(
        testing::Values(
            CountCase{Parser::kPlatform, "", "hw.clusters", 1},
            CountCase{Parser::kPlatform, "", "hw.cores", 1},
            CountCase{Parser::kPlatform, "", "hw.opps", 1},
            CountCase{Parser::kPopulation, "", "devices-per-cell", 1},
            CountCase{Parser::kPopulation, "", "frames", 1},
            CountCase{Parser::kPopulation, "", "energy-bins", 1},
            CountCase{Parser::kPopulation, "", "miss-bins", 1},
            CountCase{Parser::kPopulation, "", "perf-bins", 1},
            CountCase{Parser::kGovernor, "schedutil", "down-rate", 0},
            CountCase{Parser::kGovernor, "userspace", "opp", 0},
            CountCase{Parser::kGovernor, "conservative", "step", 0},
            CountCase{Parser::kGovernor, "thermal-cap", "step", 0},
            CountCase{Parser::kGovernor, "ondemand", "sampling", 0},
            CountCase{Parser::kWorkload, "video", "gop", 0}),
        testing::Values(-1LL, std::numeric_limits<long long>::min())),
    count_case_name);

}  // namespace
}  // namespace prime

/// \file test_registry.cpp
/// \brief Unit tests for the spec parser and the self-registering registries
///        (governors, workloads, rewards, exploration policies).
#include <gtest/gtest.h>

#include <algorithm>

#include "common/registry.hpp"
#include "common/spec.hpp"
#include "common/strings.hpp"
#include "gov/registry.hpp"
#include "gov/thermal_cap.hpp"
#include "hw/platform.hpp"
#include "rtm/policy.hpp"
#include "rtm/reward.hpp"
#include "rtm/rtm_governor.hpp"
#include "sim/builder.hpp"
#include "sim/experiment.hpp"
#include "sim/telemetry.hpp"
#include "wl/registry.hpp"
#include "wl/suites.hpp"

namespace prime {
namespace {

using common::Spec;

// --- Spec parsing ------------------------------------------------------------

TEST(Spec, BareName) {
  const Spec s = Spec::parse("ondemand");
  EXPECT_EQ(s.name(), "ondemand");
  EXPECT_EQ(s.args().size(), 0u);
}

TEST(Spec, KeyValueArguments) {
  const Spec s = Spec::parse("rtm(policy=upd,reward=target-slack,alpha=0.2)");
  EXPECT_EQ(s.name(), "rtm");
  EXPECT_EQ(s.get_string("policy", ""), "upd");
  EXPECT_EQ(s.get_string("reward", ""), "target-slack");
  EXPECT_DOUBLE_EQ(s.get_double("alpha", 0.0), 0.2);
}

TEST(Spec, NestedSpecValuesStayWhole) {
  const Spec s = Spec::parse("rtm-thermal(inner=rtm(policy=upd,alpha=0.3),trip=80)");
  EXPECT_EQ(s.name(), "rtm-thermal");
  EXPECT_EQ(s.get_string("inner", ""), "rtm(policy=upd,alpha=0.3)");
  EXPECT_DOUBLE_EQ(s.get_double("trip", 0.0), 80.0);

  const Spec inner = Spec::parse(s.get_string("inner", ""));
  EXPECT_EQ(inner.name(), "rtm");
  EXPECT_EQ(inner.get_string("policy", ""), "upd");
}

TEST(Spec, WhitespaceAndEmptyParens) {
  const Spec s = Spec::parse("  rtm ( alpha = 0.5 , policy = upd ) ");
  EXPECT_EQ(s.name(), "rtm");
  EXPECT_DOUBLE_EQ(s.get_double("alpha", 0.0), 0.5);
  EXPECT_EQ(s.get_string("policy", ""), "upd");
  EXPECT_EQ(Spec::parse("rtm()").name(), "rtm");
}

TEST(Spec, UnparsableValuesThrowInsteadOfFallingBack) {
  const Spec s = Spec::parse("rtm(alpha=x.3,levels=7.5,flag=maybe,ok=0.8)");
  EXPECT_THROW((void)s.get_double("alpha", 0.25), std::invalid_argument);
  EXPECT_THROW((void)s.get_int("levels", 5), std::invalid_argument);
  EXPECT_THROW((void)s.get_bool("flag", false), std::invalid_argument);
  EXPECT_DOUBLE_EQ(s.get_double("ok", 0.0), 0.8);
  EXPECT_DOUBLE_EQ(s.get_double("absent", 1.5), 1.5);  // fallback still works
  // Through the registry: a value typo stops the experiment.
  EXPECT_THROW((void)sim::make_governor("rtm(alpha=x.3)"),
               std::invalid_argument);
}

TEST(Spec, BareFlagBecomesTrue) {
  const Spec s = Spec::parse("thing(verbose,level=2)");
  EXPECT_TRUE(s.get_bool("verbose", false));
  EXPECT_EQ(s.get_int("level", 0), 2);
}

TEST(Spec, MalformedThrows) {
  EXPECT_THROW(Spec::parse(""), std::invalid_argument);
  EXPECT_THROW(Spec::parse("   "), std::invalid_argument);
  EXPECT_THROW(Spec::parse("(a=1)"), std::invalid_argument);
  EXPECT_THROW(Spec::parse("name(a=1"), std::invalid_argument);
  EXPECT_THROW(Spec::parse("name a=1)"), std::invalid_argument);
  EXPECT_THROW(Spec::parse("name(a=1)x"), std::invalid_argument);
  EXPECT_THROW(Spec::parse("name(a=1,)"), std::invalid_argument);
  EXPECT_THROW(Spec::parse("a=1"), std::invalid_argument);
}

TEST(Spec, ListSplittingIgnoresCommasInsideParens) {
  const auto parts = common::split_outside_parens(
      "ondemand,rtm(policy=upd,alpha=0.3),thermal-cap(inner=rtm(levels=7))",
      ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[1], "rtm(policy=upd,alpha=0.3)");
  EXPECT_EQ(parts[2], "thermal-cap(inner=rtm(levels=7))");
  // Spec lists on the command line also trim entries and drop empty ones.
  EXPECT_EQ(common::split_spec_list(" ondemand, rtm(policy=upd,alpha=0.3),,"),
            (std::vector<std::string>{"ondemand",
                                      "rtm(policy=upd,alpha=0.3)"}));
  EXPECT_TRUE(common::split_spec_list("").empty());
}

TEST(Spec, ToStringRoundTrips) {
  const Spec s = Spec::parse("rtm(policy=upd,alpha=0.2)");
  const Spec again = Spec::parse(s.to_string());
  EXPECT_EQ(again.name(), "rtm");
  EXPECT_EQ(again.get_string("policy", ""), "upd");
}

// --- Governor registry -------------------------------------------------------

TEST(GovernorRegistry, EveryRegisteredNameRoundTripsAndConstructs) {
  const auto names = sim::governor_names();
  ASSERT_FALSE(names.empty());
  for (const auto& name : names) {
    EXPECT_TRUE(gov::governor_registry().contains(name)) << name;
    const auto g = sim::make_governor(name);
    ASSERT_NE(g, nullptr) << name;
    EXPECT_FALSE(g->name().empty()) << name;
  }
}

TEST(GovernorRegistry, KnownNamesArePresent) {
  const auto names = sim::governor_names();
  for (const char* expected :
       {"performance", "powersave", "ondemand", "conservative", "schedutil",
        "pid", "oracle", "mcdvfs", "shen-rl", "rtm", "rtm-upd", "rtm-manycore",
        "rtm-manycore-normalized", "rtm-thermal", "thermal-cap"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), expected), names.end())
        << expected;
  }
}

TEST(GovernorRegistry, UnknownNameListsRegisteredAndSuggests) {
  try {
    (void)sim::make_governor("rtm-manycoer");
    FAIL() << "expected UnknownNameError";
  } catch (const common::UnknownNameError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("Did you mean 'rtm-manycore'?"), std::string::npos) << msg;
    EXPECT_NE(msg.find("ondemand"), std::string::npos) << msg;
  }
  // Still catchable as std::invalid_argument (backwards compatibility).
  EXPECT_THROW((void)sim::make_governor("nope"), std::invalid_argument);
}

TEST(GovernorRegistry, SpecParametersReachTheGovernor) {
  const auto g = sim::make_governor("rtm(policy=upd,alpha=0.2,levels=7)");
  const auto& rtm = dynamic_cast<const rtm::RtmGovernor&>(*g);
  EXPECT_EQ(rtm.params().policy, "upd");
  EXPECT_DOUBLE_EQ(rtm.params().learning_rate, 0.2);
  EXPECT_EQ(rtm.params().discretizer.workload_levels, 7u);
  EXPECT_EQ(rtm.params().discretizer.slack_levels, 7u);
}

TEST(GovernorRegistry, SpecSeedOverridesArgumentSeed) {
  const auto g = sim::make_governor("rtm(seed=123)", 999);
  EXPECT_EQ(dynamic_cast<const rtm::RtmGovernor&>(*g).params().seed, 123u);
  const auto h = sim::make_governor("rtm", 999);
  EXPECT_EQ(dynamic_cast<const rtm::RtmGovernor&>(*h).params().seed, 999u);
}

TEST(GovernorRegistry, TypoedKeysAreRejectedWithSuggestions) {
  try {
    (void)sim::make_governor("rtm-manycore(gama=0.5)");
    FAIL() << "expected UnknownKeyError";
  } catch (const common::UnknownKeyError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("unknown key 'gama'"), std::string::npos) << msg;
    EXPECT_NE(msg.find("Did you mean 'gamma'?"), std::string::npos) << msg;
  }
  // Governors that take no keys reject any argument.
  EXPECT_THROW((void)sim::make_governor("performance(turbo=1)"),
               std::invalid_argument);
  // Valid keys still pass.
  EXPECT_NO_THROW((void)sim::make_governor("rtm-manycore(gamma=0.5)"));
}

TEST(GovernorRegistry, KeysReadBeforeCreateStillCountAsTypos) {
  // create() hands the factory a copy whose request tracking starts afresh,
  // so a caller peeking at a key first cannot vouch for it.
  const Spec s = Spec::parse("rtm-manycore(gama=0.5)");
  ASSERT_TRUE(s.has("gama"));
  EXPECT_THROW((void)gov::governor_registry().create(s, 1),
               common::UnknownKeyError);
}

TEST(GovernorRegistry, SpecSeedReachesThermalCapInner) {
  const auto g = sim::make_governor("rtm-thermal(inner=rtm,seed=123)", 999);
  auto& cap = dynamic_cast<gov::ThermalCapGovernor&>(*g);
  EXPECT_EQ(dynamic_cast<const rtm::RtmGovernor&>(cap.inner()).params().seed,
            123u);
}

TEST(GovernorRegistry, ComposedSpecsNest) {
  const auto g = sim::make_governor("thermal-cap(inner=rtm(policy=upd),trip=80)");
  auto& cap = dynamic_cast<gov::ThermalCapGovernor&>(*g);
  const auto& inner = dynamic_cast<const rtm::RtmGovernor&>(cap.inner());
  EXPECT_EQ(inner.params().policy, "upd");
}

TEST(GovernorRegistry, EveryGovernorIsDeterministicForAFixedSeed) {
  // Two independently constructed instances of the same spec must make
  // identical decisions across 100 epochs of the same application.
  auto platform = hw::Platform::odroid_xu3_a15();
  sim::ExperimentSpec spec;
  spec.workload = "fft";
  spec.frames = 100;
  const wl::Application app = sim::make_application(spec, *platform);

  for (const auto& name : sim::governor_names()) {
    const auto a = sim::make_governor(name, 0xF00D);
    const auto b = sim::make_governor(name, 0xF00D);
    sim::TraceSink ta;
    sim::TraceSink tb;
    sim::RunOptions oa;
    oa.sinks = {&ta};
    sim::RunOptions ob;
    ob.sinks = {&tb};
    (void)sim::run_simulation(*platform, app, *a, oa);
    (void)sim::run_simulation(*platform, app, *b, ob);
    ASSERT_EQ(ta.records().size(), tb.records().size()) << name;
    for (std::size_t i = 0; i < ta.records().size(); ++i) {
      ASSERT_EQ(ta.records()[i].opp_index, tb.records()[i].opp_index)
          << name << " diverges at epoch " << i;
    }
  }
}

// --- Workload registry -------------------------------------------------------

TEST(WorkloadRegistry, EveryRegisteredNameConstructsAndGenerates) {
  for (const auto& name : wl::all_workload_names()) {
    const auto g = wl::workload_registry().create(name);
    ASSERT_NE(g, nullptr) << name;
    EXPECT_EQ(g->generate(20, 1).size(), 20u) << name;
  }
}

TEST(WorkloadRegistry, ParameterisedSpecsWork) {
  const auto g = wl::make_workload("flat(mean=2e8,cv=0.02)");
  const wl::WorkloadTrace t = g->generate(500, 3);
  EXPECT_NEAR(t.mean_cycles() / 2.0e8, 1.0, 0.05);
}

TEST(WorkloadRegistry, UnknownNameSuggests) {
  try {
    (void)wl::make_workload("h265");
    FAIL() << "expected UnknownNameError";
  } catch (const common::UnknownNameError& e) {
    EXPECT_NE(std::string(e.what()).find("Did you mean 'h264'?"),
              std::string::npos)
        << e.what();
  }
}

// --- Reward / policy registries ---------------------------------------------

TEST(RewardRegistry, ParameterisedSpecsWork) {
  const auto r = rtm::make_reward("target-slack(target=0.2,b=1.5)");
  const auto& target = dynamic_cast<const rtm::TargetSlackReward&>(*r);
  EXPECT_DOUBLE_EQ(target.params().target, 0.2);
  EXPECT_DOUBLE_EQ(target.params().b, 1.5);
  EXPECT_THROW((void)rtm::make_reward("bogus"), std::invalid_argument);
}

TEST(PolicyRegistry, ParameterisedSpecsWork) {
  const auto p = rtm::make_policy("epd(beta=5)");
  EXPECT_DOUBLE_EQ(dynamic_cast<const rtm::EpdPolicy&>(*p).beta(), 5.0);
  EXPECT_THROW((void)rtm::make_policy("thompson"), std::invalid_argument);
}

TEST(PolicyRegistry, NestedPolicySpecFlowsThroughRtm) {
  // The rtm factory passes the policy spec through to the policy registry.
  auto platform = hw::Platform::odroid_xu3_a15();
  const auto g = sim::make_governor("rtm(policy=epd(beta=9))");
  EXPECT_EQ(dynamic_cast<const rtm::RtmGovernor&>(*g).params().policy,
            "epd(beta=9)");
}

}  // namespace
}  // namespace prime

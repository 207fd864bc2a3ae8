/// \file test_governor_states.cpp
/// \brief Governor state payloads fail closed: a seeded mutation fuzz one
///        level below the sealed `.ckpt` envelope, a grid of table
///        dimensions whose product wraps, and the exploration and learning
///        parameters and level counts of the learning governors.
///
/// The fuzz starts from the `governor_state` blob of each registered
/// governor's format-golden checkpoint (tests/support/format_artefacts).
/// Property: `load_state` on a mutant throws common::SerialError, or it
/// loads, saves to a fixed point (the saved bytes load back and re-save to
/// the same bytes), and then decides once on the checkpoint's platform and
/// pending observation. A governor with a state merger folds each mutant
/// after the original or throws gov::StateMergeError, and a merger that
/// folded it extracts a state or throws StateMergeError. Any other
/// exception, a crash or a sanitizer report fails the test.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <ostream>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "common/rng.hpp"
#include "common/serial.hpp"
#include "gov/governor.hpp"
#include "gov/merge.hpp"
#include "hw/platform.hpp"
#include "rtm/qtable.hpp"
#include "sim/checkpoint.hpp"
#include "sim/experiment.hpp"
#include "support/format_artefacts.hpp"
#include "support/mutate.hpp"

namespace prime::testing_support {
namespace {

std::string saved_state(const gov::Governor& governor) {
  std::ostringstream out(std::ios::binary);
  governor.save_state(out);
  return out.str();
}

void load_state(gov::Governor& governor, const std::string& bytes) {
  std::istringstream in(bytes, std::ios::binary);
  governor.load_state(in);
}

// --- Seeded mutation fuzz of the governor state blobs -------------------------

constexpr std::size_t kMutantsPerGovernor = 500;

sim::Checkpoint checkpoint_of(const std::string& governor) {
  for (const Artefact& a : checkpoint_artefacts()) {
    if (a.name == governor) {
      std::istringstream in(a.bytes, std::ios::binary);
      return sim::Checkpoint::read(in, a.name);
    }
  }
  throw std::logic_error("no sample checkpoint for " + governor);
}

/// Fold \p mutant after \p original into a fresh merger, then extract.
/// Returns the text of anything other than a StateMergeError (empty: fine).
std::string merge_defect(const gov::Governor& governor,
                         const std::string& original,
                         const std::string& mutant) {
  const auto merger = governor.make_state_merger();
  merger->add_state(original);
  try {
    merger->add_state(mutant);
    (void)merger->extract_state();
  } catch (const gov::StateMergeError&) {
  } catch (const std::exception& e) {
    return e.what();
  }
  return {};
}

class GovernorStateFuzz : public testing::TestWithParam<std::string> {};

TEST_P(GovernorStateFuzz, MutantsFailTypedOrLoadResaveAndDecide) {
  const std::string& name = GetParam();
  const sim::Checkpoint ck = checkpoint_of(name);
  const std::vector<Artefact> samples = {{name, ck.governor_state}};
  const auto platform = hw::Platform::odroid_xu3_a15();
  gov::DecisionContext ctx;
  ctx.epoch = ck.frame_position;
  ctx.period = ck.last.period;
  ctx.cores = platform->total_cores();
  ctx.opps = &platform->opp_table();
  std::optional<gov::EpochObservation> last;
  if (ck.has_last) last = ck.last;

  const auto reference = sim::make_governor(name);
  const bool merges = reference->make_state_merger() != nullptr;
  common::Rng rng(0x60157A7E + std::hash<std::string>{}(name));
  std::size_t loaded = 0;
  for (std::size_t i = 0; i < kMutantsPerGovernor; ++i) {
    const std::string mutant = mutate(samples, rng);
    if (merges) {
      const std::string defect =
          merge_defect(*reference, ck.governor_state, mutant);
      ASSERT_EQ(defect, "") << name << " mutant " << i;
    }
    auto governor = sim::make_governor(name);
    try {
      load_state(*governor, mutant);
    } catch (const common::SerialError&) {
      continue;
    } catch (const std::exception& e) {
      FAIL() << name << " mutant " << i << ": " << e.what();
    }
    ++loaded;
    const std::string saved = saved_state(*governor);
    auto again = sim::make_governor(name);
    try {
      load_state(*again, saved);
    } catch (const std::exception& e) {
      FAIL() << name << " mutant " << i
             << ": the saved state does not load back: " << e.what();
    }
    ASSERT_EQ(saved_state(*again), saved) << name << " mutant " << i;
    try {
      (void)governor->decide(ctx, last);
    } catch (const std::exception& e) {
      FAIL() << name << " mutant " << i << ": decide threw " << e.what();
    }
  }
  // Mutations of plain numbers load; a fuzz where nothing loads would only
  // exercise the first field's checks.
  EXPECT_GT(loaded, 0u) << name;
}

INSTANTIATE_TEST_SUITE_P(
    AllGovernors, GovernorStateFuzz, testing::ValuesIn(sim::governor_names()),
    [](const testing::TestParamInfo<std::string>& info) {
      std::string id = info.param;
      for (char& c : id) {
        if (c == '-') c = '_';
      }
      return id;
    });

// --- Table dimensions whose product wraps ------------------------------------

constexpr std::size_t k2To32 = std::size_t{1} << 32;

/// A shen-rl state of \p states x \p actions with an empty Q vector.
std::string shen_rl_state(std::size_t states, std::size_t actions) {
  std::ostringstream out(std::ios::binary);
  common::StateWriter w(out);
  common::Rng().save_state(w);
  w.size(states);
  w.size(actions);
  w.vec_f64({});
  w.f64(0.5);   // epsilon
  w.size(10);   // epoch
  w.size(0);    // convergence epoch
  w.f64(1.0);   // workload normaliser
  w.size(0);    // last state
  w.size(0);    // last action
  w.boolean(false);
  w.size(0);    // explorations
  return out.str();
}

/// An mcdvfs state with one core agent whose Q vector holds \p cells values.
/// With the default 5 utilisation levels, 5 * 0xCCCCCCCCCCCCCCCD wraps to 1.
std::string mcdvfs_state(std::size_t actions, std::size_t cells) {
  std::ostringstream out(std::ios::binary);
  common::StateWriter w(out);
  common::Rng().save_state(w);
  w.size(actions);
  w.size(1);  // agents
  w.vec_f64(std::vector<double>(cells, 0.0));
  w.size(0);  // last state
  w.size(0);  // last action
  w.boolean(false);
  w.f64(0.5);  // epsilon
  w.size(10);  // epoch
  w.size(0);   // convergence epoch
  w.size(0);   // exploration epochs
  return out.str();
}

constexpr std::size_t kMcdvfsWrapActions = 0xCCCCCCCCCCCCCCCDull;

/// One parser fed a state whose dimensions wrap to its vector length.
struct WrapCase {
  const char* name;
  std::function<void()> parse;
  bool merge;  ///< Expects gov::StateMergeError, else common::SerialError.
};

void PrintTo(const WrapCase& c, std::ostream* os) { *os << c.name; }

void load_into(const char* governor, const std::string& state) {
  auto g = sim::make_governor(governor);
  load_state(*g, state);
}

void merge_into(const char* governor, const std::string& state) {
  sim::make_governor(governor)->make_state_merger()->add_state(state);
}

const WrapCase kWrapCases[] = {
    {"QTable",
     [] {
       std::ostringstream out(std::ios::binary);
       common::StateWriter w(out);
       w.size(k2To32);
       w.size(k2To32);
       w.vec_f64({});
       w.vec_u64({});
       w.size(0);
       std::istringstream in(out.str(), std::ios::binary);
       common::StateReader r(in);
       rtm::QTable(2, 3).load_state(r);
     },
     false},
    {"ShenRlLoadState",
     [] { load_into("shen-rl", shen_rl_state(k2To32, k2To32)); }, false},
    {"ShenRlMerge",
     [] { merge_into("shen-rl", shen_rl_state(k2To32, k2To32)); }, true},
    {"McdvfsLoadState",
     [] { load_into("mcdvfs", mcdvfs_state(kMcdvfsWrapActions, 1)); }, false},
    {"McdvfsMerge",
     [] { merge_into("mcdvfs", mcdvfs_state(kMcdvfsWrapActions, 1)); }, true},
};

class WrappingDimensions : public testing::TestWithParam<WrapCase> {};

TEST_P(WrappingDimensions, AreRejectedAsOverflow) {
  const WrapCase& c = GetParam();
  try {
    c.parse();
    FAIL() << c.name << ": accepted";
  } catch (const gov::StateMergeError& e) {
    EXPECT_TRUE(c.merge) << c.name << ": " << e.what();
    EXPECT_NE(std::string(e.what()).find("overflow"), std::string::npos)
        << e.what();
  } catch (const common::SerialError& e) {
    EXPECT_FALSE(c.merge) << c.name << ": " << e.what();
    EXPECT_NE(std::string(e.what()).find("overflow"), std::string::npos)
        << e.what();
  }
}

INSTANTIATE_TEST_SUITE_P(AllParsers, WrappingDimensions,
                         testing::ValuesIn(kWrapCases),
                         [](const testing::TestParamInfo<WrapCase>& info) {
                           return std::string(info.param.name);
                         });

TEST(WrappingDimensions, InRangeProductsStillLoad) {
  // The same builders with consistent dimensions load (they are valid
  // untrained-by-the-engine states), so the grid above fails on the product.
  EXPECT_NO_THROW(load_into("shen-rl", shen_rl_state(0, 0)));
  EXPECT_NO_THROW(load_into("mcdvfs", mcdvfs_state(3, 15)));
}

// --- Exploration and learning parameters ----------------------------------------

// Exploration rates (epsilon0, eps-min) must be finite and >= 0; the
// learning rates (alpha, discount, and the epsilon decay of the baselines)
// must also be at most 1.
using ExplorationCase = std::tuple<std::string, std::string, double>;

class ExplorationParams : public testing::TestWithParam<ExplorationCase> {};

std::string spec_of(const std::string& governor, const std::string& key,
                    double value) {
  std::ostringstream spec;
  spec << governor << "(" << key << "=" << value << ")";
  return spec.str();
}

TEST_P(ExplorationParams, NonFiniteOrNegativeRatesAreRejectedByKey) {
  const auto& [governor, key, value] = GetParam();
  const std::string spec = spec_of(governor, key, value);
  try {
    (void)sim::make_governor(spec);
    FAIL() << spec << " accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(key), std::string::npos)
        << spec << ": " << e.what();
  }
  // Zero is valid for every key: pure exploitation, no floor, no learning,
  // no lookahead, or epsilon at its floor after one epoch.
  EXPECT_NO_THROW((void)sim::make_governor(spec_of(governor, key, 0.0)));
  EXPECT_NO_THROW((void)sim::make_governor(spec_of(governor, key, -0.0)));
}

std::string exploration_name(
    const testing::TestParamInfo<ExplorationCase>& info) {
  const auto& [governor, key, value] = info.param;
  const char* value_name = value != value                ? "nan"
                           : value > 2.0                 ? "inf"
                           : value > 0.0                 ? "one_and_half"
                           : value < -1.0                ? "neg_inf"
                                                         : "neg_half";
  std::string id = governor + "_" + key + "_" + value_name;
  for (char& c : id) {
    if (c == '-') c = '_';
  }
  return id;
}

std::vector<ExplorationCase> exploration_cases() {
  std::vector<ExplorationCase> cases;
  const auto add = [&](const char* governor, const char* key, bool unit) {
    for (const double value : {std::numeric_limits<double>::quiet_NaN(),
                               std::numeric_limits<double>::infinity(),
                               -std::numeric_limits<double>::infinity(),
                               -0.5}) {
      cases.emplace_back(governor, key, value);
    }
    if (unit) cases.emplace_back(governor, key, 1.5);
  };
  for (const char* governor : {"rtm", "shen-rl", "mcdvfs"}) {
    add(governor, "epsilon0", false);
    add(governor, "eps-min", false);
    add(governor, "alpha", true);
    add(governor, "discount", true);
    if (std::string(governor) != "rtm") add(governor, "decay", true);
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(LearningGovernors, ExplorationParams,
                         testing::ValuesIn(exploration_cases()),
                         exploration_name);

// --- Level counts ----------------------------------------------------------------

using LevelCase = std::tuple<std::string, std::string, long long>;

class LevelParams : public testing::TestWithParam<LevelCase> {};

TEST_P(LevelParams, ZeroOrNegativeLevelCountsAreRejectedByKey) {
  // A count below 1 must not reach the governor: 0 leaves an empty state
  // space for the first decide() to index, and a negative one wraps through
  // a cast to std::size_t.
  const auto& [governor, key, value] = GetParam();
  const std::string spec =
      governor + "(" + key + "=" + std::to_string(value) + ")";
  try {
    (void)sim::make_governor(spec);
    FAIL() << spec << " accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(key), std::string::npos)
        << spec << ": " << e.what();
  }
  EXPECT_NO_THROW((void)sim::make_governor(governor + "(" + key + "=1)"));
}

std::string level_name(const testing::TestParamInfo<LevelCase>& info) {
  const auto& [governor, key, value] = info.param;
  std::string id = governor + "_" + key + "_" +
                   (value < 0 ? "neg" + std::to_string(-value)
                              : std::to_string(value));
  for (char& c : id) {
    if (c == '-') c = '_';
  }
  return id;
}

INSTANTIATE_TEST_SUITE_P(
    LearningGovernors, LevelParams,
    testing::Values(LevelCase{"mcdvfs", "levels", 0},
                    LevelCase{"mcdvfs", "levels", -1},
                    LevelCase{"rtm", "levels", 0},
                    LevelCase{"rtm", "levels", -1},
                    LevelCase{"rtm", "workload-levels", 0},
                    LevelCase{"rtm", "workload-levels", -3},
                    LevelCase{"rtm", "slack-levels", 0},
                    LevelCase{"rtm", "slack-levels", -3}),
    level_name);

}  // namespace
}  // namespace prime::testing_support

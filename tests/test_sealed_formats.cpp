/// \file test_sealed_formats.cpp
/// \brief The sealed-file envelope across `.ckpt`, `.qpol` and `.fsum`: one
///        corruption grid (format x envelope defect), atomic saves that
///        leave no temporary behind, and a seeded mutation fuzz.
///
/// Every case starts from the sample files of tests/support/format_artefacts.
/// The fuzz property: loading a mutated file either throws the format's own
/// error type, or succeeds, and then saving what it loaded is a fixed
/// point — the saved bytes load back and re-save to the same bytes. Any
/// other exception, a crash or a sanitizer report fails the test.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <iterator>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "common/binio.hpp"
#include "common/rng.hpp"
#include "common/sealed.hpp"
#include "fleet/summary.hpp"
#include "qlib/policy.hpp"
#include "sim/checkpoint.hpp"
#include "support/format_artefacts.hpp"
#include "support/mutate.hpp"

namespace prime::testing_support {
namespace {

/// One sealed format under test, erased to what the grid and fuzz need.
struct Codec {
  std::string name;       ///< Short name for test names: "ckpt", ...
  std::string noun;       ///< The format's message prefix.
  const std::vector<Artefact>* samples = nullptr;
  std::function<void(const std::string& path)> load_file;
  /// Save the first sample to \p path through the format's save_file.
  std::function<void(const std::string& path)> save_sample;
  /// read() then write(): the bytes a loaded file saves back as.
  std::function<std::string(const std::string& bytes)> resave;
  std::function<bool(const std::exception&)> is_own_error;
};

template <typename T, typename Error>
Codec make_codec(std::string name, std::string noun,
                 const std::vector<Artefact>& samples) {
  Codec c;
  c.name = std::move(name);
  c.noun = std::move(noun);
  c.samples = &samples;
  c.load_file = [](const std::string& path) { (void)T::load_file(path); };
  c.resave = [](const std::string& bytes) {
    std::istringstream in(bytes, std::ios::binary);
    const T value = T::read(in, "mutant");
    std::ostringstream out(std::ios::binary);
    value.write(out);
    return out.str();
  };
  c.save_sample = [&samples](const std::string& path) {
    std::istringstream in(samples.front().bytes, std::ios::binary);
    T::read(in, "sample").save_file(path);
  };
  c.is_own_error = [](const std::exception& e) {
    return dynamic_cast<const Error*>(&e) != nullptr;
  };
  return c;
}

enum class Format { kCheckpoint, kPolicy, kSummary };

const Codec& codec(Format f) {
  static const Codec ckpt = make_codec<sim::Checkpoint, sim::CheckpointError>(
      "ckpt", "checkpoint", checkpoint_artefacts());
  static const Codec qpol = make_codec<qlib::PolicyEntry, qlib::QlibError>(
      "qpol", "policy", policy_artefacts());
  static const Codec fsum = make_codec<fleet::ShardSummary, fleet::FleetError>(
      "fsum", "shard summary", summary_artefacts());
  switch (f) {
    case Format::kCheckpoint: return ckpt;
    case Format::kPolicy: return qpol;
    case Format::kSummary: return fsum;
  }
  throw std::logic_error("unknown format");
}

std::string scratch(const std::string& name) {
  const std::string dir = testing::TempDir() + "sealed-formats/" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

/// Call \p fn and return the message of the Codec's own error it throws;
/// any other outcome fails the test.
std::string own_error_of(const Codec& c, const std::function<void()>& fn) {
  try {
    fn();
  } catch (const std::exception& e) {
    EXPECT_TRUE(c.is_own_error(e))
        << c.name << ": wrong error type: " << e.what();
    return e.what();
  }
  ADD_FAILURE() << c.name << ": no error thrown";
  return {};
}

// --- The corruption grid -----------------------------------------------------

/// One envelope defect: how to damage a valid file (nullptr: delete it) and
/// the text the error must carry.
struct Defect {
  const char* name;
  void (*damage)(std::string& bytes);
  const char* text;
};

void patch_u32(std::string& bytes, std::size_t at, std::uint32_t v) {
  common::store_u32(reinterpret_cast<unsigned char*>(bytes.data()) + at, v);
}

const Defect kDefects[] = {
    {"MissingFile", nullptr, "cannot open for reading"},
    {"TruncatedHeader", [](std::string& b) { b.resize(40); },
     "truncated header"},
    {"BadMagic", [](std::string& b) { b[0] = 'X'; },
     "bad magic — not a PRIME-RTM"},
    {"VersionSkew",
     [](std::string& b) {
       patch_u32(b, 8, common::load_u32(
                           reinterpret_cast<unsigned char*>(b.data()) + 8) +
                           1);
     },
     "unsupported version"},
    {"HeaderSizeSkew", [](std::string& b) { patch_u32(b, 12, 128); },
     "header size mismatch (128, expected 64)"},
    {"Unsealed",
     [](std::string& b) {
       common::store_u64(reinterpret_cast<unsigned char*>(b.data()) + 16,
                         common::kSealedUnsealed);
     },
     "unsealed — the writer never finished"},
    {"TruncatedPayload", [](std::string& b) { b.resize(b.size() - 5); },
     "truncated payload"},
    {"TrailingBytes", [](std::string& b) { b += "junk"; },
     "trailing bytes after the sealed payload"},
};

using GridCase = std::tuple<Format, std::size_t>;

class SealedCorruptionGrid : public testing::TestWithParam<GridCase> {};

TEST_P(SealedCorruptionGrid, RejectsWithTheFormatsOwnError) {
  const auto& [format, defect_index] = GetParam();
  const Codec& c = codec(format);
  const Defect& defect = kDefects[defect_index];
  const std::string path =
      scratch(c.name + "-" + defect.name) + "/file." + c.name;
  if (defect.damage != nullptr) {
    std::string bytes = c.samples->front().bytes;
    defect.damage(bytes);
    write_file(path, bytes);
  }
  const std::string message = own_error_of(c, [&] { c.load_file(path); });
  EXPECT_EQ(message.rfind(c.noun + " '" + path + "': ", 0), 0u) << message;
  EXPECT_NE(message.find(defect.text), std::string::npos) << message;
}

std::string grid_name(const testing::TestParamInfo<GridCase>& info) {
  const auto& [format, defect_index] = info.param;
  return codec(format).name + "_" + kDefects[defect_index].name;
}

INSTANTIATE_TEST_SUITE_P(
    AllFormats, SealedCorruptionGrid,
    testing::Combine(testing::Values(Format::kCheckpoint, Format::kPolicy,
                                     Format::kSummary),
                     testing::Range(std::size_t{0}, std::size(kDefects))),
    grid_name);

// --- Atomic saves ------------------------------------------------------------

class SealedSave : public testing::TestWithParam<Format> {};

TEST_P(SealedSave, FailedSavesThrowTheFormatsErrorAndLeaveNoTemporary) {
  const Codec& c = codec(GetParam());
  const std::string dir = scratch(c.name + "-save");

  // The parent directory does not exist: the temporary cannot be created.
  const std::string orphan = dir + "/missing/file." + c.name;
  std::string message = own_error_of(c, [&] { c.save_sample(orphan); });
  EXPECT_NE(message.find(c.noun + ": cannot open '" + orphan + ".tmp'"),
            std::string::npos)
      << message;
  EXPECT_FALSE(std::filesystem::exists(orphan + ".tmp"));

  // The target is a non-empty directory: the temporary is written, the
  // rename fails, and the temporary is removed again.
  const std::string blocked = dir + "/blocked." + c.name;
  std::filesystem::create_directories(blocked + "/inside");
  message = own_error_of(c, [&] { c.save_sample(blocked); });
  EXPECT_NE(message.find(c.noun + ": cannot rename '" + blocked + ".tmp'"),
            std::string::npos)
      << message;
  EXPECT_FALSE(std::filesystem::exists(blocked + ".tmp"));

  // A successful save leaves only the target, byte-identical to the sample.
  const std::string good = dir + "/good." + c.name;
  c.save_sample(good);
  EXPECT_EQ(read_file(good), c.samples->front().bytes);
  EXPECT_FALSE(std::filesystem::exists(good + ".tmp"));
}

INSTANTIATE_TEST_SUITE_P(AllFormats, SealedSave,
                         testing::Values(Format::kCheckpoint, Format::kPolicy,
                                         Format::kSummary),
                         [](const testing::TestParamInfo<Format>& info) {
                           return codec(info.param).name;
                         });

// --- Seeded mutation fuzz ----------------------------------------------------

constexpr std::size_t kMutationsPerFormat = 2000;

class SealedFuzz : public testing::TestWithParam<Format> {};

TEST_P(SealedFuzz, MutantsFailTypedOrResaveToAFixedPoint) {
  const Codec& c = codec(GetParam());
  common::Rng rng(0x5EA1ED + static_cast<std::uint64_t>(GetParam()));
  std::size_t loaded = 0;
  for (std::size_t i = 0; i < kMutationsPerFormat; ++i) {
    const std::string mutant = mutate(*c.samples, rng);
    std::string saved;
    try {
      saved = c.resave(mutant);
    } catch (const std::exception& e) {
      ASSERT_TRUE(c.is_own_error(e))
          << c.name << " mutation " << i << ": " << e.what();
      continue;
    }
    ++loaded;
    std::string again;
    try {
      again = c.resave(saved);
    } catch (const std::exception& e) {
      FAIL() << c.name << " mutation " << i
             << ": the saved file does not load back: " << e.what();
    }
    ASSERT_EQ(again, saved) << c.name << " mutation " << i;
  }
  // Mutations inside opaque blobs and plain numbers load fine; a fuzz
  // where nothing loads would only exercise the header checks.
  EXPECT_GT(loaded, 0u) << c.name;
  EXPECT_LT(loaded, kMutationsPerFormat) << c.name;
}

INSTANTIATE_TEST_SUITE_P(AllFormats, SealedFuzz,
                         testing::Values(Format::kCheckpoint, Format::kPolicy,
                                         Format::kSummary),
                         [](const testing::TestParamInfo<Format>& info) {
                           return codec(info.param).name;
                         });

}  // namespace
}  // namespace prime::testing_support

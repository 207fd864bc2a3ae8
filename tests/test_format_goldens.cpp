/// \file test_format_goldens.cpp
/// \brief Frozen digests of the sealed `.ckpt`, `.qpol` and `.fsum` bytes.
///
/// Each sample file of tests/support/format_artefacts digests to one FNV-1a
/// value over its bytes: a `.ckpt` per registered governor, a leaf and a
/// merged `.qpol`, and a 2-cell `.fsum` with policy records. A digest change
/// means a file format changed. Refactors of the format code must leave
/// every entry untouched; an intended format change bumps the format version
/// and re-captures the table.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <map>
#include <sstream>
#include <string>

#include "common/hash.hpp"
#include "sim/checkpoint.hpp"
#include "support/format_artefacts.hpp"

namespace prime::testing_support {
namespace {

std::string hex(std::uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

std::uint64_t digest(const std::string& bytes) {
  common::Fnv1a64 h;
  h.bytes(bytes.data(), bytes.size());
  return h.value();
}

void expect_goldens(const std::vector<Artefact>& artefacts,
                    const std::map<std::string, std::uint64_t>& table,
                    const std::string& extension) {
  for (const Artefact& a : artefacts) {
    EXPECT_FALSE(a.bytes.empty()) << a.name;
    const auto it = table.find(a.name);
    if (it == table.end()) {
      ADD_FAILURE() << "missing golden: {\"" << a.name << "\", "
                    << hex(digest(a.bytes)) << "},";
      continue;
    }
    EXPECT_EQ(hex(digest(a.bytes)), hex(it->second))
        << a.name << extension << " (" << a.bytes.size() << " bytes)";
  }
  EXPECT_EQ(artefacts.size(), table.size());
}

// Captured from the per-format envelope code before the shared sealed-file
// envelope replaced it; keyed by governor.
const std::map<std::string, std::uint64_t> kCheckpointGoldens = {
    {"conservative", 0x79ed0664b48a6b15},
    {"mcdvfs", 0x1d0e500de80af2e3},
    {"ondemand", 0x7d75c2e42ce7319e},
    {"oracle", 0xb58d4abc5a4f885d},
    {"performance", 0xd209db72e154a135},
    {"pid", 0xea2ec76e0d580f4b},
    {"powersave", 0xdcd4edcf19a2f1a1},
    {"rtm", 0xdc88c10c7117a997},
    {"rtm-manycore", 0x00d0bbaf4e4b826f},
    {"rtm-manycore-normalized", 0xa407c7c058247073},
    {"rtm-thermal", 0x9403f61ebc1a3fbc},
    {"rtm-upd", 0xc5f5ca2da5012ee5},
    {"schedutil", 0xae1983ff816c73c1},
    {"shen-rl", 0xab53c9008860adc2},
    {"thermal-cap", 0x9403f61ebc1a3fbc},
    {"userspace", 0x10c04273736825c8},
};

const std::map<std::string, std::uint64_t> kPolicyGoldens = {
    {"leaf", 0x0061ebee06c3e4ee},
    {"merged", 0x904a58bbd7481ed7},
};

const std::map<std::string, std::uint64_t> kSummaryGoldens = {
    {"shard", 0x3124491256b4c6c5},
};

TEST(FormatGolden, CheckpointPerGovernorDigestMatches) {
  expect_goldens(checkpoint_artefacts(), kCheckpointGoldens, ".ckpt");
  // The samples really are the mid-run snapshot, not the run-end one.
  for (const Artefact& a : checkpoint_artefacts()) {
    std::istringstream in(a.bytes);
    EXPECT_EQ(sim::Checkpoint::read(in, a.name).frame_position,
              kCheckpointFrame)
        << a.name;
  }
}

TEST(FormatGolden, PolicyLeafAndMergedDigestMatches) {
  expect_goldens(policy_artefacts(), kPolicyGoldens, ".qpol");
}

TEST(FormatGolden, ShardSummaryDigestMatches) {
  expect_goldens(summary_artefacts(), kSummaryGoldens, ".fsum");
}

}  // namespace
}  // namespace prime::testing_support

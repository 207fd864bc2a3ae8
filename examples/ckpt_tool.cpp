/// \file ckpt_tool.cpp
/// \brief Inspect and verify `.ckpt` checkpoint files.
///
/// The command-line companion of the checkpoint(path=) telemetry sink, the
/// one way runs write checkpoints (in the mold of trace_tool for `.bt` traces):
/// prints a checkpoint's identity, frame position and aggregate snapshot, or
/// validates one structurally — magic, version, seal, payload integrity —
/// exiting nonzero on any defect, which is how CI gates a checkpoint before
/// resuming from it.
///
/// Usage: ckpt_tool path=run.ckpt [mode=info|verify]
#include <iostream>
#include <string>

#include "common/sealed.hpp"
#include "common/strings.hpp"
#include "sim/checkpoint.hpp"
#include "support/front.hpp"

namespace {

using prime::common::format_double;
using prime::common::hex16;

void print_info(const prime::sim::Checkpoint& ck, const std::string& path) {
  const prime::sim::RunResult& agg = ck.aggregates;
  std::cout << "checkpoint " << path << "\n"
            << "  format:         v" << prime::sim::kCheckpointVersion << ", "
            << prime::common::kSealedHeaderSize
            << " B header + sealed payload\n"
            << "  governor:       " << ck.governor << "\n"
            << "  application:    " << ck.application << "\n"
            << "  platform:       " << ck.opp_count << " OPPs, "
            << ck.core_count << " cores\n"
            << "  platform shape: " << hex16(ck.platform_fingerprint) << "\n"
            << "  frame position: " << ck.frame_position << "\n"
            << "  pending obs:    " << (ck.has_last ? "yes" : "no") << "\n"
            << "  governor state: " << ck.governor_state.size() << " B\n"
            << "  platform state: " << ck.platform_state.size() << " B\n"
            << "  energy so far:  " << format_double(agg.total_energy, 2)
            << " J\n"
            << "  sim time:       " << format_double(agg.total_time, 2)
            << " s\n"
            << "  miss rate:      " << format_double(agg.miss_rate(), 4)
            << "\n"
            << "  mean power:     " << format_double(agg.mean_power(), 2)
            << " W\n";
}

int run(const prime::common::Config& cfg) {
  using namespace prime;

  const std::string path = cfg.get_string("path", "");
  const std::string mode = cfg.get_string("mode", "info");
  if (path.empty()) {
    std::cerr << "Usage: ckpt_tool path=run.ckpt [mode=info|verify]\n";
    return 2;
  }

  // Loading performs the full structural validation (magic, version, seal,
  // payload sizes, trailing bytes) — a checkpoint that loads is resumable.
  const sim::Checkpoint ck = sim::Checkpoint::load_file(path);
  if (mode == "info") {
    print_info(ck, path);
    return 0;
  }
  if (mode == "verify") {
    std::cout << path << ": OK — resumable checkpoint of '" << ck.governor
              << "' on '" << ck.application << "' at frame "
              << ck.frame_position << "\n";
    return 0;
  }
  std::cerr << "ckpt_tool: unknown mode '" << mode
            << "' (supported: info, verify)\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  return prime::front::run_main("ckpt_tool", argc, argv, run);
}

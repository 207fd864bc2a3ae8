/// \file paper.cpp
/// \brief Prints one of the paper's tables or figures, or an ablation around
///        them, next to the paper's values (see bench/paper/tables.hpp).
///
/// Usage: bench_paper table=<name> [key=value ...]
///   I          Table I, energy/perf vs Oracle  [frames=3000 fps=25 seed=42]
///   II         Table II, explorations          [frames=1500 seeds=5]
///   III        Table III, learning overhead    [frames=1200 seeds=5]
///   fig3       Fig. 3, EWMA misprediction      [frames=300 fps=24 seed=7
///                                               csv=fig3.csv]
///   baselines  every governor, Table I cell    [frames=2000 seed=42]
///   gamma      EWMA smoothing factor           [frames=1500 seed=7]
///   policy     exploration policy and slack    [frames=2000 seed=42]
///   qtable     Q-table discretisation N        [frames=2000 seed=42]
///   reward     reward shaping                  [frames=2000 seed=42]
#include <iostream>

#include "common/strings.hpp"
#include "paper/tables.hpp"
#include "support/front.hpp"

int main(int argc, char** argv) {
  using namespace prime;
  return front::run_main(
      "bench_paper", argc, argv, [](const common::Config& cfg) {
        const std::string table = cfg.get_string("table", "");
        if (table.empty()) {
          std::cerr << "Usage: bench_paper table=<"
                    << common::join(paper::table_names(), "|")
                    << "> [key=value ...]\n";
          return 2;
        }
        (void)paper::run_table(table, cfg, std::cout);
        return 0;
      });
}

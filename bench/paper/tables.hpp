/// \file tables.hpp
/// \brief The paper's tables and figures and the ablations around them, as
///        bench_paper prints them.
///
/// Table I (energy/performance vs the Oracle), Table II (explorations),
/// Table III (learning overhead), Fig. 3 (EWMA misprediction) and five
/// ablations (baselines, gamma, policy, qtable, reward). Six of them are one
/// (workload, fps) cell swept over governor variants and are written as rows
/// of data; Tables II and III (seed-averaged) and Fig. 3 (a probe run) are
/// functions. Each returns the f64s it computed so the tests can pin them.
#pragma once

#include <ostream>
#include <string>
#include <vector>

#include "common/config.hpp"

namespace prime::paper {

/// \brief Every table name `bench_paper table=` accepts.
[[nodiscard]] std::vector<std::string> table_names();

/// \brief Print table \p name to \p out, reading its keys (frames, seed, ...)
///        from \p cfg, and return every f64 it computed in print order.
///        Throws common::UnknownNameError for an unknown name and
///        std::invalid_argument for a bad key value.
std::vector<double> run_table(const std::string& name,
                              const common::Config& cfg, std::ostream& out);

}  // namespace prime::paper

/// \file workloads.hpp
/// \brief The benchmark's four workloads. Each is a closed-loop batch job
///        repeated for the time budget; see perfbench/README.md for why each
///        was chosen and which layers it stresses.
#pragma once

#include <string>
#include <vector>

#include "bench.hpp"

namespace perfbench {

/// The workload names, in BENCHMARK.json order.
[[nodiscard]] const std::vector<std::string>& workload_names();

/// Run workload \p opt.workload. With opt.trace false the result holds the
/// end-to-end metrics; with it true, an untraced half followed by a traced
/// half whose spans land in \p tracer, and the per-layer metrics.
/// Result::digest is the job's output digest (the same for every rep). With
/// opt.golden set, the golden job runs after the workload and its checks
/// join the ledger; failed_ops_ratio is taken from the final ledger.
[[nodiscard]] Result run_workload(const Options& opt, Tracer& tracer);

/// The end-to-end metric names every untraced run reports.
[[nodiscard]] const std::vector<std::string>& end_to_end_names();
/// The per-layer metric names every traced run reports; a metric of a layer
/// a workload does not exercise reads 0 there.
[[nodiscard]] const std::vector<std::string>& per_layer_names();

}  // namespace perfbench

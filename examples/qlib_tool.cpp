/// \file qlib_tool.cpp
/// \brief Inspect, verify and merge `.qpol` policy-library entries, and
///        measure what warm starting buys.
///
/// The command-line companion of the warm-start policy library (in the mold
/// of ckpt_tool for `.ckpt` files):
///
///   qlib_tool mode=list   dir=LIB
///   qlib_tool mode=info   path=ENTRY.qpol
///   qlib_tool mode=verify path=ENTRY.qpol | dir=LIB
///   qlib_tool mode=merge  in=a.qpol,b.qpol[,...] [dir=LIB] out=MERGED.qpol
///   qlib_tool mode=warmdiff [governor=rtm] [train=mpeg4] [eval=h264]
///             [fps=25] [frames=600] [shards=4] [window=150] [out=DIR]
///
/// `merge` folds the given entries (plus every entry of `dir=`, when given)
/// with qlib::merge_entries — the fold is associative and order-invariant,
/// so the output bytes do not depend on the input order. `warmdiff` is the
/// end-to-end differential CI runs: train `shards` independent devices on
/// the training workload, publish their leaf policies, merge them into one
/// fleet policy, then run the evaluation workload cold / warm (one leaf) /
/// fleet-merged and report early deadline misses and epochs-to-convergence.
/// Exits nonzero when the fleet-merged warm start fails to beat cold.
#include <iostream>
#include <string>
#include <vector>

#include "common/strings.hpp"
#include "hw/platform.hpp"
#include "qlib/library.hpp"
#include "qlib/policy.hpp"
#include "sim/engine.hpp"
#include "sim/experiment.hpp"
#include "sim/report.hpp"
#include "sim/telemetry.hpp"
#include "support/front.hpp"

namespace {

using namespace prime;
using common::hex16;

const char* kind_name(qlib::PolicyBlobKind kind) {
  return kind == qlib::PolicyBlobKind::kLeaf ? "leaf" : "merged";
}

void print_entry(const qlib::PolicyEntry& e, const std::string& path) {
  std::cout << "policy " << path << "\n"
            << "  key:            " << e.key.canonical() << "\n"
            << "  fingerprint:    " << hex16(e.key.fingerprint()) << "\n"
            << "  governor:       " << e.governor_name << "\n"
            << "  platform:       " << e.opp_count << " OPPs, " << e.core_count
            << " cores, shape " << hex16(e.key.platform_fingerprint) << "\n"
            << "  kind:           " << kind_name(e.kind) << "\n"
            << "  visit weight:   " << e.provenance.visit_weight << "\n"
            << "  epochs trained: " << e.provenance.epochs_trained << "\n"
            << "  sources:        " << e.provenance.sources << "\n"
            << "  source fp:      " << hex16(e.provenance.source_fingerprint)
            << "\n"
            << "  blob:           " << e.blob.size() << " B\n";
}

int mode_list(const std::string& dir) {
  const qlib::PolicyLibrary lib(dir);
  const auto paths = lib.list();
  if (paths.empty()) {
    std::cout << dir << ": empty policy library\n";
    return 0;
  }
  for (const auto& path : paths) {
    const qlib::PolicyEntry e = qlib::PolicyEntry::load_file(path);
    std::cout << path << "\n  " << kind_name(e.kind) << " '"
              << e.governor_name << "', weight " << e.provenance.visit_weight
              << ", " << e.provenance.epochs_trained << " epochs from "
              << e.provenance.sources << " source(s)\n  ["
              << e.key.canonical() << "]\n";
  }
  std::cout << paths.size() << " entr" << (paths.size() == 1 ? "y" : "ies")
            << "\n";
  return 0;
}

int mode_verify(const std::string& path, const std::string& dir) {
  // Loading performs the full structural validation (magic, version, seal,
  // payload sizes, trailing bytes, key-fingerprint skew) — an entry that
  // loads is warm-startable.
  std::vector<std::string> paths;
  if (!path.empty()) paths.push_back(path);
  if (!dir.empty()) {
    const qlib::PolicyLibrary lib(dir);
    for (auto& p : lib.list()) paths.push_back(std::move(p));
  }
  if (paths.empty()) {
    std::cerr << "qlib_tool: verify needs path= or dir=\n";
    return 2;
  }
  for (const auto& p : paths) {
    const qlib::PolicyEntry e = qlib::PolicyEntry::load_file(p);
    std::cout << p << ": OK — " << kind_name(e.kind) << " policy of '"
              << e.governor_name << "' [" << e.key.canonical() << "]\n";
  }
  return 0;
}

int mode_merge(const std::string& in, const std::string& dir,
               const std::string& out) {
  if (out.empty()) {
    std::cerr << "qlib_tool: merge needs out=MERGED.qpol\n";
    return 2;
  }
  std::vector<qlib::PolicyEntry> entries;
  if (!in.empty()) {
    for (const auto& field : common::split(in, ',')) {
      const std::string p = common::trim(field);
      if (!p.empty()) entries.push_back(qlib::PolicyEntry::load_file(p));
    }
  }
  if (!dir.empty()) {
    const qlib::PolicyLibrary lib(dir);
    for (auto& e : lib.entries()) entries.push_back(std::move(e));
  }
  if (entries.empty()) {
    std::cerr << "qlib_tool: merge needs in=a.qpol,b.qpol,... and/or dir=\n";
    return 2;
  }
  const qlib::PolicyEntry merged = qlib::merge_entries(entries);
  merged.save_file(out);
  std::cout << out << ": merged " << entries.size() << " entr"
            << (entries.size() == 1 ? "y" : "ies") << " — weight "
            << merged.provenance.visit_weight << ", "
            << merged.provenance.epochs_trained << " epochs from "
            << merged.provenance.sources << " source(s)\n";
  return 0;
}

/// Deadline misses in the first \p window epochs — the cost of exploration.
std::size_t early_misses(const std::vector<sim::EpochRecord>& records,
                         std::size_t window) {
  std::size_t misses = 0;
  for (std::size_t i = 0; i < records.size() && i < window; ++i) {
    if (!records[i].deadline_met) ++misses;
  }
  return misses;
}

/// First epoch index from which a full \p window has miss rate <= 10% —
/// records.size() when the run never settles ("epochs to convergence").
std::size_t convergence_epoch(const std::vector<sim::EpochRecord>& records,
                              std::size_t window) {
  if (records.size() < window) return records.size();
  std::size_t misses = 0;
  for (std::size_t i = 0; i < window; ++i) {
    if (!records[i].deadline_met) ++misses;
  }
  const std::size_t budget = window / 10;
  if (misses <= budget) return 0;
  for (std::size_t i = window; i < records.size(); ++i) {
    if (!records[i].deadline_met) ++misses;
    if (!records[i - window].deadline_met) --misses;
    if (misses <= budget) return i - window + 1;
  }
  return records.size();
}

struct WarmdiffRow {
  std::string label;
  sim::RunResult run;
  std::size_t early = 0;
  std::size_t converged = 0;
};

int mode_warmdiff(const common::Config& cfg) {
  const std::string governor_spec = cfg.get_string("governor", "rtm");
  const std::string train_wl = cfg.get_string("train", "mpeg4");
  const std::string eval_wl = cfg.get_string("eval", "h264");
  const double fps = cfg.get_double("fps", 25.0);
  const std::size_t frames = cfg.get_count("frames", 600);
  const std::size_t shards = cfg.get_count("shards", 4);
  const std::size_t window = cfg.get_count("window", 150, 0);
  const std::string out_dir = cfg.get_string("out", "qlib-warmdiff");

  auto platform = hw::Platform::odroid_xu3_a15();

  const auto make_app = [&](const std::string& workload, std::uint64_t seed) {
    sim::ExperimentSpec spec;
    spec.workload = workload;
    spec.fps = fps;
    spec.frames = frames;
    spec.seed = seed;
    return sim::make_application(spec, *platform);
  };

  // Train: `shards` independent devices (distinct governor + trace seeds)
  // on the training workload, each publishing a leaf policy.
  std::vector<qlib::PolicyEntry> leaves;
  leaves.reserve(shards);
  for (std::size_t i = 0; i < shards; ++i) {
    const wl::Application app = make_app(train_wl, 100 + i);
    const auto governor = sim::make_governor(governor_spec, 1 + i);
    const sim::RunResult run = sim::run_simulation(*platform, app, *governor);
    leaves.push_back(qlib::make_leaf_entry(*platform, *governor, train_wl, fps,
                                           governor_spec, run.epoch_count));
  }

  // Publish: one leaf entry (keyed by the *evaluation* workload so warm
  // starting finds it — the knowledge transfers across the class boundary
  // exactly like RunOptions::reset_governor=false does) and the fleet merge.
  // The leaf lives outside the fleet library so the directory-mode lookup
  // below stays unambiguous.
  const qlib::PolicyLibrary lib(out_dir + "/fleet");
  qlib::PolicyEntry leaf = leaves.front();
  leaf.key = qlib::PolicyKey::make(*platform, eval_wl, fps, governor_spec);
  const std::string leaf_path = out_dir + "/leaf.qpol";
  leaf.save_file(leaf_path);

  qlib::PolicyEntry fleet = qlib::merge_entries(leaves);
  fleet.key = qlib::PolicyKey::make(*platform, eval_wl, fps, governor_spec);
  const std::string fleet_path = lib.put(fleet);

  // Evaluate: the same fresh evaluation run three ways.
  const wl::Application eval_app = make_app(eval_wl, 7);
  const auto evaluate = [&](const std::string& label,
                            const std::string& warm_from) {
    const auto governor = sim::make_governor(governor_spec, 42);
    sim::TraceSink trace;
    sim::RunOptions opt;
    opt.sinks = {&trace};
    opt.warm_start_from = warm_from;
    WarmdiffRow row;
    row.label = label;
    row.run = sim::run_simulation(*platform, eval_app, *governor, opt);
    row.early = early_misses(trace.records(), window);
    row.converged = convergence_epoch(trace.records(), window);
    return row;
  };

  const std::vector<WarmdiffRow> rows = {
      evaluate("cold", ""),
      evaluate("warm (1 leaf)", leaf_path),
      evaluate("fleet-merged (" + std::to_string(shards) + ")",
               lib.dir()),
  };

  sim::TextTable table;
  table.title = "Warm-start differential: " + governor_spec + " trained on " +
                train_wl + ", evaluated on " + eval_wl + " (" +
                std::to_string(frames) + " frames @ " +
                common::format_double(fps, 0) + " fps)";
  table.headers = {"start",        "early misses", "converged @",
                   "miss rate",    "energy (J)",   "epochs"};
  for (const WarmdiffRow& row : rows) {
    table.rows.push_back(
        {row.label, std::to_string(row.early),
         row.converged < frames ? std::to_string(row.converged) : "never",
         common::format_double(row.run.miss_rate(), 4),
         common::format_double(row.run.total_energy, 2),
         std::to_string(row.run.epoch_count)});
  }
  sim::print_table(std::cout, table);
  std::cout << "fleet policy: " << fleet_path << " (weight "
            << fleet.provenance.visit_weight << ", "
            << fleet.provenance.epochs_trained << " epochs from "
            << fleet.provenance.sources << " sources)\n";

  const WarmdiffRow& cold = rows[0];
  const WarmdiffRow& merged = rows[2];
  if (merged.early >= cold.early && cold.early > 0) {
    std::cerr << "qlib_tool: warmdiff FAILED — fleet-merged warm start ("
              << merged.early << " early misses) did not beat cold ("
              << cold.early << ")\n";
    return 1;
  }
  std::cout << "warmdiff OK: fleet-merged " << merged.early
            << " early misses vs cold " << cold.early << "\n";
  return 0;
}

int run(const common::Config& cfg) {
  const std::string mode = cfg.get_string("mode", "list");

  if (mode == "list") {
    const std::string dir = cfg.get_string("dir", "");
    if (dir.empty()) {
      std::cerr << "qlib_tool: list needs dir=LIB\n";
      return 2;
    }
    return mode_list(dir);
  }
  if (mode == "info") {
    const std::string path = cfg.get_string("path", "");
    if (path.empty()) {
      std::cerr << "qlib_tool: info needs path=ENTRY.qpol\n";
      return 2;
    }
    print_entry(qlib::PolicyEntry::load_file(path), path);
    return 0;
  }
  if (mode == "verify") {
    return mode_verify(cfg.get_string("path", ""), cfg.get_string("dir", ""));
  }
  if (mode == "merge") {
    return mode_merge(cfg.get_string("in", ""), cfg.get_string("dir", ""),
                      cfg.get_string("out", ""));
  }
  if (mode == "warmdiff") {
    return mode_warmdiff(cfg);
  }
  std::cerr << "qlib_tool: unknown mode '" << mode
            << "' (supported: list, info, verify, merge, warmdiff)\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  return prime::front::run_main("qlib_tool", argc, argv, run);
}

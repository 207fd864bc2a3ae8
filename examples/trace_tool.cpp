/// \file trace_tool.cpp
/// \brief Inspect and convert `.bt` binary epoch traces.
///
/// The command-line companion of the bintrace(path=) telemetry sink: prints
/// a trace's header and streamed aggregate summary, converts it to the
/// per-frame series CSV (byte-identical to what csv(path=) would have
/// written for the same run), dumps a single record by epoch index using
/// the reader's O(1) random access, or concatenates sealed traces of one
/// logical run into a single re-sealed trace.
///
/// Usage: trace_tool path=run.bt [mode=info|csv|record]
///                   [out=run.csv]   (csv mode; stdout when omitted)
///                   [record=N]      (record mode: record index to print)
///        trace_tool mode=cat in=a.bt,b.bt,... out=all.bt
#include <cstdint>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "common/strings.hpp"
#include "sim/bintrace.hpp"
#include "support/front.hpp"

namespace {

using prime::common::format_double;

void print_info(prime::sim::BinTraceReader& reader) {
  // Stream the records once to recompute the run's aggregate summary — the
  // same accumulation the engine performed while writing them.
  prime::sim::RunResult aggregates;
  while (const auto record = reader.next()) aggregates.accumulate(*record);
  reader.rewind();

  const double bytes_per_epoch =
      aggregates.epoch_count == 0
          ? 0.0
          : static_cast<double>(reader.file_size()) /
                static_cast<double>(aggregates.epoch_count);
  std::cout << "bintrace " << reader.path() << "\n"
            << "  format:      v" << reader.version() << ", "
            << prime::sim::kBinTraceHeaderSize << " B header + "
            << prime::sim::kBinTraceRecordSize << " B/record\n"
            << "  governor:    " << reader.governor() << "\n"
            << "  application: " << reader.application() << "\n"
            << "  records:     " << reader.record_count() << "\n"
            << "  file size:   " << reader.file_size() << " B ("
            << format_double(bytes_per_epoch, 1) << " B/epoch)\n"
            << "  energy:      " << format_double(aggregates.total_energy, 2)
            << " J\n"
            << "  sim time:    " << format_double(aggregates.total_time, 2)
            << " s\n"
            << "  miss rate:   " << format_double(aggregates.miss_rate(), 4)
            << "\n"
            << "  mean power:  " << format_double(aggregates.mean_power(), 2)
            << " W\n";
}

int print_record(prime::sim::BinTraceReader& reader, std::size_t index) {
  if (index >= reader.record_count()) {
    std::cerr << "trace_tool: record " << index << " out of range (trace has "
              << reader.record_count() << " records)\n";
    return 1;
  }
  const prime::sim::EpochRecord r = reader.at(index);
  std::cout << "record " << index << " of " << reader.path() << "\n"
            << "  epoch:        " << r.epoch << "\n"
            << "  period:       " << format_double(r.period, 6) << " s\n"
            << "  opp_index:    " << r.opp_index << "\n"
            << "  frequency:    " << format_double(prime::common::to_mhz(r.frequency), 0)
            << " MHz\n"
            << "  demand:       " << r.demand << " cycles\n"
            << "  executed:     " << r.executed << " cycles\n"
            << "  frame_time:   " << format_double(r.frame_time, 6) << " s\n"
            << "  window:       " << format_double(r.window, 6) << " s\n"
            << "  energy:       " << format_double(prime::common::to_mj(r.energy), 3)
            << " mJ\n"
            << "  sensor_power: " << format_double(r.sensor_power, 3) << " W\n"
            << "  temperature:  " << format_double(r.temperature, 1) << " C\n"
            << "  slack:        " << format_double(r.slack, 4) << "\n"
            << "  deadline_met: " << (r.deadline_met ? "yes" : "no") << "\n";
  return 0;
}

int run(const prime::common::Config& cfg) {
  using namespace prime;

  const std::string path = cfg.get_string("path", "");
  const std::string mode = cfg.get_string("mode", "info");

  if (mode == "cat") {
    std::vector<std::string> inputs;
    for (const auto& field :
         common::split(cfg.get_string("in", ""), ',')) {
      const std::string token = common::trim(field);
      if (!token.empty()) inputs.push_back(token);
    }
    const std::string out_path = cfg.get_string("out", "");
    if (inputs.empty() || out_path.empty()) {
      std::cerr << "Usage: trace_tool mode=cat in=a.bt,b.bt,... out=all.bt\n";
      return 2;
    }
    const std::uint64_t records = sim::concat_traces(inputs, out_path);
    std::cout << "wrote " << records << " records from " << inputs.size()
              << " trace(s) to " << out_path << "\n";
    return 0;
  }

  if (path.empty()) {
    std::cerr << "Usage: trace_tool path=run.bt [mode=info|csv|record] "
                 "[out=run.csv] [record=N]\n"
                 "       trace_tool mode=cat in=a.bt,b.bt,... out=all.bt\n";
    return 2;
  }

  sim::BinTraceReader reader(path);
  if (mode == "info") {
    print_info(reader);
    return 0;
  }
  if (mode == "csv") {
    const std::string out_path = cfg.get_string("out", "");
    if (out_path.empty()) {
      reader.to_csv(std::cout);
      return 0;
    }
    std::ofstream out(out_path);
    if (!out) {
      std::cerr << "trace_tool: cannot open '" << out_path
                << "' for writing\n";
      return 1;
    }
    reader.to_csv(out);
    std::cout << "wrote " << reader.record_count() << " rows to "
              << out_path << "\n";
    return 0;
  }
  if (mode == "record") {
    return print_record(reader, cfg.get_count("record", 0, 0));
  }
  std::cerr << "trace_tool: unknown mode '" << mode
            << "' (supported: info, csv, record)\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  return prime::front::run_main("trace_tool", argc, argv, run);
}

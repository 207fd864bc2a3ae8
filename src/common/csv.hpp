/// \file csv.hpp
/// \brief Minimal CSV writing/reading for experiment traces.
///
/// Benches dump per-frame series (Fig. 3 data, sweeps) as CSV so they can be
/// re-plotted outside the harness. The reader supports the subset we emit:
/// comma separation, no embedded commas/quotes, first row is a header.
#pragma once

#include <initializer_list>
#include <ostream>
#include <span>
#include <string>
#include <vector>

namespace prime::common {

/// \brief Streams rows of a CSV table to any std::ostream.
class CsvWriter {
 public:
  /// \brief Bind to an output stream; the stream must outlive the writer.
  explicit CsvWriter(std::ostream& out) : out_(&out) {}

  /// \brief Write the header row. Call once, before any data rows.
  void header(std::initializer_list<std::string> names);
  /// \brief Write the header row from a vector.
  void header(const std::vector<std::string>& names);
  /// \brief Write one data row of doubles (formatted as by "%.9g").
  void row(std::span<const double> values);
  /// \brief Write one data row of doubles given as a braced list.
  void row(std::initializer_list<double> values) {
    row(std::span<const double>(values.begin(), values.size()));
  }
  /// \brief Write one data row of preformatted cells.
  void row_strings(const std::vector<std::string>& cells);
  /// \brief Number of data rows written so far.
  [[nodiscard]] std::size_t rows_written() const noexcept { return rows_; }

 private:
  void write_cells(const std::vector<std::string>& cells);
  std::ostream* out_;
  std::size_t rows_ = 0;
};

/// \brief Parsed CSV table: a header plus rows of string cells.
struct CsvTable {
  std::vector<std::string> header;            ///< Column names.
  std::vector<std::vector<std::string>> rows; ///< Data rows (ragged allowed).

  /// \brief Index of the named column, or -1 if absent.
  [[nodiscard]] int column_index(const std::string& name) const;
  /// \brief Column \p name converted to doubles. An absent column yields an
  ///        empty vector (callers probe with column_index first); a row too
  ///        short to hold the column, or a cell that is not entirely a
  ///        number, throws std::runtime_error naming the row and column —
  ///        corrupt tables fail closed instead of reading as zeroes.
  [[nodiscard]] std::vector<double> column_as_double(const std::string& name) const;
};

/// \brief Parse CSV text (first line = header). Tolerates trailing newline.
[[nodiscard]] CsvTable parse_csv(const std::string& text);

/// \brief Read and parse a CSV file. Throws std::runtime_error on I/O failure.
[[nodiscard]] CsvTable read_csv_file(const std::string& path);

}  // namespace prime::common

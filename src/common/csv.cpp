#include "common/csv.hpp"

#include <cerrno>
#include <charconv>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "common/strings.hpp"

namespace prime::common {

namespace {

/// Parse one cell strictly as a double: surrounding whitespace tolerated
/// (strtod always accepted it), whole cell, finite-range. strtod with a null
/// endptr would silently turn "abc" into 0.0 — a corrupt table must throw,
/// not feed zeroes into downstream statistics.
double parse_double_cell(const std::string& raw, const std::string& column,
                         std::size_t row) {
  const std::string cell = trim(raw);
  errno = 0;
  char* end = nullptr;
  const double value = std::strtod(cell.c_str(), &end);
  if (cell.empty() || end != cell.c_str() + cell.size()) {
    throw std::runtime_error("CsvTable: malformed value '" + raw +
                             "' in column '" + column + "', data row " +
                             std::to_string(row));
  }
  if (errno == ERANGE) {
    throw std::runtime_error("CsvTable: value '" + raw + "' in column '" +
                             column + "', data row " + std::to_string(row) +
                             " is out of double range");
  }
  return value;
}

}  // namespace

void CsvWriter::header(std::initializer_list<std::string> names) {
  header(std::vector<std::string>(names));
}

void CsvWriter::header(const std::vector<std::string>& names) {
  write_cells(names);
}

void CsvWriter::row(std::span<const double> values) {
  // to_chars with a precision formats as printf("%.9g") does; a cell takes
  // at most 16 chars ("-1.23456789e-308"). Long rows flush in pieces.
  constexpr std::size_t kCellMax = 16;
  char buf[256];
  char* end = buf;
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (end + kCellMax + 2 > buf + sizeof buf) {
      out_->write(buf, end - buf);
      end = buf;
    }
    if (i > 0) *end++ = ',';
    end = std::to_chars(end, buf + sizeof buf, values[i],
                        std::chars_format::general, 9).ptr;
  }
  *end++ = '\n';
  out_->write(buf, end - buf);
  ++rows_;
}

void CsvWriter::row_strings(const std::vector<std::string>& cells) {
  write_cells(cells);
  ++rows_;
}

void CsvWriter::write_cells(const std::vector<std::string>& cells) {
  bool first = true;
  for (const auto& c : cells) {
    if (!first) *out_ << ',';
    *out_ << c;
    first = false;
  }
  *out_ << '\n';
}

int CsvTable::column_index(const std::string& name) const {
  for (std::size_t i = 0; i < header.size(); ++i) {
    if (header[i] == name) return static_cast<int>(i);
  }
  return -1;
}

std::vector<double> CsvTable::column_as_double(const std::string& name) const {
  const int idx = column_index(name);
  std::vector<double> out;
  if (idx < 0) return out;
  const auto col = static_cast<std::size_t>(idx);
  out.reserve(rows.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    if (col >= rows[i].size()) {
      throw std::runtime_error(
          "CsvTable: data row " + std::to_string(i) + " has " +
          std::to_string(rows[i].size()) + " cell(s), too short for column '" +
          name + "' (index " + std::to_string(col) + ")");
    }
    out.push_back(parse_double_cell(rows[i][col], name, i));
  }
  return out;
}

CsvTable parse_csv(const std::string& text) {
  CsvTable table;
  std::istringstream in(text);
  std::string line;
  bool first = true;
  while (std::getline(in, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) continue;
    auto cells = split(line, ',');
    if (first) {
      table.header = std::move(cells);
      first = false;
    } else {
      table.rows.push_back(std::move(cells));
    }
  }
  return table;
}

CsvTable read_csv_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("read_csv_file: cannot open " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return parse_csv(ss.str());
}

}  // namespace prime::common

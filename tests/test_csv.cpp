/// \file test_csv.cpp
/// \brief Unit tests for CSV writing and parsing.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <sstream>
#include <vector>

#include "common/csv.hpp"
#include "common/rng.hpp"

namespace prime::common {
namespace {

TEST(CsvWriter, HeaderAndRows) {
  std::ostringstream out;
  CsvWriter w(out);
  w.header({"a", "b"});
  w.row({1.0, 2.5});
  w.row({3.0, -4.25});
  EXPECT_EQ(out.str(), "a,b\n1,2.5\n3,-4.25\n");
  EXPECT_EQ(w.rows_written(), 2u);
}

TEST(CsvWriter, StringRows) {
  std::ostringstream out;
  CsvWriter w(out);
  w.header({"name", "tag"});
  w.row_strings({"x264", "I"});
  EXPECT_EQ(out.str(), "name,tag\nx264,I\n");
}

TEST(CsvWriter, HighPrecisionDoubles) {
  std::ostringstream out;
  CsvWriter w(out);
  w.header({"v"});
  w.row({123456789.123});
  EXPECT_NE(out.str().find("123456789"), std::string::npos);
}

/// The printf("%.9g") row the writer's to_chars formatting must reproduce.
std::string printf_row(const std::vector<double>& values) {
  std::string row;
  for (std::size_t i = 0; i < values.size(); ++i) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.9g", values[i]);
    if (i > 0) row += ',';
    row += buf;
  }
  return row + '\n';
}

TEST(CsvWriter, RowBytesMatchPrintfG9) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  constexpr double kDenormMin = std::numeric_limits<double>::denorm_min();
  constexpr double kNormMin = std::numeric_limits<double>::min();
  const std::vector<std::vector<double>> rows = {
      {0.0, -0.0},
      {kInf, -kInf},
      {kNan, -kNan, std::copysign(kNan, -1.0), std::copysign(kNan, 1.0)},
      {kDenormMin, -kDenormMin, kNormMin - kDenormMin, kNormMin / 3.0},
      {9007199254740993.0, 9007199254740992.0, -9007199254740993.0},
      {1e300, 1e-300, -1e300, -1e-300},
      {std::numeric_limits<double>::max(), -std::numeric_limits<double>::max()},
      {123456789.123, 0.1, 1e-5, 1e-4, 999999999.5, 1234567890.0},
      {-1.23456789e-308, -0.000123456789},
      {}};
  for (const auto& values : rows) {
    std::ostringstream out;
    CsvWriter w(out);
    w.row(values);
    EXPECT_EQ(out.str(), printf_row(values));
  }
}

TEST(CsvWriter, RandomBitPatternsAndLongRowsMatchPrintfG9) {
  // Random bit patterns reach every exponent; a 200-cell row is longer than
  // the writer's stack buffer and must flush in pieces with the same bytes.
  Rng rng(7);
  for (const std::size_t cells : {1u, 6u, 17u, 200u}) {
    for (int rep = 0; rep < 50; ++rep) {
      std::vector<double> values(cells);
      for (double& v : values) {
        const std::uint64_t bits = rng.next_u64();
        std::memcpy(&v, &bits, sizeof v);
      }
      std::ostringstream out;
      CsvWriter w(out);
      w.row(values);
      ASSERT_EQ(out.str(), printf_row(values)) << cells << " cells";
    }
  }
}

TEST(ParseCsv, RoundTrip) {
  std::ostringstream out;
  CsvWriter w(out);
  w.header({"x", "y"});
  w.row({1.0, 10.0});
  w.row({2.0, 20.0});
  const CsvTable t = parse_csv(out.str());
  ASSERT_EQ(t.header.size(), 2u);
  ASSERT_EQ(t.rows.size(), 2u);
  EXPECT_EQ(t.column_index("y"), 1);
  const auto y = t.column_as_double("y");
  ASSERT_EQ(y.size(), 2u);
  EXPECT_DOUBLE_EQ(y[0], 10.0);
  EXPECT_DOUBLE_EQ(y[1], 20.0);
}

TEST(ParseCsv, MissingColumnIndexIsMinusOne) {
  const CsvTable t = parse_csv("a,b\n1,2\n");
  EXPECT_EQ(t.column_index("zzz"), -1);
  EXPECT_TRUE(t.column_as_double("zzz").empty());
}

TEST(ParseCsv, ToleratesCrlfAndBlankLines) {
  const CsvTable t = parse_csv("a,b\r\n\r\n1,2\r\n");
  ASSERT_EQ(t.rows.size(), 1u);
  EXPECT_EQ(t.rows[0][0], "1");
}

TEST(ParseCsv, EmptyInput) {
  const CsvTable t = parse_csv("");
  EXPECT_TRUE(t.header.empty());
  EXPECT_TRUE(t.rows.empty());
}

TEST(ParseCsv, RaggedRowTooShortForColumnThrows) {
  // A short row used to read as 0.0 — corrupt tables must fail closed.
  const CsvTable t = parse_csv("a,b\n1\n2,3\n");
  EXPECT_NO_THROW(t.column_as_double("a"));  // Column 0 exists in every row.
  try {
    (void)t.column_as_double("b");
    FAIL() << "short row did not throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("row 0"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("'b'"), std::string::npos);
  }
}

TEST(ParseCsv, MalformedCellThrowsWithContext) {
  const CsvTable t = parse_csv("a,b\n1,2\n3,oops\n");
  try {
    (void)t.column_as_double("b");
    FAIL() << "malformed cell did not throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("oops"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("row 1"), std::string::npos);
  }
}

TEST(ParseCsv, TrailingGarbageInCellThrows) {
  // strtod would stop at the 'x' and silently keep the 3 — whole-cell only.
  const CsvTable t = parse_csv("a\n3x\n");
  EXPECT_THROW(t.column_as_double("a"), std::runtime_error);
}

TEST(ParseCsv, WhitespacePaddedCellsStillParse) {
  const CsvTable t = parse_csv("a\n 2.5 \n");
  const auto a = t.column_as_double("a");
  ASSERT_EQ(a.size(), 1u);
  EXPECT_DOUBLE_EQ(a[0], 2.5);
}

TEST(ReadCsvFile, MissingFileThrows) {
  EXPECT_THROW(read_csv_file("/nonexistent/path/to.csv"), std::runtime_error);
}

}  // namespace
}  // namespace prime::common

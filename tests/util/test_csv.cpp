#include <gtest/gtest.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>

#include "util/contract.hpp"
#include "util/csv.hpp"

namespace ufc {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

class CsvTest : public ::testing::Test {
 protected:
  // ctest runs each case as its own process, in parallel: a path shared by
  // the cases lets one overwrite or delete another's file mid-test, so the
  // path carries the test name and the process id.
  std::string path_ =
      ::testing::TempDir() + "ufc_csv_test_" +
      ::testing::UnitTest::GetInstance()->current_test_info()->name() + "_" +
      std::to_string(::getpid()) + ".csv";
  void TearDown() override { std::remove(path_.c_str()); }
};

TEST_F(CsvTest, WritesHeaderAndRows) {
  {
    CsvWriter csv(path_, {"hour", "value"});
    csv.row({0.0, 1.5});
    csv.row({1.0, -2.25});
    EXPECT_EQ(csv.rows_written(), 2u);
  }
  EXPECT_EQ(read_file(path_), "hour,value\n0,1.5\n1,-2.25\n");
}

TEST_F(CsvTest, RowSizeMismatchThrows) {
  CsvWriter csv(path_, {"a", "b"});
  EXPECT_THROW(csv.row({1.0}), ContractViolation);
  EXPECT_THROW(csv.row({1.0, 2.0, 3.0}), ContractViolation);
}

TEST_F(CsvTest, StringRowsAreEscaped) {
  {
    CsvWriter csv(path_, {"name", "note"});
    csv.row_strings({"plain", "has,comma"});
    csv.row_strings({"quote\"inside", "multi\nline"});
  }
  EXPECT_EQ(read_file(path_),
            "name,note\nplain,\"has,comma\"\n\"quote\"\"inside\",\"multi\nline\"\n");
}

TEST(CsvEscape, PassesThroughPlainCells) {
  EXPECT_EQ(csv_escape("hello"), "hello");
}

TEST(CsvEscape, QuotesSpecialCells) {
  EXPECT_EQ(csv_escape("a,b"), "\"a,b\"");
  EXPECT_EQ(csv_escape("a\"b"), "\"a\"\"b\"");
}

TEST(CsvNumber, RoundTripsValues) {
  EXPECT_EQ(csv_number(1.0), "1");
  EXPECT_EQ(csv_number(0.5), "0.5");
  const double value = 0.1 + 0.2;
  EXPECT_DOUBLE_EQ(std::stod(csv_number(value)), value);
}

TEST(CsvNumber, NonFiniteUsesPinnedSpellings) {
  EXPECT_EQ(csv_number(std::numeric_limits<double>::quiet_NaN()), "nan");
  // The NaN sign bit is payload, not a value: both spell the same.
  EXPECT_EQ(csv_number(-std::numeric_limits<double>::quiet_NaN()), "nan");
  EXPECT_EQ(csv_number(std::numeric_limits<double>::infinity()), "inf");
  EXPECT_EQ(csv_number(-std::numeric_limits<double>::infinity()), "-inf");
}

TEST_F(CsvTest, NonFiniteCellsRoundTripThroughWriterAndReader) {
  // Regression: a diverged solve writes NaN/Inf residuals into its trace;
  // the file must stay readable by our own reader.
  {
    CsvWriter csv(path_, {"balance", "copy", "objective"});
    csv.row({std::numeric_limits<double>::quiet_NaN(),
             std::numeric_limits<double>::infinity(),
             -std::numeric_limits<double>::infinity()});
    csv.row({1.25, -3.5, 0.0});
  }
  const CsvTable table = read_csv(path_);
  ASSERT_EQ(table.num_rows(), 2u);
  EXPECT_TRUE(std::isnan(table.rows[0][0]));
  EXPECT_EQ(table.rows[0][1], std::numeric_limits<double>::infinity());
  EXPECT_EQ(table.rows[0][2], -std::numeric_limits<double>::infinity());
  EXPECT_DOUBLE_EQ(table.rows[1][0], 1.25);
}

TEST(CsvParse, AcceptsOnlyPinnedNonFiniteSpellings) {
  const CsvTable table = parse_csv("x\nnan\ninf\n-inf\n");
  ASSERT_EQ(table.num_rows(), 3u);
  EXPECT_TRUE(std::isnan(table.rows[0][0]));
  // Platform from_chars implementations disagree on these spellings, so the
  // parser must reject them everywhere rather than accept them somewhere.
  EXPECT_THROW(parse_csv("x\nNaN\n"), ContractViolation);
  EXPECT_THROW(parse_csv("x\nInfinity\n"), ContractViolation);
  EXPECT_THROW(parse_csv("x\nINF\n"), ContractViolation);
  EXPECT_THROW(parse_csv("x\nnan(0x1)\n"), ContractViolation);
}

TEST(CsvWriterErrors, UnopenablePathThrows) {
  EXPECT_THROW(CsvWriter("/nonexistent-dir/x.csv", {"a"}), std::runtime_error);
}

}  // namespace
}  // namespace ufc

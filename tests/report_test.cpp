#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "algos/cdff.h"
#include "core/simulator.h"
#include "report/ascii_chart.h"
#include "report/csv.h"
#include "report/table.h"
#include "scratch_path.h"
#include "test_util.h"
#include "workloads/binary_input.h"

namespace cdbp::report {
namespace {

TEST(Table, AlignsColumnsAndCountsRows) {
  Table t({"algo", "mu", "ratio"});
  t.add_row({"HA", "256", "1.52"});
  t.add_row({"FirstFit", "256", "3.10"});
  EXPECT_EQ(t.rows(), 2u);
  const std::string s = t.to_string();
  EXPECT_NE(s.find("FirstFit"), std::string::npos);
  EXPECT_NE(s.find("ratio"), std::string::npos);
  EXPECT_NE(s.find("----"), std::string::npos);
  // Every line has equal length (alignment).
  std::istringstream is(s);
  std::string line;
  std::size_t len = 0;
  bool first = true;
  while (std::getline(is, line)) {
    // Rows are padded; the rule line sets the width.
    if (first) {
      len = line.size();
      first = false;
    }
    EXPECT_LE(line.size(), len + 2);
  }
}

TEST(Table, ShortRowsPadded) {
  Table t({"a", "b"});
  t.add_row({"only"});
  EXPECT_NE(t.to_string().find("only"), std::string::npos);
}

TEST(Table, NumFormatsPrecision) {
  EXPECT_EQ(Table::num(1.23456, 2), "1.23");
  EXPECT_EQ(Table::num(2.0, 0), "2");
}

TEST(LineChart, RendersSeriesAndLegend) {
  Series s1{"HA", {{4.0, 1.0}, {16.0, 1.5}, {256.0, 2.0}}};
  Series s2{"FF", {{4.0, 1.2}, {16.0, 2.5}, {256.0, 5.0}}};
  const std::string chart = line_chart({s1, s2}, 40, 10, true);
  EXPECT_NE(chart.find("legend:"), std::string::npos);
  EXPECT_NE(chart.find("HA"), std::string::npos);
  EXPECT_NE(chart.find('*'), std::string::npos);
  EXPECT_NE(chart.find('o'), std::string::npos);
}

TEST(LineChart, EmptyData) {
  EXPECT_EQ(line_chart({}, 40, 10, false), "(no data)\n");
}

TEST(LineChart, SinglePointDoesNotCrash) {
  Series s{"x", {{2.0, 1.0}}};
  EXPECT_FALSE(line_chart({s}).empty());
}

TEST(Gantt, InstanceViewShowsAllItems) {
  const Instance in = testutil::make_instance({
      {0.0, 8.0, 0.25},
      {2.0, 4.0, 0.5},
  });
  const std::string g = instance_gantt(in, 2.0);
  EXPECT_NE(g.find('='), std::string::npos);
  // Two item rows.
  EXPECT_EQ(std::count(g.begin(), g.end(), '\n'), 2);
}

TEST(Gantt, PackingViewGroupsBins) {
  const Instance in = workloads::make_binary_input(3);
  algos::Cdff cdff;
  const RunResult r = Simulator{}.run(in, cdff);
  const std::string g = packing_gantt(in, r, 2.0);
  EXPECT_NE(g.find("group"), std::string::npos);
  EXPECT_NE(g.find("bin"), std::string::npos);
  EXPECT_NE(g.find("span="), std::string::npos);
}

TEST(Csv, EscapingRules) {
  EXPECT_EQ(csv_escape("plain"), "plain");
  EXPECT_EQ(csv_escape("a,b"), "\"a,b\"");
  EXPECT_EQ(csv_escape("say \"hi\""), "\"say \"\"hi\"\"\"");
}

TEST(Csv, WritesFile) {
  const std::string path =
      testutil::scratch_path("cdbp_csv_test.csv").string();
  {
    CsvWriter w(path, {"a", "b"});
    w.add_row({"1", "x,y"});
    EXPECT_THROW(w.add_row({"too", "many", "cols"}), std::invalid_argument);
  }
  std::ifstream in(path);
  std::string all((std::istreambuf_iterator<char>(in)),
                  std::istreambuf_iterator<char>());
  EXPECT_EQ(all, "a,b\n1,\"x,y\"\n");
  std::remove(path.c_str());
}

TEST(Csv, BadPathThrows) {
  EXPECT_THROW(CsvWriter("/nonexistent-dir-xyz/file.csv", {"a"}),
               std::runtime_error);
}

}  // namespace
}  // namespace cdbp::report

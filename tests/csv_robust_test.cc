// ReadCsv error reporting and quarantine: malformed input names the file,
// row, and column; strict reads never hand back a partially-filled table;
// permissive reads quarantine bad rows with exact counters.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>

#include "robust/fault_injection.h"
#include "table/csv.h"
#include "test_util.h"

namespace bellwether::table {
namespace {

Schema TwoColSchema() {
  return Schema({{"name", DataType::kString}, {"x", DataType::kDouble}});
}

std::string WriteFile(const std::string& name, const std::string& content) {
  const std::string path = TestTempPath(name);
  std::ofstream out(path);
  out << content;
  out.close();
  return path;
}

TEST(CsvRobustTest, WrongFieldCountNamesRowAndCounts) {
  const std::string path =
      WriteFile("wrong_count.csv", "name,x\nok,1.5\na,2.5,extra\n");
  auto t = ReadCsv(path, TwoColSchema());
  ASSERT_FALSE(t.ok());
  EXPECT_EQ(t.status().code(), StatusCode::kInvalidArgument);
  const std::string msg = t.status().ToString();
  EXPECT_NE(msg.find(path + ":3:"), std::string::npos) << msg;
  EXPECT_NE(msg.find("expected 2 fields, got 3"), std::string::npos) << msg;
  std::remove(path.c_str());
}

TEST(CsvRobustTest, BadDoubleNamesColumn) {
  const std::string path =
      WriteFile("bad_double.csv", "name,x\nok,1.5\nbad,oops\n");
  auto t = ReadCsv(path, TwoColSchema());
  ASSERT_FALSE(t.ok());
  const std::string msg = t.status().ToString();
  EXPECT_NE(msg.find(":3:"), std::string::npos) << msg;
  EXPECT_NE(msg.find("column 'x' (#1)"), std::string::npos) << msg;
  EXPECT_NE(msg.find("bad double 'oops'"), std::string::npos) << msg;
  std::remove(path.c_str());
}

TEST(CsvRobustTest, BadInt64NamesColumn) {
  const Schema schema({{"id", DataType::kInt64}});
  const std::string path = WriteFile("bad_int.csv", "id\n7\n7.5\n");
  auto t = ReadCsv(path, schema);
  ASSERT_FALSE(t.ok());
  const std::string msg = t.status().ToString();
  EXPECT_NE(msg.find("column 'id' (#0)"), std::string::npos) << msg;
  EXPECT_NE(msg.find("bad int64 '7.5'"), std::string::npos) << msg;
  std::remove(path.c_str());
}

TEST(CsvRobustTest, UnterminatedQuoteNamesRow) {
  const std::string path =
      WriteFile("bad_quote.csv", "name,x\n\"oops,1.0\n");
  auto t = ReadCsv(path, TwoColSchema());
  ASSERT_FALSE(t.ok());
  const std::string msg = t.status().ToString();
  EXPECT_NE(msg.find(":2:"), std::string::npos) << msg;
  EXPECT_NE(msg.find("unterminated quote"), std::string::npos) << msg;
  std::remove(path.c_str());
}

TEST(CsvRobustTest, EmptyFileIsIoError) {
  const std::string path = WriteFile("empty.csv", "");
  auto t = ReadCsv(path, TwoColSchema());
  ASSERT_FALSE(t.ok());
  EXPECT_EQ(t.status().code(), StatusCode::kIoError);
  std::remove(path.c_str());
}

TEST(CsvRobustTest, PermissiveQuarantinesBadRowsWithExactCounters) {
  const std::string path = WriteFile(
      "mixed.csv", "name,x\nok1,1.0\nbad,oops\nok2,2.0\nbad,1,2\nok3,3.0\n");
  CsvReadOptions options;
  options.row_policy = robust::RowErrorPolicy::kPermissive;
  robust::QuarantineStats stats;
  options.stats = &stats;
  auto t = ReadCsv(path, TwoColSchema(), options);
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  EXPECT_EQ(t->num_rows(), 3u);  // the three good rows, in order
  EXPECT_EQ(t->ValueAt(0, 0).ToString(), "ok1");
  EXPECT_EQ(t->ValueAt(2, 0).ToString(), "ok3");
  EXPECT_EQ(stats.rows_seen, 5);
  EXPECT_EQ(stats.rows_quarantined, 2);
  ASSERT_EQ(stats.sample_errors.size(), 2u);
  EXPECT_NE(stats.sample_errors[0].find("bad double"), std::string::npos);
  EXPECT_NE(stats.sample_errors[1].find("expected 2 fields"),
            std::string::npos);
  std::remove(path.c_str());
}

TEST(CsvRobustTest, InjectedCorruptionQuarantineMatchesFireCount) {
  // A ~500-row file read with a 2% corruption rate: the number of
  // quarantined rows equals the number of injected faults exactly, and the
  // surviving rows are the non-corrupted ones in order.
  std::string content = "name,x\n";
  for (int i = 0; i < 500; ++i) {
    content += "row" + std::to_string(i) + "," + std::to_string(i) + ".5\n";
  }
  const std::string path = WriteFile("injected.csv", content);
  robust::FaultRegistry::Default().Disarm();
  robust::FaultRegistry::Default().set_seed(99);
  ASSERT_TRUE(
      robust::FaultRegistry::Default().Arm("csv.row:corrupt@0.02").ok());
  CsvReadOptions options;
  options.row_policy = robust::RowErrorPolicy::kPermissive;
  robust::QuarantineStats stats;
  options.stats = &stats;
  auto t = ReadCsv(path, TwoColSchema(), options);
  const int64_t injected =
      robust::FaultRegistry::Default().fires(robust::kFaultCsvRow);
  robust::FaultRegistry::Default().Disarm();
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  EXPECT_GT(injected, 0);
  EXPECT_EQ(stats.rows_quarantined, injected);
  EXPECT_EQ(t->num_rows(), 500u - static_cast<size_t>(injected));
  std::remove(path.c_str());
}

TEST(CsvRobustTest, StrictInjectedCorruptionFailsWithContext) {
  const std::string path = WriteFile("strict.csv", "name,x\nok,1.0\n");
  robust::FaultRegistry::Default().Disarm();
  ASSERT_TRUE(robust::FaultRegistry::Default().Arm("csv.row:corrupt@1").ok());
  auto t = ReadCsv(path, TwoColSchema());
  robust::FaultRegistry::Default().Disarm();
  ASSERT_FALSE(t.ok());
  EXPECT_NE(t.status().ToString().find("injected corrupt row"),
            std::string::npos);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace bellwether::table

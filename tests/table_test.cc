#include <gtest/gtest.h>

#include <cstdio>

#include "table/csv.h"
#include "table/ops.h"
#include "table/schema.h"
#include "table/table.h"
#include "table/value.h"
#include "test_util.h"

namespace bellwether::table {
namespace {

Table MakeOrders() {
  Table t(Schema({{"item", DataType::kInt64},
                  {"state", DataType::kString},
                  {"profit", DataType::kDouble},
                  {"ad", DataType::kInt64}}));
  t.AppendRow({Value(int64_t{1}), Value("WI"), Value(10.0), Value(int64_t{100})});
  t.AppendRow({Value(int64_t{1}), Value("WI"), Value(20.0), Value(int64_t{101})});
  t.AppendRow({Value(int64_t{1}), Value("MD"), Value(5.0), Value(int64_t{100})});
  t.AppendRow({Value(int64_t{2}), Value("MD"), Value(7.0), Value(int64_t{102})});
  t.AppendRow({Value(int64_t{2}), Value("WI"), Value(-3.0), Value::Null()});
  return t;
}

Table MakeAds() {
  Table t(Schema({{"ad", DataType::kInt64}, {"size", DataType::kDouble}}));
  t.AppendRow({Value(int64_t{100}), Value(1.0)});
  t.AppendRow({Value(int64_t{101}), Value(4.0)});
  t.AppendRow({Value(int64_t{102}), Value(2.0)});
  return t;
}

TEST(ValueTest, TypePredicates) {
  EXPECT_TRUE(Value::Null().is_null());
  EXPECT_TRUE(Value(int64_t{3}).is_int64());
  EXPECT_TRUE(Value(2.5).is_double());
  EXPECT_TRUE(Value("x").is_string());
}

TEST(ValueTest, AsDoubleWidensInt) {
  EXPECT_DOUBLE_EQ(Value(int64_t{3}).AsDouble(), 3.0);
  EXPECT_DOUBLE_EQ(Value(2.5).AsDouble(), 2.5);
}

TEST(ValueTest, ToString) {
  EXPECT_EQ(Value::Null().ToString(), "");
  EXPECT_EQ(Value(int64_t{7}).ToString(), "7");
  EXPECT_EQ(Value("hi").ToString(), "hi");
}

TEST(SchemaTest, LookupAndDuplicates) {
  Schema s({{"a", DataType::kInt64}, {"b", DataType::kDouble}});
  EXPECT_EQ(s.num_fields(), 2u);
  EXPECT_EQ(*s.FindField("b"), 1u);
  EXPECT_FALSE(s.FindField("c").has_value());
  EXPECT_EQ(s.ToString(), "a:int64, b:double");
}

TEST(TableTest, AppendAndRead) {
  Table t = MakeOrders();
  EXPECT_EQ(t.num_rows(), 5u);
  EXPECT_EQ(t.ValueAt(0, 1).str(), "WI");
  EXPECT_TRUE(t.ValueAt(4, 3).is_null());
  EXPECT_DOUBLE_EQ(t.ColumnByName("profit").DoubleAt(3), 7.0);
}

TEST(TableTest, IntWidensIntoDoubleColumn) {
  Table t(Schema({{"x", DataType::kDouble}}));
  t.AppendRow({Value(int64_t{4})});
  EXPECT_DOUBLE_EQ(t.ValueAt(0, 0).dbl(), 4.0);
}

TEST(TableTest, TakeRows) {
  Table t = MakeOrders();
  Table sub = t.TakeRows({0, 3});
  EXPECT_EQ(sub.num_rows(), 2u);
  EXPECT_EQ(sub.ValueAt(1, 0).int64(), 2);
}

TEST(OpsTest, Select) {
  Table t = MakeOrders();
  Table wi = Select(t, [](const Table& tbl, size_t r) {
    return tbl.ValueAt(r, 1).str() == "WI";
  });
  EXPECT_EQ(wi.num_rows(), 3u);
}

TEST(OpsTest, ProjectDistinct) {
  Table t = MakeOrders();
  auto states = ProjectDistinct(t, {"state"});
  ASSERT_TRUE(states.ok());
  EXPECT_EQ(states->num_rows(), 2u);
  auto pairs = ProjectDistinct(t, {"item", "ad"});
  ASSERT_TRUE(pairs.ok());
  // (1,100), (1,101), (2,102), (2,null) -> 4 distinct pairs; note row 0 and
  // row 2 share (1,100).
  EXPECT_EQ(pairs->num_rows(), 4u);
}

TEST(OpsTest, ProjectUnknownColumnFails) {
  Table t = MakeOrders();
  EXPECT_FALSE(ProjectDistinct(t, {"nope"}).ok());
  EXPECT_FALSE(ProjectDistinct(t, {"state", "nope"}).ok());
}

TEST(OpsTest, KeyForeignKeyJoin) {
  auto joined = KeyForeignKeyJoin(MakeOrders(), "ad", MakeAds(), "ad");
  ASSERT_TRUE(joined.ok());
  // The null-FK row is dropped.
  EXPECT_EQ(joined->num_rows(), 4u);
  ASSERT_TRUE(joined->schema().FindField("size").has_value());
  EXPECT_DOUBLE_EQ(joined->ColumnByName("size").DoubleAt(1), 4.0);
}

TEST(OpsTest, JoinRejectsDuplicateKeys) {
  Table dup(Schema({{"ad", DataType::kInt64}, {"size", DataType::kDouble}}));
  dup.AppendRow({Value(int64_t{1}), Value(1.0)});
  dup.AppendRow({Value(int64_t{1}), Value(2.0)});
  EXPECT_FALSE(KeyForeignKeyJoin(MakeOrders(), "ad", dup, "ad").ok());
}

TEST(OpsTest, GroupByAggregate) {
  auto agg = GroupByAggregate(MakeOrders(), {"item"},
                              {{AggFn::kSum, "profit", "total"},
                               {AggFn::kCount, "profit", "orders"},
                               {AggFn::kMax, "profit", "best"},
                               {AggFn::kMin, "profit", "worst"},
                               {AggFn::kAvg, "profit", "avg"}});
  ASSERT_TRUE(agg.ok());
  ASSERT_EQ(agg->num_rows(), 2u);
  // Rows are ordered by group key; item 1 first.
  EXPECT_EQ(agg->ValueAt(0, 0).int64(), 1);
  EXPECT_DOUBLE_EQ(agg->ValueAt(0, 1).dbl(), 35.0);
  EXPECT_EQ(agg->ValueAt(0, 2).int64(), 3);
  EXPECT_DOUBLE_EQ(agg->ValueAt(0, 3).dbl(), 20.0);
  EXPECT_DOUBLE_EQ(agg->ValueAt(0, 4).dbl(), 5.0);
  EXPECT_DOUBLE_EQ(agg->ValueAt(1, 1).dbl(), 4.0);
}

TEST(OpsTest, GroupByCountDistinct) {
  auto agg = GroupByAggregate(MakeOrders(), {"item"},
                              {{AggFn::kCountDistinct, "ad", "ads"}});
  ASSERT_TRUE(agg.ok());
  EXPECT_EQ(agg->ValueAt(0, 1).int64(), 2);  // item 1 used ads 100, 101
  EXPECT_EQ(agg->ValueAt(1, 1).int64(), 1);  // item 2: ad 102 (null ignored)
}

TEST(OpsTest, ScalarAggregateOfEmptyInput) {
  Table empty(Schema({{"x", DataType::kDouble}}));
  auto agg = GroupByAggregate(empty, {},
                              {{AggFn::kCount, "x", "n"},
                               {AggFn::kSum, "x", "s"}});
  ASSERT_TRUE(agg.ok());
  ASSERT_EQ(agg->num_rows(), 1u);
  EXPECT_EQ(agg->ValueAt(0, 0).int64(), 0);
  EXPECT_TRUE(agg->ValueAt(0, 1).is_null());
}

TEST(CsvTest, RoundTrip) {
  Table t(Schema({{"id", DataType::kInt64},
                  {"name", DataType::kString},
                  {"score", DataType::kDouble}}));
  t.AppendRow({Value(int64_t{1}), Value("plain"), Value(1.25)});
  t.AppendRow({Value(int64_t{2}), Value("has,comma"), Value::Null()});
  t.AppendRow({Value(int64_t{3}), Value("has\"quote"), Value(-2.0)});
  const std::string path = TestTempPath("roundtrip.csv");
  ASSERT_TRUE(WriteCsv(t, path).ok());
  auto back = ReadCsv(path, t.schema());
  ASSERT_TRUE(back.ok());
  // Rows come back in file order, nulls and quoted strings intact.
  ASSERT_EQ(back->num_rows(), t.num_rows());
  ASSERT_EQ(back->num_columns(), t.num_columns());
  for (size_t r = 0; r < t.num_rows(); ++r) {
    for (size_t c = 0; c < t.num_columns(); ++c) {
      EXPECT_TRUE(back->ValueAt(r, c) == t.ValueAt(r, c))
          << "row " << r << " column " << c;
    }
  }
  std::remove(path.c_str());
}

TEST(CsvTest, ReadRejectsBadNumbers) {
  const std::string path = TestTempPath("bad.csv");
  FILE* f = fopen(path.c_str(), "w");
  fputs("id\nnot_a_number\n", f);
  fclose(f);
  auto r = ReadCsv(path, Schema({{"id", DataType::kInt64}}));
  EXPECT_FALSE(r.ok());
  std::remove(path.c_str());
}

TEST(CsvTest, MissingFileFails) {
  auto r = ReadCsv("/nonexistent/nope.csv", Schema({{"a", DataType::kInt64}}));
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIoError);
}

}  // namespace
}  // namespace bellwether::table

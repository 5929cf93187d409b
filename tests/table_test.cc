#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
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

// ---- ReadCsv parity: the reader's accepted dialect, pinned case by case ----

// Writes `content` verbatim and reads it back with `schema`.
Result<Table> ReadContent(const std::string& name, const std::string& content,
                          const Schema& schema,
                          const CsvReadOptions& options = {}) {
  const std::string path = TestTempPath(name);
  FILE* f = fopen(path.c_str(), "wb");
  fwrite(content.data(), 1, content.size(), f);
  fclose(f);
  auto t = ReadCsv(path, schema, options);
  std::remove(path.c_str());
  return t;
}

Schema IntIntSchema() {
  return Schema({{"x", DataType::kInt64}, {"y", DataType::kInt64}});
}

TEST(CsvParityTest, CrlfKeepsTheCarriageReturnInTheLastField) {
  auto text = ReadContent("crlf_str.csv", "x,s\r\n1,ab\r\n",
                          Schema({{"x", DataType::kInt64},
                                  {"s", DataType::kString}}));
  ASSERT_TRUE(text.ok()) << text.status().ToString();
  ASSERT_EQ(text->num_rows(), 1u);
  EXPECT_EQ(text->column(1).StringAt(0), "ab\r");
  auto numeric = ReadContent("crlf_num.csv", "x,y\r\n1,2\r\n", IntIntSchema());
  ASSERT_FALSE(numeric.ok());
  EXPECT_NE(numeric.status().message().find(":2: column 'y' (#1): bad int64"),
            std::string::npos)
      << numeric.status().ToString();
}

TEST(CsvParityTest, FinalLineWithoutNewlineIsRead) {
  auto t = ReadContent("no_eol.csv", "x,y\n1,2\n3,4", IntIntSchema());
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  ASSERT_EQ(t->num_rows(), 2u);
  EXPECT_EQ(t->column(1).Int64At(1), 4);
}

TEST(CsvParityTest, BlankLinesAreSkippedButCounted) {
  CsvReadOptions options;
  options.row_policy = robust::RowErrorPolicy::kPermissive;
  robust::QuarantineStats stats;
  options.stats = &stats;
  auto t = ReadContent("blank.csv", "x,y\n1,2\n\n\n3,4\nbad\n\n5,6\n",
                       IntIntSchema(), options);
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  EXPECT_EQ(t->num_rows(), 3u);
  EXPECT_EQ(stats.rows_seen, 4);
  ASSERT_EQ(stats.sample_errors.size(), 1u);
  EXPECT_NE(stats.sample_errors[0].find(":6: expected 2 fields, got 1"),
            std::string::npos)
      << stats.sample_errors[0];
}

TEST(CsvParityTest, LeadingSpaceAndPlusAcceptedTrailingSpaceRejected) {
  const Schema schema({{"i", DataType::kInt64}, {"d", DataType::kDouble}});
  auto t = ReadContent("signs.csv", "i,d\n 5, 1.5\n+7,+2.5\n", schema);
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  ASSERT_EQ(t->num_rows(), 2u);
  EXPECT_EQ(t->column(0).Int64At(0), 5);
  EXPECT_EQ(t->column(0).Int64At(1), 7);
  EXPECT_EQ(t->column(1).DoubleAt(0), 1.5);
  EXPECT_EQ(t->column(1).DoubleAt(1), 2.5);
  auto int_trailing = ReadContent("trail_i.csv", "i,d\n5 ,1\n", schema);
  ASSERT_FALSE(int_trailing.ok());
  EXPECT_NE(int_trailing.status().message().find("bad int64 '5 '"),
            std::string::npos);
  auto dbl_trailing = ReadContent("trail_d.csv", "i,d\n5,1.5 \n", schema);
  ASSERT_FALSE(dbl_trailing.ok());
  EXPECT_NE(dbl_trailing.status().message().find("bad double '1.5 '"),
            std::string::npos);
}

TEST(CsvParityTest, NumberSyntaxFollowsStrtollAndStrtod) {
  const Schema ints({{"i", DataType::kInt64}});
  const Schema dbls({{"d", DataType::kDouble}});
  EXPECT_FALSE(ReadContent("hex_i.csv", "i\n0x10\n", ints).ok());
  auto hex = ReadContent("hex_d.csv", "d\n0x1p3\n", dbls);
  ASSERT_TRUE(hex.ok()) << hex.status().ToString();
  EXPECT_EQ(hex->column(0).DoubleAt(0), 8.0);
  auto special = ReadContent("special.csv", "d\ninf\nnan\n-inf\n", dbls);
  ASSERT_TRUE(special.ok()) << special.status().ToString();
  ASSERT_EQ(special->num_rows(), 3u);
  EXPECT_TRUE(std::isinf(special->column(0).DoubleAt(0)));
  EXPECT_TRUE(std::isnan(special->column(0).DoubleAt(1)));
  EXPECT_TRUE(std::isinf(special->column(0).DoubleAt(2)));
  auto max_i = ReadContent("max_i.csv", "i\n9223372036854775807\n", ints);
  ASSERT_TRUE(max_i.ok());
  EXPECT_EQ(max_i->column(0).Int64At(0), INT64_MAX);
}

TEST(CsvParityTest, OutOfRangeNumbersAreRejected) {
  const Schema ints({{"i", DataType::kInt64}});
  const Schema dbls({{"d", DataType::kDouble}});
  auto big = ReadContent("big_i.csv", "i\n9223372036854775808\n", ints);
  ASSERT_FALSE(big.ok());
  EXPECT_NE(big.status().message().find("bad int64 '9223372036854775808'"),
            std::string::npos);
  auto huge = ReadContent("huge_d.csv", "d\n1e999\n", dbls);
  ASSERT_FALSE(huge.ok());
  EXPECT_NE(huge.status().message().find("bad double '1e999'"),
            std::string::npos);
  auto tiny = ReadContent("tiny_d.csv", "d\n1e-320\n", dbls);
  ASSERT_FALSE(tiny.ok());
  EXPECT_NE(tiny.status().message().find("bad double '1e-320'"),
            std::string::npos);
}

TEST(CsvParityTest, QuotesAreRemovedWhereverTheyAppear) {
  const Schema schema({{"s", DataType::kString},
                       {"t", DataType::kString},
                       {"u", DataType::kString},
                       {"i", DataType::kInt64}});
  auto t = ReadContent("quotes.csv",
                       "s,t,u,i\n\"a\"\"b,c\",ab\"c,d\",\"\",\"12\"\n", schema);
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  ASSERT_EQ(t->num_rows(), 1u);
  EXPECT_EQ(t->column(0).StringAt(0), "a\"b,c");
  EXPECT_EQ(t->column(1).StringAt(0), "abc,d");
  EXPECT_TRUE(t->column(2).IsNull(0));
  EXPECT_EQ(t->column(3).Int64At(0), 12);
}

TEST(CsvParityTest, HeaderOnlyAndEmptyHeaderFiles) {
  auto header_only = ReadContent("header_only.csv", "x,y\n", IntIntSchema());
  ASSERT_TRUE(header_only.ok()) << header_only.status().ToString();
  EXPECT_EQ(header_only->num_rows(), 0u);
  auto no_eol = ReadContent("header_no_eol.csv", "x,y", IntIntSchema());
  ASSERT_TRUE(no_eol.ok()) << no_eol.status().ToString();
  EXPECT_EQ(no_eol->num_rows(), 0u);
  auto empty_header = ReadContent("empty_header.csv", "\n1,2\n",
                                  IntIntSchema());
  ASSERT_TRUE(empty_header.ok()) << empty_header.status().ToString();
  ASSERT_EQ(empty_header->num_rows(), 1u);
  EXPECT_EQ(empty_header->column(0).Int64At(0), 1);
}

TEST(CsvParityTest, NewlineInsideQuotesIsAnUnterminatedQuote) {
  const Schema schema({{"s", DataType::kString}, {"x", DataType::kInt64}});
  auto strict = ReadContent("nl_quote.csv", "s,x\nok,1\n\"a\nb\",2\n", schema);
  ASSERT_FALSE(strict.ok());
  EXPECT_NE(strict.status().message().find(":3: unterminated quote"),
            std::string::npos)
      << strict.status().ToString();
  // Each physical line is its own record: both halves are quarantined.
  CsvReadOptions options;
  options.row_policy = robust::RowErrorPolicy::kPermissive;
  robust::QuarantineStats stats;
  options.stats = &stats;
  auto permissive = ReadContent("nl_quote_p.csv", "s,x\nok,1\n\"a\nb\",2\n",
                                schema, options);
  ASSERT_TRUE(permissive.ok()) << permissive.status().ToString();
  EXPECT_EQ(permissive->num_rows(), 1u);
  EXPECT_EQ(stats.rows_seen, 3);
  ASSERT_EQ(stats.sample_errors.size(), 2u);
  EXPECT_NE(stats.sample_errors[0].find(":3: unterminated quote"),
            std::string::npos);
  EXPECT_NE(stats.sample_errors[1].find(":4: unterminated quote"),
            std::string::npos);
}

}  // namespace
}  // namespace bellwether::table

// SQL DDL tests: CREATE TABLE with GPDB-style DISTRIBUTED BY and
// PARTITION BY RANGE/LIST clauses (paper §3.2), plus DROP TABLE.

#include <gtest/gtest.h>

#include "db/database.h"
#include "test_util.h"
#include "types/date.h"

namespace mppdb {
namespace {

TEST(DdlTest, CreatePlainTable) {
  Database db(2);
  auto result = db.Run(
      "CREATE TABLE t (a bigint, b varchar, c double) DISTRIBUTED BY (a)");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const TableDescriptor* table = db.catalog().FindTable("t");
  ASSERT_NE(table, nullptr);
  EXPECT_EQ(table->schema.size(), 3u);
  EXPECT_EQ(table->schema.column(1).type, TypeId::kString);
  EXPECT_EQ(table->distribution, TableDistribution::kHashed);
  EXPECT_EQ(table->distribution_columns, std::vector<int>{0});
  EXPECT_FALSE(table->IsPartitioned());
  // And it is immediately usable.
  ASSERT_TRUE(db.Run("INSERT INTO t VALUES (1, 'x', 2.5)").ok());
  auto rows = db.Run("SELECT count(*) FROM t");
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->rows[0][0].int64_value(), 1);
}

TEST(DdlTest, CreateRangePartitionedByDate) {
  Database db(2);
  // 24 monthly-ish partitions via EVERY in days.
  auto result = db.Run(
      "CREATE TABLE orders (odate date, amount double) DISTRIBUTED BY (amount) "
      "PARTITION BY RANGE (odate) "
      "START '2012-01-01' END '2014-01-01' EVERY 31");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const TableDescriptor* table = db.catalog().FindTable("orders");
  ASSERT_TRUE(table->IsPartitioned());
  int expected = (date::FromYMD(2014, 1, 1) - date::FromYMD(2012, 1, 1) + 30) / 31;
  EXPECT_EQ(table->partition_scheme->NumLeaves(), static_cast<size_t>(expected));
  // Pruning works on the DDL-created table.
  ASSERT_TRUE(db.Run("INSERT INTO orders VALUES ('2012-01-15', 5.0), "
                     "('2013-06-01', 7.0)")
                  .ok());
  auto pruned = db.Run("SELECT count(*) FROM orders WHERE odate < '2012-03-01'");
  ASSERT_TRUE(pruned.ok());
  EXPECT_EQ(pruned->rows[0][0].int64_value(), 1);
  EXPECT_LT(pruned->stats.PartitionsScanned(table->oid),
            table->partition_scheme->NumLeaves());
}

TEST(DdlTest, CreateMultiLevelWithListSubpartition) {
  Database db(2);
  auto result = db.Run(
      "CREATE TABLE sales (sk bigint, region varchar, amount double) "
      "DISTRIBUTED BY (sk) "
      "PARTITION BY RANGE (sk) START 0 END 100 EVERY 25 "
      "SUBPARTITION BY LIST (region) VALUES ('east', 'west')");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const TableDescriptor* table = db.catalog().FindTable("sales");
  ASSERT_TRUE(table->IsPartitioned());
  EXPECT_EQ(table->partition_scheme->num_levels(), 2u);
  EXPECT_EQ(table->partition_scheme->NumLeaves(), 8u);  // 4 ranges x 2 regions
  ASSERT_TRUE(db.Run("INSERT INTO sales VALUES (10, 'east', 1.0), "
                     "(60, 'west', 2.0)")
                  .ok());
  auto one = db.Run(
      "SELECT count(*) FROM sales WHERE sk BETWEEN 0 AND 24 AND region = 'east'");
  ASSERT_TRUE(one.ok());
  EXPECT_EQ(one->rows[0][0].int64_value(), 1);
  EXPECT_EQ(one->stats.PartitionsScanned(table->oid), 1u);
}

TEST(DdlTest, CreateReplicatedAndRandom) {
  Database db(2);
  ASSERT_TRUE(db.Run("CREATE TABLE r1 (x int) DISTRIBUTED REPLICATED").ok());
  ASSERT_TRUE(db.Run("CREATE TABLE r2 (x int) DISTRIBUTED RANDOMLY").ok());
  ASSERT_TRUE(db.Run("CREATE TABLE r3 (x int)").ok());  // default random
  EXPECT_EQ(db.catalog().FindTable("r1")->distribution,
            TableDistribution::kReplicated);
  EXPECT_EQ(db.catalog().FindTable("r2")->distribution, TableDistribution::kRandom);
  EXPECT_EQ(db.catalog().FindTable("r3")->distribution, TableDistribution::kRandom);
}

TEST(DdlTest, DropTable) {
  Database db(2);
  ASSERT_TRUE(db.Run("CREATE TABLE victim (x int)").ok());
  ASSERT_TRUE(db.Run("INSERT INTO victim VALUES (1)").ok());
  auto drop = db.Run("DROP TABLE victim");
  ASSERT_TRUE(drop.ok());
  EXPECT_EQ(db.catalog().FindTable("victim"), nullptr);
  EXPECT_FALSE(db.Run("SELECT * FROM victim").ok());
  // Name can be reused.
  ASSERT_TRUE(db.Run("CREATE TABLE victim (y bigint)").ok());
  EXPECT_TRUE(db.Run("SELECT y FROM victim").ok());
}

TEST(DdlTest, DdlErrors) {
  Database db(2);
  EXPECT_FALSE(db.Run("DROP TABLE never_existed").ok());
  EXPECT_FALSE(db.Run("CREATE TABLE bad (x sometype)").ok());
  EXPECT_FALSE(db.Run("CREATE TABLE bad (x int) DISTRIBUTED BY (nope)").ok());
  EXPECT_FALSE(db.Run("CREATE TABLE bad (x int) "
                      "PARTITION BY RANGE (nope) START 0 END 10 EVERY 1")
                   .ok());
  EXPECT_FALSE(db.Run("CREATE TABLE bad (x int) "
                      "PARTITION BY RANGE (x) START 10 END 0 EVERY 1")
                   .ok());
  EXPECT_FALSE(db.Run("CREATE TABLE bad (x int) "
                      "PARTITION BY RANGE (x) START 0 END 10 EVERY 0")
                   .ok());
  ASSERT_TRUE(db.Run("CREATE TABLE dup (x int)").ok());
  EXPECT_FALSE(db.Run("CREATE TABLE dup (x int)").ok());
}

TEST(DdlTest, ColumnNamedDateStillWorksInDdl) {
  Database db(2);
  // "date" is a soft keyword: valid as both column name and type.
  auto result = db.Run("CREATE TABLE d (date date, v int) "
                       "PARTITION BY RANGE (date) "
                       "START '2020-01-01' END '2020-03-01' EVERY 10");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(db.catalog().FindTable("d")->IsPartitioned());
}

// Sibling bounds must be disjoint and comparable with the key column:
// otherwise f_T and f*_T would disagree on which partition holds a value, or
// the first INSERT would compare a string with an integer. Each rejection is
// a typed error that creates nothing, and the database keeps serving.
TEST(DdlTest, OverlappingOrIncomparableBoundsFailTyped) {
  Database db(2);
  auto dup = db.Run("CREATE TABLE t (a int, c int) DISTRIBUTED BY (a) "
                    "PARTITION BY LIST (c) VALUES (1, 1)");
  ASSERT_FALSE(dup.ok());
  EXPECT_EQ(dup.status().code(), StatusCode::kInvalidArgument) << dup.status().ToString();
  EXPECT_EQ(db.catalog().FindTable("t"), nullptr);

  Schema schema({{"a", TypeId::kInt64}, {"c", TypeId::kInt64}});
  std::vector<PartitionBound> overlapping = partition_bounds::IntRanges(0, 10, 4);
  for (PartitionBound& more : partition_bounds::IntRanges(35, 10, 2)) {
    overlapping.push_back(std::move(more));
  }
  auto ranges = db.CreatePartitionedTable("t", schema, TableDistribution::kHashed, {0},
                                          {{1, PartitionMethod::kRange}}, {overlapping});
  ASSERT_FALSE(ranges.ok());
  EXPECT_EQ(ranges.status().code(), StatusCode::kInvalidArgument);

  auto strings = db.CreatePartitionedTable(
      "t", schema, TableDistribution::kHashed, {0}, {{1, PartitionMethod::kList}},
      {{PartitionBound::List({Datum::String("x")}, "x")}});
  ASSERT_FALSE(strings.ok());
  EXPECT_EQ(strings.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(db.catalog().FindTable("t"), nullptr);

  ASSERT_TRUE(db.Run("CREATE TABLE t (a int, c int) DISTRIBUTED BY (a) "
                     "PARTITION BY LIST (c) VALUES (1, 2)")
                  .ok());
  ASSERT_TRUE(db.Run("INSERT INTO t VALUES (7, 1), (8, 2)").ok());
  auto rows = db.Run("SELECT a FROM t WHERE c = 2");
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  ASSERT_EQ(rows->rows.size(), 1u);
  EXPECT_EQ(rows->rows[0][0].AsInt64(), 8);
}

}  // namespace
}  // namespace mppdb

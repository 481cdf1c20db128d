// SQL DDL tests: CREATE TABLE with GPDB-style DISTRIBUTED BY and
// PARTITION BY RANGE/LIST clauses (paper §3.2), plus DROP TABLE, and the
// typed writes every declared column type implies: INSERT and UPDATE reject
// a value of another type family at bind time, and storage rejects one that
// is typed only at execution ($n parameters, Database::Load).

#include <gtest/gtest.h>

#include <string>
#include <vector>

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

// A string written into an INT partition key would compare a string with an
// integer in f_T, and a string UPDATEd into a DOUBLE column would break
// every later comparison on it. Both are kBindError, and the database serves
// the next statement.
TEST(TypedWriteTest, StringIntoIntPartitionKeyIsABindError) {
  Database db(2);
  ASSERT_TRUE(db.Run("CREATE TABLE t (k int, v varchar) DISTRIBUTED BY (k) "
                     "PARTITION BY RANGE (k) START 0 END 100 EVERY 10")
                  .ok());
  auto insert = db.Run("INSERT INTO t VALUES ('x', 'y')");
  ASSERT_FALSE(insert.ok());
  EXPECT_EQ(insert.status().code(), StatusCode::kBindError) << insert.status().ToString();
  auto count = db.Run("SELECT count(*) FROM t WHERE k >= 0");
  ASSERT_TRUE(count.ok()) << count.status().ToString();
  EXPECT_EQ(count->rows[0][0].AsInt64(), 0);
}

TEST(TypedWriteTest, StringUpdatedIntoDoubleIsABindError) {
  Database db(2);
  ASSERT_TRUE(db.Run("CREATE TABLE s (k int, q double) DISTRIBUTED BY (k)").ok());
  ASSERT_TRUE(db.Run("INSERT INTO s VALUES (1, 2.5)").ok());
  auto update = db.Run("UPDATE s SET q = 'abc'");
  ASSERT_FALSE(update.ok());
  EXPECT_EQ(update.status().code(), StatusCode::kBindError) << update.status().ToString();
  auto count = db.Run("SELECT count(*) FROM s WHERE q > 1.0");
  ASSERT_TRUE(count.ok()) << count.status().ToString();
  EXPECT_EQ(count->rows[0][0].AsInt64(), 1);
}

// A $n parameter is typed only at execution, so the binder accepts it;
// storage rejects a value of another family before f_T routes the row. The
// UPDATE would otherwise store 'abc' in a DOUBLE column, the INSERT ... SELECT
// and the Load would abort the process comparing a string with an INT bound.
// Each fails with kInvalidArgument, leaves the table as it was, and the
// database serves the next statement.
TEST(TypedWriteTest, StringParamUpdatedIntoDoubleIsInvalidArgument) {
  Database db(2);
  ASSERT_TRUE(db.Run("CREATE TABLE s (k int, q double) DISTRIBUTED BY (k)").ok());
  ASSERT_TRUE(db.Run("INSERT INTO s VALUES (1, 2.5)").ok());
  QueryOptions options;
  options.params = {Datum::String("abc")};
  auto update = db.Run("UPDATE s SET q = $1", options);
  ASSERT_FALSE(update.ok());
  EXPECT_EQ(update.status().code(), StatusCode::kInvalidArgument)
      << update.status().ToString();
  auto count = db.Run("SELECT count(*) FROM s WHERE q > 1.0");
  ASSERT_TRUE(count.ok()) << count.status().ToString();
  EXPECT_EQ(count->rows[0][0].AsInt64(), 1);
}

TEST(TypedWriteTest, StringParamInsertedIntoIntPartitionKeyIsInvalidArgument) {
  Database db(2);
  ASSERT_TRUE(db.Run("CREATE TABLE t (k int, v varchar) DISTRIBUTED BY (k) "
                     "PARTITION BY RANGE (k) START 0 END 100 EVERY 10")
                  .ok());
  ASSERT_TRUE(db.Run("CREATE TABLE s (k int, q double) DISTRIBUTED BY (k)").ok());
  ASSERT_TRUE(db.Run("INSERT INTO s VALUES (1, 2.5)").ok());
  QueryOptions options;
  options.params = {Datum::String("x")};
  auto insert = db.Run("INSERT INTO t SELECT $1, 'y' FROM s", options);
  ASSERT_FALSE(insert.ok());
  EXPECT_EQ(insert.status().code(), StatusCode::kInvalidArgument)
      << insert.status().ToString();
  auto count = db.Run("SELECT count(*) FROM t WHERE k >= 0");
  ASSERT_TRUE(count.ok()) << count.status().ToString();
  EXPECT_EQ(count->rows[0][0].AsInt64(), 0);
}

TEST(TypedWriteTest, LoadOfStringIntoIntPartitionKeyIsInvalidArgument) {
  Database db(2);
  ASSERT_TRUE(db.Run("CREATE TABLE t (k int, v varchar) DISTRIBUTED BY (k) "
                     "PARTITION BY RANGE (k) START 0 END 100 EVERY 10")
                  .ok());
  Status load = db.Load("t", {{Datum::Int32(5), Datum::String("a")},
                              {Datum::String("x"), Datum::String("y")}});
  EXPECT_EQ(load.code(), StatusCode::kInvalidArgument) << load.ToString();
  auto count = db.Run("SELECT count(*) FROM t WHERE k >= 0");
  ASSERT_TRUE(count.ok()) << count.status().ToString();
  EXPECT_EQ(count->rows[0][0].AsInt64(), 0);
}

// Every (column type, written value, statement form, key or non-key column)
// combination. A value of the column's type family is written as is
// (numeric into numeric keeps its own type, a date string literal coerces to
// DATE) and the statement succeeds; any other family is a kBindError; NULL
// always binds, but a NULL partition key maps to no partition of these
// tables (they have no DEFAULT partition), a typed kOutOfRange. After every
// statement the table still counts and filters on the written column, and
// only a successful INSERT changed the row count.
TEST(TypedWriteTest, WritesOfEveryTypeIntoEveryColumnType) {
  struct ColumnType {
    const char* sql;        // declared type
    std::string family;     // "num", "date" or "str"
    const char* partition;  // PARTITION BY clause on k
    const char* valid;      // a literal that routes to a partition
  };
  const std::vector<ColumnType> column_types = {
      {"int", "num", "RANGE (k) START 0 END 100 EVERY 10", "5"},
      {"bigint", "num", "RANGE (k) START 0 END 100 EVERY 10", "5"},
      {"double", "num", "RANGE (k) START 0 END 100 EVERY 10", "5.5"},
      {"date", "date",
       "RANGE (k) START '1970-01-01' END '1970-04-11' EVERY 10",
       "DATE '1970-01-06'"},
      {"varchar", "str", "LIST (k) VALUES ('7', '7.5', 'abc', '1970-01-08')",
       "'abc'"},
  };
  struct Value {
    const char* literal;  // for VALUES and UPDATE SET
    const char* column;   // the same value as a column of src
    std::string family;   // "num", "str", "date string" or "null"
  };
  const std::vector<Value> values = {
      {"7", "i", "num"},
      {"7.5", "d", "num"},
      {"'abc'", "s", "str"},
      {"'1970-01-08'", "ds", "date string"},
      {"NULL", "n", "null"},
  };
  enum class Form { kValues, kSelect, kUpdate };

  for (const ColumnType& type : column_types) {
    Database db(2);
    ASSERT_TRUE(db.Run(std::string("CREATE TABLE t (id bigint, k ") + type.sql +
                       ", v " + type.sql + ") DISTRIBUTED BY (id) PARTITION BY " +
                       type.partition)
                    .ok())
        << type.sql;
    ASSERT_TRUE(db.Run("CREATE TABLE src (i bigint, d double, s varchar, "
                       "ds varchar, n bigint)")
                    .ok());
    ASSERT_TRUE(
        db.Run("INSERT INTO src VALUES (7, 7.5, 'abc', '1970-01-08', NULL)").ok());
    ASSERT_TRUE(db.Run(std::string("INSERT INTO t VALUES (1, ") + type.valid + ", " +
                       type.valid + ")")
                    .ok())
        << type.sql;
    int64_t rows = 1;
    int64_t next_id = 2;

    for (const Value& value : values) {
      for (Form form : {Form::kValues, Form::kSelect, Form::kUpdate}) {
        for (const char* column : {"k", "v"}) {
          const bool key = column[0] == 'k';
          const bool is_null = value.family == "null";
          // What the value is once bound: a date string literal coerces to
          // DATE in a DATE column's VALUES or SET; a varchar column of src
          // does not.
          std::string family = value.family;
          if (family == "date string") {
            family = type.family == "date" && form != Form::kSelect ? "date" : "str";
          }
          const bool comparable =
              family == type.family || (family != "str" && type.family != "str");

          std::string sql;
          const std::string id = std::to_string(next_id);
          switch (form) {
            case Form::kValues:
              sql = "INSERT INTO t VALUES (" + id + ", " +
                    (key ? value.literal : type.valid) + ", " +
                    (key ? type.valid : value.literal) + ")";
              break;
            case Form::kSelect: {
              const std::string written = is_null ? "NULL" : value.column;
              sql = "INSERT INTO t SELECT " + id + ", " +
                    (key ? written : type.valid) + ", " +
                    (key ? type.valid : written) + " FROM src";
              break;
            }
            case Form::kUpdate:
              sql = std::string("UPDATE t SET ") + column + " = " + value.literal +
                    " WHERE id = 1";
              break;
          }
          auto result = db.Run(sql);
          if (is_null && key) {
            ASSERT_FALSE(result.ok()) << sql;
            EXPECT_EQ(result.status().code(), StatusCode::kOutOfRange)
                << sql << ": " << result.status().ToString();
          } else if (is_null || comparable) {
            ASSERT_TRUE(result.ok()) << sql << ": " << result.status().ToString();
          } else {
            ASSERT_FALSE(result.ok()) << sql;
            EXPECT_EQ(result.status().code(), StatusCode::kBindError)
                << sql << ": " << result.status().ToString();
          }
          if (result.ok() && form != Form::kUpdate) {
            ++rows;
            ++next_id;
          } else if (result.ok()) {
            // Put row 1 back so the next UPDATE starts from a valid row.
            ASSERT_TRUE(db.Run(std::string("UPDATE t SET ") + column + " = " +
                               type.valid + " WHERE id = 1")
                            .ok())
                << sql;
          }

          auto count = db.Run("SELECT count(*) FROM t");
          ASSERT_TRUE(count.ok()) << sql << ": " << count.status().ToString();
          EXPECT_EQ(count->rows[0][0].AsInt64(), rows) << sql;
          auto filtered = db.Run(std::string("SELECT count(*) FROM t WHERE ") +
                                 column + " >= " + type.valid);
          ASSERT_TRUE(filtered.ok()) << sql << ": " << filtered.status().ToString();
        }
      }
    }
  }
}

}  // namespace
}  // namespace mppdb

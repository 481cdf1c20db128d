#include <gtest/gtest.h>

#include "db/database.h"
#include "test_util.h"
#include "workload/tpch_lite.h"

namespace mppdb {
namespace {

class DatabaseTest : public ::testing::Test {
 protected:
  DatabaseTest() : db_(2) {
    MPPDB_CHECK(db_.CreatePartitionedTable(
                       "t", Schema({{"k", TypeId::kInt64}, {"v", TypeId::kString}}),
                       TableDistribution::kHashed, {0},
                       {{0, PartitionMethod::kRange}},
                       {partition_bounds::IntRanges(0, 10, 5)})
                    .ok());
  }
  Database db_;
};

TEST_F(DatabaseTest, DdlErrorsSurface) {
  // Duplicate table name.
  EXPECT_FALSE(db_.CreateTable("t", Schema({{"x", TypeId::kInt64}}),
                               TableDistribution::kRandom, {})
                   .ok());
  // Bad partition level alignment.
  EXPECT_FALSE(db_.CreatePartitionedTable(
                     "bad", Schema({{"x", TypeId::kInt64}}),
                     TableDistribution::kRandom, {}, {{0, PartitionMethod::kRange}},
                     {})
                   .ok());
}

TEST_F(DatabaseTest, LoadValidatesTableAndRows) {
  EXPECT_EQ(db_.Load("absent", {}).code(), StatusCode::kNotFound);
  // Out-of-range partition key surfaces a routing error.
  Status st = db_.Load("t", {{Datum::Int64(999), Datum::String("x")}});
  EXPECT_EQ(st.code(), StatusCode::kOutOfRange);
}

TEST_F(DatabaseTest, SqlErrorPropagation) {
  EXPECT_EQ(db_.Run("SELEC nonsense").status().code(), StatusCode::kParseError);
  EXPECT_EQ(db_.Run("SELECT missing FROM t").status().code(), StatusCode::kBindError);
  EXPECT_EQ(db_.Run("SELECT * FROM absent").status().code(), StatusCode::kBindError);
}

TEST_F(DatabaseTest, InsertSelectUpdateDeleteRoundTrip) {
  auto insert = db_.Run("INSERT INTO t VALUES (1, 'a'), (11, 'b'), (21, 'c')");
  ASSERT_TRUE(insert.ok()) << insert.status().ToString();
  EXPECT_EQ(insert->rows[0][0].int64_value(), 3);
  EXPECT_EQ(insert->columns, std::vector<std::string>{"count"});

  auto select = db_.Run("SELECT v FROM t WHERE k > 5 ORDER BY v");
  ASSERT_TRUE(select.ok());
  ASSERT_EQ(select->rows.size(), 2u);
  EXPECT_EQ(select->rows[0][0].string_value(), "b");

  auto update = db_.Run("UPDATE t SET v = 'z' WHERE k = 11");
  ASSERT_TRUE(update.ok());
  EXPECT_EQ(update->rows[0][0].int64_value(), 1);

  auto del = db_.Run("DELETE FROM t WHERE k < 10");
  ASSERT_TRUE(del.ok());
  EXPECT_EQ(del->rows[0][0].int64_value(), 1);

  auto remaining = db_.Run("SELECT count(*) FROM t");
  ASSERT_TRUE(remaining.ok());
  EXPECT_EQ(remaining->rows[0][0].int64_value(), 2);
}

TEST_F(DatabaseTest, ColumnNamesFollowAliases) {
  ASSERT_TRUE(db_.Run("INSERT INTO t VALUES (1, 'a')").ok());
  auto result = db_.Run("SELECT k AS key_alias, count(*) AS n FROM t GROUP BY k");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->columns, (std::vector<std::string>{"key_alias", "n"}));
}

TEST_F(DatabaseTest, ExplainRendersChosenPlan) {
  auto orca = db_.Explain("SELECT * FROM t WHERE k < 20");
  ASSERT_TRUE(orca.ok());
  EXPECT_NE(orca->find("DynamicScan"), std::string::npos);
  EXPECT_NE(orca->find("PartitionSelector"), std::string::npos);

  QueryOptions legacy;
  legacy.optimizer = OptimizerKind::kLegacyPlanner;
  auto planner = db_.Explain("SELECT * FROM t WHERE k < 20", legacy);
  ASSERT_TRUE(planner.ok());
  EXPECT_NE(planner->find("TableScan"), std::string::npos);
  EXPECT_EQ(planner->find("DynamicScan"), std::string::npos);
}

TEST_F(DatabaseTest, HavingFiltersGroups) {
  ASSERT_TRUE(db_.Run("INSERT INTO t VALUES (1,'a'), (1,'b'), (2,'c'), (11,'d')").ok());
  auto result = db_.Run(
      "SELECT k, count(*) FROM t GROUP BY k HAVING count(*) > 1 ORDER BY k");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->rows.size(), 1u);
  EXPECT_EQ(result->rows[0][0].int64_value(), 1);
  EXPECT_EQ(result->rows[0][1].int64_value(), 2);
}

TEST_F(DatabaseTest, ExplainStatementReturnsPlanText) {
  auto result = db_.Run("EXPLAIN SELECT * FROM t WHERE k < 20");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->rows.size(), 1u);
  EXPECT_EQ(result->columns, std::vector<std::string>{"QUERY PLAN"});
  const std::string& text = result->rows[0][0].string_value();
  EXPECT_NE(text.find("PartitionSelector"), std::string::npos);
  EXPECT_NE(text.find("DynamicScan"), std::string::npos);
  // EXPLAIN of DML does not modify the table.
  auto before = db_.Run("SELECT count(*) FROM t");
  ASSERT_TRUE(before.ok());
  ASSERT_TRUE(db_.Run("EXPLAIN DELETE FROM t").ok());
  auto after = db_.Run("SELECT count(*) FROM t");
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(before->rows[0][0].int64_value(), after->rows[0][0].int64_value());
}

TEST_F(DatabaseTest, MissingParamsFailExecution) {
  ASSERT_TRUE(db_.Run("INSERT INTO t VALUES (1, 'a')").ok());
  // A plan with an unbound $1 cannot execute.
  auto result = db_.Run("SELECT count(*) FROM t WHERE k < $1");
  EXPECT_FALSE(result.ok());
  // Bound parameter succeeds.
  QueryOptions options;
  options.params = {Datum::Int64(100)};
  auto bound = db_.Run("SELECT count(*) FROM t WHERE k < $1", options);
  ASSERT_TRUE(bound.ok()) << bound.status().ToString();
  EXPECT_EQ(bound->rows[0][0].int64_value(), 1);
}

TEST_F(DatabaseTest, SegmentCountConfigurable) {
  for (int segments : {1, 2, 8}) {
    Database db(segments);
    ASSERT_TRUE(db.CreatePartitionedTable(
                      "p", Schema({{"k", TypeId::kInt64}}),
                      TableDistribution::kHashed, {0},
                      {{0, PartitionMethod::kRange}},
                      {partition_bounds::IntRanges(0, 10, 4)})
                    .ok());
    std::vector<Row> rows;
    for (int i = 0; i < 40; ++i) rows.push_back({Datum::Int64(i)});
    ASSERT_TRUE(db.Load("p", rows).ok());
    auto result = db.Run("SELECT count(*) FROM p WHERE k >= 20");
    ASSERT_TRUE(result.ok()) << segments;
    EXPECT_EQ(result->rows[0][0].int64_value(), 20) << segments;
    EXPECT_EQ(result->stats.PartitionsScanned(db.catalog().FindTable("p")->oid), 2u);
  }
}

// A DML statement that fails leaves storage unchanged (DESIGN.md §15). The
// fixture is the 361-part lineitem; each case is a statement one of whose
// rows routes to no partition.
class FailedDmlTest : public ::testing::Test {
 protected:
  FailedDmlTest() : db_(4) {
    workload::TpchConfig config;
    config.rows = 12000;
    MPPDB_CHECK(workload::CreateAndLoadLineitem(
                    &db_, config, workload::LineitemPartitioning::kWeekly361, "lineitem")
                    .ok());
  }

  /// Row count plus order-sensitive sums: any lost, added or moved row changes
  /// it.
  std::string Checksum() {
    auto result = db_.Run(
        "SELECT count(*), sum(l_orderkey), sum(l_suppkey), sum(l_quantity), "
        "sum(l_extendedprice), min(l_shipdate), max(l_shipdate) FROM lineitem");
    MPPDB_CHECK(result.ok() && result->rows.size() == 1);
    return RowToString(result->rows[0]);
  }

  Database db_;
};

TEST_F(FailedDmlTest, UpdateRoutingARowNowhereKeepsEveryRow) {
  const std::string before = Checksum();
  ASSERT_EQ(before.rfind("[12000, ", 0), 0u) << before;
  auto update =
      db_.Run("UPDATE lineitem SET l_shipdate = DATE '2100-01-01' WHERE l_orderkey = 5");
  EXPECT_EQ(update.status().code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Checksum(), before);
  auto rows = db_.Run("SELECT count(*) FROM lineitem WHERE l_orderkey = 5");
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->rows[0][0].int64_value(), 4);
}

TEST_F(FailedDmlTest, MultiRowInsertIsAllOrNothing) {
  const std::string before = Checksum();
  auto insert = db_.Run(
      "INSERT INTO lineitem VALUES "
      "(900001, 1, DATE '2000-03-01', 1.0, 100.0, 0.01), "
      "(900002, 1, DATE '2100-01-01', 1.0, 100.0, 0.01)");
  EXPECT_EQ(insert.status().code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Checksum(), before);
  auto rows = db_.Run("SELECT count(*) FROM lineitem WHERE l_orderkey > 900000");
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->rows[0][0].int64_value(), 0);
}

TEST_F(FailedDmlTest, UpdateReusesTheCapacityItFrees) {
  // A load sizes every slice exactly. An UPDATE that keeps rows in their
  // slice deletes the old versions before it appends the new ones, so no
  // slice outgrows its capacity (growing 1444 full slices at once would
  // double their row arrays).
  const TableDescriptor* desc = db_.catalog().FindTable("lineitem");
  ASSERT_NE(desc, nullptr);
  const TableStore* store = db_.storage().GetStore(desc->oid);
  std::vector<size_t> capacities;
  for (Oid unit : store->UnitOids()) {
    for (int s = 0; s < store->num_segments(); ++s) {
      capacities.push_back(store->UnitRows(unit, s).capacity());
    }
  }
  auto update = db_.Run("UPDATE lineitem SET l_quantity = l_quantity + 1");
  ASSERT_TRUE(update.ok()) << update.status().ToString();
  EXPECT_EQ(update->rows[0][0].int64_value(), 12000);
  size_t i = 0;
  for (Oid unit : store->UnitOids()) {
    for (int s = 0; s < store->num_segments(); ++s) {
      EXPECT_EQ(store->UnitRows(unit, s).capacity(), capacities[i++])
          << "unit " << unit << " segment " << s;
    }
  }
}

}  // namespace
}  // namespace mppdb

// End-to-end tests for the ordered index access paths: the Select2IndexSeek,
// Limit2DynamicIndexScan, and MinMax2IndexSeek alternatives, the fused
// bounded top-N operator, and the executor's DynamicIndexScan node. Every
// query is checked bit-identical (rows AND order for ordered shapes) against
// the enable_index_paths=false oracle, which plans exactly as the pre-index
// optimizer did.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "db/database.h"
#include "test_util.h"

namespace mppdb {
namespace {

int CountNodes(const PhysPtr& plan, PhysNodeKind kind) {
  int count = plan->kind() == kind ? 1 : 0;
  for (const auto& child : plan->children()) count += CountNodes(child, kind);
  return count;
}

// Exact equality: same size, same order, same null-ness, compare-equal
// datums. This is the bit-identity contract — no sorting, no tolerance.
bool ExactRows(const std::vector<Row>& a, const std::vector<Row>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].size() != b[i].size()) return false;
    for (size_t j = 0; j < a[i].size(); ++j) {
      if (a[i][j].is_null() != b[i][j].is_null()) return false;
      if (!a[i][j].is_null() && Datum::Compare(a[i][j], b[i][j]) != 0) return false;
    }
  }
  return true;
}

std::string Dump(const std::vector<Row>& rows) {
  std::string out;
  for (const Row& row : rows) {
    for (const Datum& d : row) out += d.ToString() + " ";
    out += "\n";
  }
  return out;
}

class IndexExecTest : public ::testing::Test {
 protected:
  IndexExecTest() : db_(4) {
    // fact: range-partitioned on sk into 20 leaves of width 50 (sk in
    // [0,1000)), hash-distributed on v so duplicate keys spread across
    // segments. Leaves covering [300,600) and [700,1000) stay empty.
    MPPDB_CHECK(db_.CreatePartitionedTable(
                       "fact", Schema({{"sk", TypeId::kInt64},
                                       {"v", TypeId::kInt64},
                                       {"price", TypeId::kDouble}}),
                       TableDistribution::kHashed, {1},
                       {{0, PartitionMethod::kRange}},
                       {partition_bounds::IntRanges(0, 50, 20)})
                    .ok());
    std::vector<Row> fact_rows;
    for (int i = 0; i < 6000; ++i) {
      // Every sk in [0,300) appears exactly twenty times — tie territory,
      // and enough rows per unit that walking beats scanning.
      fact_rows.push_back({Datum::Int64(i % 300), Datum::Int64(i),
                           Datum::Double(i * 0.5)});
    }
    for (int i = 0; i < 60; ++i) {
      fact_rows.push_back({Datum::Int64(600 + i % 30), Datum::Int64(1000 + i),
                           Datum::Double(i * 0.25)});
    }
    MPPDB_CHECK(db_.Load("fact", fact_rows).ok());
    MPPDB_CHECK(db_.Run("CREATE INDEX ON fact (sk)").ok());

    // plain: unpartitioned, with NULL keys and duplicates; unique tags make
    // tie-order differences visible to ExactRows. The 500 filler rows keep
    // the ordered walk cheaper than a full scan, so the LIMIT shapes below
    // actually take the index path.
    MPPDB_CHECK(db_.CreateTable("plain",
                                Schema({{"k", TypeId::kInt64},
                                        {"tag", TypeId::kString}}),
                                TableDistribution::kHashed, {1})
                    .ok());
    std::vector<Row> plain_rows;
    const int64_t keys[] = {7, -1, 3, -1, 7, 12, 0, 5, 12, 7};
    for (int i = 0; i < 10; ++i) {
      Datum k = keys[i] < 0 ? Datum::Null() : Datum::Int64(keys[i]);
      plain_rows.push_back({k, Datum::String("r" + std::to_string(i))});
    }
    for (int i = 0; i < 500; ++i) {
      plain_rows.push_back(
          {Datum::Int64(100 + i), Datum::String("f" + std::to_string(i))});
    }
    MPPDB_CHECK(db_.Load("plain", plain_rows).ok());
    MPPDB_CHECK(db_.Run("CREATE INDEX ON plain (k)").ok());

    // mostly_null: NULL keys dominate, so a descending walk must emit its
    // NULL tail within a small per-unit limit.
    MPPDB_CHECK(db_.CreateTable("mostly_null",
                                Schema({{"k", TypeId::kInt64},
                                        {"tag", TypeId::kString}}),
                                TableDistribution::kHashed, {1})
                    .ok());
    std::vector<Row> mn_rows = {{Datum::Int64(5), Datum::String("five")},
                                {Datum::Int64(9), Datum::String("nine")}};
    for (int i = 0; i < 400; ++i) {
      mn_rows.push_back({Datum::Null(), Datum::String("n" + std::to_string(i))});
    }
    MPPDB_CHECK(db_.Load("mostly_null", mn_rows).ok());
    MPPDB_CHECK(db_.Run("CREATE INDEX ON mostly_null (k)").ok());
  }

  // Runs `sql` with index paths on and off and checks bit-identical rows.
  // Returns the on-path result for further plan/stats assertions.
  QueryResult CheckAgainstOracle(const std::string& sql) {
    QueryOptions off;
    off.enable_index_paths = false;
    auto oracle = db_.Run(sql, off);
    MPPDB_CHECK(oracle.ok());
    EXPECT_EQ(oracle->stats.index_seeks, 0u);
    EXPECT_EQ(oracle->stats.index_rows_read, 0u);
    EXPECT_EQ(oracle->stats.topn_rows_cut, 0u);
    auto on = db_.Run(sql);
    MPPDB_CHECK(on.ok());
    EXPECT_TRUE(ExactRows(on->rows, oracle->rows))
        << sql << "\nindex:\n" << Dump(on->rows) << "oracle:\n"
        << Dump(oracle->rows);
    return *std::move(on);
  }

  Database db_;
};

TEST_F(IndexExecTest, RangeSeekMatchesOracle) {
  // Leading sargable range conjunct + a residual the seek cannot serve (an
  // OR over a different column) that must be re-applied to every match.
  QueryResult r = CheckAgainstOracle(
      "SELECT sk, v FROM fact WHERE sk >= 120 AND sk < 180 "
      "AND (v < 150 OR v > 400)");
  EXPECT_EQ(CountNodes(r.plan, PhysNodeKind::kDynamicIndexScan), 1);
  EXPECT_EQ(CountNodes(r.plan, PhysNodeKind::kDynamicScan), 0);
  EXPECT_GT(r.stats.index_seeks, 0u);
  EXPECT_GT(r.stats.index_rows_read, 0u);
  // Partition selection still applies: only the leaves covering [120,180).
  Oid fact_oid = db_.catalog().FindTable("fact")->oid;
  EXPECT_EQ(r.stats.PartitionsScanned(fact_oid), 2u);
}

TEST_F(IndexExecTest, SeekOverEmptyPartitions) {
  // [400,500) lies entirely in empty leaves: seeks run, nothing matches.
  QueryResult r = CheckAgainstOracle(
      "SELECT sk, v FROM fact WHERE sk >= 400 AND sk < 500");
  EXPECT_TRUE(r.rows.empty());
  EXPECT_EQ(CountNodes(r.plan, PhysNodeKind::kDynamicIndexScan), 1);
  EXPECT_GT(r.stats.index_seeks, 0u);
  EXPECT_EQ(r.stats.index_rows_read, 0u);
}

TEST_F(IndexExecTest, OrderByLimitAscendingWithTies) {
  // LIMIT 7 lands mid-run of duplicated keys; tie order must match the
  // oracle's stable sort exactly.
  QueryResult r = CheckAgainstOracle("SELECT sk, v FROM fact ORDER BY sk LIMIT 7");
  EXPECT_EQ(r.rows.size(), 7u);
  EXPECT_EQ(CountNodes(r.plan, PhysNodeKind::kDynamicIndexScan), 1);
  EXPECT_EQ(CountNodes(r.plan, PhysNodeKind::kTopN), 1);
  EXPECT_EQ(CountNodes(r.plan, PhysNodeKind::kSort), 0);
  EXPECT_EQ(CountNodes(r.plan, PhysNodeKind::kLimit), 0);
  EXPECT_GT(r.stats.index_seeks, 0u);
  EXPECT_GT(r.stats.topn_rows_cut, 0u);
}

TEST_F(IndexExecTest, OrderByLimitDescendingWithTies) {
  // Highest keys (629..) live in the sparse [600,700) region and repeat.
  QueryResult r =
      CheckAgainstOracle("SELECT sk, v FROM fact ORDER BY sk DESC LIMIT 9");
  EXPECT_EQ(r.rows.size(), 9u);
  EXPECT_EQ(CountNodes(r.plan, PhysNodeKind::kDynamicIndexScan), 1);
  EXPECT_EQ(CountNodes(r.plan, PhysNodeKind::kTopN), 1);
  EXPECT_EQ(r.rows[0][0].int64_value(), 629);
}

TEST_F(IndexExecTest, LimitLargerThanTable) {
  QueryResult r =
      CheckAgainstOracle("SELECT sk, v FROM fact ORDER BY sk LIMIT 100000");
  EXPECT_EQ(r.rows.size(), 6060u);
  EXPECT_EQ(r.stats.topn_rows_cut, 0u);
  for (size_t i = 1; i < r.rows.size(); ++i) {
    EXPECT_LE(r.rows[i - 1][0].int64_value(), r.rows[i][0].int64_value());
  }
}

TEST_F(IndexExecTest, NullsFirstAscendingNullsLastDescending) {
  // Two NULL keys: ascending order puts them first (matching the sort
  // oracle's NULL-first Datum::Compare), descending puts them last.
  QueryResult asc =
      CheckAgainstOracle("SELECT k, tag FROM plain ORDER BY k LIMIT 4");
  EXPECT_EQ(CountNodes(asc.plan, PhysNodeKind::kDynamicIndexScan), 1);
  ASSERT_EQ(asc.rows.size(), 4u);
  EXPECT_TRUE(asc.rows[0][0].is_null());
  EXPECT_TRUE(asc.rows[1][0].is_null());
  EXPECT_EQ(asc.rows[2][0].int64_value(), 0);

  QueryResult desc =
      CheckAgainstOracle("SELECT k, tag FROM plain ORDER BY k DESC LIMIT 4");
  EXPECT_EQ(CountNodes(desc.plan, PhysNodeKind::kDynamicIndexScan), 1);
  ASSERT_EQ(desc.rows.size(), 4u);
  EXPECT_EQ(desc.rows[0][0].int64_value(), 599);
  EXPECT_FALSE(desc.rows[3][0].is_null());

  // A descending walk over mostly-NULL units must surface the NULL tail
  // once the non-null rows run out — within the index path, not just the
  // sort oracle.
  QueryResult tail = CheckAgainstOracle(
      "SELECT k, tag FROM mostly_null ORDER BY k DESC LIMIT 6");
  EXPECT_EQ(CountNodes(tail.plan, PhysNodeKind::kDynamicIndexScan), 1);
  ASSERT_EQ(tail.rows.size(), 6u);
  EXPECT_EQ(tail.rows[0][0].int64_value(), 9);
  EXPECT_EQ(tail.rows[1][0].int64_value(), 5);
  for (int i = 2; i < 6; ++i) EXPECT_TRUE(tail.rows[i][0].is_null());
}

TEST_F(IndexExecTest, MinMaxProbes) {
  QueryResult min_r = CheckAgainstOracle("SELECT min(sk) FROM fact");
  EXPECT_EQ(CountNodes(min_r.plan, PhysNodeKind::kDynamicIndexScan), 1);
  EXPECT_EQ(min_r.rows[0][0].int64_value(), 0);

  QueryResult max_r = CheckAgainstOracle("SELECT max(sk) FROM fact");
  EXPECT_EQ(CountNodes(max_r.plan, PhysNodeKind::kDynamicIndexScan), 1);
  EXPECT_EQ(max_r.rows[0][0].int64_value(), 629);

  // NULL keys are ignored by the probe exactly as by the aggregate, even
  // when they dominate the index.
  QueryResult max_k = CheckAgainstOracle("SELECT max(k) FROM mostly_null");
  EXPECT_EQ(max_k.rows[0][0].int64_value(), 9);
  QueryResult min_k = CheckAgainstOracle("SELECT min(k) FROM mostly_null");
  EXPECT_EQ(min_k.rows[0][0].int64_value(), 5);
}

TEST_F(IndexExecTest, MinMaxOnEmptyTable) {
  MPPDB_CHECK(db_.CreateTable("empty", Schema({{"k", TypeId::kInt64}}),
                              TableDistribution::kHashed, {0})
                  .ok());
  MPPDB_CHECK(db_.Run("CREATE INDEX ON empty (k)").ok());
  QueryResult r = CheckAgainstOracle("SELECT min(k) FROM empty");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_TRUE(r.rows[0][0].is_null());
}

TEST_F(IndexExecTest, DmlStalesLazyIndexThenRebuilds) {
  QueryResult before = CheckAgainstOracle("SELECT sk, v FROM fact ORDER BY sk LIMIT 1");
  EXPECT_EQ(before.rows[0][0].int64_value(), 0);

  // INSERT stales the lazily built per-unit indexes; the next ordered walk
  // must see the new minimum.
  ASSERT_TRUE(db_.Run("INSERT INTO fact VALUES (3, -7, 0.0)").ok());
  QueryResult after_insert =
      CheckAgainstOracle("SELECT sk, v FROM fact WHERE sk = 3");
  EXPECT_EQ(after_insert.rows.size(), 21u);

  ASSERT_TRUE(db_.Run("DELETE FROM fact WHERE sk = 0").ok());
  QueryResult after_delete =
      CheckAgainstOracle("SELECT sk, v FROM fact ORDER BY sk LIMIT 2");
  ASSERT_EQ(after_delete.rows.size(), 2u);
  EXPECT_EQ(after_delete.rows[0][0].int64_value(), 1);
  QueryResult min_r = CheckAgainstOracle("SELECT min(sk) FROM fact");
  EXPECT_EQ(min_r.rows[0][0].int64_value(), 1);
}

TEST_F(IndexExecTest, ToggleOffReproducesPreIndexPlans) {
  QueryOptions off;
  off.enable_index_paths = false;
  for (const char* sql :
       {"SELECT sk, v FROM fact WHERE sk >= 120 AND sk < 180",
        "SELECT sk, v FROM fact ORDER BY sk LIMIT 7",
        "SELECT min(sk) FROM fact"}) {
    auto plan = db_.PlanSql(sql, off);
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    EXPECT_EQ(CountNodes(*plan, PhysNodeKind::kDynamicIndexScan), 0) << sql;
    EXPECT_EQ(CountNodes(*plan, PhysNodeKind::kTopN), 0) << sql;
  }
}

TEST_F(IndexExecTest, NoIndexNoIndexPath) {
  // price has no index: the optimizer must not fabricate an access path.
  auto plan = db_.PlanSql("SELECT sk, price FROM fact ORDER BY price LIMIT 3");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_EQ(CountNodes(*plan, PhysNodeKind::kDynamicIndexScan), 0);
  CheckAgainstOracle("SELECT sk, price FROM fact ORDER BY price LIMIT 3");
}

TEST_F(IndexExecTest, ExplainShowsAccessPaths) {
  auto walk = db_.Explain("SELECT sk, v FROM fact ORDER BY sk LIMIT 7");
  ASSERT_TRUE(walk.ok()) << walk.status().ToString();
  EXPECT_NE(walk->find("Access paths: fact"), std::string::npos) << *walk;
  EXPECT_NE(walk->find("index ordered walk on sk asc limit 7"),
            std::string::npos)
      << *walk;

  auto seek = db_.Explain("SELECT sk, v FROM fact WHERE sk >= 120 AND sk < 180");
  ASSERT_TRUE(seek.ok()) << seek.status().ToString();
  EXPECT_NE(seek->find("index range seek on sk"), std::string::npos) << *seek;

  QueryOptions off;
  off.enable_index_paths = false;
  auto none = db_.Explain("SELECT sk, v FROM fact ORDER BY sk LIMIT 7", off);
  ASSERT_TRUE(none.ok());
  EXPECT_EQ(none->find("Access paths"), std::string::npos) << *none;
}

// A range seek on a non-partition-key index admits all 361 leaves, so each
// segment's DynamicIndexScan covers ~20k stored rows and, with 4 workers at
// morsel_rows 1024, splits into about 20 unit-granular morsels. Rows, row
// order and every ExecStats counter must equal the 1-worker run (which runs
// the whole unit list inline).
TEST(ParallelExecTest, RangeIndexScanOver361PartsMatchesOneWorker) {
  Database one_worker(2);
  Database pooled(2, Executor::Options{.workers = 4, .morsel_rows = 1024});
  for (Database* db : {&one_worker, &pooled}) {
    MPPDB_CHECK(db->CreatePartitionedTable(
                      "weekly", Schema({{"day", TypeId::kInt64},
                                        {"k", TypeId::kInt64},
                                        {"v", TypeId::kInt64}}),
                      TableDistribution::kHashed, {2},
                      {{0, PartitionMethod::kRange}},
                      {partition_bounds::IntRanges(0, 7, 361)})
                    .ok());
    std::vector<Row> rows;
    for (int64_t i = 0; i < 40000; ++i) {
      rows.push_back({Datum::Int64(i % 2527), Datum::Int64((i * 7919) % 5000),
                      Datum::Int64(i)});
    }
    MPPDB_CHECK(db->Load("weekly", rows).ok());
    MPPDB_CHECK(db->Run("CREATE INDEX ON weekly (k)").ok());
  }
  const std::string sql = "SELECT day, k, v FROM weekly WHERE k BETWEEN 1200 AND 1260";
  auto plan = one_worker.PlanSql(sql);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  ASSERT_EQ(CountNodes(*plan, PhysNodeKind::kDynamicIndexScan), 1);

  auto oracle = one_worker.Run(sql);
  auto result = pooled.Run(sql);
  ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_FALSE(oracle->rows.empty());
  EXPECT_EQ(oracle->stats.index_seeks, 2u * 361u);  // every unit on both segments
  EXPECT_TRUE(result->rows == oracle->rows);
  EXPECT_TRUE(result->stats == oracle->stats);
}

}  // namespace
}  // namespace mppdb

// Worker-count independence: N workers give rows and ExecStats identical to
// a 1-worker run across the TPC-DS-style workload, pools smaller than the
// segment count, every consumer of a bare scan, abort propagation on segment
// failure, executor reusability after failed executions, and which threads
// a Database creates.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>

#include "db/database.h"
#include "exec/executor.h"
#include "exec/plan.h"
#include "expr/expr.h"
#include "test_util.h"
#include "workload/tpcds_lite.h"
#include "workload/tpch_lite.h"

namespace mppdb {
namespace {

using testutil::PlanHasEdge;
using testutil::TestDb;

ExprPtr Lit(int64_t v) { return MakeConst(Datum::Int64(v)); }

// A pool must produce row-for-row identical results and identical ExecStats
// (partitions scanned, tuples scanned, rows moved) to a 1-worker run for
// every workload query. Two databases loaded from the same deterministic
// generator have identical storage contents, so any divergence is a
// worker-count difference.
TEST(ParallelDeterminismTest, TpcdsWorkloadMatchesSerialExactly) {
  workload::TpcdsConfig config;
  config.base_rows = 1000;
  Database one_worker_db(4);
  Database parallel_db(4, Executor::Options{.workers = 0});
  ASSERT_TRUE(workload::CreateAndLoadTpcds(&one_worker_db, config).ok());
  ASSERT_TRUE(workload::CreateAndLoadTpcds(&parallel_db, config).ok());

  for (const auto& query : workload::TpcdsQueries(config)) {
    auto one_worker = one_worker_db.Run(query.sql);
    auto parallel = parallel_db.Run(query.sql);
    ASSERT_TRUE(one_worker.ok()) << query.name << ": " << one_worker.status().ToString();
    ASSERT_TRUE(parallel.ok()) << query.name << ": " << parallel.status().ToString();
    // Row-for-row: same rows in the same order, bitwise-equal datums.
    EXPECT_TRUE(one_worker->rows == parallel->rows) << query.name;
    EXPECT_TRUE(one_worker->stats == parallel->stats) << query.name;
  }
}

// Same oracle check over the TPC-H-style table at 8 segments, including an
// aggregation and a partitioned variant with static pruning.
TEST(ParallelDeterminismTest, TpchQueriesMatchSerialAt8Segments) {
  workload::TpchConfig config;
  config.rows = 4000;
  Database one_worker_db(8);
  Database parallel_db(8, Executor::Options{.workers = 0});
  for (Database* db : {&one_worker_db, &parallel_db}) {
    ASSERT_TRUE(workload::CreateAndLoadLineitem(
                    db, config, workload::LineitemPartitioning::kMonthly84, "lineitem")
                    .ok());
  }
  const char* queries[] = {
      "SELECT count(*), sum(l_quantity), avg(l_extendedprice) FROM lineitem",
      "SELECT l_suppkey, count(*) FROM lineitem GROUP BY l_suppkey "
      "ORDER BY l_suppkey LIMIT 20",
      "SELECT count(*) FROM lineitem WHERE l_shipdate BETWEEN '1999-01-01' AND "
      "'1999-03-31'",
  };
  for (const char* sql : queries) {
    auto one_worker = one_worker_db.Run(sql);
    auto parallel = parallel_db.Run(sql);
    ASSERT_TRUE(one_worker.ok()) << sql << ": " << one_worker.status().ToString();
    ASSERT_TRUE(parallel.ok()) << sql << ": " << parallel.status().ToString();
    EXPECT_TRUE(one_worker->rows == parallel->rows) << sql;
    EXPECT_TRUE(one_worker->stats == parallel->stats) << sql;
  }
}

// Morsel scheduling decouples segments from threads: any thread count below
// num_segments — the calling thread alone, a pool of 2 or 3, or an injected
// 1-worker pool — runs the plan, because Motion arrival is a counter bumped
// by suspending tasks, not a blocked thread, and matches the 1-worker run
// row for row.
TEST(ParallelExecTest, PoolSmallerThanSegmentCountStillRunsParallel) {
  MorselScheduler single_worker_pool(1);
  for (int workers : {1, 2, 3, -1}) {
    TestDb db(4);
    const TableDescriptor* t =
        db.CreatePlainTable("t", Schema({{"k", TypeId::kInt64}}), {0});
    std::vector<Row> rows;
    for (int64_t i = 0; i < 40; ++i) rows.push_back({Datum::Int64(i)});
    db.Insert(t, rows);

    auto make_plan = [&]() {
      auto scan = std::make_shared<TableScanNode>(t->oid, t->oid,
                                                  std::vector<ColRefId>{1});
      return std::make_shared<MotionNode>(MotionKind::kGather,
                                          std::vector<ColRefId>{}, scan);
    };
    Executor one_worker(&db.catalog, &db.storage, Executor::Options{});
    auto oracle = one_worker.Execute(make_plan());
    ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();

    // -1 stands for the injected 1-worker pool.
    Executor capped(&db.catalog, &db.storage,
                    Executor::Options{.workers = workers < 0 ? 1 : workers});
    if (workers < 0) capped.SetScheduler(&single_worker_pool);
    auto result = capped.Execute(make_plan());
    ASSERT_TRUE(result.ok()) << "workers=" << workers << ": "
                             << result.status().ToString();
    EXPECT_TRUE(*result == *oracle) << "workers=" << workers;
    EXPECT_EQ(capped.stats().tuples_scanned, 40u);
    EXPECT_TRUE(capped.stats() == one_worker.stats()) << "workers=" << workers;
  }
}

// The hash join reads its build side (a bare scan of a partitioned table) in
// place, then suspends at the probe side's Redistribute Motion until every
// segment has arrived. The memo keeps the resolved build input, so the
// re-walk neither re-scans nor re-counts it: tuples_scanned is exactly the
// two tables' row counts at any worker count.
TEST(ParallelExecTest, InPlaceBuildSurvivesProbeSideRedistributeSuspension) {
  TestDb db(4);
  // dim(a, b): 3000 rows, a = 0..2999, hash-distributed on a, 12 partitions.
  const TableDescriptor* dim = db.CreateIntPartitionedTable("dim", 12);
  std::vector<Row> drows;
  for (int64_t i = 0; i < 3000; ++i) {
    drows.push_back({Datum::Int64(i), Datum::Int64(i % 120)});
  }
  db.Insert(dim, drows);
  // fact(a, b) distributed on a; the first 1000 rows have b = a, which joins
  // exactly one dim row each; b of the other 1000 matches no dim row.
  const TableDescriptor* fact = db.CreatePlainTable(
      "fact", Schema({{"a", TypeId::kInt64}, {"b", TypeId::kInt64}}), {0});
  std::vector<Row> frows;
  for (int64_t i = 0; i < 2000; ++i) {
    frows.push_back({Datum::Int64(i), Datum::Int64(i < 1000 ? i : 100000 + i)});
  }
  db.Insert(fact, frows);

  auto make_plan = [&]() -> PhysPtr {
    auto selector = std::make_shared<PartitionSelectorNode>(
        dim->oid, 1, std::vector<ColRefId>{12}, std::vector<ExprPtr>{nullptr}, nullptr);
    auto dim_scan = std::make_shared<DynamicScanNode>(dim->oid, 1,
                                                      std::vector<ColRefId>{11, 12});
    auto build = std::make_shared<SequenceNode>(std::vector<PhysPtr>{selector, dim_scan});
    auto fact_scan = std::make_shared<TableScanNode>(fact->oid, fact->oid,
                                                     std::vector<ColRefId>{1, 2});
    // Route fact rows by b to the segment holding the dim row with a = b.
    auto redistribute = std::make_shared<MotionNode>(
        MotionKind::kRedistribute, std::vector<ColRefId>{2}, fact_scan);
    auto join = std::make_shared<HashJoinNode>(
        JoinType::kInner, std::vector<ColRefId>{11}, std::vector<ColRefId>{2}, nullptr,
        build, redistribute);
    return std::make_shared<MotionNode>(MotionKind::kGather, std::vector<ColRefId>{},
                                        join);
  };

  std::vector<Row> first;
  ExecStats first_stats;
  for (int workers : {1, 4}) {
    Executor exec(&db.catalog, &db.storage, Executor::Options{.workers = workers});
    auto result = exec.Execute(make_plan());
    ASSERT_TRUE(result.ok()) << "workers=" << workers << ": "
                             << result.status().ToString();
    ASSERT_EQ(result->size(), 1000u) << "workers=" << workers;
    for (const Row& row : *result) {
      // (dim.a, dim.b, fact.a, fact.b) with dim.a = fact.b = fact.a.
      EXPECT_EQ(row[0].AsInt64(), row[3].AsInt64());
      EXPECT_EQ(row[1].AsInt64(), row[0].AsInt64() % 120);
      EXPECT_EQ(row[2].AsInt64(), row[3].AsInt64());
    }
    EXPECT_EQ(exec.stats().tuples_scanned, 5000u) << "workers=" << workers;
    EXPECT_EQ(exec.stats().PartitionsScanned(dim->oid), 12u) << "workers=" << workers;
    EXPECT_EQ(exec.stats().rows_moved, 2000u + 1000u) << "workers=" << workers;
    if (workers == 1) {
      first = std::move(result).value();
      first_stats = exec.stats();
    } else {
      EXPECT_TRUE(*result == first);
      EXPECT_TRUE(exec.stats() == first_stats);
    }
  }
}

// Every consumer that takes ownership of a bare scan's storage slices, on
// hand-built plans whose expected rows are computed from the storage
// slices themselves: segment-local Limit, Sort and TopN under a Gather, an
// Append mixing a bare scan with a fused filter, and a bare scan at the plan
// root. At 1 and 4 workers the rows are exact (order included), ExecStats
// are identical, and tuples_scanned counts every scanned row exactly once.
TEST(ParallelExecTest, HandBuiltConsumersOfBareScansTakeOwnershipExactly) {
  constexpr int kSegments = 4;
  TestDb db(kSegments);
  const TableDescriptor* t = db.CreatePlainTable(
      "t", Schema({{"a", TypeId::kInt64}, {"b", TypeId::kInt64}}), {0});
  std::vector<Row> rows;
  for (int64_t i = 0; i < 1000; ++i) {
    rows.push_back({Datum::Int64(i), Datum::Int64((i * 37) % 101)});
  }
  db.Insert(t, rows);
  const TableStore& store = *db.storage.GetStore(t->oid);

  auto scan = [&]() -> PhysPtr {
    return std::make_shared<TableScanNode>(t->oid, t->oid, std::vector<ColRefId>{1, 2});
  };
  auto gather = [](PhysPtr child) -> PhysPtr {
    return std::make_shared<MotionNode>(MotionKind::kGather, std::vector<ColRefId>{},
                                        std::move(child));
  };
  // Expected output: `per_segment` applied to each segment's slice, in
  // segment order (the Gather's source-segment order).
  auto expect = [&](const auto& per_segment) {
    std::vector<Row> out;
    for (int seg = 0; seg < kSegments; ++seg) {
      std::vector<Row> part = per_segment(store.UnitRows(t->oid, seg));
      out.insert(out.end(), part.begin(), part.end());
    }
    return out;
  };
  auto by_b = [](bool ascending) {
    return [ascending](const Row& x, const Row& y) {
      return ascending ? x[1].AsInt64() < y[1].AsInt64()
                       : x[1].AsInt64() > y[1].AsInt64();
    };
  };
  auto b_lt_10 = MakeComparison(CompareOp::kLt, MakeColumnRef(2, "b", TypeId::kInt64),
                                Lit(10));

  struct Case {
    const char* name;
    PhysPtr plan;
    std::string edge_parent;
    std::vector<Row> expected;
    size_t tuples;
  };
  std::vector<Case> cases;
  cases.push_back({"limit", gather(std::make_shared<LimitNode>(7, scan())), "Limit",
                   expect([](const std::vector<Row>& slice) {
                     return std::vector<Row>(slice.begin(), slice.begin() + 7);
                   }),
                   1000});
  cases.push_back({"sort",
                   gather(std::make_shared<SortNode>(std::vector<SortKey>{{2, true}},
                                                     scan())),
                   "Sort", expect([&](std::vector<Row> slice) {
                     std::stable_sort(slice.begin(), slice.end(), by_b(true));
                     return slice;
                   }),
                   1000});
  cases.push_back({"topn",
                   gather(std::make_shared<TopNNode>(std::vector<SortKey>{{2, false}}, 5,
                                                     scan())),
                   "TopN", expect([&](std::vector<Row> slice) {
                     std::stable_sort(slice.begin(), slice.end(), by_b(false));
                     slice.resize(5);
                     return slice;
                   }),
                   1000});
  cases.push_back({"append",
                   gather(std::make_shared<AppendNode>(std::vector<PhysPtr>{
                       scan(), std::make_shared<FilterNode>(b_lt_10, scan())})),
                   "Append", expect([](const std::vector<Row>& slice) {
                     std::vector<Row> out = slice;
                     for (const Row& row : slice) {
                       if (row[1].AsInt64() < 10) out.push_back(row);
                     }
                     return out;
                   }),
                   2000});
  cases.push_back({"root", scan(), "", expect([](const std::vector<Row>& slice) {
                     return slice;
                   }),
                   1000});

  for (const Case& c : cases) {
    const std::string rendered = PlanToString(c.plan);
    if (!c.edge_parent.empty()) {
      EXPECT_TRUE(PlanHasEdge(rendered, c.edge_parent, "TableScan"))
          << c.name << "\n" << rendered;
    } else {
      EXPECT_EQ(rendered.rfind("TableScan", 0), 0u) << c.name << "\n" << rendered;
    }
    ExecStats one_worker_stats;
    for (int workers : {1, 4}) {
      Executor exec(&db.catalog, &db.storage, Executor::Options{.workers = workers});
      auto result = exec.Execute(c.plan);
      ASSERT_TRUE(result.ok()) << c.name << " workers=" << workers << ": "
                               << result.status().ToString();
      EXPECT_TRUE(*result == c.expected) << c.name << " workers=" << workers;
      EXPECT_EQ(exec.stats().tuples_scanned, c.tuples) << c.name;
      if (workers == 1) {
        one_worker_stats = exec.stats();
      } else {
        EXPECT_TRUE(exec.stats() == one_worker_stats) << c.name;
      }
    }
  }
}

// The SQL-planned consumers of a bare scan: Gather (SELECT *), Redistribute
// (the probe side of a join on a non-distribution key), Broadcast and
// NestedLoopJoin (a non-equi join), and INSERT INTO t SELECT * FROM t, whose
// Gather and Insert take ownership before any write. Shapes are confirmed by
// EXPLAIN; rows match hand-computed values at 1 and 4 workers, ExecStats are
// identical across the two, and the self-insert doubles count and sum
// exactly.
TEST(ParallelExecTest, SqlConsumersOfBareScansMatchHandComputedRows) {
  Database one_worker_db(4);
  Database parallel_db(4, Executor::Options{.workers = 4});
  // t(a, b): a = 1..400, b = a % 20, hashed on a. u(k, w) with k = 0..19 and
  // v(k, w) with k = 0..399, both w = 10 k and hashed on k: small u is
  // broadcast, while joining v on t.b redistributes t.
  std::vector<Row> t_rows, u_rows, v_rows;
  for (int64_t a = 1; a <= 400; ++a) t_rows.push_back({Datum::Int64(a), Datum::Int64(a % 20)});
  for (int64_t k = 0; k < 400; ++k) {
    Row row = {Datum::Int64(k), Datum::Int64(10 * k)};
    if (k < 20) u_rows.push_back(row);
    v_rows.push_back(std::move(row));
  }
  for (Database* db : {&one_worker_db, &parallel_db}) {
    for (const char* table : {"t (a int, b int) DISTRIBUTED BY (a)",
                              "u (k int, w int) DISTRIBUTED BY (k)",
                              "v (k int, w int) DISTRIBUTED BY (k)"}) {
      ASSERT_TRUE(db->Run(std::string("CREATE TABLE ") + table).ok());
    }
    ASSERT_TRUE(db->Load("t", t_rows).ok());
    ASSERT_TRUE(db->Load("u", u_rows).ok());
    ASSERT_TRUE(db->Load("v", v_rows).ok());
  }

  struct Case {
    std::string sql;
    std::vector<std::pair<std::string, std::string>> edges;
    size_t rows;
    size_t tuples;
    // Checks one output row (a, b[, x]) beyond b = a % 20.
    bool (*valid)(const Row& row);
  };
  const std::vector<Case> cases = {
      {"SELECT * FROM t", {{"GatherMotion", "TableScan"}}, 400, 400,
       [](const Row& row) { return row.size() == 2; }},
      // Every t row joins the one v row with k = b.
      {"SELECT t.a, t.b, v.k FROM t JOIN v ON t.b = v.k",
       {{"RedistributeMotion", "TableScan"}}, 400, 800,
       [](const Row& row) { return row.size() == 3 && row[2] == row[1]; }},
      // For w = 10 k, the t rows with a < w number 10 k - 1 (none for k = 0):
      // the sum over k = 1..19 of (10 k - 1) is 1881.
      {"SELECT t.a, t.b, u.w FROM t, u WHERE t.a < u.w",
       {{"BroadcastMotion", "TableScan"}, {"NestedLoopJoin", "TableScan"}}, 1881, 420,
       [](const Row& row) { return row.size() == 3 && row[0].AsInt64() < row[2].AsInt64(); }},
  };
  for (const Case& c : cases) {
    auto explain = one_worker_db.Explain(c.sql);
    ASSERT_TRUE(explain.ok()) << explain.status().ToString();
    for (const auto& [parent, child] : c.edges) {
      EXPECT_TRUE(PlanHasEdge(*explain, parent, child))
          << c.sql << ": no " << parent << " over " << child << "\n" << *explain;
    }
    auto one_worker = one_worker_db.Run(c.sql);
    auto parallel = parallel_db.Run(c.sql);
    ASSERT_TRUE(one_worker.ok()) << c.sql << ": " << one_worker.status().ToString();
    ASSERT_TRUE(parallel.ok()) << c.sql << ": " << parallel.status().ToString();
    EXPECT_EQ(one_worker->rows.size(), c.rows) << c.sql;
    for (const Row& row : one_worker->rows) {
      const int64_t a = row[0].AsInt64();
      ASSERT_TRUE(a >= 1 && a <= 400 && row[1].AsInt64() == a % 20 && c.valid(row))
          << c.sql;
    }
    EXPECT_TRUE(one_worker->rows == parallel->rows) << c.sql;
    EXPECT_TRUE(one_worker->stats == parallel->stats) << c.sql;
    EXPECT_EQ(one_worker->stats.tuples_scanned, c.tuples) << c.sql;
  }

  const std::string self_insert = "INSERT INTO t SELECT * FROM t";
  auto explain = one_worker_db.Explain(self_insert);
  ASSERT_TRUE(explain.ok()) << explain.status().ToString();
  EXPECT_TRUE(PlanHasEdge(*explain, "GatherMotion", "TableScan")) << *explain;
  EXPECT_TRUE(PlanHasEdge(*explain, "Insert", "GatherMotion")) << *explain;
  ExecStats insert_stats;
  for (Database* db : {&one_worker_db, &parallel_db}) {
    auto inserted = db->Run(self_insert);
    ASSERT_TRUE(inserted.ok()) << inserted.status().ToString();
    ASSERT_EQ(inserted->rows.size(), 1u);
    EXPECT_EQ(inserted->rows[0][0].AsInt64(), 400);
    EXPECT_EQ(inserted->stats.tuples_scanned, 400u);
    if (db == &one_worker_db) {
      insert_stats = inserted->stats;
    } else {
      EXPECT_TRUE(inserted->stats == insert_stats);
    }
    // 1 + ... + 400 = 80200, written exactly once more.
    auto totals = db->Run("SELECT count(*), sum(a) FROM t");
    ASSERT_TRUE(totals.ok()) << totals.status().ToString();
    ASSERT_EQ(totals->rows.size(), 1u);
    EXPECT_EQ(totals->rows[0][0].AsInt64(), 800);
    EXPECT_EQ(totals->rows[0][1].AsInt64(), 160400);
  }
}

// A morsel size too large to round up to a whole chunk saturates to one
// morsel per slice instead of wrapping to zero (which divided by zero in
// the morsel split): a filtered scan at morsel_rows = SIZE_MAX on a pool
// matches the 1-worker run in rows and stats.
TEST(ParallelExecTest, HugeMorselRowsSaturatesToOneMorselPerSlice) {
  TestDb db(4);
  const TableDescriptor* t = db.CreatePlainTable(
      "t", Schema({{"a", TypeId::kInt64}, {"b", TypeId::kInt64}}), {0});
  std::vector<Row> rows;
  for (int64_t i = 0; i < 20000; ++i) rows.push_back({Datum::Int64(i), Datum::Int64(i % 50)});
  db.Insert(t, rows);
  auto plan = std::make_shared<MotionNode>(
      MotionKind::kGather, std::vector<ColRefId>{},
      std::make_shared<FilterNode>(
          MakeComparison(CompareOp::kLt, MakeColumnRef(2, "b", TypeId::kInt64), Lit(5)),
          std::make_shared<TableScanNode>(t->oid, t->oid, std::vector<ColRefId>{1, 2})));

  Executor one_worker(&db.catalog, &db.storage);
  auto oracle = one_worker.Execute(plan);
  ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();
  ASSERT_EQ(oracle->size(), 2000u);
  Executor huge(&db.catalog, &db.storage,
                Executor::Options{.workers = 2, .morsel_rows = SIZE_MAX});
  auto result = huge.Execute(plan);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(*result == *oracle);
  EXPECT_TRUE(huge.stats() == one_worker.stats());
}

// A failure on one segment only (data-dependent division by zero on the
// segment holding k = 7) must abort the peers parked at the Gather barrier
// instead of deadlocking, and must surface the originating error.
TEST(ParallelExecTest, SingleSegmentFailureAbortsPeersAtMotionBarrier) {
  TestDb db(8);
  const TableDescriptor* t =
      db.CreatePlainTable("t", Schema({{"k", TypeId::kInt64}}), {0});
  std::vector<Row> rows;
  for (int64_t i = 0; i < 64; ++i) rows.push_back({Datum::Int64(i)});
  db.Insert(t, rows);

  auto scan = std::make_shared<TableScanNode>(t->oid, t->oid,
                                              std::vector<ColRefId>{1});
  // 10 / (k - 7) > 0: errors exactly on the row k = 7, which lives on one
  // segment of the hash distribution.
  ExprPtr pred = MakeComparison(
      CompareOp::kGt,
      MakeArith(ArithOp::kDiv, Lit(10),
                MakeArith(ArithOp::kSub, MakeColumnRef(1, "k", TypeId::kInt64),
                          Lit(7))),
      Lit(0));
  auto filter = std::make_shared<FilterNode>(pred, scan);
  auto gather = std::make_shared<MotionNode>(MotionKind::kGather,
                                             std::vector<ColRefId>{}, filter);

  Executor parallel(&db.catalog, &db.storage, Executor::Options{.workers = 0});
  auto result = parallel.Execute(gather);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("division by zero"), std::string::npos)
      << result.status().ToString();

  // The failed run leaves a clean executor: zeroed stats, reusable.
  EXPECT_TRUE(parallel.stats() == ExecStats());
  auto ok_scan = std::make_shared<TableScanNode>(t->oid, t->oid,
                                                 std::vector<ColRefId>{1});
  auto ok_plan = std::make_shared<MotionNode>(MotionKind::kGather,
                                              std::vector<ColRefId>{}, ok_scan);
  auto retry = parallel.Execute(ok_plan);
  ASSERT_TRUE(retry.ok()) << retry.status().ToString();
  EXPECT_EQ(retry->size(), 64u);
  EXPECT_EQ(parallel.stats().tuples_scanned, 64u);
}

// Failure paths must leave the executor clean and reusable in both modes:
// stats zeroed, no stale propagation channels or Motion buffers.
TEST(ParallelExecTest, ExecutorReusableAfterFailure) {
  for (int workers : {1, 0}) {
    TestDb db(4);
    const TableDescriptor* t =
        db.CreatePlainTable("t", Schema({{"k", TypeId::kInt64}}), {0});
    db.Insert(t, {{Datum::Int64(1)}, {Datum::Int64(2)}});

    Executor executor(&db.catalog, &db.storage,
                      Executor::Options{.workers = workers});
    // Scan of a table with no storage: fails on every segment.
    auto bogus = std::make_shared<TableScanNode>(/*table_oid=*/987654,
                                                 /*unit_oid=*/987654,
                                                 std::vector<ColRefId>{1});
    auto failed = executor.Execute(bogus);
    ASSERT_FALSE(failed.ok());
    EXPECT_TRUE(executor.stats() == ExecStats()) << "workers=" << workers;

    // A DynamicScan whose selector never ran exercises the stale-channel
    // check; a fresh executor state must report the ordering bug, not serve
    // a channel left over from a previous run.
    auto orphan_scan = std::make_shared<DynamicScanNode>(t->oid, /*scan_id=*/1,
                                                         std::vector<ColRefId>{1});
    auto orphan = executor.Execute(orphan_scan);
    ASSERT_FALSE(orphan.ok());
    EXPECT_NE(orphan.status().message().find("before its PartitionSelector"),
              std::string::npos);

    auto scan = std::make_shared<TableScanNode>(t->oid, t->oid,
                                                std::vector<ColRefId>{1});
    auto gather = std::make_shared<MotionNode>(MotionKind::kGather,
                                               std::vector<ColRefId>{}, scan);
    auto retry = executor.Execute(gather);
    ASSERT_TRUE(retry.ok()) << retry.status().ToString();
    EXPECT_EQ(retry->size(), 2u);
    EXPECT_EQ(executor.stats().tuples_scanned, 2u);
  }
}

#ifdef __linux__
// Threads of this process, from /proc/self/status.
int ProcessThreadCount() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("Threads:", 0) == 0) return std::stoi(line.substr(8));
  }
  return -1;
}

// The default Database creates no scheduler: every statement runs its segment
// tasks on the calling thread, so running queries starts no thread. Only
// workers > 1 creates a pool, of exactly that size.
TEST(ParallelExecTest, DefaultDatabaseRunsStatementsOnTheCallingThread) {
  const int before = ProcessThreadCount();
  ASSERT_GT(before, 0);
  {
    Database db(4);
    ASSERT_TRUE(db.Run("CREATE TABLE t (k int, v int) DISTRIBUTED BY (k)").ok());
    ASSERT_TRUE(db.Run("INSERT INTO t VALUES (1, 10), (2, 20), (3, 30)").ok());
    auto result = db.Run("SELECT v, count(*) FROM t GROUP BY v");
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result->rows.size(), 3u);
    EXPECT_EQ(ProcessThreadCount(), before);
  }
  {
    Database db(4, Executor::Options{.workers = 2});
    EXPECT_EQ(ProcessThreadCount(), before + 2);
  }
  EXPECT_EQ(ProcessThreadCount(), before);
}
#endif

}  // namespace
}  // namespace mppdb

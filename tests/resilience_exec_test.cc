// Executor- and Database-level resilience integration tests: cooperative
// cancellation, deadlines (including the Motion-rendezvous hang regression),
// memory-budget enforcement with graceful shedding, transient-fault retries,
// DML safety under cancellation, and executor reuse after failed runs.
//
// Unit coverage of the building blocks lives in fault_injection_test.cc; the
// randomized fault × mode matrix lives in fault_matrix_test.cc.

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "common/fault_injection.h"
#include "db/database.h"
#include "exec/executor.h"
#include "exec/plan.h"
#include "expr/expr.h"
#include "runtime/query_context.h"
#include "storage/storage.h"
#include "test_util.h"

namespace mppdb {
namespace {

using testutil::TestDb;

int64_t ElapsedMs(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now() - start)
      .count();
}

// The parallel stress suite's Fig. 5(d) shape: broadcast dimension into a
// PartitionSelector feeding a DynamicScan probe of a hash join, gathered at
// the root. Exercises the hub, both Motion kinds, and the join — every
// subsystem the teardown/retry logic must reset.
PhysPtr BuildSelectorJoinPlan(const TableDescriptor* fact,
                              const TableDescriptor* dim) {
  auto dim_scan = std::make_shared<TableScanNode>(dim->oid, dim->oid,
                                                  std::vector<ColRefId>{11, 12});
  auto bcast = std::make_shared<MotionNode>(MotionKind::kBroadcast,
                                            std::vector<ColRefId>{}, dim_scan);
  ExprPtr pred =
      MakeComparison(CompareOp::kEq, MakeColumnRef(2, "b", TypeId::kInt64),
                     MakeColumnRef(11, "id", TypeId::kInt64));
  auto selector = std::make_shared<PartitionSelectorNode>(
      fact->oid, /*scan_id=*/1, std::vector<ColRefId>{2},
      std::vector<ExprPtr>{pred}, bcast);
  auto dyn_scan = std::make_shared<DynamicScanNode>(fact->oid, /*scan_id=*/1,
                                                    std::vector<ColRefId>{1, 2});
  auto join = std::make_shared<HashJoinNode>(
      JoinType::kInner, std::vector<ColRefId>{11}, std::vector<ColRefId>{2},
      nullptr, selector, dyn_scan);
  return std::make_shared<MotionNode>(MotionKind::kGather,
                                      std::vector<ColRefId>{}, join);
}

struct JoinFixture {
  explicit JoinFixture(int segments = 4) : db(segments) {
    fact = db.CreateIntPartitionedTable("fact", 16);
    std::vector<Row> fact_rows;
    for (int64_t i = 0; i < 512; ++i) {
      fact_rows.push_back({Datum::Int64(i), Datum::Int64(i % 160)});
    }
    db.Insert(fact, fact_rows);
    dim = db.CreatePlainTable(
        "dim", Schema({{"id", TypeId::kInt64}, {"tag", TypeId::kInt64}}), {0});
    std::vector<Row> dim_rows;
    for (int64_t id : {3, 17, 42, 88, 131}) {
      dim_rows.push_back({Datum::Int64(id), Datum::Int64(id * 2)});
    }
    db.Insert(dim, dim_rows);
    plan = BuildSelectorJoinPlan(fact, dim);
    auto oracle_result = db.executor.Execute(plan);
    MPPDB_CHECK(oracle_result.ok());
    oracle = std::move(oracle_result).value();
    oracle_stats = db.executor.stats();
  }

  TestDb db;
  const TableDescriptor* fact;
  const TableDescriptor* dim;
  PhysPtr plan;
  std::vector<Row> oracle;
  ExecStats oracle_stats;
};

// Both executor modes every resilience behavior must hold in.
const Executor::Options kModes[] = {
    {.workers = 1},
    {.workers = 0},
};

std::string ModeName(const Executor::Options& mode) {
  return "workers=" + std::to_string(mode.workers);
}

// --- Cancellation ---------------------------------------------------------

TEST(ResilienceExecTest, PreCancelledContextStopsEveryMode) {
  JoinFixture fx;
  for (const Executor::Options& mode : kModes) {
    Executor exec(&fx.db.catalog, &fx.db.storage, mode);
    QueryContext ctx;
    ctx.Cancel();
    auto result = exec.Execute(fx.plan, &ctx);
    ASSERT_FALSE(result.ok()) << ModeName(mode);
    EXPECT_EQ(result.status().code(), StatusCode::kCancelled) << ModeName(mode);

    // The context is reusable after Reset, and the executor after a failed
    // run: hub channels, exchanges, and filters were all torn down.
    ctx.Reset();
    auto retry = exec.Execute(fx.plan, &ctx);
    ASSERT_TRUE(retry.ok()) << ModeName(mode) << ": " << retry.status().ToString();
    EXPECT_TRUE(*retry == fx.oracle) << ModeName(mode);
    EXPECT_TRUE(exec.stats() == fx.oracle_stats) << ModeName(mode);
  }
}

TEST(ResilienceExecTest, CancelThreadTerminatesRunningQuery) {
  JoinFixture fx;
  for (const Executor::Options& mode : kModes) {
    Executor exec(&fx.db.catalog, &fx.db.storage, mode);
    // A 5 s stall at the first scan chunk gives the canceller a wide window;
    // the StopSource hook must cut it short as soon as Cancel lands.
    FaultInjector injector(1);
    FaultSpec stall;
    stall.kind = FaultKind::kDelay;
    stall.delay_ms = 5000;
    stall.max_fires = 1;
    injector.Arm("storage.scan_chunk", stall);

    QueryContext ctx;
    ctx.set_fault_injector(&injector);
    auto start = std::chrono::steady_clock::now();
    std::thread canceller([&ctx]() {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      ctx.Cancel();
    });
    auto result = exec.Execute(fx.plan, &ctx);
    canceller.join();
    ASSERT_FALSE(result.ok()) << ModeName(mode);
    EXPECT_EQ(result.status().code(), StatusCode::kCancelled) << ModeName(mode);
    // Well under the injected 5 s stall: cancellation interrupted it.
    EXPECT_LT(ElapsedMs(start), 4000) << ModeName(mode);

    ctx.Reset();
    injector.Reset();
    auto retry = exec.Execute(fx.plan, &ctx);
    ASSERT_TRUE(retry.ok()) << ModeName(mode) << ": " << retry.status().ToString();
    EXPECT_TRUE(*retry == fx.oracle) << ModeName(mode);
  }
}

// --- Deadlines ------------------------------------------------------------

TEST(ResilienceExecTest, DeadlineExpiryIsTypedAndPrompt) {
  JoinFixture fx;
  for (const Executor::Options& mode : kModes) {
    Executor exec(&fx.db.catalog, &fx.db.storage, mode);
    FaultInjector injector(1);
    FaultSpec stall;
    stall.kind = FaultKind::kDelay;
    stall.delay_ms = 5000;
    stall.max_fires = 1;
    injector.Arm("storage.scan_chunk", stall);

    QueryContext ctx;
    ctx.set_fault_injector(&injector);
    ctx.SetTimeout(std::chrono::milliseconds(150));
    auto start = std::chrono::steady_clock::now();
    auto result = exec.Execute(fx.plan, &ctx);
    ASSERT_FALSE(result.ok()) << ModeName(mode);
    EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded)
        << ModeName(mode) << ": " << result.status().ToString();
    EXPECT_LT(ElapsedMs(start), 4000) << ModeName(mode);
  }
}

// Regression for the Motion rendezvous hang: one segment stalls before its
// exchange deposit while every other worker waits at the barrier. Without a
// deadline-aware wait (plus abort propagation from the stalled peer), the
// waiters sleep on the condition variable forever. With the fix the query
// returns kDeadlineExceeded promptly, all threads joined.
TEST(ResilienceExecTest, MotionRendezvousStalledPeerDoesNotHang) {
  JoinFixture fx(4);
  Executor exec(&fx.db.catalog, &fx.db.storage,
                Executor::Options{.workers = 0});
  FaultInjector injector(1);
  FaultSpec stall;
  stall.kind = FaultKind::kDelay;
  stall.delay_ms = 5000;
  stall.segment = 0;  // exactly one peer wedges; the rest reach the barrier
  injector.Arm("motion.send", stall);

  QueryContext ctx;
  ctx.set_fault_injector(&injector);
  ctx.SetTimeout(std::chrono::milliseconds(250));
  auto start = std::chrono::steady_clock::now();
  auto result = exec.Execute(fx.plan, &ctx);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded)
      << result.status().ToString();
  EXPECT_LT(ElapsedMs(start), 4000) << "barrier waiters did not observe the "
                                       "deadline / peer abort";

  // Clean teardown: the same executor runs the same plan to completion.
  ctx.Reset();
  injector.Reset();
  auto retry = exec.Execute(fx.plan, &ctx);
  ASSERT_TRUE(retry.ok()) << retry.status().ToString();
  EXPECT_TRUE(*retry == fx.oracle);
}

// --- Failure propagation and executor reuse -------------------------------

TEST(ResilienceExecTest, FatalFaultPropagatesAndExecutorIsReusable) {
  JoinFixture fx;
  for (const Executor::Options& mode : kModes) {
    Executor exec(&fx.db.catalog, &fx.db.storage, mode);
    FaultInjector injector(1);
    FaultSpec fatal;
    fatal.kind = FaultKind::kFatal;
    fatal.max_fires = 1;
    injector.Arm("hub.push", fatal);

    QueryContext ctx;
    ctx.set_fault_injector(&injector);
    auto result = exec.Execute(fx.plan, &ctx);
    ASSERT_FALSE(result.ok()) << ModeName(mode);
    // The originating failure surfaces, not a secondhand peer abort.
    EXPECT_EQ(result.status().code(), StatusCode::kInternal)
        << ModeName(mode) << ": " << result.status().ToString();
    EXPECT_EQ(injector.fires("hub.push"), 1u) << ModeName(mode);

    // Fault exhausted (max_fires = 1): the same executor and context must
    // deliver the oracle rows and stats — hub channels, exchanges, and
    // join-filter state were reset by the failed run's teardown.
    auto retry = exec.Execute(fx.plan, &ctx);
    ASSERT_TRUE(retry.ok()) << ModeName(mode) << ": " << retry.status().ToString();
    EXPECT_TRUE(*retry == fx.oracle) << ModeName(mode);
    EXPECT_TRUE(exec.stats() == fx.oracle_stats) << ModeName(mode);
  }
}

// --- Memory budget --------------------------------------------------------

TEST(ResilienceExecTest, TinyBudgetFailsTypedInEveryMode) {
  JoinFixture fx;
  for (const Executor::Options& mode : kModes) {
    Executor exec(&fx.db.catalog, &fx.db.storage, mode);
    QueryContext ctx;
    ctx.budget().set_limit(1);  // below any mandatory charge
    auto result = exec.Execute(fx.plan, &ctx);
    ASSERT_FALSE(result.ok()) << ModeName(mode);
    EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted)
        << ModeName(mode) << ": " << result.status().ToString();

    ctx.budget().set_limit(0);  // unlimited again
    auto retry = exec.Execute(fx.plan, &ctx);
    ASSERT_TRUE(retry.ok()) << ModeName(mode) << ": " << retry.status().ToString();
    EXPECT_TRUE(*retry == fx.oracle) << ModeName(mode);
  }
}

// Graceful degradation, stage 1: join-filter summaries shed before the query
// fails. The join is built empty-result (disjoint keys) so the gather buffer
// charges nothing and the peak charge of the whole run is the last segment's
// advisory summary publication; a limit of peak-1 therefore sheds exactly
// that publish and everything mandatory still fits.
TEST(ResilienceExecTest, JoinFilterSummariesShedUnderBudgetPressure) {
  TestDb db(4);
  const TableDescriptor* fact = db.CreatePlainTable(
      "fact", Schema({{"a", TypeId::kInt64}, {"b", TypeId::kInt64}}), {0});
  std::vector<Row> fact_rows;
  for (int64_t i = 0; i < 200; ++i) {
    fact_rows.push_back({Datum::Int64(i), Datum::Int64(i + 1000)});
  }
  db.Insert(fact, fact_rows);
  const TableDescriptor* dim = db.CreatePlainTable(
      "dim", Schema({{"id", TypeId::kInt64}, {"tag", TypeId::kInt64}}), {0});
  std::vector<Row> dim_rows;
  for (int64_t id = 0; id < 64; ++id) {
    dim_rows.push_back({Datum::Int64(id), Datum::Int64(id * 2)});
  }
  db.Insert(dim, dim_rows);

  // Local filter: published by the hash-join build side, probed by the
  // colocated fact scan on the same segment.
  PhysPtr dim_scan = std::make_shared<TableScanNode>(
      dim->oid, dim->oid, std::vector<ColRefId>{11, 12});
  PhysPtr fact_scan = std::make_shared<TableScanNode>(
      fact->oid, fact->oid, std::vector<ColRefId>{1, 2});
  JoinFilterAnnotations probe_ann;
  JoinFilterProbe probe;
  probe.filter_id = 0;
  probe.key_columns = {2};
  probe_ann.probes.push_back(probe);
  fact_scan = WithJoinFilters(fact_scan, fact_scan->children(), probe_ann);
  PhysPtr join = std::make_shared<HashJoinNode>(
      JoinType::kInner, std::vector<ColRefId>{11}, std::vector<ColRefId>{2},
      nullptr, dim_scan, fact_scan);
  JoinFilterAnnotations publish_ann;
  JoinFilterSpec spec;
  spec.filter_id = 0;
  spec.key_columns = {11};
  spec.build_rows_est = 64;
  publish_ann.publishes.push_back(spec);
  join = WithJoinFilters(join, join->children(), publish_ann);
  PhysPtr plan = std::make_shared<MotionNode>(MotionKind::kGather,
                                              std::vector<ColRefId>{}, join);

  // Pass 1: a huge (but limited, so the accountant tracks) budget records the
  // peak and the fault-free filter stats.
  QueryContext ctx;
  ctx.budget().set_limit(size_t{1} << 40);
  auto unlimited = db.executor.Execute(plan, &ctx);
  ASSERT_TRUE(unlimited.ok()) << unlimited.status().ToString();
  EXPECT_TRUE(unlimited->empty());  // keys are disjoint by construction
  const size_t peak = ctx.budget().peak();
  ASSERT_GT(peak, 0u);
  const size_t built_unlimited = db.executor.stats().joinfilter_built;
  ASSERT_GT(built_unlimited, 0u);
  EXPECT_EQ(db.executor.stats().joinfilter_shed, 0u);

  // Pass 2: one byte below the peak sheds the final advisory publish; the
  // query still succeeds with identical rows.
  ctx.budget().set_limit(peak - 1);
  auto pressured = db.executor.Execute(plan, &ctx);
  ASSERT_TRUE(pressured.ok()) << pressured.status().ToString();
  EXPECT_TRUE(*pressured == *unlimited);
  EXPECT_EQ(db.executor.stats().joinfilter_shed, 1u);
  EXPECT_EQ(db.executor.stats().joinfilter_built, built_unlimited - 1);
}

// Graceful degradation, stage 2: stale zone-map rebuilds shed under budget
// pressure — the scan runs unskipped instead of charging rebuild scratch,
// and the query still succeeds with identical rows.
TEST(ResilienceExecTest, SynopsisRebuildsShedUnderBudgetPressure) {
  TestDb db(4);
  const TableDescriptor* t = db.CreatePlainTable(
      "t", Schema({{"a", TypeId::kInt64}, {"b", TypeId::kInt64}}), {0});
  std::vector<Row> rows;
  for (int64_t i = 0; i < 400; ++i) {
    rows.push_back({Datum::Int64(i), Datum::Int64(i % 7)});
  }
  db.Insert(t, rows);
  // Stale every slice so the next synopsis read needs a rebuild.
  TableStore* store = db.storage.GetStore(t->oid);
  ASSERT_NE(store, nullptr);
  for (Oid unit : store->UnitOids()) {
    for (int segment = 0; segment < db.storage.num_segments(); ++segment) {
      store->MutableUnitRows(unit, segment);
      ASSERT_FALSE(store->SynopsisFresh(unit, segment));
    }
  }

  // Sargable, empty-result filter: a < 0 prunes everything via the rollup
  // when the synopsis is available, and selects nothing either way — so the
  // gather buffer charges 0 bytes and a 16-byte budget leaves room for
  // nothing but the scan itself.
  PhysPtr scan = std::make_shared<TableScanNode>(t->oid, t->oid,
                                                 std::vector<ColRefId>{1, 2});
  PhysPtr filter = std::make_shared<FilterNode>(
      MakeComparison(CompareOp::kLt, MakeColumnRef(1, "a", TypeId::kInt64),
                     MakeConst(Datum::Int64(0))),
      scan);
  PhysPtr plan = std::make_shared<MotionNode>(MotionKind::kGather,
                                              std::vector<ColRefId>{}, filter);

  QueryContext ctx;
  ctx.budget().set_limit(16);  // refuses every rebuild-scratch charge
  auto result = db.executor.Execute(plan, &ctx);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->empty());
  EXPECT_GT(db.executor.stats().synopsis_rebuilds_shed, 0u);
  // Shed rebuilds mean no chunks were skipped, but the answer is unchanged.
  EXPECT_EQ(db.executor.stats().chunks_skipped, 0u);

  // With room to rebuild, the same query prunes via zone maps again.
  ctx.budget().set_limit(size_t{1} << 40);
  auto roomy = db.executor.Execute(plan, &ctx);
  ASSERT_TRUE(roomy.ok()) << roomy.status().ToString();
  EXPECT_TRUE(*roomy == *result);
  EXPECT_EQ(db.executor.stats().synopsis_rebuilds_shed, 0u);
  EXPECT_GT(db.executor.stats().chunks_skipped, 0u);
}

// --- DML safety -----------------------------------------------------------

TEST(ResilienceExecTest, CancelledDmlLeavesStorageUntouched) {
  TestDb db(4);
  const TableDescriptor* t =
      db.CreatePlainTable("dml_t", Schema({{"x", TypeId::kInt64}}), {0});
  db.Insert(t, {{Datum::Int64(1)}, {Datum::Int64(2)}, {Datum::Int64(3)}});
  const size_t before = db.storage.GetStore(t->oid)->TotalRows();

  auto values = std::make_shared<ValuesNode>(
      std::vector<Row>{{Datum::Int64(10)}, {Datum::Int64(11)}},
      std::vector<ColRefId>{1});
  PhysPtr insert = std::make_shared<InsertNode>(t->oid, 50, values);

  QueryContext ctx;
  ctx.Cancel();
  auto result = db.executor.Execute(insert, &ctx);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
  EXPECT_EQ(db.storage.GetStore(t->oid)->TotalRows(), before);

  // Deadline expiry mid-read (before the write applies) also leaves storage
  // untouched: the stalled scan feeding the delete never reaches the apply.
  auto scan = std::make_shared<TableScanNode>(t->oid, t->oid,
                                              std::vector<ColRefId>{1},
                                              std::vector<ColRefId>{60, 61, 62});
  PhysPtr gathered = std::make_shared<MotionNode>(
      MotionKind::kGather, std::vector<ColRefId>{}, scan);
  PhysPtr del = std::make_shared<DeleteNode>(
      t->oid, std::vector<ColRefId>{60, 61, 62}, 51, gathered);
  FaultInjector injector(1);
  FaultSpec stall;
  stall.kind = FaultKind::kDelay;
  stall.delay_ms = 2000;
  stall.max_fires = 1;
  injector.Arm("storage.scan_chunk", stall);
  QueryContext dctx;
  dctx.set_fault_injector(&injector);
  dctx.SetTimeout(std::chrono::milliseconds(100));
  auto dresult = db.executor.Execute(del, &dctx);
  ASSERT_FALSE(dresult.ok());
  EXPECT_EQ(dresult.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(db.storage.GetStore(t->oid)->TotalRows(), before);
}

// --- Database layer: retries, query registry, cancellation by id ----------

struct DatabaseFixture {
  DatabaseFixture() : db(4) {
    Schema schema({{"a", TypeId::kInt64}, {"b", TypeId::kInt64}});
    auto oid = db.CreateTable("t", schema, TableDistribution::kHashed, {0});
    MPPDB_CHECK(oid.ok());
    std::vector<Row> rows;
    for (int64_t i = 0; i < 100; ++i) {
      rows.push_back({Datum::Int64(i), Datum::Int64(i % 10)});
    }
    MPPDB_CHECK(db.Load("t", rows).ok());
  }
  Database db;
};

TEST(ResilienceDatabaseTest, TransientFaultIsRetriedToSuccess) {
  DatabaseFixture fx;
  FaultInjector injector(1);
  FaultSpec transient;
  transient.kind = FaultKind::kTransient;
  transient.max_fires = 1;
  injector.Arm("storage.scan_chunk", transient);

  QueryOptions options;
  options.fault_injector = &injector;
  options.retry_backoff_ms = 0;
  auto result = fx.db.Run("SELECT a FROM t WHERE b = 3", options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->rows.size(), 10u);
  // Exactly one fault fired; the second attempt succeeded.
  EXPECT_EQ(injector.fires("storage.scan_chunk"), 1u);
}

TEST(ResilienceDatabaseTest, PersistentTransientFaultExhaustsRetries) {
  DatabaseFixture fx;
  FaultInjector injector(1);
  FaultSpec transient;
  transient.kind = FaultKind::kTransient;  // unlimited fires
  injector.Arm("storage.scan_chunk", transient);

  QueryOptions options;
  options.fault_injector = &injector;
  options.max_transient_retries = 2;
  options.retry_backoff_ms = 0;
  auto result = fx.db.Run("SELECT a FROM t WHERE b = 3", options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kTransientIO);
  // Initial attempt + 2 retries, each killed by the armed fault.
  EXPECT_EQ(injector.fires("storage.scan_chunk"), 3u);
}

TEST(ResilienceDatabaseTest, DmlNeverRetriesOnTransientFault) {
  DatabaseFixture fx;
  Schema schema({{"a", TypeId::kInt64}, {"b", TypeId::kInt64}});
  auto oid = fx.db.CreateTable("t2", schema, TableDistribution::kHashed, {0});
  ASSERT_TRUE(oid.ok());
  const TableDescriptor* t2 = fx.db.catalog().FindTable(*oid);
  ASSERT_NE(t2, nullptr);
  const TableDescriptor* t = fx.db.catalog().FindTable("t");
  ASSERT_NE(t, nullptr);

  // INSERT INTO t2 SELECT * FROM t, as a physical plan.
  auto scan = std::make_shared<TableScanNode>(t->oid, t->oid,
                                              std::vector<ColRefId>{1, 2});
  PhysPtr gathered = std::make_shared<MotionNode>(
      MotionKind::kGather, std::vector<ColRefId>{}, scan);
  PhysPtr insert = std::make_shared<InsertNode>(t2->oid, 50, gathered);

  FaultInjector injector(1);
  FaultSpec transient;
  transient.kind = FaultKind::kTransient;
  transient.max_fires = 1;
  injector.Arm("storage.scan_chunk", transient);
  QueryOptions options;
  options.fault_injector = &injector;
  options.retry_backoff_ms = 0;
  auto result = fx.db.ExecutePlan(insert, options);
  // A read-only plan would have retried past max_fires = 1 and succeeded;
  // the DML plan must surface the transient error instead.
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kTransientIO);
  EXPECT_EQ(injector.fires("storage.scan_chunk"), 1u);
  EXPECT_EQ(fx.db.storage().GetStore(t2->oid)->TotalRows(), 0u);

  // The fault is exhausted: the same plan now applies exactly once.
  auto retry = fx.db.ExecutePlan(insert, options);
  ASSERT_TRUE(retry.ok()) << retry.status().ToString();
  EXPECT_EQ(fx.db.storage().GetStore(t2->oid)->TotalRows(), 100u);
}

TEST(ResilienceDatabaseTest, CancelByQueryIdTerminatesRunningStatement) {
  DatabaseFixture fx;
  EXPECT_FALSE(fx.db.Cancel(42));  // nothing registered yet

  FaultInjector injector(1);
  FaultSpec stall;
  stall.kind = FaultKind::kDelay;
  stall.delay_ms = 5000;
  stall.max_fires = 1;
  injector.Arm("storage.scan_chunk", stall);

  QueryOptions options;
  options.query_id = 42;
  options.fault_injector = &injector;
  Result<QueryResult> result = Status::Internal("not run");
  auto start = std::chrono::steady_clock::now();
  std::thread runner([&]() { result = fx.db.Run("SELECT a FROM t", options); });
  // Poll until the statement registers, then cancel it.
  bool cancelled = false;
  for (int i = 0; i < 2000 && !cancelled; ++i) {
    cancelled = fx.db.Cancel(42);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  runner.join();
  ASSERT_TRUE(cancelled);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
  EXPECT_LT(ElapsedMs(start), 4000);
  // The statement unregistered on exit.
  EXPECT_FALSE(fx.db.Cancel(42));
}

TEST(ResilienceDatabaseTest, TimeoutOptionSurfacesDeadlineExceeded) {
  DatabaseFixture fx;
  FaultInjector injector(1);
  FaultSpec stall;
  stall.kind = FaultKind::kDelay;
  stall.delay_ms = 5000;
  stall.max_fires = 1;
  injector.Arm("storage.scan_chunk", stall);

  QueryOptions options;
  options.timeout_ms = 100;
  options.fault_injector = &injector;
  auto start = std::chrono::steady_clock::now();
  auto result = fx.db.Run("SELECT a FROM t", options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_LT(ElapsedMs(start), 4000);

  // The deadline covers retries too: an expired context must not burn the
  // retry allowance on attempts that are dead on arrival.
  EXPECT_LE(injector.fires("storage.scan_chunk"), 1u);
}

TEST(ResilienceDatabaseTest, MemoryLimitOptionSurfacesResourceExhausted) {
  DatabaseFixture fx;
  QueryOptions options;
  options.memory_limit_bytes = 1;
  auto result = fx.db.Run("SELECT a FROM t ORDER BY a", options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted)
      << result.status().ToString();

  options.memory_limit_bytes = 0;
  auto roomy = fx.db.Run("SELECT a FROM t ORDER BY a", options);
  ASSERT_TRUE(roomy.ok()) << roomy.status().ToString();
  EXPECT_EQ(roomy->rows.size(), 100u);
}

}  // namespace
}  // namespace mppdb

// Google-benchmark micro benchmarks for the hot primitives behind partition
// selection: tuple routing (f_T), partition selection (f*_T), constraint
// derivation, interval algebra, and end-to-end optimization time for a
// star-join statement.

#include <benchmark/benchmark.h>

#include "catalog/partition_scheme.h"
#include "common/macros.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "db/database.h"
#include "expr/constraint_derivation.h"
#include "optimizer/cascades/cascades_optimizer.h"
#include "runtime/propagation.h"
#include "sql/binder.h"
#include "storage/storage.h"
#include "types/date.h"
#include "workload/tpcds_lite.h"

namespace mppdb {
namespace {

std::unique_ptr<PartitionScheme> MonthlyScheme(int months) {
  Oid next_oid = 1;
  auto root =
      BuildUniformHierarchy({partition_bounds::Monthly(2000, 1, months)}, &next_oid);
  return std::make_unique<PartitionScheme>(
      std::vector<PartitionLevelDesc>{{0, PartitionMethod::kRange}}, std::move(root));
}

void BM_RouteTuple(benchmark::State& state) {
  auto scheme = MonthlyScheme(static_cast<int>(state.range(0)));
  Random rng(42);
  int32_t base = date::FromYMD(2000, 1, 1);
  int32_t span = date::FromYMD(2000 + static_cast<int>(state.range(0)) / 12, 1, 1) - base;
  for (auto _ : state) {
    Datum d = Datum::Date(base + static_cast<int32_t>(rng.Uniform(
                                     static_cast<uint64_t>(span))));
    benchmark::DoNotOptimize(scheme->RouteValues({d}));
  }
}
BENCHMARK(BM_RouteTuple)->Arg(24)->Arg(120)->Arg(360);

void BM_SelectPartitionsRange(benchmark::State& state) {
  auto scheme = MonthlyScheme(static_cast<int>(state.range(0)));
  ConstraintSet quarter = ConstraintSet::FromInterval(
      Interval::Closed(Datum::Date(date::FromYMD(2000, 10, 1)),
                       Datum::Date(date::FromYMD(2000, 12, 31))));
  for (auto _ : state) {
    benchmark::DoNotOptimize(scheme->SelectPartitions({quarter}));
  }
}
BENCHMARK(BM_SelectPartitionsRange)->Arg(24)->Arg(120)->Arg(360);

void BM_DeriveConstraint(benchmark::State& state) {
  ExprPtr key = MakeColumnRef(1, "pk", TypeId::kInt64);
  ExprPtr pred = Conj({MakeComparison(CompareOp::kGe, key, MakeConst(Datum::Int64(10))),
                       MakeComparison(CompareOp::kLe, key, MakeConst(Datum::Int64(50))),
                       MakeOr({MakeComparison(CompareOp::kEq, key,
                                              MakeConst(Datum::Int64(20))),
                               MakeComparison(CompareOp::kGt, key,
                                              MakeConst(Datum::Int64(40)))})});
  for (auto _ : state) {
    benchmark::DoNotOptimize(DeriveConstraint(pred, 1));
  }
}
BENCHMARK(BM_DeriveConstraint);

void BM_ConstraintSetUnion(benchmark::State& state) {
  Random rng(7);
  std::vector<ConstraintSet> sets;
  for (int i = 0; i < 64; ++i) {
    int64_t lo = rng.UniformRange(0, 1000);
    sets.push_back(ConstraintSet::FromInterval(
        Interval::RightOpen(Datum::Int64(lo), Datum::Int64(lo + 50))));
  }
  for (auto _ : state) {
    ConstraintSet acc = ConstraintSet::None();
    for (const auto& s : sets) acc = acc.Union(s);
    benchmark::DoNotOptimize(acc);
  }
}
BENCHMARK(BM_ConstraintSetUnion);

void BM_OptimizeStarJoin(benchmark::State& state) {
  static Database* db = [] {
    auto* database = new Database(4);
    workload::TpcdsConfig config;
    config.base_rows = 200;
    MPPDB_CHECK(workload::CreateAndLoadTpcds(database, config).ok());
    return database;
  }();
  Binder binder(&db->catalog());
  auto stmt = binder.BindSql(
      "SELECT count(*) FROM store_sales ss "
      "JOIN date_dim d ON ss.ss_sold_date_sk = d.d_date_sk "
      "JOIN item i ON ss.ss_item_sk = i.i_item_sk "
      "WHERE d.d_moy = 6 AND i.i_current_price > 10");
  MPPDB_CHECK(stmt.ok());
  for (auto _ : state) {
    CascadesOptimizer optimizer(&db->catalog(), &db->storage());
    auto plan = optimizer.Plan(*stmt);
    MPPDB_CHECK(plan.ok());
    benchmark::DoNotOptimize(plan);
  }
}
BENCHMARK(BM_OptimizeStarJoin);

// Fused filter-over-scan at the selectivity given by state.range(0)
// (percent), over one shared database.
Database* FilterBenchDb() {
  static Database* db = [] {
    auto* database = new Database(4);
    MPPDB_CHECK(database
                    ->CreateTable("bm_filter",
                                  Schema({{"k", TypeId::kInt64},
                                          {"u", TypeId::kInt64}}),
                                  TableDistribution::kHashed, {0})
                    .ok());
    Random rng(5);
    std::vector<Row> rows;
    rows.reserve(50000);
    for (int64_t i = 0; i < 50000; ++i) {
      rows.push_back({Datum::Int64(i), Datum::Int64(rng.UniformRange(0, 99))});
    }
    MPPDB_CHECK(database->Load("bm_filter", rows).ok());
    return database;
  }();
  return db;
}

PhysPtr FilterBenchPlan(Database* db, int64_t threshold) {
  const TableDescriptor* t = db->catalog().FindTable("bm_filter");
  auto scan = std::make_shared<TableScanNode>(t->oid, t->oid,
                                              std::vector<ColRefId>{1, 2});
  ExprPtr pred = MakeComparison(CompareOp::kLt,
                                MakeColumnRef(2, "u", TypeId::kInt64),
                                MakeConst(Datum::Int64(threshold)));
  auto filter = std::make_shared<FilterNode>(pred, scan);
  return std::make_shared<MotionNode>(MotionKind::kGather, std::vector<ColRefId>{},
                                      filter);
}

void BM_FilterScan(benchmark::State& state) {
  Database* db = FilterBenchDb();
  PhysPtr plan = FilterBenchPlan(db, state.range(0));
  Executor exec(&db->catalog(), &db->storage());
  for (auto _ : state) {
    auto result = exec.Execute(plan);
    MPPDB_CHECK(result.ok());
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_FilterScan)->Arg(1)->Arg(10)->Arg(50);

// HashAgg over 120k rows with state.range(0) distinct keys: count(*) and a
// double sum of a bare column, grouped on an int64. One segment, so the plan
// is the aggregate over one storage slice read in place.
void BM_HashAggGroups(benchmark::State& state) {
  const int64_t groups = state.range(0);
  Database db(1);
  MPPDB_CHECK(db.CreateTable("bm_agg",
                             Schema({{"g", TypeId::kInt64}, {"v", TypeId::kDouble}}),
                             TableDistribution::kHashed, {0})
                  .ok());
  std::vector<Row> rows;
  rows.reserve(120000);
  for (int64_t i = 0; i < 120000; ++i) {
    rows.push_back({Datum::Int64(i * 7919 % groups), Datum::Double(0.25 * (i % 13))});
  }
  MPPDB_CHECK(db.Load("bm_agg", rows).ok());
  const TableDescriptor* t = db.catalog().FindTable("bm_agg");
  auto scan = std::make_shared<TableScanNode>(t->oid, t->oid, std::vector<ColRefId>{1, 2});
  PhysPtr plan = std::make_shared<HashAggNode>(
      std::vector<ColRefId>{1},
      std::vector<AggItem>{{AggFunc::kCountStar, nullptr, 3, "cnt"},
                           {AggFunc::kSum, MakeColumnRef(2, "v", TypeId::kDouble), 4,
                            "sv"}},
      scan);
  Executor exec(&db.catalog(), &db.storage());
  for (auto _ : state) {
    auto result = exec.Execute(plan);
    MPPDB_CHECK(result.ok() && result->size() == static_cast<size_t>(groups));
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_HashAggGroups)->Arg(1)->Arg(1000)->Arg(100000);

// Sort and TopN over 100k rows on one segment, by the key set
// state.range(0) picks: 0 a BIGINT, 1 a DOUBLE, 2 a VARCHAR (random
// 12-letter words), 3 an INT ascending then a DOUBLE descending.
Database* SortBenchDb() {
  static Database* db = [] {
    auto* database = new Database(1);
    MPPDB_CHECK(database
                    ->CreateTable("bm_sort",
                                  Schema({{"b", TypeId::kInt64},
                                          {"d", TypeId::kDouble},
                                          {"s", TypeId::kString},
                                          {"g", TypeId::kInt32}}),
                                  TableDistribution::kHashed, {0})
                    .ok());
    Random rng(11);
    std::vector<Row> rows;
    rows.reserve(100000);
    for (int64_t i = 0; i < 100000; ++i) {
      std::string word(12, 'a');
      for (char& c : word) c = static_cast<char>('a' + rng.Uniform(26));
      rows.push_back({Datum::Int64(rng.UniformRange(-1000000000, 1000000000)),
                      Datum::Double(static_cast<double>(rng.UniformRange(90000, 10499000)) /
                                    100.0),
                      Datum::String(std::move(word)),
                      Datum::Int32(static_cast<int32_t>(rng.Uniform(100)))});
    }
    MPPDB_CHECK(database->Load("bm_sort", rows).ok());
    return database;
  }();
  return db;
}

std::vector<SortKey> SortBenchKeys(int64_t variant) {
  switch (variant) {
    case 0:
      return {{1, true}};
    case 1:
      return {{2, true}};
    case 2:
      return {{3, true}};
    default:
      return {{4, true}, {2, false}};
  }
}

PhysPtr SortBenchScan(Database* db) {
  const TableDescriptor* t = db->catalog().FindTable("bm_sort");
  return std::make_shared<TableScanNode>(t->oid, t->oid,
                                         std::vector<ColRefId>{1, 2, 3, 4});
}

void BM_Sort(benchmark::State& state) {
  Database* db = SortBenchDb();
  PhysPtr plan = std::make_shared<SortNode>(SortBenchKeys(state.range(0)),
                                            SortBenchScan(db));
  Executor exec(&db->catalog(), &db->storage());
  for (auto _ : state) {
    auto result = exec.Execute(plan);
    MPPDB_CHECK(result.ok() && result->size() == 100000);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_Sort)->DenseRange(0, 3)->Unit(benchmark::kMillisecond);

void BM_TopN(benchmark::State& state) {
  Database* db = SortBenchDb();
  PhysPtr plan = std::make_shared<TopNNode>(SortBenchKeys(state.range(0)), 20,
                                            SortBenchScan(db));
  Executor exec(&db->catalog(), &db->storage());
  for (auto _ : state) {
    auto result = exec.Execute(plan);
    MPPDB_CHECK(result.ok() && result->size() == 20);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_TopN)->DenseRange(0, 3)->Unit(benchmark::kMillisecond);

void BM_ExecutePrunedScan(benchmark::State& state) {
  static Database* db = [] {
    auto* database = new Database(4);
    workload::TpcdsConfig config;
    config.base_rows = 5000;
    MPPDB_CHECK(workload::CreateAndLoadTpcds(database, config).ok());
    return database;
  }();
  std::string sql =
      "SELECT count(*) FROM store_sales WHERE ss_sold_date_sk BETWEEN " +
      std::to_string(date::FromYMD(2003, 10, 1)) + " AND " +
      std::to_string(date::FromYMD(2003, 12, 31));
  for (auto _ : state) {
    auto result = db->Run(sql);
    MPPDB_CHECK(result.ok());
    benchmark::DoNotOptimize(result->rows);
  }
}
BENCHMARK(BM_ExecutePrunedScan);

// PartitionPropagationHub::Push sits on the selector's per-joining-tuple hot
// path: one push per (tuple, selected partition), nearly all duplicates. The
// argument is the distinct-OID range; 100k pushes drawn uniformly from it
// per iteration exercise the dedup bitmap at different densities (the
// structure the bitmap replaced was a per-push unordered_set probe).
void BM_HubPushDedup(benchmark::State& state) {
  const uint64_t distinct_oids = static_cast<uint64_t>(state.range(0));
  Random rng(11);
  std::vector<Oid> pushes;
  pushes.reserve(100000);
  for (int i = 0; i < 100000; ++i) {
    pushes.push_back(static_cast<Oid>(rng.Uniform(distinct_oids)));
  }
  for (auto _ : state) {
    PartitionPropagationHub hub(1);
    hub.OpenChannel(0, 1);
    for (Oid oid : pushes) hub.Push(0, 1, oid);
    benchmark::DoNotOptimize(hub.Selected(0, 1).size());
  }
}
BENCHMARK(BM_HubPushDedup)->Arg(16)->Arg(256)->Arg(4096);

// Motion exchange throughput: rows per second through one Motion of each
// kind over a 120k-row scan on 4 segments, the Motion at the plan root.
// Gather hands segment 0 the source segments' storage slices by reference,
// and the root copies each row once into the result. Redistribute copies
// each row at deposit and moves it into its destination's buffer, sized
// from the sender's batch hint. Broadcast copies each row once at deposit
// into one shared batch that every destination reads in place; the root
// then copies it once per segment. Case 3 is a Project of one column over
// the Gather: it reads the slices in place and builds only the narrow rows.
// The second argument is the worker count; on 4 workers the root's copy
// runs in morsels on the pool.
Database* MotionBenchDb() {
  static Database* db = [] {
    auto* database = new Database(4);
    MPPDB_CHECK(database
                    ->CreateTable("bm_motion",
                                  Schema({{"k", TypeId::kInt64},
                                          {"v", TypeId::kInt64}}),
                                  TableDistribution::kHashed, {0})
                    .ok());
    Random rng(17);
    std::vector<Row> rows;
    rows.reserve(120000);
    for (int64_t i = 0; i < 120000; ++i) {
      rows.push_back({Datum::Int64(i), Datum::Int64(rng.UniformRange(0, 999))});
    }
    MPPDB_CHECK(database->Load("bm_motion", rows).ok());
    return database;
  }();
  return db;
}

void BM_MotionThroughput(benchmark::State& state) {
  Database* db = MotionBenchDb();
  const TableDescriptor* t = db->catalog().FindTable("bm_motion");
  const int workers = static_cast<int>(state.range(1));
  MotionKind kind = MotionKind::kGather;
  std::vector<ColRefId> motion_cols;
  std::string label;
  switch (state.range(0)) {
    case 0:
    case 3:
      kind = MotionKind::kGather;
      label = state.range(0) == 0 ? "gather" : "project-over-gather";
      break;
    case 1:
      kind = MotionKind::kRedistribute;
      // Redistribute on v, not the stored hash column, so rows reshuffle.
      motion_cols = {2};
      label = "redistribute";
      break;
    default:
      kind = MotionKind::kBroadcast;
      label = "broadcast";
      break;
  }
  state.SetLabel(label + " workers=" + std::to_string(workers));
  auto scan = std::make_shared<TableScanNode>(t->oid, t->oid,
                                              std::vector<ColRefId>{1, 2});
  PhysPtr plan = std::make_shared<MotionNode>(kind, motion_cols, scan);
  if (state.range(0) == 3) {
    plan = std::make_shared<ProjectNode>(
        std::vector<ProjectItem>{{MakeColumnRef(2, "v", TypeId::kInt64), 2, "v"}}, plan);
  }
  Executor exec(&db->catalog(), &db->storage(), Executor::Options{.workers = workers});
  size_t rows_moved = 0;
  for (auto _ : state) {
    auto result = exec.Execute(plan);
    MPPDB_CHECK(result.ok());
    rows_moved = exec.stats().rows_moved;
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(rows_moved));
}
BENCHMARK(BM_MotionThroughput)
    ->Args({0, 1})
    ->Args({1, 1})
    ->Args({2, 1})
    ->Args({3, 1})
    ->Args({0, 4})
    ->Args({3, 4});

// Index equality seek: TableStore::IndexLookup with equal_range + exact
// reserve over a lazily built sorted index. The argument is the duplicate
// run width per key — wide runs are where sizing the result up front (vs
// growing through push_back) pays.
void BM_IndexEqualitySeek(benchmark::State& state) {
  const int64_t run_width = state.range(0);
  const int64_t total_rows = 60000;
  Database db(1);
  MPPDB_CHECK(db.CreateTable("bm_idx",
                             Schema({{"k", TypeId::kInt64}, {"v", TypeId::kInt64}}),
                             TableDistribution::kHashed, {0})
                  .ok());
  std::vector<Row> rows;
  rows.reserve(static_cast<size_t>(total_rows));
  for (int64_t i = 0; i < total_rows; ++i) {
    rows.push_back({Datum::Int64(i / run_width), Datum::Int64(i)});
  }
  MPPDB_CHECK(db.Load("bm_idx", rows).ok());
  const TableDescriptor* t = db.catalog().FindTable("bm_idx");
  TableStore* store = db.storage().GetStore(t->oid);
  MPPDB_CHECK(store->CreateIndex(0).ok());
  // Warm lookup so the lazy build lands outside the timed loop.
  MPPDB_CHECK(store->IndexLookup(t->oid, 0, 0, Datum::Int64(0)).size() ==
              static_cast<size_t>(run_width));
  Random rng(13);
  const uint64_t distinct_keys = static_cast<uint64_t>(total_rows / run_width);
  for (auto _ : state) {
    Datum key = Datum::Int64(static_cast<int64_t>(rng.Uniform(distinct_keys)));
    benchmark::DoNotOptimize(store->IndexLookup(t->oid, 0, 0, key));
  }
}
BENCHMARK(BM_IndexEqualitySeek)->Arg(1)->Arg(16)->Arg(256);

// Task-submission overhead of the MorselScheduler's group spawn/wait path:
// tasks are move-only TaskFns, so a task carrying a non-trivial payload (a
// row buffer) pays one move, not a copy. Batch of 64 tasks per iteration on a
// single-worker scheduler.
void BM_TaskGroupSpawn(benchmark::State& state) {
  constexpr int kBatch = 64;
  // The payload makes copy-vs-move visible: 1 KiB of rows per task.
  std::vector<Row> payload;
  for (int64_t i = 0; i < 16; ++i) {
    payload.push_back({Datum::Int64(i), Datum::Int64(i * 3)});
  }
  MorselScheduler scheduler(1);
  for (auto _ : state) {
    MorselScheduler::TaskGroup group(&scheduler);
    for (int i = 0; i < kBatch; ++i) {
      std::vector<Row> task_payload = payload;
      group.Spawn([p = std::move(task_payload)]() {
        benchmark::DoNotOptimize(p.size());
      });
    }
    group.Wait();
  }
  state.SetItemsProcessed(state.iterations() * kBatch);
}
BENCHMARK(BM_TaskGroupSpawn);

// --- Plan cache: what a hit skips vs what a hit costs -----------------------
//
// BM_ParseBindOptimize is the compile pipeline a cache miss pays per
// statement (normalize + parse + bind + Cascades); BM_CachedPlanLookup is
// the hit path for the same statement (normalize + LRU lookup + parameter
// coercion + $n rebind). Their ratio is the per-statement saving the serving
// layer's cache buys on repeated statements.

std::string CacheBenchSql(int64_t lo) {
  return "SELECT count(*) FROM bm_filter WHERE u >= " + std::to_string(lo) +
         " AND u < " + std::to_string(lo + 40);
}

void BM_ParseBindOptimize(benchmark::State& state) {
  Database* db = FilterBenchDb();
  int64_t lo = 0;
  for (auto _ : state) {
    auto normalized = NormalizeSql(CacheBenchSql(lo++ % 50));
    MPPDB_CHECK(normalized.ok() && normalized->cacheable);
    auto plan = db->PlanSql(normalized->text);
    MPPDB_CHECK(plan.ok());
    benchmark::DoNotOptimize(plan);
  }
}
BENCHMARK(BM_ParseBindOptimize);

void BM_CachedPlanLookup(benchmark::State& state) {
  Database* db = FilterBenchDb();
  PlanCache cache(16);
  {
    auto normalized = NormalizeSql(CacheBenchSql(0));
    MPPDB_CHECK(normalized.ok());
    auto entry = std::make_shared<CachedPlan>();
    auto plan = db->PlanSql(normalized->text);
    MPPDB_CHECK(plan.ok());
    entry->plan = *plan;
    entry->params = AnalyzePlanParams(entry->plan);
    cache.Insert(normalized->text, std::move(entry));
  }
  int64_t lo = 0;
  for (auto _ : state) {
    auto normalized = NormalizeSql(CacheBenchSql(lo++ % 50));
    MPPDB_CHECK(normalized.ok());
    auto entry = cache.Lookup(normalized->text);
    MPPDB_CHECK(entry != nullptr);
    auto coerced = CoerceParamValues(entry->params, normalized->params);
    MPPDB_CHECK(coerced.ok());
    auto bound = BindPlanParams(entry->plan, *coerced);
    MPPDB_CHECK(bound.ok());
    benchmark::DoNotOptimize(bound);
  }
}
BENCHMARK(BM_CachedPlanLookup);

// LRU churn: `range(0)` distinct statements cycling through a 16-entry
// cache. 16 or fewer = steady-state hits with splice-to-front bumps; more =
// every insert evicts the tail (the worst case of an undersized cache).
void BM_PlanCacheLru(benchmark::State& state) {
  Database* db = FilterBenchDb();
  const int distinct = static_cast<int>(state.range(0));
  PlanCache cache(16);
  auto entry = std::make_shared<CachedPlan>();
  auto plan = db->PlanSql(CacheBenchSql(0));
  MPPDB_CHECK(plan.ok());
  entry->plan = *plan;
  entry->params = AnalyzePlanParams(entry->plan);
  int64_t next = 0;
  for (auto _ : state) {
    const std::string key = "stmt-" + std::to_string(next++ % distinct);
    if (cache.Lookup(key) == nullptr) cache.Insert(key, entry);
  }
  state.counters["evictions"] =
      static_cast<double>(cache.stats().evictions) /
      static_cast<double>(state.iterations());
}
BENCHMARK(BM_PlanCacheLru)->Arg(8)->Arg(16)->Arg(64);

}  // namespace
}  // namespace mppdb

BENCHMARK_MAIN();

// Concurrency stress: a PartitionSelector/DynamicScan join executed
// repeatedly on 8 segments on a worker pool to shake out races in
// PartitionPropagationHub, the Motion exchange barrier, the per-segment stats
// accumulators, and the per-worker kernel contexts and join pipelines. Built
// and run under ThreadSanitizer by the tsan_parallel_stress ctest entry (see
// tests/CMakeLists.txt), where any race fails the build instead of flaking.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <random>
#include <thread>
#include <vector>

#include "common/fault_injection.h"
#include "db/database.h"
#include "exec/executor.h"
#include "exec/plan.h"
#include "expr/expr.h"
#include "join_filter_matrix.h"
#include "storage/storage.h"
#include "test_util.h"

namespace mppdb {
namespace {

using testutil::PlanHasEdge;
using testutil::TestDb;

// Fig. 5(d) shape on 8 segments: dimension rows broadcast into a selector
// whose per-tuple selections feed the DynamicScan probe side of a hash join,
// gathered at the root.
PhysPtr BuildSelectorJoinPlan(const TableDescriptor* fact,
                              const TableDescriptor* dim) {
  auto dim_scan = std::make_shared<TableScanNode>(dim->oid, dim->oid,
                                                  std::vector<ColRefId>{11, 12});
  auto bcast = std::make_shared<MotionNode>(MotionKind::kBroadcast,
                                            std::vector<ColRefId>{}, dim_scan);
  // Selector predicate: fact.b (partition key, colref 2) = dim.id (11).
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

TEST(ParallelStressTest, SelectorDynamicScanJoinOn8Segments) {
  TestDb db(8);
  // Fact: 512 rows over 16 partitions (b in [0, 160), width 10), hashed on a.
  const TableDescriptor* fact = db.CreateIntPartitionedTable("fact", 16);
  std::vector<Row> fact_rows;
  for (int64_t i = 0; i < 512; ++i) {
    fact_rows.push_back({Datum::Int64(i), Datum::Int64(i % 160)});
  }
  db.Insert(fact, fact_rows);
  // Dimension: ids hitting 5 of the 16 partitions.
  const TableDescriptor* dim = db.CreatePlainTable(
      "dim", Schema({{"id", TypeId::kInt64}, {"tag", TypeId::kInt64}}), {0});
  std::vector<Row> dim_rows;
  for (int64_t id : {3, 17, 42, 88, 131}) {
    dim_rows.push_back({Datum::Int64(id), Datum::Int64(id * 2)});
  }
  db.Insert(dim, dim_rows);

  PhysPtr plan = BuildSelectorJoinPlan(fact, dim);

  // 1-worker oracle, once.
  auto oracle = db.executor.Execute(plan);
  ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();
  ASSERT_FALSE(oracle->empty());
  ExecStats oracle_stats = db.executor.stats();
  // Dynamic elimination proof: only the 5 selected partitions are scanned.
  ASSERT_EQ(oracle_stats.PartitionsScanned(fact->oid), 5u);

  // Hammer the parallel path: fresh rendezvous state every iteration, same
  // rows and stats every time.
  Executor parallel(&db.catalog, &db.storage, Executor::Options{.workers = 0});
  for (int iteration = 0; iteration < 25; ++iteration) {
    auto result = parallel.Execute(plan);
    ASSERT_TRUE(result.ok()) << "iter " << iteration << ": "
                             << result.status().ToString();
    ASSERT_TRUE(*result == *oracle) << "iter " << iteration;
    ASSERT_TRUE(parallel.stats() == oracle_stats) << "iter " << iteration;
  }
}

TEST(ParallelStressTest, RedistributeExchangeRepeated) {
  TestDb db(8);
  const TableDescriptor* t = db.CreatePlainTable(
      "t", Schema({{"k", TypeId::kInt64}, {"v", TypeId::kInt64}}), {0});
  std::vector<Row> rows;
  for (int64_t i = 0; i < 400; ++i) {
    rows.push_back({Datum::Int64(i), Datum::Int64(i % 7)});
  }
  db.Insert(t, rows);

  // Redistribute on v (not the storage distribution key), then gather: every
  // segment both produces and consumes at the exchange.
  auto scan = std::make_shared<TableScanNode>(t->oid, t->oid,
                                              std::vector<ColRefId>{1, 2});
  auto redist = std::make_shared<MotionNode>(MotionKind::kRedistribute,
                                             std::vector<ColRefId>{2}, scan);
  auto gather = std::make_shared<MotionNode>(MotionKind::kGather,
                                             std::vector<ColRefId>{}, redist);

  auto oracle = db.executor.Execute(gather);
  ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();
  ASSERT_EQ(oracle->size(), 400u);
  ExecStats oracle_stats = db.executor.stats();

  Executor parallel(&db.catalog, &db.storage, Executor::Options{.workers = 0});
  for (int iteration = 0; iteration < 25; ++iteration) {
    auto result = parallel.Execute(gather);
    ASSERT_TRUE(result.ok()) << "iter " << iteration << ": "
                             << result.status().ToString();
    ASSERT_TRUE(*result == *oracle) << "iter " << iteration;
    ASSERT_TRUE(parallel.stats() == oracle_stats) << "iter " << iteration;
  }
}

// HashAgg and HashJoin over bare scans read storage slices in place. Four
// workers run the 8 segments' aggregates and joins concurrently over the
// same TableStore, each reading its own segment's slices; rows and stats
// must match the 1-worker run every time.
TEST(ParallelStressTest, InPlaceAggAndJoinOverBareScansRepeated) {
  TestDb db(8);
  // fact: 2000 rows over 16 partitions (b in [0, 160)), hashed on a.
  const TableDescriptor* fact = db.CreateIntPartitionedTable("fact", 16);
  std::vector<Row> fact_rows;
  for (int64_t i = 0; i < 2000; ++i) {
    fact_rows.push_back({Datum::Int64(i), Datum::Int64(i % 160)});
  }
  db.Insert(fact, fact_rows);
  // other: hashed on k, so a join on fact.a = other.k is colocated and both
  // of its inputs are bare scans.
  const TableDescriptor* other = db.CreatePlainTable(
      "other", Schema({{"k", TypeId::kInt64}, {"w", TypeId::kInt64}}), {0});
  std::vector<Row> other_rows;
  for (int64_t i = 0; i < 3000; i += 3) {
    other_rows.push_back({Datum::Int64(i), Datum::Int64(i % 11)});
  }
  db.Insert(other, other_rows);

  auto bare_fact = [&](int scan_id) -> PhysPtr {
    auto selector = std::make_shared<PartitionSelectorNode>(
        fact->oid, scan_id, std::vector<ColRefId>{2}, std::vector<ExprPtr>{nullptr},
        nullptr);
    auto scan = std::make_shared<DynamicScanNode>(fact->oid, scan_id,
                                                  std::vector<ColRefId>{1, 2});
    return std::make_shared<SequenceNode>(std::vector<PhysPtr>{selector, scan});
  };
  auto gather = [](PhysPtr child) -> PhysPtr {
    return std::make_shared<MotionNode>(MotionKind::kGather, std::vector<ColRefId>{},
                                        std::move(child));
  };
  PhysPtr agg_plan = gather(std::make_shared<HashAggNode>(
      std::vector<ColRefId>{2},
      std::vector<AggItem>{{AggFunc::kCountStar, nullptr, 20, "cnt"},
                           {AggFunc::kSum, MakeColumnRef(1, "a", TypeId::kInt64), 21,
                            "sa"}},
      bare_fact(1)));
  auto other_scan = std::make_shared<TableScanNode>(other->oid, other->oid,
                                                    std::vector<ColRefId>{11, 12});
  PhysPtr join_plan = gather(std::make_shared<HashJoinNode>(
      JoinType::kInner, std::vector<ColRefId>{1}, std::vector<ColRefId>{11}, nullptr,
      bare_fact(2), other_scan));

  for (const PhysPtr& plan : {agg_plan, join_plan}) {
    auto oracle = db.executor.Execute(plan);
    ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();
    ASSERT_FALSE(oracle->empty());
    ExecStats oracle_stats = db.executor.stats();

    Executor parallel(&db.catalog, &db.storage, Executor::Options{.workers = 4});
    for (int iteration = 0; iteration < 25; ++iteration) {
      auto result = parallel.Execute(plan);
      ASSERT_TRUE(result.ok()) << "iter " << iteration << ": "
                               << result.status().ToString();
      ASSERT_TRUE(*result == *oracle) << "iter " << iteration;
      ASSERT_TRUE(parallel.stats() == oracle_stats) << "iter " << iteration;
    }
  }
}

// An Append whose first child is a bare scan read in place and whose second
// child suspends at a Redistribute Motion: the completed child's storage
// slices are parked in the suspension memo, as they are, across the
// suspension, and the re-walk hands them to the HashAgg above the Append
// without re-scanning or re-counting them. Rows are bit-identical at 1 and
// 4 workers over repeated runs, and tuples_scanned counts each table once.
TEST(ParallelStressTest, AppendParksInPlaceChildAcrossMotionSuspension) {
  TestDb db(8);
  // fact(a, b): 2000 rows over 16 partitions, a = 0..1999, b = a % 160.
  const TableDescriptor* fact = db.CreateIntPartitionedTable("fact", 16);
  std::vector<Row> fact_rows;
  for (int64_t i = 0; i < 2000; ++i) {
    fact_rows.push_back({Datum::Int64(i), Datum::Int64(i % 160)});
  }
  db.Insert(fact, fact_rows);
  // other(k, w): 1000 rows, k = 0..999, w = k % 160, hashed on k and
  // redistributed on w.
  const TableDescriptor* other = db.CreatePlainTable(
      "other", Schema({{"k", TypeId::kInt64}, {"w", TypeId::kInt64}}), {0});
  std::vector<Row> other_rows;
  for (int64_t i = 0; i < 1000; ++i) {
    other_rows.push_back({Datum::Int64(i), Datum::Int64(i % 160)});
  }
  db.Insert(other, other_rows);

  auto selector = std::make_shared<PartitionSelectorNode>(
      fact->oid, 1, std::vector<ColRefId>{2}, std::vector<ExprPtr>{nullptr}, nullptr);
  auto fact_scan =
      std::make_shared<DynamicScanNode>(fact->oid, 1, std::vector<ColRefId>{1, 2});
  auto bare_fact =
      std::make_shared<SequenceNode>(std::vector<PhysPtr>{selector, fact_scan});
  auto other_scan = std::make_shared<TableScanNode>(other->oid, other->oid,
                                                    std::vector<ColRefId>{11, 12});
  auto redistribute = std::make_shared<MotionNode>(
      MotionKind::kRedistribute, std::vector<ColRefId>{12}, other_scan);
  auto append =
      std::make_shared<AppendNode>(std::vector<PhysPtr>{bare_fact, redistribute});
  PhysPtr plan = std::make_shared<MotionNode>(
      MotionKind::kGather, std::vector<ColRefId>{},
      std::make_shared<HashAggNode>(
          std::vector<ColRefId>{2},
          std::vector<AggItem>{{AggFunc::kCountStar, nullptr, 20, "cnt"},
                               {AggFunc::kSum, MakeColumnRef(1, "a", TypeId::kInt64),
                                21, "sa"}},
          append));

  auto oracle = db.executor.Execute(plan);
  ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();
  const ExecStats oracle_stats = db.executor.stats();
  EXPECT_EQ(oracle_stats.tuples_scanned, 3000u);
  EXPECT_EQ(oracle_stats.PartitionsScanned(fact->oid), 16u);
  // 1000 redistributed rows plus the gathered groups.
  EXPECT_EQ(oracle_stats.rows_moved, 1000u + oracle->size());
  int64_t count = 0, sum = 0;
  for (const Row& row : *oracle) {
    count += row[1].AsInt64();
    sum += row[2].AsInt64();
  }
  EXPECT_EQ(count, 3000);
  // 0 + ... + 1999 plus 0 + ... + 999.
  EXPECT_EQ(sum, 1999000 + 499500);

  Executor parallel(&db.catalog, &db.storage, Executor::Options{.workers = 4});
  for (int iteration = 0; iteration < 25; ++iteration) {
    auto result = parallel.Execute(plan);
    ASSERT_TRUE(result.ok()) << "iter " << iteration << ": "
                             << result.status().ToString();
    ASSERT_TRUE(*result == *oracle) << "iter " << iteration;
    ASSERT_TRUE(parallel.stats() == oracle_stats) << "iter " << iteration;
  }
}

// Zone-map synopses and secondary indexes both (re)build lazily on read
// paths with different protection: UnitSynopsis is lock-free under the
// segment-ownership contract, IndexLookup serializes on index_mu_. This
// stress runs them against each other: every slice is first staled via
// MutableUnitRows, then one owner thread per segment reads UnitSynopsis for
// all of its slices (each thread owns exactly one segment, as the contract
// requires) while prober threads hammer IndexLookup across all slices. Under
// the tsan_parallel_stress gate any overlap between the two rebuild paths —
// or a leak of synopsis state across segments — fails as a race.
TEST(ParallelStressTest, SynopsisReadsDuringLazyIndexBuilds) {
  constexpr int kSegments = 4;
  constexpr int64_t kRows = 4000;
  TestDb db(kSegments);
  const TableDescriptor* fact = db.CreateIntPartitionedTable("fact", 8);
  std::vector<Row> rows;
  for (int64_t i = 0; i < kRows; ++i) {
    rows.push_back({Datum::Int64(i), Datum::Int64(i % 80)});
  }
  db.Insert(fact, rows);
  TableStore* store = db.storage.GetStore(fact->oid);
  ASSERT_NE(store, nullptr);
  ASSERT_TRUE(store->CreateIndex(0).ok());

  // Stale every slice (still single-threaded) so the first UnitSynopsis and
  // IndexLookup in each thread below does a full lazy rebuild.
  const std::vector<Oid> units = store->UnitOids();
  for (Oid unit : units) {
    for (int segment = 0; segment < kSegments; ++segment) {
      store->MutableUnitRows(unit, segment);
    }
  }

  std::vector<std::thread> threads;
  std::vector<size_t> synopsis_rows(kSegments, 0);
  for (int segment = 0; segment < kSegments; ++segment) {
    threads.emplace_back([&, segment] {
      for (int iteration = 0; iteration < 50; ++iteration) {
        size_t total = 0;
        for (Oid unit : units) {
          total += store->UnitSynopsis(unit, segment).rollup.row_count;
        }
        synopsis_rows[static_cast<size_t>(segment)] = total;
      }
    });
  }
  std::vector<size_t> index_hits(kSegments, 0);
  for (int prober = 0; prober < kSegments; ++prober) {
    threads.emplace_back([&, prober] {
      size_t hits = 0;
      for (int64_t key = prober; key < kRows; key += kSegments * 4) {
        for (Oid unit : units) {
          for (int segment = 0; segment < kSegments; ++segment) {
            hits +=
                store->IndexLookup(unit, segment, 0, Datum::Int64(key)).size();
          }
        }
      }
      index_hits[static_cast<size_t>(prober)] = hits;
    });
  }
  for (std::thread& t : threads) t.join();

  size_t synopsis_total = 0;
  size_t hit_total = 0;
  for (size_t n : synopsis_rows) synopsis_total += n;
  for (size_t n : index_hits) hit_total += n;
  // Per-segment synopsis totals partition the table; each probed key (every
  // fourth value per prober, disjoint across probers) is found exactly once.
  EXPECT_EQ(synopsis_total, static_cast<size_t>(kRows));
  EXPECT_EQ(hit_total, static_cast<size_t>(kRows) / 4);
}

// Runtime join-filter rendezvous: the build-side Redistribute publishes the
// merged (global) join-filter summary from whichever worker arrives last at
// the exchange, and every worker's probe-side scan — sitting below its own
// Redistribute Motion — consumes it as soon as its segment resumes. This
// races PublishGlobalJoinFilter against FindGlobalJoinFilter from all eight
// probe slices every iteration; under the tsan_parallel_stress gate any
// publication that is not happens-before the probes fails as a race, and the
// stats equality below catches any lost or double publication.
TEST(ParallelStressTest, JoinFilterPublicationRacesParallelProbeScans) {
  TestDb db(8);
  const TableDescriptor* fact = db.CreatePlainTable(
      "fact", Schema({{"a", TypeId::kInt64}, {"b", TypeId::kInt64}}), {0});
  std::vector<Row> fact_rows;
  for (int64_t i = 0; i < 600; ++i) {
    fact_rows.push_back({Datum::Int64(i), Datum::Int64(i % 500)});
  }
  db.Insert(fact, fact_rows);
  const TableDescriptor* dim = db.CreatePlainTable(
      "dim", Schema({{"id", TypeId::kInt64}, {"tag", TypeId::kInt64}}), {0});
  std::vector<Row> dim_rows;
  for (int64_t id : {3, 17, 42, 88, 131, 257, 263, 499}) {
    dim_rows.push_back({Datum::Int64(id), Datum::Int64(id * 2)});
  }
  db.Insert(dim, dim_rows);

  // Both sides redistribute on the join key (neither is stored on it), so
  // the filter must be the cross-segment merged summary: published by the
  // build Motion, consumed by the probe scans below the probe Motion.
  auto dim_scan = std::make_shared<TableScanNode>(dim->oid, dim->oid,
                                                  std::vector<ColRefId>{11, 12});
  PhysPtr build_motion = std::make_shared<MotionNode>(
      MotionKind::kRedistribute, std::vector<ColRefId>{11}, dim_scan);
  JoinFilterAnnotations publish_ann;
  JoinFilterSpec spec;
  spec.filter_id = 0;
  spec.key_columns = {11};
  spec.build_rows_est = 8;
  spec.global = true;
  publish_ann.publishes.push_back(spec);
  build_motion =
      WithJoinFilters(build_motion, build_motion->children(), publish_ann);

  PhysPtr fact_scan = std::make_shared<TableScanNode>(
      fact->oid, fact->oid, std::vector<ColRefId>{1, 2});
  JoinFilterAnnotations probe_ann;
  JoinFilterProbe probe;
  probe.filter_id = 0;
  probe.key_columns = {2};
  probe.global = true;
  probe.below_motion = true;
  probe_ann.probes.push_back(probe);
  fact_scan = WithJoinFilters(fact_scan, fact_scan->children(), probe_ann);
  auto probe_motion = std::make_shared<MotionNode>(
      MotionKind::kRedistribute, std::vector<ColRefId>{2}, fact_scan);

  auto join = std::make_shared<HashJoinNode>(
      JoinType::kInner, std::vector<ColRefId>{11}, std::vector<ColRefId>{2},
      nullptr, build_motion, probe_motion);
  auto gather = std::make_shared<MotionNode>(MotionKind::kGather,
                                             std::vector<ColRefId>{}, join);

  auto oracle = db.executor.Execute(gather);
  ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();
  // Each fact row with b in the dim id set joins once; b = i % 500 repeats
  // ids below 100 twice across 600 rows.
  ASSERT_FALSE(oracle->empty());
  ExecStats oracle_stats = db.executor.stats();
  ASSERT_EQ(oracle_stats.joinfilter_built, 1u);
  ASSERT_GT(oracle_stats.joinfilter_motion_rows_saved, 0u);

  Executor parallel(&db.catalog, &db.storage, Executor::Options{.workers = 0});
  for (int iteration = 0; iteration < 25; ++iteration) {
    auto result = parallel.Execute(gather);
    ASSERT_TRUE(result.ok()) << "iter " << iteration << ": "
                             << result.status().ToString();
    ASSERT_TRUE(*result == *oracle) << "iter " << iteration;
    ASSERT_TRUE(parallel.stats() == oracle_stats) << "iter " << iteration;
  }
}

// Morsel dispatch stress: per-segment slices big enough to decompose into
// many morsels, executed across random morsel granularities (including sizes
// that are not chunk multiples, exercising the round-up) and random pool
// sizes — pools smaller than the segment count force every Motion
// suspension/resume path, and single-digit morsel sizes on a shared deque
// force steals. Every combination must reproduce the 1-worker oracle's rows
// and stats bit for bit. Runs under the tsan_parallel_stress gate with the
// rest of this target.
TEST(ParallelStressTest, MorselDispatchRandomGranularitiesAndPoolSizes) {
  TestDb db(4);
  const TableDescriptor* t = db.CreatePlainTable(
      "t", Schema({{"k", TypeId::kInt64}, {"v", TypeId::kInt64}}), {0});
  std::vector<Row> rows;
  // ~6000 rows per segment: several chunks per slice even at the auto morsel
  // size, dozens at the minimum.
  for (int64_t i = 0; i < 24000; ++i) {
    rows.push_back({Datum::Int64(i), Datum::Int64(i % 97)});
  }
  db.Insert(t, rows);

  // Filter (sargable on k, plus a residual on v) over the scan, redistributed
  // and gathered: morsel-ranged scans feed a Motion rendezvous.
  auto make_plan = [&]() -> PhysPtr {
    auto scan = std::make_shared<TableScanNode>(t->oid, t->oid,
                                                std::vector<ColRefId>{1, 2});
    ExprPtr pred = MakeComparison(
        CompareOp::kLt, MakeColumnRef(1, "k", TypeId::kInt64),
        MakeConst(Datum::Int64(20000)));
    auto filter = std::make_shared<FilterNode>(pred, scan);
    auto redist = std::make_shared<MotionNode>(MotionKind::kRedistribute,
                                               std::vector<ColRefId>{2}, filter);
    return std::make_shared<MotionNode>(MotionKind::kGather,
                                        std::vector<ColRefId>{}, redist);
  };
  PhysPtr plan = make_plan();

  auto oracle = db.executor.Execute(plan);
  ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();
  ASSERT_EQ(oracle->size(), 20000u);
  ExecStats oracle_stats = db.executor.stats();

  std::mt19937 rng(20260809);
  for (int iteration = 0; iteration < 20; ++iteration) {
    const int max_workers = 1 + static_cast<int>(rng() % 4);
    // Random granularity in [1, 3000]: mostly unaligned, rounded up to a
    // chunk multiple internally; small values mean many morsels per slice.
    size_t morsel_rows = 1 + rng() % 3000;
    // Sprinkle whole-slice runs: SIZE_MAX saturates to one morsel per slice.
    if (iteration % 5 == 4) morsel_rows = SIZE_MAX;
    Executor parallel(&db.catalog, &db.storage,
                      Executor::Options{.workers = max_workers,
                                        .morsel_rows = morsel_rows});
    auto result = parallel.Execute(plan);
    ASSERT_TRUE(result.ok()) << "workers=" << max_workers << " morsel_rows="
                             << morsel_rows << ": " << result.status().ToString();
    ASSERT_TRUE(*result == *oracle)
        << "workers=" << max_workers << " morsel_rows=" << morsel_rows;
    ASSERT_TRUE(parallel.stats() == oracle_stats)
        << "workers=" << max_workers << " morsel_rows=" << morsel_rows;
  }

  // Fault sweep through actual morsel splits: with dozens of morsels per
  // slice racing on a 4-worker pool, an injected storage.scan_chunk or
  // motion fault must still yield either the oracle result (fault never
  // drew) or a clean typed error, and the executor must be whole for the
  // next iteration. Which morsel draws the fault is scheduling-dependent by
  // design; the outcome contract is not.
  Executor faulty(&db.catalog, &db.storage,
                  Executor::Options{.workers = 4,
                                    .morsel_rows = 1024});
  for (const char* point : {"storage.scan_chunk", "motion.send", "motion.recv"}) {
    for (int iteration = 0; iteration < 6; ++iteration) {
      FaultInjector injector(static_cast<uint64_t>(iteration) * 7919 + 13);
      FaultSpec spec;
      spec.kind = FaultKind::kFatal;
      spec.probability = 0.4;
      spec.skip_first = iteration * 3;
      injector.Arm(point, spec);
      QueryContext ctx;
      ctx.set_fault_injector(&injector);
      auto result = faulty.Execute(plan, &ctx);
      if (result.ok()) {
        ASSERT_TRUE(*result == *oracle) << point << " iter " << iteration;
        ASSERT_TRUE(faulty.stats() == oracle_stats) << point << " iter " << iteration;
      } else {
        ASSERT_EQ(result.status().code(), StatusCode::kInternal)
            << point << " iter " << iteration << ": " << result.status().ToString();
      }
      auto retry = faulty.Execute(plan);
      ASSERT_TRUE(retry.ok()) << point << " iter " << iteration << ": "
                              << retry.status().ToString();
      ASSERT_TRUE(*retry == *oracle) << point << " iter " << iteration;
    }
  }
}

// --- Resilience under concurrency ------------------------------------------
//
// The three stress tests below race the cooperative-termination machinery
// against live parallel workers: an external cancel thread, a deadline that
// expires mid-rendezvous, and a memory budget the workers exhaust
// concurrently. Under the tsan_parallel_stress gate, any unsynchronized
// touch between Cancel()/the abort flag and the worker hot loops — or
// between a failed run's teardown and the next run — fails as a race.

TEST(ParallelStressTest, CancellationRacesParallelWorkers) {
  TestDb db(8);
  const TableDescriptor* fact = db.CreateIntPartitionedTable("fact", 16);
  std::vector<Row> fact_rows;
  for (int64_t i = 0; i < 512; ++i) {
    fact_rows.push_back({Datum::Int64(i), Datum::Int64(i % 160)});
  }
  db.Insert(fact, fact_rows);
  const TableDescriptor* dim = db.CreatePlainTable(
      "dim", Schema({{"id", TypeId::kInt64}, {"tag", TypeId::kInt64}}), {0});
  std::vector<Row> dim_rows;
  for (int64_t id : {3, 17, 42, 88, 131}) {
    dim_rows.push_back({Datum::Int64(id), Datum::Int64(id * 2)});
  }
  db.Insert(dim, dim_rows);
  PhysPtr plan = BuildSelectorJoinPlan(fact, dim);

  auto oracle = db.executor.Execute(plan);
  ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();
  ExecStats oracle_stats = db.executor.stats();

  Executor parallel(&db.catalog, &db.storage, Executor::Options{.workers = 0});
  for (int iteration = 0; iteration < 15; ++iteration) {
    QueryContext ctx;
    // The cancel lands at an arbitrary point of the run — before the first
    // batch, mid-exchange, or after completion — and every landing must be
    // clean: either a full oracle-identical result or typed kCancelled.
    std::thread canceller([&ctx, iteration]() {
      for (int spin = 0; spin < iteration * 97; ++spin) {
        std::this_thread::yield();
      }
      ctx.Cancel();
    });
    auto result = parallel.Execute(plan, &ctx);
    canceller.join();
    if (result.ok()) {
      ASSERT_TRUE(*result == *oracle) << "iter " << iteration;
      ASSERT_TRUE(parallel.stats() == oracle_stats) << "iter " << iteration;
    } else {
      ASSERT_EQ(result.status().code(), StatusCode::kCancelled)
          << "iter " << iteration << ": " << result.status().ToString();
    }
    // The run after a cancellation must be whole again.
    ctx.Reset();
    auto retry = parallel.Execute(plan, &ctx);
    ASSERT_TRUE(retry.ok()) << "iter " << iteration << ": "
                            << retry.status().ToString();
    ASSERT_TRUE(*retry == *oracle) << "iter " << iteration;
    ASSERT_TRUE(parallel.stats() == oracle_stats) << "iter " << iteration;
  }
}

// A 1-worker run has no pool: the calling thread drains a run-local queue of
// ready segment tasks. A Cancel() from another thread resumes the segments
// suspended at a Motion by pushing them onto that queue while the calling
// thread is busy. A delay on segment 7's first motion.send (the Broadcast,
// reached after segments 0..6 suspended there) holds the calling thread
// still while the canceller fires, so every iteration exercises that push.
TEST(ParallelStressTest, CancelPushesWaitersOntoOneWorkerDrainQueue) {
  TestDb db(8);
  const TableDescriptor* fact = db.CreateIntPartitionedTable("fact", 16);
  std::vector<Row> fact_rows;
  for (int64_t i = 0; i < 512; ++i) {
    fact_rows.push_back({Datum::Int64(i), Datum::Int64(i % 160)});
  }
  db.Insert(fact, fact_rows);
  const TableDescriptor* dim = db.CreatePlainTable(
      "dim", Schema({{"id", TypeId::kInt64}, {"tag", TypeId::kInt64}}), {0});
  std::vector<Row> dim_rows;
  for (int64_t id : {3, 17, 42, 88, 131}) {
    dim_rows.push_back({Datum::Int64(id), Datum::Int64(id * 2)});
  }
  db.Insert(dim, dim_rows);
  PhysPtr plan = BuildSelectorJoinPlan(fact, dim);  // Broadcast + Gather

  auto oracle = db.executor.Execute(plan);
  ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();
  ExecStats oracle_stats = db.executor.stats();

  Executor one_worker(&db.catalog, &db.storage, Executor::Options{.workers = 1});
  for (int iteration = 0; iteration < 12; ++iteration) {
    FaultInjector injector(static_cast<uint64_t>(iteration) + 1);
    FaultSpec stall;
    stall.kind = FaultKind::kDelay;
    stall.delay_ms = 200;
    stall.segment = 7;
    stall.max_fires = 1;
    injector.Arm("motion.send", stall);
    QueryContext ctx;
    ctx.set_fault_injector(&injector);
    std::thread canceller([&ctx, &injector, iteration]() {
      // Wait until segment 7 sleeps in its delay, then land the cancel at a
      // varying point inside it.
      const auto give_up = std::chrono::steady_clock::now() + std::chrono::seconds(5);
      while (injector.fires("motion.send") == 0 &&
             std::chrono::steady_clock::now() < give_up) {
        std::this_thread::yield();
      }
      for (int spin = 0; spin < iteration * 97; ++spin) std::this_thread::yield();
      ctx.Cancel();
    });
    auto result = one_worker.Execute(plan, &ctx);
    canceller.join();
    ASSERT_EQ(injector.fires("motion.send"), 1u) << "iter " << iteration;
    if (result.ok()) {
      // Only if the canceller was descheduled past the whole delay.
      ASSERT_TRUE(*result == *oracle) << "iter " << iteration;
      ASSERT_TRUE(one_worker.stats() == oracle_stats) << "iter " << iteration;
    } else {
      ASSERT_EQ(result.status().code(), StatusCode::kCancelled)
          << "iter " << iteration << ": " << result.status().ToString();
    }
    ctx.Reset();
    ctx.set_fault_injector(nullptr);
    auto retry = one_worker.Execute(plan, &ctx);
    ASSERT_TRUE(retry.ok()) << "iter " << iteration << ": "
                            << retry.status().ToString();
    ASSERT_TRUE(*retry == *oracle) << "iter " << iteration;
    ASSERT_TRUE(one_worker.stats() == oracle_stats) << "iter " << iteration;
  }
}

TEST(ParallelStressTest, DeadlinesExpireAcrossParallelRendezvous) {
  TestDb db(8);
  const TableDescriptor* t = db.CreatePlainTable(
      "t", Schema({{"k", TypeId::kInt64}, {"v", TypeId::kInt64}}), {0});
  std::vector<Row> rows;
  for (int64_t i = 0; i < 400; ++i) {
    rows.push_back({Datum::Int64(i), Datum::Int64(i % 7)});
  }
  db.Insert(t, rows);
  auto scan = std::make_shared<TableScanNode>(t->oid, t->oid,
                                              std::vector<ColRefId>{1, 2});
  auto redist = std::make_shared<MotionNode>(MotionKind::kRedistribute,
                                             std::vector<ColRefId>{2}, scan);
  PhysPtr plan = std::make_shared<MotionNode>(MotionKind::kGather,
                                              std::vector<ColRefId>{}, redist);

  auto oracle = db.executor.Execute(plan);
  ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();

  Executor parallel(&db.catalog, &db.storage, Executor::Options{.workers = 0});
  for (int iteration = 0; iteration < 15; ++iteration) {
    QueryContext ctx;
    // Deadlines from "already expired" to "comfortably far": each must yield
    // either the full result or typed kDeadlineExceeded, with all eight
    // workers joined either way (Execute returning proves the join).
    ctx.SetDeadline(std::chrono::steady_clock::now() +
                    std::chrono::microseconds(iteration * 400));
    auto result = parallel.Execute(plan, &ctx);
    if (result.ok()) {
      ASSERT_TRUE(*result == *oracle) << "iter " << iteration;
    } else {
      ASSERT_EQ(result.status().code(), StatusCode::kDeadlineExceeded)
          << "iter " << iteration << ": " << result.status().ToString();
    }
    ctx.Reset();
    auto retry = parallel.Execute(plan, &ctx);
    ASSERT_TRUE(retry.ok()) << "iter " << iteration << ": "
                            << retry.status().ToString();
    ASSERT_TRUE(*retry == *oracle) << "iter " << iteration;
  }
}

TEST(ParallelStressTest, BudgetExhaustionRacesParallelCharges) {
  TestDb db(8);
  const TableDescriptor* fact = db.CreateIntPartitionedTable("fact", 16);
  std::vector<Row> fact_rows;
  for (int64_t i = 0; i < 512; ++i) {
    fact_rows.push_back({Datum::Int64(i), Datum::Int64(i % 160)});
  }
  db.Insert(fact, fact_rows);
  const TableDescriptor* dim = db.CreatePlainTable(
      "dim", Schema({{"id", TypeId::kInt64}, {"tag", TypeId::kInt64}}), {0});
  std::vector<Row> dim_rows;
  for (int64_t id : {3, 17, 42, 88, 131}) {
    dim_rows.push_back({Datum::Int64(id), Datum::Int64(id * 2)});
  }
  db.Insert(dim, dim_rows);
  PhysPtr plan = BuildSelectorJoinPlan(fact, dim);

  auto oracle = db.executor.Execute(plan);
  ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();

  // Find the parallel run's peak, then sweep budgets across it: eight
  // workers race TryCharge against the shared accountant at every limit.
  Executor parallel(&db.catalog, &db.storage, Executor::Options{.workers = 0});
  QueryContext probe_ctx;
  probe_ctx.budget().set_limit(size_t{1} << 40);
  auto probe = parallel.Execute(plan, &probe_ctx);
  ASSERT_TRUE(probe.ok()) << probe.status().ToString();
  const size_t peak = probe_ctx.budget().peak();
  ASSERT_GT(peak, 0u);

  for (int iteration = 0; iteration < 15; ++iteration) {
    QueryContext ctx;
    ctx.budget().set_limit(1 + (peak + 2) * static_cast<size_t>(iteration) / 12);
    auto result = parallel.Execute(plan, &ctx);
    if (result.ok()) {
      // Advisory shedding may change joinfilter/synopsis counters, never rows.
      ASSERT_TRUE(*result == *oracle) << "iter " << iteration;
    } else {
      ASSERT_EQ(result.status().code(), StatusCode::kResourceExhausted)
          << "iter " << iteration << ": " << result.status().ToString();
    }
    ctx.budget().set_limit(0);
    auto retry = parallel.Execute(plan, &ctx);
    ASSERT_TRUE(retry.ok()) << "iter " << iteration << ": "
                            << retry.status().ToString();
    ASSERT_TRUE(*retry == *oracle) << "iter " << iteration;
  }
}

// Shared string bodies: every row's VARCHAR is a copy of one of four Datums,
// so all segment tasks add and drop references to the same few string boxes
// at once — in the in-place scans, the GROUP BY hash tables, the Broadcast of
// the dimension and the Gather and Sort of SELECT *. Repeated at 4 workers
// against a 1-worker oracle; rows must match value for value and type for
// type.
TEST(ParallelStressTest, SharedStringBodiesAcrossWorkers) {
  Database one_worker_db(8);
  Database parallel_db(8, Executor::Options{.workers = 4});
  const Datum tags[] = {Datum::String("alpha, longer than any small-string buffer"),
                        Datum::String("beta"), Datum::String("gamma"), Datum::Null()};
  std::vector<Row> fact_rows, dim_rows;
  for (int64_t a = 0; a < 2000; ++a) fact_rows.push_back({Datum::Int64(a), tags[a % 4]});
  for (int64_t k = 0; k < 3; ++k) dim_rows.push_back({Datum::Int64(k), tags[k]});
  for (Database* db : {&one_worker_db, &parallel_db}) {
    ASSERT_TRUE(db->Run("CREATE TABLE fact (a bigint, tag varchar) DISTRIBUTED BY (a)").ok());
    ASSERT_TRUE(db->Run("CREATE TABLE dim (k bigint, tag varchar) DISTRIBUTED BY (k)").ok());
    ASSERT_TRUE(db->Load("fact", fact_rows).ok());
    ASSERT_TRUE(db->Load("dim", dim_rows).ok());
  }
  const std::string join = "SELECT f.a, d.k, d.tag FROM fact f JOIN dim d ON f.tag = d.tag";
  auto explain = one_worker_db.Explain(join);
  ASSERT_TRUE(explain.ok()) << explain.status().ToString();
  ASSERT_NE(explain->find("BroadcastMotion"), std::string::npos) << *explain;

  const std::string queries[] = {
      "SELECT tag, count(*), sum(a) FROM fact GROUP BY tag",
      join,
      "SELECT * FROM fact ORDER BY tag, a LIMIT 40",
  };
  for (const std::string& sql : queries) {
    auto oracle = one_worker_db.Run(sql);
    ASSERT_TRUE(oracle.ok()) << sql << ": " << oracle.status().ToString();
    ASSERT_FALSE(oracle->rows.empty()) << sql;
    for (int iteration = 0; iteration < 10; ++iteration) {
      auto parallel = parallel_db.Run(sql);
      ASSERT_TRUE(parallel.ok()) << sql << ": " << parallel.status().ToString();
      ASSERT_EQ(parallel->rows.size(), oracle->rows.size()) << sql;
      for (size_t i = 0; i < oracle->rows.size(); ++i) {
        const Row& want = oracle->rows[i];
        const Row& got = parallel->rows[i];
        ASSERT_EQ(RowToString(got), RowToString(want)) << sql << " row " << i;
        for (size_t c = 0; c < want.size(); ++c) {
          ASSERT_EQ(got[c].is_null(), want[c].is_null()) << sql;
          ASSERT_EQ(got[c].type(), want[c].type()) << sql;
        }
      }
      ASSERT_TRUE(parallel->stats == oracle->stats) << sql;
    }
  }
}

// Every consumer of a filtered, join-filtered scan's selected slices, with
// pool workers copying, routing and reading them in morsels (see
// join_filter_matrix.h).
TEST(ParallelStressTest, SelectedSlicesAcrossWorkersAndMorsels) {
  testutil::CheckSelectedSliceConsumers();
}

// Every consumer of a Gather of bare scans, which hands segment 0 the source
// segments' storage slices by reference: Project, Limit and HashAgg over the
// Gather, Sort and TopN over a Project of it, a HashJoin built from a
// Broadcast (read in place by every destination), a NestedLoopJoin over a
// Broadcast, INSERT INTO t SELECT * FROM t, and an UPDATE that moves rows
// across partitions. Rows and row order are computed by hand from the
// storage slices, and the scan and Motion counters from the row counts, at
// workers {1, 4} x morsel_rows {default, 1024, SIZE_MAX}; every ExecStats
// is identical across the six. The pool runs copy the gathered slices in
// morsels that cut through slices.
TEST(ParallelStressTest, ConsumersOfGatheredSlicesAcrossWorkersAndMorsels) {
  constexpr int kSegments = 4;
  constexpr int64_t kRows = 6000;
  // t(a, b, c): a = 0..5999, b = 7a % 100, c = a % 1000, in 10 range parts
  // on b, hashed on a. u(k, w): k = 0, 5, ..., 95 and w = 1000 + k, hashed
  // on k; small, so both joins broadcast it.
  std::vector<Row> t_rows, u_rows;
  for (int64_t a = 0; a < kRows; ++a) {
    t_rows.push_back({Datum::Int64(a), Datum::Int64(7 * a % 100), Datum::Int64(a % 1000)});
  }
  for (int64_t k = 0; k < 100; k += 5) {
    u_rows.push_back({Datum::Int64(k), Datum::Int64(1000 + k)});
  }
  using Rows = std::vector<Row>;
  auto ints = [](std::initializer_list<int64_t> values) {
    Row row;
    for (int64_t v : values) row.push_back(Datum::Int64(v));
    return row;
  };

  struct Config {
    int workers;
    size_t morsel_rows;
  };
  const Config configs[] = {{1, 0}, {1, 1024}, {1, SIZE_MAX},
                            {4, 0}, {4, 1024}, {4, SIZE_MAX}};
  std::map<std::string, ExecStats> first_stats;  // by statement, first config
  auto same_stats = [&first_stats](const std::string& sql, const ExecStats& stats) {
    auto [it, fresh] = first_stats.emplace(sql, stats);
    return fresh || it->second == stats;
  };
  for (const Config& config : configs) {
    SCOPED_TRACE("workers=" + std::to_string(config.workers) +
                 " morsel_rows=" + std::to_string(config.morsel_rows));
    Database db(kSegments, Executor::Options{.workers = config.workers,
                                             .morsel_rows = config.morsel_rows});
    ASSERT_TRUE(db.Run("CREATE TABLE t (a bigint, b bigint, c bigint) DISTRIBUTED BY (a) "
                       "PARTITION BY RANGE (b) START 0 END 100 EVERY 10")
                    .ok());
    ASSERT_TRUE(db.Run("CREATE TABLE u (k bigint, w bigint) DISTRIBUTED BY (k)").ok());
    ASSERT_TRUE(db.Load("t", t_rows).ok());
    ASSERT_TRUE(db.Load("u", u_rows).ok());

    // A Gather's output: every segment's slices in segment order, each
    // segment's parts in unit order.
    auto slices_of = [&](const char* table, int segment) {
      const TableStore& store = *db.storage().GetStore(db.catalog().FindTable(table)->oid);
      Rows out;
      for (Oid unit : store.UnitOids()) {
        const Rows& rows = store.UnitRows(unit, segment);
        out.insert(out.end(), rows.begin(), rows.end());
      }
      return out;
    };
    auto gathered = [&](const char* table) {
      Rows out;
      for (int segment = 0; segment < kSegments; ++segment) {
        Rows part = slices_of(table, segment);
        out.insert(out.end(), part.begin(), part.end());
      }
      return out;
    };
    const Rows t_gathered = gathered("t");
    const Rows u_gathered = gathered("u");
    ASSERT_EQ(t_gathered.size(), static_cast<size_t>(kRows));
    auto a_of = [](const Row& row) { return row[0].AsInt64(); };
    auto b_of = [](const Row& row) { return row[1].AsInt64(); };
    auto c_of = [](const Row& row) { return row[2].AsInt64(); };

    struct Case {
      std::string sql;
      std::pair<std::string, std::string> edge;
      Rows expected;
      size_t tuples;
      size_t moved;
    };
    std::vector<Case> cases;
    {
      Rows rows;
      for (const Row& r : t_gathered) rows.push_back(ints({b_of(r), a_of(r) + 1}));
      cases.push_back(
          {"SELECT b, a + 1 FROM t", {"Project", "GatherMotion"}, rows, 6000, 6000});
    }
    cases.push_back({"SELECT * FROM t LIMIT 10", {"Limit", "GatherMotion"},
                     Rows(t_gathered.begin(), t_gathered.begin() + 10), 6000, 6000});
    {
      Rows sorted;
      for (const Row& r : t_gathered) sorted.push_back(ints({a_of(r), b_of(r)}));
      std::sort(sorted.begin(), sorted.end(), [&](const Row& x, const Row& y) {
        return std::make_pair(b_of(x), a_of(x)) < std::make_pair(b_of(y), a_of(y));
      });
      cases.push_back({"SELECT a, b FROM t ORDER BY b, a", {"Project", "GatherMotion"},
                       sorted, 6000, 6000});
      std::sort(sorted.begin(), sorted.end(), [&](const Row& x, const Row& y) {
        return std::make_pair(-b_of(x), a_of(x)) < std::make_pair(-b_of(y), a_of(y));
      });
      sorted.resize(25);
      cases.push_back({"SELECT a, b FROM t ORDER BY b DESC, a LIMIT 25",
                       {"Project", "GatherMotion"}, sorted, 6000, 6000});
    }
    {
      // Groups in first-appearance order over the gathered rows.
      std::vector<int64_t> order;
      std::map<int64_t, std::pair<int64_t, int64_t>> groups;  // c -> (count, sum a)
      for (const Row& r : t_gathered) {
        auto [it, fresh] = groups.emplace(c_of(r), std::make_pair(0, 0));
        if (fresh) order.push_back(c_of(r));
        ++it->second.first;
        it->second.second += a_of(r);
      }
      // avg keeps the aggregate in one phase; avg(c) is c exactly.
      Rows rows;
      for (int64_t c : order) {
        Row row = ints({c, groups[c].first, groups[c].second});
        row.push_back(Datum::Double(static_cast<double>(c)));
        rows.push_back(std::move(row));
      }
      cases.push_back({"SELECT c, count(*), sum(a), avg(c) FROM t GROUP BY c",
                       {"HashAgg", "GatherMotion"}, rows, 6000, 6000});
    }
    {
      // Each segment probes its own t rows in storage order against the
      // broadcast u (k unique): c < 100 with c % 5 == 0 joins the u row with
      // k = c.
      Rows rows;
      for (const Row& r : t_gathered) {
        if (c_of(r) < 100 && c_of(r) % 5 == 0) {
          rows.push_back(ints({a_of(r), b_of(r), 1000 + c_of(r)}));
        }
      }
      const size_t out = rows.size();
      cases.push_back({"SELECT t.a, t.b, u.w FROM t JOIN u ON t.c = u.k",
                       {"HashJoin", "BroadcastMotion"}, rows, 6020, 20 + out});
    }
    {
      // The broadcast u is the outer side: per segment, every u row in
      // broadcast order against that segment's t rows in storage order.
      Rows rows;
      for (int segment = 0; segment < kSegments; ++segment) {
        const Rows t_segment = slices_of("t", segment);
        for (const Row& u : u_gathered) {
          for (const Row& r : t_segment) {
            const int64_t w = u[1].AsInt64();
            if (a_of(r) < w) rows.push_back(ints({a_of(r), b_of(r), w}));
          }
        }
      }
      const size_t out = rows.size();
      cases.push_back({"SELECT t.a, t.b, u.w FROM t, u WHERE t.a < u.w",
                       {"NestedLoopJoin", "BroadcastMotion"}, rows, 6020, 20 + out});
    }
    for (const Case& c : cases) {
      auto explain = db.Explain(c.sql);
      ASSERT_TRUE(explain.ok()) << explain.status().ToString();
      EXPECT_TRUE(PlanHasEdge(*explain, c.edge.first, c.edge.second))
          << c.sql << ": no " << c.edge.first << " over " << c.edge.second << "\n"
          << *explain;
      auto result = db.Run(c.sql);
      ASSERT_TRUE(result.ok()) << c.sql << ": " << result.status().ToString();
      EXPECT_TRUE(result->rows == c.expected) << c.sql;
      EXPECT_EQ(result->stats.tuples_scanned, c.tuples) << c.sql;
      EXPECT_EQ(result->stats.rows_moved, c.moved) << c.sql;
      EXPECT_EQ(result->stats.TotalPartitionsScanned(), c.tuples == 6000 ? 10u : 11u)
          << c.sql;
      EXPECT_TRUE(same_stats(c.sql, result->stats)) << c.sql;
    }

    // Writes: UPDATE moves every row with a < 100 to the part 50 above or
    // below, then the self-insert doubles the table. Both take ownership of
    // the gathered slices before they write.
    const std::string update = "UPDATE t SET b = (b + 50) % 100 WHERE a < 100";
    auto explain = db.Explain(update);
    ASSERT_TRUE(explain.ok()) << explain.status().ToString();
    EXPECT_TRUE(PlanHasEdge(*explain, "Update", "GatherMotion")) << *explain;
    auto updated = db.Run(update);
    ASSERT_TRUE(updated.ok()) << updated.status().ToString();
    EXPECT_TRUE(updated->rows == Rows{ints({100})});
    EXPECT_EQ(updated->stats.tuples_scanned, 6000u);
    EXPECT_EQ(updated->stats.rows_moved, 100u);
    EXPECT_TRUE(same_stats(update, updated->stats));

    const std::string self_insert = "INSERT INTO t SELECT * FROM t";
    explain = db.Explain(self_insert);
    ASSERT_TRUE(explain.ok()) << explain.status().ToString();
    EXPECT_TRUE(PlanHasEdge(*explain, "Insert", "GatherMotion")) << *explain;
    auto inserted = db.Run(self_insert);
    ASSERT_TRUE(inserted.ok()) << inserted.status().ToString();
    EXPECT_TRUE(inserted->rows == Rows{ints({6000})});
    EXPECT_EQ(inserted->stats.tuples_scanned, 6000u);
    EXPECT_EQ(inserted->stats.rows_moved, 6000u);
    EXPECT_TRUE(same_stats(self_insert, inserted->stats));

    // Every row, twice, with the updated b; and each part holds exactly its
    // range (a pruned count reads one part only).
    Rows want;
    std::vector<int64_t> per_part(10, 0);
    for (const Row& r : t_rows) {
      const int64_t b = a_of(r) < 100 ? (b_of(r) + 50) % 100 : b_of(r);
      want.push_back(ints({a_of(r), b}));
      want.push_back(ints({a_of(r), b}));
      per_part[static_cast<size_t>(b / 10)] += 2;
    }
    auto all = db.Run("SELECT a, b FROM t ORDER BY a, b");
    ASSERT_TRUE(all.ok()) << all.status().ToString();
    std::sort(want.begin(), want.end(), [&](const Row& x, const Row& y) {
      return std::make_pair(a_of(x), b_of(x)) < std::make_pair(a_of(y), b_of(y));
    });
    EXPECT_TRUE(all->rows == want);
    for (int64_t part = 0; part < 10; ++part) {
      auto count = db.Run("SELECT count(*) FROM t WHERE b >= " +
                          std::to_string(10 * part) + " AND b < " +
                          std::to_string(10 * part + 10));
      ASSERT_TRUE(count.ok()) << count.status().ToString();
      EXPECT_EQ(count->rows[0][0].AsInt64(), per_part[static_cast<size_t>(part)])
          << "part " << part;
      EXPECT_EQ(count->stats.TotalPartitionsScanned(), 1u) << "part " << part;
    }
  }
}

}  // namespace
}  // namespace mppdb

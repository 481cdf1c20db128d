// Checks the subsystem claims beyond the paper in one run: each subsystem's
// DESIGN.md §15 invariant, on the data of its EXPERIMENTS.md experiment.
// Every claim is a named check; the binary prints PASS/FAIL per check and
// exits non-zero if any fails. Timings are reported, not checked, except the
// dictionary-scan speedup bar of section E.
//
//   A  zone-map data skipping    (invariant 8)   selectivity sweep, on vs off
//   B  runtime join filters      (invariant 9)   probe-survival sweep, on vs off
//   C  fault-tolerant execution  (invariant 10)  armed context, cancellation,
//                                                transient retry, budget sweep
//   D  morsel scheduler          (invariant 6)   1 worker vs pool with morsels
//                                                off / on, Zipfian skew
//   E  columnar storage formats  (invariant 12)  row store vs encoded column
//                                                store
//   F  index access paths        (invariant 13)  full scan vs zone maps vs
//                                                index
//   G  out-of-core execution     (invariant 14)  spilling by data-to-budget
//                                                ratio
//
// Each section runs its workloads several ways (legs) that must return the
// same rows in the same order and differ in stats only by the subsystem's
// own counters (CompareLegs). Each section loads its own data: no two
// sections share a generator.
//
// Usage: bench_system_claims [--smoke] [section...]. Sections are named
// skipping, joinfilter, resilience, morsel, storage, index and spill (A-G
// above); with none named, all run. --smoke runs on small data with few timed
// iterations (each release_<section>_smoke gate runs one section so); without
// it the sections run at the sizes EXPERIMENTS.md reports.

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <functional>
#include <memory>
#include <random>
#include <string>
#include <system_error>
#include <thread>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "common/fault_injection.h"
#include "common/memory_budget.h"
#include "common/random.h"
#include "db/database.h"
#include "exec/plan.h"
#include "expr/expr.h"
#include "runtime/query_context.h"
#include "types/row.h"
#include "workload/tpch_lite.h"

namespace mppdb {
namespace {

int failures = 0;
std::vector<std::string> check_lines;  // printed under each section's table

void Check(bool ok, const std::string& claim) {
  check_lines.push_back(std::string("  [") + (ok ? "PASS" : "FAIL") + "] " + claim);
  if (!ok) ++failures;
}

void PrintChecks() {
  std::printf("\nChecks\n");
  for (const std::string& line : check_lines) std::printf("%s\n", line.c_str());
  check_lines.clear();
}

double MillisSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() -
                                                   start)
      .count();
}

// ------------------------------------------------------------------ legs

/// A condition on one leg's counters.
struct Expect {
  std::string what;
  std::function<bool(const ExecStats&)> holds;
};

/// One way to run a workload, and what its counters must show.
struct Leg {
  std::string name;
  std::function<Result<QueryResult>()> run;
  std::vector<Expect> expects;
};

/// Runs `plan` on `exec` (under `ctx`, if given): its rows and stats.
Result<QueryResult> Execute(Executor* exec, const PhysPtr& plan,
                            QueryContext* ctx = nullptr) {
  Result<std::vector<Row>> rows = exec->Execute(plan, ctx);
  if (!rows.ok()) return rows.status();
  QueryResult out;
  out.rows = std::move(*rows);
  out.stats = exec->stats();
  return out;
}

Leg ExecLeg(std::string name, Executor* exec, PhysPtr plan,
            std::vector<Expect> expects = {}) {
  return {std::move(name), [exec, plan] { return Execute(exec, plan); },
          std::move(expects)};
}

ExecStats AllStats(const ExecStats& stats) { return stats; }

/// Gather(Filter(pred)(Append of a TableScan per leaf of `table`)).
PhysPtr LeafFilterPlan(const TableDescriptor* table, const std::vector<ColRefId>& columns,
                       ExprPtr pred) {
  std::vector<PhysPtr> scans;
  for (Oid leaf : table->partition_scheme->AllLeafOids()) {
    scans.push_back(std::make_shared<TableScanNode>(table->oid, leaf, columns));
  }
  auto filter =
      std::make_shared<FilterNode>(std::move(pred), std::make_shared<AppendNode>(scans));
  return std::make_shared<MotionNode>(MotionKind::kGather, std::vector<ColRefId>{},
                                      filter);
}

/// A workload and the legs that run it; legs[0] is the reference.
struct Comparison {
  std::string claim;
  std::vector<Leg> legs;
  /// Zeroes the counters the subsystem may change: every other leg's masked
  /// stats must equal the reference's stats. Null: stats are not compared.
  std::function<ExecStats(const ExecStats&)> mask;
  std::string masked;  // what `mask` zeroes, for the check's name
  /// Pairs of legs (1 worker, pool) whose stats must be identical unmasked:
  /// the subsystem made the same decisions at both worker counts.
  std::vector<std::pair<size_t, size_t>> same_decisions;
};

/// Runs every leg of `c` once and checks its contract: each leg returns the
/// reference's rows in the reference's order, the masked stats match, the
/// same-decision pairs agree, and each leg's expectations hold. Returns the
/// outcomes in leg order, or nothing if a leg failed to run.
std::vector<QueryResult> CompareLegs(const Comparison& c) {
  std::vector<QueryResult> out;
  for (const Leg& leg : c.legs) {
    Result<QueryResult> result = leg.run();
    if (!result.ok()) {
      Check(false, c.claim + " / " + leg.name + ": fails with " +
                       result.status().ToString());
      return {};
    }
    out.push_back(std::move(*result));
  }
  const std::string& reference = c.legs[0].name;
  for (size_t i = 1; i < out.size(); ++i) {
    const std::string name = c.claim + " / " + c.legs[i].name;
    Check(out[i].rows == out[0].rows,
          name + ": same rows in the same order as " + reference);
    if (c.mask) {
      Check(c.mask(out[i].stats) == out[0].stats,
            name + ": same stats as " + reference +
                (c.masked.empty() ? "" : " but for " + c.masked));
    }
  }
  for (const auto& [a, b] : c.same_decisions) {
    Check(out[a].stats == out[b].stats,
          c.claim + ": " + c.legs[a].name + " and " + c.legs[b].name +
              " make the same decisions (identical stats)");
  }
  for (size_t i = 0; i < out.size(); ++i) {
    for (const Expect& expect : c.legs[i].expects) {
      Check(expect.holds(out[i].stats),
            c.claim + " / " + c.legs[i].name + ": " + expect.what);
    }
  }
  return out;
}

/// Times `legs` round-robin: one untimed round, then `iterations` rounds of
/// one sample each, rotating which leg goes first so machine drift lands on
/// every leg alike. A sample is one run, or, with `min_sample_ms`, as many
/// back-to-back runs as the untimed round says last at least that long, and
/// reads in ms per run: a leg shorter than a scheduler slice is then not
/// timed by a single preemption. Every run must return `rows`.
std::vector<benchutil::TimingStats> TimeLegs(const std::string& claim,
                                             const std::vector<Leg>& legs,
                                             int iterations,
                                             const std::vector<Row>& rows,
                                             double min_sample_ms = 0.0) {
  std::vector<std::vector<double>> times(legs.size());
  std::vector<int> runs_per_sample(legs.size(), 1);
  size_t wrong = 0;
  for (int round = 0; round <= iterations; ++round) {
    for (size_t k = 0; k < legs.size(); ++k) {
      const size_t i = (static_cast<size_t>(round) + k) % legs.size();
      const auto start = std::chrono::steady_clock::now();
      for (int run = 0; run < runs_per_sample[i]; ++run) {
        Result<QueryResult> result = legs[i].run();
        if (!result.ok() || result->rows != rows) ++wrong;
      }
      const double ms = MillisSince(start) / runs_per_sample[i];
      if (round > 0) {
        times[i].push_back(ms);
      } else if (ms < min_sample_ms) {
        runs_per_sample[i] = static_cast<int>(std::ceil(min_sample_ms / ms));
      }
    }
  }
  Check(wrong == 0, claim + ": every timed run returns the reference rows");
  std::vector<benchutil::TimingStats> out;
  for (std::vector<double>& t : times) {
    out.push_back(benchutil::SummarizeMillis(std::move(t)));
  }
  return out;
}

// -------------------------------------------------- A. zone-map skipping

void DataSkipping(bool smoke) {
  benchutil::Header("A. Zone-map data skipping, selectivity sweep (invariant 8)");
  struct Sizes {
    size_t fact_rows;
    int segments;
    int partitions;
    int iterations;
  };
  // Smoke keeps several chunks per (leaf, segment) slice: with too few rows
  // per slice every slice is a single chunk whose [min, max] brackets any
  // threshold, and nothing is skippable.
  const Sizes s = smoke ? Sizes{40000, 2, 4, 2} : Sizes{400000, 4, 8, 5};

  // fact(k, b, u): partitioned on b into ranges, hashed on k; k ascending
  // at load time so every slice is clustered on k, u uniform so chunk [min,
  // max] on u always spans the domain (the unskippable control).
  Database db(s.segments);
  MPPDB_CHECK(db.CreatePartitionedTable(
                     "fact", Schema({{"k", TypeId::kInt64},
                                     {"b", TypeId::kInt64},
                                     {"u", TypeId::kInt64}}),
                     TableDistribution::kHashed, {0},
                     {{1, PartitionMethod::kRange}},
                     {partition_bounds::IntRanges(0, 10, s.partitions)})
                  .ok());
  Random rng(2024);
  const int64_t b_domain = static_cast<int64_t>(s.partitions) * 10;
  std::vector<Row> rows;
  rows.reserve(s.fact_rows);
  for (size_t i = 0; i < s.fact_rows; ++i) {
    rows.push_back({Datum::Int64(static_cast<int64_t>(i)),
                    Datum::Int64(static_cast<int64_t>(i) % b_domain),
                    Datum::Int64(rng.UniformRange(0, 999))});
  }
  MPPDB_CHECK(db.Load("fact", rows).ok());
  const TableDescriptor* fact = db.catalog().FindTable("fact");

  auto filter_plan = [&](ColRefId column, const char* col_name, int64_t threshold) {
    return LeafFilterPlan(
        fact, {1, 2, 3},
        MakeComparison(CompareOp::kLt, MakeColumnRef(column, col_name, TypeId::kInt64),
                       MakeConst(Datum::Int64(threshold))));
  };

  Executor off(&db.catalog(), &db.storage(), Executor::Options{.data_skipping = false});
  Executor on(&db.catalog(), &db.storage());
  Executor pool(&db.catalog(), &db.storage(), Executor::Options{.workers = 0});

  std::printf("%-16s %8s %13s %7s %8s %8s %7s\n", "workload", "out", "chunks",
              "surv", "off-ms", "on-ms", "spd");
  benchutil::Rule(75);
  // `expect_skips`: the zone maps prune chunks; for the control, they
  // provably cannot.
  auto measure = [&](const std::string& name, const PhysPtr& plan, bool expect_skips) {
    Comparison c{"inv 8 skipping transparency / " + name,
                 {ExecLeg("off", &off, plan),
                  ExecLeg("on", &on, plan,
                          {{"chunks_total > 0",
                            [](const ExecStats& st) { return st.chunks_total > 0; }},
                           {expect_skips ? "chunks_skipped > 0" : "chunks_skipped == 0",
                            [expect_skips](const ExecStats& st) {
                              return expect_skips ? st.chunks_skipped > 0
                                                  : st.chunks_skipped == 0;
                            }}}),
                  ExecLeg("pool on", &pool, plan)},
                 &ExecStats::WithoutSkipCounters,
                 "the skip counters",
                 {{1, 2}}};
    const std::vector<QueryResult> out = CompareLegs(c);
    if (out.empty()) return;
    const auto t = TimeLegs(c.claim, {c.legs[0], c.legs[1]}, s.iterations, out[0].rows);
    const ExecStats& st = out[1].stats;
    const size_t kept = st.chunks_total - st.chunks_skipped;
    std::printf("%-16s %8zu %6zu/%-6zu %6.1f%% %8.2f %8.2f %6.2fx\n", name.c_str(),
                out[0].rows.size(), kept, st.chunks_total,
                st.chunks_total == 0 ? 0.0
                                     : 100.0 * static_cast<double>(kept) /
                                           static_cast<double>(st.chunks_total),
                t[0].median_ms, t[1].median_ms, t[0].median_ms / t[1].median_ms);
  };
  // Clustered column: tight chunk ranges, skipping scales with selectivity.
  for (double selectivity : {0.001, 0.01, 0.1, 0.5}) {
    const int64_t threshold =
        static_cast<int64_t>(static_cast<double>(s.fact_rows) * selectivity);
    char name[32];
    std::snprintf(name, sizeof(name), "clustered_%.3f", selectivity);
    measure(name, filter_plan(1, "k", threshold), /*expect_skips=*/true);
  }
  // Unclustered control: every chunk's [min, max] on u spans the predicate,
  // so zero chunks are skippable and on/off should cost about the same.
  measure("unclustered_ctl", filter_plan(3, "u", 100), /*expect_skips=*/false);
  PrintChecks();
}

// ----------------------------------------------------- B. join filters

/// fact scan (probe annotation, below_motion) -> Redistribute(sk) joined
/// with dim scan -> Redistribute(k) carrying the publish annotation, under a
/// Gather. The same plan runs with Executor::Options::join_filters on and
/// off, so the shapes (and every annotation) are identical across legs.
PhysPtr FilteredJoinPlan(Database* db, const std::string& dim_table,
                         double build_rows_est) {
  const TableDescriptor* fact = db->catalog().FindTable("fact");
  const TableDescriptor* dim = db->catalog().FindTable(dim_table);

  auto dim_scan = std::make_shared<TableScanNode>(dim->oid, dim->oid,
                                                  std::vector<ColRefId>{11, 12});
  PhysPtr build_motion = std::make_shared<MotionNode>(
      MotionKind::kRedistribute, std::vector<ColRefId>{11}, dim_scan);
  JoinFilterAnnotations publish_ann;
  JoinFilterSpec spec;
  spec.filter_id = 0;
  spec.key_columns = {11};
  spec.build_rows_est = build_rows_est;
  spec.global = true;
  publish_ann.publishes.push_back(spec);
  build_motion = WithJoinFilters(build_motion, build_motion->children(), publish_ann);

  PhysPtr fact_scan = std::make_shared<TableScanNode>(fact->oid, fact->oid,
                                                      std::vector<ColRefId>{1, 2});
  JoinFilterAnnotations probe_ann;
  JoinFilterProbe probe;
  probe.filter_id = 0;
  probe.key_columns = {1};
  probe.global = true;
  probe.below_motion = true;
  probe_ann.probes.push_back(probe);
  fact_scan = WithJoinFilters(fact_scan, fact_scan->children(), probe_ann);
  auto probe_motion = std::make_shared<MotionNode>(
      MotionKind::kRedistribute, std::vector<ColRefId>{1}, fact_scan);

  auto join = std::make_shared<HashJoinNode>(
      JoinType::kInner, std::vector<ColRefId>{11}, std::vector<ColRefId>{1},
      nullptr, build_motion, probe_motion);
  return std::make_shared<MotionNode>(MotionKind::kGather, std::vector<ColRefId>{},
                                      join);
}

void JoinFilters(bool smoke) {
  benchutil::Header("B. Runtime join filters, probe-survival sweep (invariant 9)");
  struct Sizes {
    size_t fact_rows;
    int segments;
    int iterations;
  };
  // Smoke keeps several chunks per segment slice so the min/max skip path is
  // still exercised (a single-chunk slice always brackets the dim range).
  const Sizes s = smoke ? Sizes{24000, 2, 2} : Sizes{400000, 4, 5};

  // fact(sk, v): sk ascending at load time (clustered, so build min/max can
  // skip chunks), hashed on v so the join must redistribute the probe side
  // on sk. dim_P(k, t) holds keys [0, P% of fact rows), hashed on t so the
  // build side redistributes too and the summary must be the cross-segment
  // merge published at the build Motion.
  Database db(s.segments);
  MPPDB_CHECK(db.CreateTable("fact",
                             Schema({{"sk", TypeId::kInt64}, {"v", TypeId::kInt64}}),
                             TableDistribution::kHashed, {1})
                  .ok());
  Random rng(2026);
  std::vector<Row> rows;
  rows.reserve(s.fact_rows);
  for (size_t i = 0; i < s.fact_rows; ++i) {
    rows.push_back({Datum::Int64(static_cast<int64_t>(i)),
                    Datum::Int64(rng.UniformRange(0, 999))});
  }
  MPPDB_CHECK(db.Load("fact", rows).ok());

  Executor off(&db.catalog(), &db.storage(), Executor::Options{.join_filters = false});
  Executor on(&db.catalog(), &db.storage());
  Executor pool(&db.catalog(), &db.storage(), Executor::Options{.workers = 0});

  std::printf("%-12s %8s %9s %9s %9s %8s %8s %8s %7s\n", "survival", "out",
              "rejected", "chk-skip", "mot-save", "exchngd", "off-ms", "on-ms", "spd");
  benchutil::Rule(85);
  for (int survival_pct : {1, 5, 10, 25, 50, 100}) {
    const int64_t dim_rows = static_cast<int64_t>(static_cast<double>(s.fact_rows) *
                                                  survival_pct / 100.0);
    const std::string dim_name = "dim_" + std::to_string(survival_pct);
    MPPDB_CHECK(db.CreateTable(dim_name,
                               Schema({{"k", TypeId::kInt64}, {"t", TypeId::kInt64}}),
                               TableDistribution::kHashed, {1})
                    .ok());
    std::vector<Row> dim_data;
    dim_data.reserve(static_cast<size_t>(dim_rows));
    for (int64_t k = 0; k < dim_rows; ++k) {
      dim_data.push_back({Datum::Int64(k), Datum::Int64(k * 3)});
    }
    MPPDB_CHECK(db.Load(dim_name, dim_data).ok());
    const PhysPtr plan = FilteredJoinPlan(&db, dim_name, static_cast<double>(dim_rows));

    const std::string name = "survival_" + std::to_string(survival_pct) + "%";
    std::vector<Expect> on_expects = {
        {"joinfilter_built == 1",
         [](const ExecStats& st) { return st.joinfilter_built == 1; }}};
    if (survival_pct < 100) {
      on_expects.push_back(
          {"joinfilter_rows_rejected + joinfilter_chunks_skipped > 0",
           [](const ExecStats& st) {
             return st.joinfilter_rows_rejected + st.joinfilter_chunks_skipped > 0;
           }});
      on_expects.push_back({"joinfilter_motion_rows_saved > 0",
                            [](const ExecStats& st) {
                              return st.joinfilter_motion_rows_saved > 0;
                            }});
    }
    Comparison c{"inv 9 join-filter transparency / " + name,
                 {ExecLeg("off", &off, plan,
                          {{"joinfilter_built == 0",
                            [](const ExecStats& st) { return st.joinfilter_built == 0; }}}),
                  ExecLeg("on", &on, plan, on_expects),
                  ExecLeg("pool on", &pool, plan)},
                 &ExecStats::WithoutJoinFilterCounters,
                 "the joinfilter_* counters",
                 {{1, 2}}};
    const std::vector<QueryResult> out = CompareLegs(c);
    if (out.empty()) continue;
    const auto t = TimeLegs(c.claim, {c.legs[0], c.legs[1]}, s.iterations, out[0].rows);
    const ExecStats& st = out[1].stats;
    std::printf("%-12s %8zu %9zu %9zu %9zu %8zu %8.2f %8.2f %6.2fx\n", name.c_str(),
                out[0].rows.size(), st.joinfilter_rows_rejected,
                st.joinfilter_chunks_skipped, st.joinfilter_motion_rows_saved,
                st.rows_moved - st.joinfilter_motion_rows_saved, t[0].median_ms,
                t[1].median_ms, t[0].median_ms / t[1].median_ms);
  }
  PrintChecks();
}

// -------------------------------------------- C. fault-tolerant execution

/// Gather(Filter(sk in [lo, hi))(TableScan fact)): the scan/filter hot loop.
PhysPtr RangeFilterPlan(Database* db, int64_t lo, int64_t hi) {
  const TableDescriptor* fact = db->catalog().FindTable("fact");
  auto scan = std::make_shared<TableScanNode>(fact->oid, fact->oid,
                                              std::vector<ColRefId>{1, 2});
  ExprPtr ge = MakeComparison(CompareOp::kGe, MakeColumnRef(1, "sk", TypeId::kInt64),
                              MakeConst(Datum::Int64(lo)));
  ExprPtr lt = MakeComparison(CompareOp::kLt, MakeColumnRef(1, "sk", TypeId::kInt64),
                              MakeConst(Datum::Int64(hi)));
  PhysPtr filter = std::make_shared<FilterNode>(Conj({ge, lt}), scan);
  return std::make_shared<MotionNode>(MotionKind::kGather, std::vector<ColRefId>{},
                                      filter);
}

/// Redistribute-both-sides hash join under a Gather: exchanges, build
/// tables, and the rendezvous barrier all on the measured path.
PhysPtr RedistributedJoinPlan(Database* db) {
  const TableDescriptor* fact = db->catalog().FindTable("fact");
  const TableDescriptor* dim = db->catalog().FindTable("dim");
  auto dim_scan = std::make_shared<TableScanNode>(dim->oid, dim->oid,
                                                  std::vector<ColRefId>{11, 12});
  PhysPtr build = std::make_shared<MotionNode>(MotionKind::kRedistribute,
                                               std::vector<ColRefId>{11}, dim_scan);
  auto fact_scan = std::make_shared<TableScanNode>(fact->oid, fact->oid,
                                                   std::vector<ColRefId>{1, 2});
  PhysPtr probe = std::make_shared<MotionNode>(MotionKind::kRedistribute,
                                               std::vector<ColRefId>{1}, fact_scan);
  auto join = std::make_shared<HashJoinNode>(
      JoinType::kInner, std::vector<ColRefId>{11}, std::vector<ColRefId>{1}, nullptr,
      build, probe);
  return std::make_shared<MotionNode>(MotionKind::kGather, std::vector<ColRefId>{},
                                      join);
}

/// A QueryContext in its most expensive fault-free configuration: deadline
/// armed (every CheckAlive reads the clock), budget limited (every charge
/// runs the atomics), injector attached with nothing armed (every named
/// point takes the map-lookup miss).
void ArmContext(QueryContext* ctx, FaultInjector* injector) {
  ctx->Reset();
  ctx->SetTimeout(std::chrono::hours(1));
  ctx->budget().set_limit(size_t{1} << 40);
  ctx->set_fault_injector(injector);
}

void Resilience(bool smoke) {
  benchutil::Header("C. Fault-tolerant execution (invariant 10)");
  struct Sizes {
    size_t fact_rows;
    int segments;
    int iterations;
    int cancel_samples;
  };
  const Sizes s = smoke ? Sizes{20000, 2, 2, 5} : Sizes{300000, 4, 11, 40};

  Database db(s.segments);
  MPPDB_CHECK(db.CreateTable("fact",
                             Schema({{"sk", TypeId::kInt64}, {"v", TypeId::kInt64}}),
                             TableDistribution::kHashed, {1})
                  .ok());
  MPPDB_CHECK(db.CreateTable("dim",
                             Schema({{"k", TypeId::kInt64}, {"t", TypeId::kInt64}}),
                             TableDistribution::kHashed, {1})
                  .ok());
  Random rng(2026);
  std::vector<Row> rows;
  rows.reserve(s.fact_rows);
  for (size_t i = 0; i < s.fact_rows; ++i) {
    rows.push_back({Datum::Int64(static_cast<int64_t>(i)),
                    Datum::Int64(rng.UniformRange(0, 999))});
  }
  MPPDB_CHECK(db.Load("fact", rows).ok());
  std::vector<Row> dim_rows;
  const int64_t dim_keys = static_cast<int64_t>(s.fact_rows / 20);
  for (int64_t k = 0; k < dim_keys; ++k) {
    dim_rows.push_back({Datum::Int64(k * 7), Datum::Int64(k)});
  }
  MPPDB_CHECK(db.Load("dim", dim_rows).ok());

  const PhysPtr filter_plan =
      RangeFilterPlan(&db, 0, static_cast<int64_t>(s.fact_rows / 2));
  const PhysPtr join_plan = RedistributedJoinPlan(&db);
  const std::string claim = "inv 10 failure typing & reusability";

  // Fault-free overhead of an armed context. Overhead is min vs min:
  // scheduler and throttling noise only ever adds time, so the fastest run
  // of each leg is the cleanest estimate of its cost.
  std::printf("Fault-free overhead: armed QueryContext vs none (min ms)\n");
  std::printf("%-22s %-12s %10s %10s %8s\n", "plan", "mode", "no-ctx", "ctx", "ovh%");
  benchutil::Rule(68);
  double sum_overhead_pct = 0;
  int num_overhead_configs = 0;
  for (const auto& [plan_name, plan] : std::vector<std::pair<std::string, PhysPtr>>{
           {"scan_filter", filter_plan}, {"hash_join", join_plan}}) {
    for (const bool use_pool : {false, true}) {
      const char* mode = use_pool ? "pool" : "one_worker";
      Executor exec(&db.catalog(), &db.storage(),
                    use_pool ? Executor::Options{.workers = 0} : Executor::Options{});
      FaultInjector injector(1);  // attached, nothing armed
      QueryContext ctx;
      const PhysPtr leg_plan = plan;
      Comparison c{claim + " / " + plan_name + " " + mode,
                   {ExecLeg("no context", &exec, leg_plan),
                    {"armed context",
                     [&exec, &ctx, &injector, leg_plan] {
                       ArmContext(&ctx, &injector);
                       return Execute(&exec, leg_plan, &ctx);
                     },
                     {}}},
                   AllStats};
      const std::vector<QueryResult> out = CompareLegs(c);
      if (out.empty()) continue;
      const auto t = TimeLegs(c.claim, c.legs, s.iterations, out[0].rows);
      const double overhead_pct = (t[1].min_ms / t[0].min_ms - 1.0) * 100.0;
      sum_overhead_pct += overhead_pct;
      ++num_overhead_configs;
      std::printf("%-22s %-12s %9.2f %9.2f %7.2f%%\n", plan_name.c_str(), mode,
                  t[0].min_ms, t[1].min_ms, overhead_pct);
    }
  }
  if (num_overhead_configs > 0) {
    std::printf("mean across %d configs: %.2f%% (per-config noise floor on "
                "shared hardware is several %%)\n",
                num_overhead_configs,
                sum_overhead_pct / static_cast<double>(num_overhead_configs));
  }

  // Cancellation latency: Cancel() from a second thread into a running
  // parallel join, at points spread across the query's lifetime.
  {
    Executor exec(&db.catalog(), &db.storage(), Executor::Options{.workers = 0});
    QueryContext ctx;
    auto baseline = exec.Execute(join_plan, &ctx);
    MPPDB_CHECK(baseline.ok());
    const double full_ms = benchutil::MedianMillis(std::max(2, s.iterations), [&]() {
      ctx.Reset();
      MPPDB_CHECK(exec.Execute(join_plan, &ctx).ok());
    });
    std::vector<double> latencies;
    size_t completed_wrong = 0;  // the cancel landed late, rows differ
    size_t cancelled_untyped = 0;
    for (int sample = 0; sample < s.cancel_samples; ++sample) {
      ctx.Reset();
      const double at_ms = full_ms * (static_cast<double>(sample % 10) + 0.5) / 10.0;
      Result<std::vector<Row>> result = Status::Internal("not run");
      std::thread runner([&]() { result = exec.Execute(join_plan, &ctx); });
      std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(at_ms));
      const auto cancel_at = std::chrono::steady_clock::now();
      ctx.Cancel();
      runner.join();
      const double latency_ms = MillisSince(cancel_at);
      if (result.ok()) {
        if (*result != *baseline) ++completed_wrong;
        continue;
      }
      if (result.status().code() != StatusCode::kCancelled) ++cancelled_untyped;
      latencies.push_back(latency_ms);
    }
    std::sort(latencies.begin(), latencies.end());
    const double p50 = latencies.empty() ? 0 : benchutil::PercentileSorted(latencies, 0.5);
    const double p99 =
        latencies.empty() ? 0 : benchutil::PercentileSorted(latencies, 0.99);
    std::printf("\ncancellation: query %.2f ms; %zu/%d cancelled mid-run; latency "
                "p50 %.3f ms, p99 %.3f ms\n",
                full_ms, latencies.size(), s.cancel_samples, p50, p99);
    Check(completed_wrong == 0,
          claim + " / cancel: a run the cancel missed returns the baseline rows");
    Check(cancelled_untyped == 0,
          claim + " / cancel: every cancelled run is typed kCancelled");
    ctx.Reset();
    auto after = exec.Execute(join_plan, &ctx);
    Check(after.ok() && *after == *baseline,
          claim + " / cancel: the executor returns the baseline rows after "
                  "every cancellation");
  }

  // Transient retry: the first attempt dies of an injected transient fault
  // at motion.recv, the Database retry loop cures it.
  {
    size_t wrong_fires = 0;
    Comparison c{claim + " / transient retry",
                 {{"clean", [&] { return db.ExecutePlan(join_plan, QueryOptions{}); }, {}},
                  {"retried",
                   [&] {
                     FaultInjector injector(7);
                     FaultSpec transient;
                     transient.kind = FaultKind::kTransient;
                     transient.max_fires = 1;
                     injector.Arm("motion.recv", transient);
                     QueryOptions options;
                     options.fault_injector = &injector;
                     options.retry_backoff_ms = 0;
                     auto result = db.ExecutePlan(join_plan, options);
                     if (injector.fires("motion.recv") != 1) ++wrong_fires;
                     return result;
                   },
                   {}}}};
    const std::vector<QueryResult> out = CompareLegs(c);
    if (!out.empty()) {
      const auto t = TimeLegs(c.claim, c.legs, s.iterations, out[0].rows);
      std::printf("transient retry: clean %.2f ms, with one cured transient fault "
                  "%.2f ms (%.2fx)\n",
                  t[0].median_ms, t[1].median_ms, t[1].median_ms / t[0].median_ms);
    }
    Check(wrong_fires == 0,
          claim + " / transient retry: the fault fired exactly once in every retried run");
  }

  // Budget sweep: limits from starvation to comfort; every run returns the
  // oracle rows (advisory allocations may shed) or typed kResourceExhausted.
  {
    Executor exec(&db.catalog(), &db.storage());
    QueryContext ctx;
    ctx.budget().set_limit(size_t{1} << 40);
    auto oracle = exec.Execute(join_plan, &ctx);
    MPPDB_CHECK(oracle.ok());
    const size_t peak = ctx.budget().peak();
    std::printf("\nbudget sweep (join plan, peak %zu bytes):", peak);
    size_t succeeded = 0, exhausted = 0, wrong = 0;
    for (double fraction : {0.01, 0.25, 0.5, 0.9, 1.0, 2.0}) {
      const size_t limit =
          std::max<size_t>(1, static_cast<size_t>(static_cast<double>(peak) * fraction));
      ctx.budget().set_limit(limit);
      auto result = exec.Execute(join_plan, &ctx);
      if (result.ok()) {
        if (*result != *oracle) ++wrong;
        ++succeeded;
      } else if (result.status().code() == StatusCode::kResourceExhausted) {
        ++exhausted;
      } else {
        ++wrong;
      }
      std::printf(" %.2fx %s", fraction, result.ok() ? "ok" : "exhausted");
    }
    std::printf("\n");
    Check(wrong == 0, claim + " / budget sweep: every run returns the oracle rows "
                              "or typed kResourceExhausted");
    Check(succeeded > 0, claim + " / budget sweep: some limit succeeds");
    Check(exhausted > 0, claim + " / budget sweep: some limit is exhausted");
  }
  PrintChecks();
}

// ------------------------------------------------- D. morsel scheduler

// Zipfian segment skew: per-segment row counts decay as 1/rank^1.2, so
// segment 0's slice dwarfs its peers. Rows are steered to their drawn
// segment by searching distribution-key values that hash there, the same
// routing the storage engine uses.
void LoadZipfSkewed(Database* db, int64_t num_rows, int segments) {
  constexpr double kTheta = 1.2;
  MPPDB_CHECK(db->CreateTable("skewed",
                              Schema({{"id", TypeId::kInt64}, {"v", TypeId::kInt64}}),
                              TableDistribution::kHashed, {0})
                  .ok());
  std::vector<double> cumulative(static_cast<size_t>(segments));
  double total = 0;
  for (int seg = 0; seg < segments; ++seg) {
    total += 1.0 / std::pow(static_cast<double>(seg + 1), kTheta);
    cumulative[static_cast<size_t>(seg)] = total;
  }
  std::mt19937_64 rng(20260809);
  std::uniform_real_distribution<double> uniform(0.0, total);
  std::vector<Row> rows;
  rows.reserve(static_cast<size_t>(num_rows));
  std::vector<int64_t> per_segment(static_cast<size_t>(segments), 0);
  int64_t next_id = 0;
  for (int64_t i = 0; i < num_rows; ++i) {
    const double draw = uniform(rng);
    int target = 0;
    while (cumulative[static_cast<size_t>(target)] < draw) ++target;
    Row row = {Datum::Int64(next_id), Datum::Int64(i % 997)};
    while (static_cast<int>(HashRowColumns(row, {0}) %
                            static_cast<uint64_t>(segments)) != target) {
      row[0] = Datum::Int64(++next_id);
    }
    ++next_id;
    ++per_segment[static_cast<size_t>(target)];
    rows.push_back(std::move(row));
  }
  MPPDB_CHECK(db->Load("skewed", rows).ok());
  std::printf("\nZipfian segment skew (theta=%.1f, %d segments): rows", kTheta,
              segments);
  for (int64_t n : per_segment) std::printf(" %lld", static_cast<long long>(n));
  std::printf("\n");
}

void MorselScheduling(bool smoke) {
  benchutil::Header(
      "D. Morsel scheduler: 1 worker vs morsel-off vs morsel-on (invariant 6)");
  struct Sizes {
    int64_t rows;
    int64_t zipf_rows;
    int iterations;
  };
  const Sizes s = smoke ? Sizes{20000, 20000, 2} : Sizes{120000, 120000, 5};
  std::printf("hardware_concurrency: %u\n", std::thread::hardware_concurrency());
  const std::string claim = "inv 6 worker-count independence";

  // A scan-heavy aggregation (reads the storage slices in place) and SELECT *
  // (segment 0 receives the slices by reference; each row is copied once,
  // into the result) at S segments: the simulated cluster splits the same
  // table across more segments as S grows.
  std::printf("%-6s %-6s %12s %14s %13s %9s %9s\n", "S", "query", "1 worker (ms)",
              "morsel-off(ms)", "morsel-on(ms)", "off spd", "on spd");
  benchutil::Rule(77);
  workload::TpchConfig config;
  config.rows = s.rows;
  for (int segments : {1, 2, 4, 8}) {
    Database db(segments);
    MPPDB_CHECK(workload::CreateAndLoadLineitem(
                    &db, config, workload::LineitemPartitioning::kNone, "lineitem")
                    .ok());
    for (const bool scan : {false, true}) {
      Result<PhysPtr> plan = db.PlanSql(
          scan ? "SELECT * FROM lineitem"
               : "SELECT count(*), sum(l_quantity), avg(l_extendedprice), "
                 "min(l_shipdate), max(l_discount) FROM lineitem");
      MPPDB_CHECK(plan.ok());
      Executor one_worker(&db.catalog(), &db.storage());
      Executor morsel_off(&db.catalog(), &db.storage(),
                          Executor::Options{.workers = 0, .morsel_rows = SIZE_MAX});
      Executor morsel_on(&db.catalog(), &db.storage(), Executor::Options{.workers = 0});
      Comparison c{claim + " / S=" + std::to_string(segments) + (scan ? " scan" : " agg"),
                   {ExecLeg("1 worker", &one_worker, *plan),
                    ExecLeg("pool morsel-off", &morsel_off, *plan),
                    ExecLeg("pool morsel-on", &morsel_on, *plan)},
                   AllStats};
      const std::vector<QueryResult> out = CompareLegs(c);
      if (out.empty()) continue;
      const auto t = TimeLegs(c.claim, c.legs, s.iterations, out[0].rows);
      std::printf("%-6d %-6s %12.2f %14.2f %13.2f %8.2fx %8.2fx\n", segments,
                  scan ? "scan" : "agg", t[0].median_ms, t[1].median_ms,
                  t[2].median_ms, t[0].median_ms / t[1].median_ms,
                  t[0].median_ms / t[2].median_ms);
    }
  }

  // Per-worker busy time on a fixed 4-worker pool over the skewed table:
  // with morsels off the worker that drew the fat slice stays busy long
  // after its peers idle; with morsels on, idle workers steal chunk ranges
  // out of it. Fine-grained (1024-row) morsels maximize steal traffic.
  constexpr int kSegments = 4;
  constexpr int kWorkers = 4;
  Database db(kSegments);
  LoadZipfSkewed(&db, s.zipf_rows, kSegments);
  Result<PhysPtr> plan = db.PlanSql("SELECT count(*), sum(v), min(v), max(v) FROM skewed");
  MPPDB_CHECK(plan.ok());
  MorselScheduler off_scheduler(kWorkers);
  MorselScheduler on_scheduler(kWorkers);
  Executor one_worker(&db.catalog(), &db.storage());
  Executor morsel_off(&db.catalog(), &db.storage(),
                      Executor::Options{.workers = 0, .morsel_rows = SIZE_MAX});
  morsel_off.SetScheduler(&off_scheduler);
  Executor morsel_on(&db.catalog(), &db.storage(), Executor::Options{.workers = 0});
  morsel_on.SetScheduler(&on_scheduler);
  Executor fine(&db.catalog(), &db.storage(),
                Executor::Options{.workers = kWorkers, .morsel_rows = 1024});
  Comparison c{claim + " / zipf skew",
               {ExecLeg("1 worker", &one_worker, *plan),
                ExecLeg("pool morsel-off", &morsel_off, *plan),
                ExecLeg("pool morsel-on", &morsel_on, *plan),
                ExecLeg("pool 1024-row morsels", &fine, *plan)},
               AllStats};
  const std::vector<QueryResult> out = CompareLegs(c);
  if (!out.empty()) {
    const auto t = TimeLegs(c.claim, {c.legs[1], c.legs[2]}, s.iterations, out[0].rows);
    std::printf("%-12s %10s %12s %12s %12s %10s\n", "mode", "time (ms)", "busy mean",
                "busy max", "busy min", "max/mean");
    benchutil::Rule(74);
    for (int k = 0; k < 2; ++k) {
      // Busy-time balance over one representative run.
      MorselScheduler& scheduler = k == 0 ? off_scheduler : on_scheduler;
      scheduler.ResetBusyTime();
      MPPDB_CHECK((k == 0 ? morsel_off : morsel_on).Execute(*plan).ok());
      double mean = 0, busy_max = 0, busy_min = 1e300;
      const std::vector<uint64_t> busy = scheduler.BusyNanos();
      for (uint64_t ns : busy) {
        const double ms = static_cast<double>(ns) / 1e6;
        mean += ms;
        busy_max = std::max(busy_max, ms);
        busy_min = std::min(busy_min, ms);
      }
      mean /= static_cast<double>(busy.size());
      std::printf("%-12s %10.2f %12.3f %12.3f %12.3f %9.2fx\n",
                  k == 0 ? "morsel-off" : "morsel-on", t[static_cast<size_t>(k)].median_ms,
                  mean, busy_max, busy_min, mean > 0 ? busy_max / mean : 0);
    }
  }
  PrintChecks();
}

// ------------------------------------------------ E. columnar storage

void StorageFormats(bool smoke) {
  benchutil::Header("E. Columnar storage: row store vs encoded column store (invariant 12)");
  struct Sizes {
    size_t fact_rows;
    int segments;
    int partitions;
    int iterations;
  };
  const Sizes s = smoke ? Sizes{80000, 2, 4, 3} : Sizes{800000, 4, 8, 7};
  const std::string claim = "inv 12 columnar transparency";
  // The encoded legs run in well under a millisecond with --smoke; each
  // timed sample repeats a leg for at least this long.
  constexpr double kMinSampleMs = 20.0;

  // fact(k, b, tag, qty, price): partitioned on b, hashed on k. tag cycles
  // through 64 strings (dictionary territory, unclustered so zone maps are
  // useless), qty arrives in runs of 64 (RLE territory), k is ascending
  // (bit-packing + clustering), price is high-NDV (plain).
  Schema schema({{"k", TypeId::kInt64},
                 {"b", TypeId::kInt64},
                 {"tag", TypeId::kString},
                 {"qty", TypeId::kInt64},
                 {"price", TypeId::kDouble}});
  const int64_t b_domain = static_cast<int64_t>(s.partitions) * 10;
  Random rng(7070);
  std::vector<Row> rows;
  rows.reserve(s.fact_rows);
  for (size_t i = 0; i < s.fact_rows; ++i) {
    char tag[16];
    std::snprintf(tag, sizeof(tag), "tag_%02zu", i % 64);
    rows.push_back({Datum::Int64(static_cast<int64_t>(i)),
                    Datum::Int64(static_cast<int64_t>(i) % b_domain), Datum::String(tag),
                    Datum::Int64(static_cast<int64_t>(i / 64) % 10),
                    Datum::Double(rng.NextDouble() * 1000)});
  }
  Database db_row(s.segments);
  Database db_col(s.segments);
  for (Database* db : {&db_row, &db_col}) {
    MPPDB_CHECK(db->CreatePartitionedTable(
                      "fact", schema, TableDistribution::kHashed, {0},
                      {{1, PartitionMethod::kRange}},
                      {partition_bounds::IntRanges(0, 10, s.partitions)})
                    .ok());
    MPPDB_CHECK(db->Load("fact", rows).ok());
  }
  MPPDB_CHECK(db_col.Run("ALTER TABLE fact SET WITH (orientation = column)").ok());
  const TableDescriptor* fact = db_col.catalog().FindTable("fact");

  // Per-column compression ratios of the encoded images (built eagerly here
  // so lazy encode cost never lands inside a measured scan).
  {
    TableStore* store = db_col.storage().GetStore(fact->oid);
    std::vector<size_t> col_plain(schema.size(), 0), col_encoded(schema.size(), 0);
    size_t total_plain = 0, total_encoded = 0;
    for (Oid unit : store->UnitOids()) {
      for (int segment = 0; segment < store->num_segments(); ++segment) {
        const SliceColumns* cols = store->UnitColumns(unit, segment);
        if (cols == nullptr) continue;
        total_plain += cols->plain_bytes;
        total_encoded += cols->encoded_bytes;
        for (size_t col = 0; col < cols->columns.size(); ++col) {
          for (const EncodedColumnChunk& chunk : cols->columns[col]) {
            col_plain[col] += chunk.plain_bytes;
            col_encoded[col] += chunk.encoded_bytes;
          }
        }
      }
    }
    std::printf("compression: table %.2fx", static_cast<double>(total_plain) /
                                                static_cast<double>(total_encoded));
    for (size_t col = 0; col < schema.size(); ++col) {
      std::printf("  %s %.2fx", schema.column(col).name.c_str(),
                  static_cast<double>(col_plain[col]) /
                      static_cast<double>(col_encoded[col]));
    }
    std::printf("\n\n");
    Check(total_encoded < total_plain,
          claim + ": the encoded images are smaller than the plain rows");
  }

  auto filter_plan = [&](ExprPtr pred) {
    return LeafFilterPlan(fact, {1, 2, 3, 4, 5}, std::move(pred));
  };
  auto tag_col = [] { return MakeColumnRef(3, "tag", TypeId::kString); };
  auto qty_col = [] { return MakeColumnRef(4, "qty", TypeId::kInt64); };
  auto k_col = [] { return MakeColumnRef(1, "k", TypeId::kInt64); };

  Executor row_exec(&db_row.catalog(), &db_row.storage());
  Executor col_exec(&db_col.catalog(), &db_col.storage());
  Executor col_pool(&db_col.catalog(), &db_col.storage(), Executor::Options{.workers = 0});

  std::printf("%-16s %8s %8s %10s %8s %8s %7s\n", "workload", "out", "enc-chk",
              "enc-bytes", "row-ms", "enc-ms", "spd");
  benchutil::Rule(72);
  // Returns the speedup of encoded evaluation over the row store.
  auto measure = [&](const std::string& name, const PhysPtr& plan) {
    const Expect engaged{"chunks_encoded_eval > 0", [](const ExecStats& st) {
                           return st.chunks_encoded_eval > 0;
                         }};
    Comparison c{claim + " / " + name,
                 {ExecLeg("row store", &row_exec, plan),
                  ExecLeg("column store", &col_exec, plan, {engaged}),
                  ExecLeg("column store pool", &col_pool, plan, {engaged})},
                 &ExecStats::WithoutEncodedCounters,
                 "the encoded counters",
                 {{1, 2}}};
    const std::vector<QueryResult> out = CompareLegs(c);
    if (out.empty()) return 0.0;
    const auto t = TimeLegs(c.claim, {c.legs[0], c.legs[1]}, s.iterations, out[0].rows,
                            kMinSampleMs);
    const double speedup = t[0].median_ms / t[1].median_ms;
    std::printf("%-16s %8zu %8zu %10zu %8.2f %8.2f %6.2fx\n", name.c_str(),
                out[0].rows.size(), out[1].stats.chunks_encoded_eval,
                out[1].stats.encoded_bytes_scanned, t[0].median_ms, t[1].median_ms,
                speedup);
    return speedup;
  };

  // Headline: selective equality on the unclustered dictionary column.
  const double dict_speedup =
      measure("dict_selective", filter_plan(MakeComparison(
                                    CompareOp::kEq, tag_col(),
                                    MakeConst(Datum::String("tag_07")))));
  // IN list over the dictionary column.
  measure("dict_in_list",
          filter_plan(MakeInList({tag_col(), MakeConst(Datum::String("tag_03")),
                                  MakeConst(Datum::String("tag_33")),
                                  MakeConst(Datum::String("tag_55"))})));
  // Selective equality on the run-length column (run skipping).
  measure("rle_selective", filter_plan(MakeComparison(CompareOp::kEq, qty_col(),
                                                      MakeConst(Datum::Int64(3)))));
  // Range on the bit-packed clustered column (zone maps help both sides;
  // frame-of-reference compares on top).
  measure("bitpack_range",
          filter_plan(MakeComparison(
              CompareOp::kLt, k_col(),
              MakeConst(Datum::Int64(static_cast<int64_t>(s.fact_rows / 10))))));
  // Conjunction with an arithmetic residual: encoded prefix + late-
  // materialized residual evaluation.
  measure("dict_residual",
          filter_plan(Conj({MakeComparison(CompareOp::kEq, tag_col(),
                                           MakeConst(Datum::String("tag_12"))),
                            MakeComparison(CompareOp::kLt,
                                           MakeArith(ArithOp::kMul,
                                                     MakeColumnRef(5, "price",
                                                                   TypeId::kDouble),
                                                     MakeConst(Datum::Double(2.0))),
                                           MakeConst(Datum::Double(900.0)))})));
  // The one timed bar: the selective dictionary scan is at least 2x faster
  // than the row-store baseline (it measures an order of magnitude).
  Check(dict_speedup >= 2.0,
        claim + " / dict_selective: encoded evaluation is >= 2x faster than the "
                "row store (timed)");
  PrintChecks();
}

// -------------------------------------------------- F. index access paths

void IndexPaths(bool smoke) {
  benchutil::Header("F. Index access paths: full scan vs zone maps vs index (invariant 13)");
  struct Sizes {
    size_t fact_rows;
    int segments;
    int partitions;
    int iterations;
  };
  const Sizes s = smoke ? Sizes{40000, 2, 4, 2} : Sizes{400000, 4, 8, 5};

  // fact(k, b, u): partitioned on b, hashed on u, k ascending at load time
  // so chunk synopses on k are as tight as possible (the zone-map leg gets
  // its best case). Index on k. Two databases with identical data: one
  // executor skips with zone maps, the other does not.
  auto load = [&](Database* db) {
    MPPDB_CHECK(db->CreatePartitionedTable(
                      "fact", Schema({{"k", TypeId::kInt64},
                                      {"b", TypeId::kInt64},
                                      {"u", TypeId::kInt64}}),
                      TableDistribution::kHashed, {2}, {{1, PartitionMethod::kRange}},
                      {partition_bounds::IntRanges(0, 10, s.partitions)})
                    .ok());
    Random rng(7);
    const int64_t b_domain = static_cast<int64_t>(s.partitions) * 10;
    std::vector<Row> rows;
    rows.reserve(s.fact_rows);
    for (size_t i = 0; i < s.fact_rows; ++i) {
      rows.push_back({Datum::Int64(static_cast<int64_t>(i)),
                      Datum::Int64(static_cast<int64_t>(i) % b_domain),
                      Datum::Int64(rng.UniformRange(0, 999999))});
    }
    MPPDB_CHECK(db->Load("fact", rows).ok());
    MPPDB_CHECK(db->Run("CREATE INDEX ON fact (k)").ok());
  };
  Database db_noskip(s.segments, Executor::Options{.data_skipping = false});
  Database db_skip(s.segments);
  load(&db_noskip);
  load(&db_skip);

  std::printf("%-14s %8s %9s %11s %9s %9s %9s %8s %8s\n", "shape", "out", "seeks",
              "idx-rows", "full", "zoneskip", "index", "vs-full", "vs-skip");
  benchutil::Rule(94);
  QueryOptions no_index;
  no_index.enable_index_paths = false;
  const Expect untouched{"index_seeks, index_rows_read and topn_rows_cut are 0",
                         [](const ExecStats& st) {
                           return st.index_seeks == 0 && st.index_rows_read == 0 &&
                                  st.topn_rows_cut == 0;
                         }};
  // Every shape is one the cost model should favor the index for.
  auto measure = [&](const std::string& name, const std::string& sql) {
    Comparison c{"inv 13 index-path transparency / " + name,
                 {{"full scan", [&, sql] { return db_noskip.Run(sql, no_index); },
                   {untouched}},
                  {"zone-map scan", [&, sql] { return db_skip.Run(sql, no_index); },
                   {untouched}},
                  {"index", [&, sql] { return db_skip.Run(sql); },
                   {{"index_seeks > 0",
                     [](const ExecStats& st) { return st.index_seeks > 0; }}}}}};
    const std::vector<QueryResult> out = CompareLegs(c);
    if (out.empty()) return;
    const auto t = TimeLegs(c.claim, c.legs, s.iterations, out[0].rows);
    std::printf("%-14s %8zu %9zu %11zu %9.2f %9.2f %9.2f %7.1fx %7.1fx\n",
                name.c_str(), out[0].rows.size(), out[2].stats.index_seeks,
                out[2].stats.index_rows_read, t[0].median_ms, t[1].median_ms,
                t[2].median_ms, t[0].median_ms / t[2].median_ms,
                t[1].median_ms / t[2].median_ms);
  };
  // Selective range over the indexed (non-partition) column: ~0.1% of rows.
  const int64_t lo = static_cast<int64_t>(s.fact_rows / 2);
  const int64_t hi = lo + static_cast<int64_t>(s.fact_rows / 1000);
  measure("range_seek", "SELECT k, u FROM fact WHERE k >= " + std::to_string(lo) +
                            " AND k < " + std::to_string(hi));
  // ORDER BY key + LIMIT: per-partition ordered walks through a top-N heap
  // against sorting the whole table.
  measure("orderby_limit", "SELECT k, u FROM fact ORDER BY k LIMIT 100");
  // Ungrouped MIN/MAX: one first/last-entry probe per unit against a full
  // scan feeding the aggregate.
  measure("minmax", "SELECT max(k) FROM fact");
  PrintChecks();
}

// ------------------------------------------------ G. out-of-core execution

size_t FilesUnder(const std::string& dir) {
  namespace fs = std::filesystem;
  size_t n = 0;
  std::error_code ec;
  for (auto it = fs::recursive_directory_iterator(dir, ec);
       !ec && it != fs::recursive_directory_iterator(); it.increment(ec)) {
    if (it->is_regular_file(ec)) ++n;
  }
  return n;
}

void Spill(bool smoke) {
  benchutil::Header("G. Out-of-core execution by data-to-budget ratio (invariant 14)");
  struct Sizes {
    size_t dim_rows;
    size_t fact_rows;
    size_t sort_rows;
    int iterations;
  };
  const Sizes s = smoke ? Sizes{10000, 20000, 20000, 2} : Sizes{100000, 200000, 200000, 5};
  namespace fs = std::filesystem;
  // One directory per process, so concurrent runs never see each other's
  // spill files.
  const std::string spill_dir =
      (fs::temp_directory_path() /
       ("mppdb-bench-spill-" + std::to_string(::getpid())))
          .string();
  fs::create_directories(spill_dir);

  Database db(1);
  MPPDB_CHECK(db.CreateTable("dim",
                             Schema({{"id", TypeId::kInt64}, {"tag", TypeId::kInt64}}),
                             TableDistribution::kHashed, {0})
                  .ok());
  MPPDB_CHECK(db.CreateTable("fact",
                             Schema({{"a", TypeId::kInt64}, {"b", TypeId::kInt64}}),
                             TableDistribution::kHashed, {0})
                  .ok());
  MPPDB_CHECK(db.CreateTable("t",
                             Schema({{"a", TypeId::kInt64},
                                     {"b", TypeId::kInt64},
                                     {"c", TypeId::kDouble}}),
                             TableDistribution::kHashed, {0})
                  .ok());
  Random rng(20260809);
  {
    std::vector<Row> rows;
    for (size_t i = 0; i < s.dim_rows; ++i) {
      rows.push_back({Datum::Int64(static_cast<int64_t>(i)),
                      Datum::Int64(static_cast<int64_t>(i) * 2)});
    }
    MPPDB_CHECK(db.Load("dim", rows).ok());
  }
  {
    std::vector<Row> rows;
    for (size_t i = 0; i < s.fact_rows; ++i) {
      rows.push_back(
          {Datum::Int64(static_cast<int64_t>(i)),
           Datum::Int64(rng.UniformRange(0, static_cast<int64_t>(s.dim_rows) - 1))});
    }
    MPPDB_CHECK(db.Load("fact", rows).ok());
  }
  {
    std::vector<Row> rows;
    for (size_t i = 0; i < s.sort_rows; ++i) {
      rows.push_back({Datum::Int64(static_cast<int64_t>(i)),
                      Datum::Int64(static_cast<int64_t>((i * 37) % (s.sort_rows / 4))),
                      Datum::Double(static_cast<double>(i) * 0.25)});
    }
    MPPDB_CHECK(db.Load("t", rows).ok());
  }
  const Oid dim_oid = db.catalog().FindTable("dim")->oid;
  const Oid fact_oid = db.catalog().FindTable("fact")->oid;
  const Oid t_oid = db.catalog().FindTable("t")->oid;
  auto t_scan = [&] {
    return std::make_shared<TableScanNode>(t_oid, t_oid, std::vector<ColRefId>{1, 2, 3});
  };

  struct Workload {
    std::string name;
    PhysPtr plan;
    size_t state_bytes;  // estimated operator state: the "data" in the ratio
  };
  const std::vector<Workload> workloads = {
      // Hybrid hash join: build side = dim, every fact row matches.
      {"join",
       std::make_shared<HashJoinNode>(
           JoinType::kInner, std::vector<ColRefId>{11}, std::vector<ColRefId>{2},
           nullptr,
           std::make_shared<TableScanNode>(dim_oid, dim_oid,
                                           std::vector<ColRefId>{11, 12}),
           std::make_shared<TableScanNode>(fact_oid, fact_oid,
                                           std::vector<ColRefId>{1, 2})),
       ApproxRowsBytes(s.dim_rows, 2)},
      // Hash aggregation: sort_rows/4 distinct groups of the 3-column table.
      {"agg",
       std::make_shared<HashAggNode>(
           std::vector<ColRefId>{2},
           std::vector<AggItem>{
               {AggFunc::kCountStar, nullptr, 20, "cnt"},
               {AggFunc::kSum, MakeColumnRef(3, "c", TypeId::kDouble), 21, "sc"}},
           t_scan()),
       ApproxRowsBytes(s.sort_rows / 4, 3)},
      // External sort: duplicate-heavy keys over the full table.
      {"sort",
       std::make_shared<SortNode>(std::vector<SortKey>{{2, /*ascending=*/true}},
                                  t_scan()),
       ApproxRowsBytes(s.sort_rows, 3)},
  };

  std::printf("%-6s %10s %12s %14s %12s %8s %6s\n", "leg", "ratio", "budget",
              "median_ms", "spill_MB", "passes", "runs");
  benchutil::Rule(76);
  // The budget is the operator's estimated state divided by the ratio: 16x
  // means it holds sixteen times more state than it may keep resident.
  const size_t ratios[] = {0, 1, 4, 16};  // 0 = unlimited
  for (const Workload& w : workloads) {
    std::vector<Leg> legs;
    for (size_t ratio : ratios) {
      QueryOptions options;
      options.spill_dir = spill_dir;
      if (ratio > 0) options.memory_limit_bytes = w.state_bytes / ratio;
      std::vector<Expect> expects;
      if (ratio == 0) {
        expects.push_back({"spill_bytes_written == 0", [](const ExecStats& st) {
                             return st.spill_bytes_written == 0;
                           }});
      } else if (ratio >= 4) {
        // The steep ratios must actually engage the spill machinery.
        expects.push_back({"spill_bytes_written > 0", [](const ExecStats& st) {
                             return st.spill_bytes_written > 0;
                           }});
        expects.push_back({"spill_passes > 0", [](const ExecStats& st) {
                             return st.spill_passes > 0;
                           }});
      }
      legs.push_back({ratio == 0 ? "in memory" : std::to_string(ratio) + "x",
                      [&db, plan = w.plan, options] {
                        return db.ExecutePlan(plan, options);
                      },
                      std::move(expects)});
    }
    Comparison c{"inv 14 spill transparency / " + w.name, std::move(legs)};
    const std::vector<QueryResult> out = CompareLegs(c);
    if (out.empty()) continue;
    const auto t = TimeLegs(c.claim, c.legs, s.iterations, out[0].rows);
    Check(FilesUnder(spill_dir) == 0, c.claim + ": no spill file survives");
    for (size_t i = 0; i < out.size(); ++i) {
      const ExecStats& st = out[i].stats;
      std::printf("%-6s %10s %12zu %14.2f %12.2f %8zu %6zu\n", w.name.c_str(),
                  c.legs[i].name.c_str(),
                  ratios[i] == 0 ? size_t{0} : w.state_bytes / ratios[i],
                  t[i].median_ms, static_cast<double>(st.spill_bytes_written) / 1e6,
                  st.spill_passes, st.sort_runs);
    }
  }
  std::error_code ec;
  fs::remove_all(spill_dir, ec);
  PrintChecks();
}

}  // namespace
}  // namespace mppdb

int main(int argc, char** argv) {
  // Section names match the release_<name>_smoke gates and their ctest labels.
  const std::vector<std::pair<std::string, void (*)(bool)>> sections = {
      {"skipping", mppdb::DataSkipping},    {"joinfilter", mppdb::JoinFilters},
      {"resilience", mppdb::Resilience},    {"morsel", mppdb::MorselScheduling},
      {"storage", mppdb::StorageFormats},   {"index", mppdb::IndexPaths},
      {"spill", mppdb::Spill}};
  bool smoke = false;
  std::vector<std::string> chosen;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool known = std::any_of(sections.begin(), sections.end(),
                                   [&](const auto& s) { return s.first == arg; });
    if (arg == "--smoke") {
      smoke = true;
    } else if (known) {
      chosen.push_back(arg);
    } else {
      std::fprintf(stderr,
                   "usage: %s [--smoke] [skipping|joinfilter|resilience|morsel|"
                   "storage|index|spill]...\n",
                   argv[0]);
      return 2;
    }
  }
  const auto start = std::chrono::steady_clock::now();
  for (const auto& [name, run] : sections) {
    if (chosen.empty() || std::find(chosen.begin(), chosen.end(), name) != chosen.end()) {
      run(smoke);
    }
  }
  std::printf("\n%d failed check(s); wall time %.1f s\n", mppdb::failures,
              mppdb::MillisSince(start) / 1000.0);
  return mppdb::failures == 0 ? 0 : 1;
}

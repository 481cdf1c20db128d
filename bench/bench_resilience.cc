// Fault-tolerant execution: the price of resilience and the speed of escape.
//
// Four measurements back DESIGN.md's "Failure model" section:
//   1. Fault-free overhead: the same plans through Executor::Execute with no
//      QueryContext vs. a fully armed one (deadline set, budget limited,
//      fault injector attached with nothing armed) — the cost of the
//      batch-granularity liveness checks and budget charges on the hot
//      paths, at 1 worker and on a pool. The acceptance bar is <= 2%.
//   2. Cancellation latency: Cancel() fired from a second thread into a
//      running parallel join; p50/p99 milliseconds from the cancel call to
//      Execute returning with every worker joined.
//   3. Transient-retry cost: a query whose first attempt dies of an injected
//      transient I/O fault, cured by the Database retry loop — total wall
//      clock vs. the fault-free run.
//   4. Budget sweep: limits from starvation to comfort; every run must be
//      oracle rows (advisory allocations may shed) or typed
//      kResourceExhausted.
//
// Emits BENCH_resilience.json. `--smoke` shrinks data and iterations for
// the release_resilience_smoke ctest gate, which asserts the correctness
// invariants (typed codes, identical rows, successful retries), not speed.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/fault_injection.h"
#include "common/random.h"
#include "db/database.h"
#include "exec/plan.h"
#include "runtime/query_context.h"

namespace mppdb {
namespace {

struct BenchSizes {
  size_t fact_rows = 300000;
  int segments = 4;
  int iterations = 11;
  int cancel_samples = 40;
};

BenchSizes SmokeSizes() {
  BenchSizes sizes;
  sizes.fact_rows = 20000;
  sizes.segments = 2;
  sizes.iterations = 2;
  sizes.cancel_samples = 5;
  return sizes;
}

/// Gather(Filter(sk in [lo, hi))(TableScan fact)): the scan/filter hot loop.
PhysPtr FilterPlan(Database* db, int64_t lo, int64_t hi) {
  const TableDescriptor* fact = db->catalog().FindTable("fact");
  auto scan = std::make_shared<TableScanNode>(fact->oid, fact->oid,
                                              std::vector<ColRefId>{1, 2});
  ExprPtr ge = MakeComparison(CompareOp::kGe,
                              MakeColumnRef(1, "sk", TypeId::kInt64),
                              MakeConst(Datum::Int64(lo)));
  ExprPtr lt = MakeComparison(CompareOp::kLt,
                              MakeColumnRef(1, "sk", TypeId::kInt64),
                              MakeConst(Datum::Int64(hi)));
  PhysPtr filter = std::make_shared<FilterNode>(Conj({ge, lt}), scan);
  return std::make_shared<MotionNode>(MotionKind::kGather,
                                      std::vector<ColRefId>{}, filter);
}

/// Redistribute-both-sides hash join under a Gather: exchanges, build
/// tables, and the rendezvous barrier all on the measured path.
PhysPtr JoinPlan(Database* db) {
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
      JoinType::kInner, std::vector<ColRefId>{11}, std::vector<ColRefId>{1},
      nullptr, build, probe);
  return std::make_shared<MotionNode>(MotionKind::kGather,
                                      std::vector<ColRefId>{}, join);
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

int RunBenchmark(bool smoke) {
  const BenchSizes sizes = smoke ? SmokeSizes() : BenchSizes{};
  std::vector<benchutil::BenchJsonEntry> entries;
  entries.push_back({"env", {{"smoke", smoke ? 1.0 : 0.0},
                             {"fact_rows", static_cast<double>(sizes.fact_rows)},
                             {"segments", static_cast<double>(sizes.segments)}}});

  Database db(sizes.segments);
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
  rows.reserve(sizes.fact_rows);
  for (size_t i = 0; i < sizes.fact_rows; ++i) {
    rows.push_back({Datum::Int64(static_cast<int64_t>(i)),
                    Datum::Int64(rng.UniformRange(0, 999))});
  }
  MPPDB_CHECK(db.Load("fact", rows).ok());
  std::vector<Row> dim_rows;
  const int64_t dim_keys = static_cast<int64_t>(sizes.fact_rows / 20);
  for (int64_t k = 0; k < dim_keys; ++k) {
    dim_rows.push_back({Datum::Int64(k * 7), Datum::Int64(k)});
  }
  MPPDB_CHECK(db.Load("dim", dim_rows).ok());

  const PhysPtr filter_plan =
      FilterPlan(&db, 0, static_cast<int64_t>(sizes.fact_rows / 2));
  const PhysPtr join_plan = JoinPlan(&db);

  // --- 1. Fault-free overhead ---------------------------------------------
  benchutil::Header("Fault-free overhead: armed QueryContext vs none (min ms)");
  std::printf("%-22s %-12s %10s %10s %8s\n", "plan", "mode", "no-ctx", "ctx",
              "ovh%");
  benchutil::Rule(68);
  struct ModeDef {
    const char* name;
    Executor::Options options;
  };
  const ModeDef modes[] = {
      {"one_worker", {}},
      {"pool", {.workers = 0}},
  };
  double worst_overhead_pct = 0;
  double sum_overhead_pct = 0;
  int num_overhead_configs = 0;
  for (const auto& [plan_name, plan] :
       std::vector<std::pair<std::string, PhysPtr>>{{"scan_filter", filter_plan},
                                                    {"hash_join", join_plan}}) {
    for (const ModeDef& mode : modes) {
      Executor exec(&db.catalog(), &db.storage(), mode.options);
      FaultInjector injector(1);  // attached, nothing armed
      QueryContext ctx;

      auto bare = exec.Execute(plan);
      MPPDB_CHECK(bare.ok());
      ArmContext(&ctx, &injector);
      auto armed = exec.Execute(plan, &ctx);
      MPPDB_CHECK(armed.ok());
      MPPDB_CHECK(*armed == *bare);  // the context is invisible in results

      // Interleave the two variants A/B/A/B so slow machine-wide drift
      // (allocator state, CPU frequency, co-tenants) hits both sides alike;
      // back-to-back blocks of each variant showed ±10% run-to-run swings
      // that swamped the signal under test.
      std::vector<double> no_ctx_ms, ctx_ms;
      for (int i = 0; i < sizes.iterations; ++i) {
        no_ctx_ms.push_back(benchutil::MeasureMillis(0, 1, [&]() {
                              MPPDB_CHECK(exec.Execute(plan).ok());
                            }).median_ms);
        ctx_ms.push_back(benchutil::MeasureMillis(0, 1, [&]() {
                           ArmContext(&ctx, &injector);
                           MPPDB_CHECK(exec.Execute(plan, &ctx).ok());
                         }).median_ms);
      }
      // Overhead = min vs min: scheduler/throttling noise is one-sided (it
      // only ever adds time), so the fastest observed run of each variant is
      // the cleanest estimate of its true cost. Medians of interleaved
      // samples still swung ±7% run-to-run on shared hardware.
      std::sort(no_ctx_ms.begin(), no_ctx_ms.end());
      std::sort(ctx_ms.begin(), ctx_ms.end());
      const double no_ctx = no_ctx_ms.front();
      const double with_ctx = ctx_ms.front();
      const double overhead_pct = (with_ctx / no_ctx - 1.0) * 100.0;
      worst_overhead_pct = std::max(worst_overhead_pct, overhead_pct);
      sum_overhead_pct += overhead_pct;
      ++num_overhead_configs;
      std::printf("%-22s %-12s %9.2f %9.2f %7.2f%%\n", plan_name.c_str(),
                  mode.name, no_ctx, with_ctx, overhead_pct);
      entries.push_back(
          {"overhead_" + plan_name + "_" + mode.name,
           {{"no_ctx_ms", no_ctx},
            {"ctx_ms", with_ctx},
            {"overhead_pct", overhead_pct}}});
    }
  }
  const double mean_overhead_pct =
      sum_overhead_pct / static_cast<double>(num_overhead_configs);
  std::printf("mean across %d configs: %.2f%% (per-config noise floor on "
              "shared hardware is several %%)\n",
              num_overhead_configs, mean_overhead_pct);
  entries.push_back({"overhead_summary",
                     {{"worst_pct", worst_overhead_pct},
                      {"mean_pct", mean_overhead_pct}}});

  // --- 2. Cancellation latency --------------------------------------------
  benchutil::Header("Cancellation latency (parallel join, external cancel)");
  {
    Executor exec(&db.catalog(), &db.storage(),
                  Executor::Options{.workers = 0});
    // Baseline runtime so the cancel can be timed to land mid-query.
    QueryContext ctx;
    auto baseline = exec.Execute(join_plan, &ctx);
    MPPDB_CHECK(baseline.ok());
    const double full_ms =
        benchutil::MedianMillis(std::max(2, sizes.iterations), [&]() {
          ctx.Reset();
          MPPDB_CHECK(exec.Execute(join_plan, &ctx).ok());
        });

    std::vector<double> latencies;
    size_t cancelled_runs = 0;
    for (int sample = 0; sample < sizes.cancel_samples; ++sample) {
      ctx.Reset();
      // Spread cancel points across the query's lifetime.
      const double at_ms =
          full_ms * (static_cast<double>(sample % 10) + 0.5) / 10.0;
      std::chrono::steady_clock::time_point cancel_at;
      Result<std::vector<Row>> result = Status::Internal("not run");
      std::thread runner(
          [&]() { result = exec.Execute(join_plan, &ctx); });
      std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(at_ms));
      cancel_at = std::chrono::steady_clock::now();
      ctx.Cancel();
      runner.join();
      const double latency_ms =
          std::chrono::duration_cast<std::chrono::duration<double, std::milli>>(
              std::chrono::steady_clock::now() - cancel_at)
              .count();
      if (result.ok()) {
        // The cancel landed after completion; not a latency sample.
        MPPDB_CHECK(*result == *baseline);
        continue;
      }
      MPPDB_CHECK(result.status().code() == StatusCode::kCancelled);
      latencies.push_back(latency_ms);
      ++cancelled_runs;
    }
    std::sort(latencies.begin(), latencies.end());
    const double p50 =
        latencies.empty() ? 0 : benchutil::PercentileSorted(latencies, 0.5);
    const double p99 =
        latencies.empty() ? 0 : benchutil::PercentileSorted(latencies, 0.99);
    std::printf("query %.2f ms; %zu/%d cancelled mid-run; latency p50 %.3f ms, "
                "p99 %.3f ms\n",
                full_ms, cancelled_runs, sizes.cancel_samples, p50, p99);
    entries.push_back({"cancellation",
                       {{"query_ms", full_ms},
                        {"samples", static_cast<double>(sizes.cancel_samples)},
                        {"cancelled_mid_run", static_cast<double>(cancelled_runs)},
                        {"latency_p50_ms", p50},
                        {"latency_p99_ms", p99}}});
    // After every cancellation the executor must still produce the answer.
    ctx.Reset();
    auto after = exec.Execute(join_plan, &ctx);
    MPPDB_CHECK(after.ok());
    MPPDB_CHECK(*after == *baseline);
  }

  // --- 3. Transient retry -------------------------------------------------
  benchutil::Header("Transient-retry cost (Database retry loop)");
  {
    QueryOptions plain;
    auto oracle = db.ExecutePlan(join_plan, plain);
    MPPDB_CHECK(oracle.ok());
    const double clean_ms = benchutil::MedianMillis(sizes.iterations, [&]() {
      MPPDB_CHECK(db.ExecutePlan(join_plan, plain).ok());
    });
    const double retried_ms = benchutil::MedianMillis(sizes.iterations, [&]() {
      FaultInjector injector(7);
      FaultSpec transient;
      transient.kind = FaultKind::kTransient;
      transient.max_fires = 1;
      injector.Arm("motion.recv", transient);
      QueryOptions options;
      options.fault_injector = &injector;
      options.retry_backoff_ms = 0;
      auto result = db.ExecutePlan(join_plan, options);
      MPPDB_CHECK(result.ok());  // first attempt died, the retry cured it
      MPPDB_CHECK(result->rows == oracle->rows);
      MPPDB_CHECK(injector.fires("motion.recv") == 1);
    });
    std::printf("clean %.2f ms, with one cured transient fault %.2f ms "
                "(%.2fx)\n",
                clean_ms, retried_ms, retried_ms / clean_ms);
    entries.push_back({"transient_retry",
                       {{"clean_ms", clean_ms},
                        {"retried_ms", retried_ms},
                        {"retry_cost_ratio", retried_ms / clean_ms}}});
  }

  // --- 4. Budget sweep ----------------------------------------------------
  benchutil::Header("Memory-budget sweep (join plan)");
  {
    Executor exec(&db.catalog(), &db.storage());
    QueryContext ctx;
    ctx.budget().set_limit(size_t{1} << 40);
    auto oracle = exec.Execute(join_plan, &ctx);
    MPPDB_CHECK(oracle.ok());
    const size_t peak = ctx.budget().peak();
    std::printf("%14s %12s %10s\n", "limit", "outcome", "peak");
    benchutil::Rule(40);
    size_t succeeded = 0, exhausted = 0;
    for (double fraction : {0.01, 0.25, 0.5, 0.9, 1.0, 2.0}) {
      const size_t limit = std::max<size_t>(
          1, static_cast<size_t>(static_cast<double>(peak) * fraction));
      ctx.budget().set_limit(limit);
      auto result = exec.Execute(join_plan, &ctx);
      if (result.ok()) {
        MPPDB_CHECK(*result == *oracle);
        ++succeeded;
      } else {
        MPPDB_CHECK(result.status().code() == StatusCode::kResourceExhausted);
        ++exhausted;
      }
      std::printf("%14zu %12s %10zu\n", limit,
                  result.ok() ? "ok" : "exhausted", ctx.budget().peak());
    }
    MPPDB_CHECK(succeeded > 0);
    MPPDB_CHECK(exhausted > 0);
    entries.push_back({"budget_sweep",
                       {{"peak_bytes", static_cast<double>(peak)},
                        {"succeeded", static_cast<double>(succeeded)},
                        {"exhausted", static_cast<double>(exhausted)}}});
  }

  if (!smoke) {
    benchutil::WriteBenchJson("BENCH_resilience.json", "resilience", entries);
  }
  return 0;
}

}  // namespace
}  // namespace mppdb

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  return mppdb::RunBenchmark(smoke);
}

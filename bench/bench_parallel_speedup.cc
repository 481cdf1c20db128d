// 1 worker vs a pool under the morsel scheduler: wall-clock for a
// scan-heavy aggregation (which reads the storage slices in place) and for
// SELECT * (whose Gather hands segment 0 the storage slices by reference;
// each row is copied once, into the result, split into morsels that the
// pool's workers share when morsels are on) at S ∈ {1, 2, 4, 8} segments
// in three modes —
// 1 worker (the calling thread runs every segment task), a pool with morsels
// off (morsel_rows = SIZE_MAX: each segment slice is one schedulable task),
// and parallel with morsels on (slices decompose into chunk-aligned
// morsels that idle workers steal). The simulated cluster splits the same
// table across more segments as S grows, so parallel speedup approaches
// min(S, cores) once per-segment work dominates coordination.
//
// A second section loads a Zipfian-skewed table (per-segment row counts
// decay as 1/rank^theta, so one segment's slice dwarfs the rest) and reports
// per-worker busy time from the scheduler's telemetry on a fixed 4-worker
// pool:
// morsels-off leaves the worker that drew the fat slice busy long after its
// peers idle; stealing levels the load (slowest-worker busy time close to
// the mean).
//
// Emits BENCH_parallel.json (entries keyed "S=<n>" for the aggregation,
// "scan-S=<n>" for SELECT *, plus "zipf-*" rows and an
// "env" entry with hardware_concurrency — on a 1-core box the expected
// wall-clock speedup is ~1x regardless of S, so record the context with the
// numbers; the busy-time balance columns are meaningful even there).
//
// `--smoke` shrinks the data and iteration counts for the ctest gate
// (release_morsel_smoke), which asserts correctness — 1 worker, morsel-off,
// morsel-on, and fine-grained-morsel results bit-identical, for both
// queries — not speed.

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <random>
#include <thread>

#include "bench_util.h"
#include "db/database.h"
#include "types/row.h"
#include "workload/tpch_lite.h"

namespace mppdb {
namespace {

constexpr const char* kQuery =
    "SELECT count(*), sum(l_quantity), avg(l_extendedprice), min(l_shipdate), "
    "max(l_discount) FROM lineitem";
constexpr const char* kScanQuery = "SELECT * FROM lineitem";

struct BenchSizes {
  int64_t rows = 120000;
  int64_t zipf_rows = 120000;
  int iterations = 5;
};

BenchSizes SmokeSizes() { return BenchSizes{20000, 20000, 2}; }

// Uniform-vs-skewed sweep over segment counts: 1 worker, morsel-off, morsel-on.
void RunSpeedupSection(const BenchSizes& sizes,
                       std::vector<benchutil::BenchJsonEntry>* entries) {
  std::printf("%-6s %-6s %12s %14s %13s %9s %9s\n", "S", "query", "1 worker (ms)",
              "morsel-off(ms)", "morsel-on(ms)", "off spd", "on spd");
  benchutil::Rule(77);
  workload::TpchConfig config;
  config.rows = sizes.rows;
  for (int segments : {1, 2, 4, 8}) {
    Database db(segments);
    MPPDB_CHECK(workload::CreateAndLoadLineitem(&db, config,
                                                workload::LineitemPartitioning::kNone,
                                                "lineitem")
                    .ok());
    for (const bool scan : {false, true}) {
      Result<PhysPtr> plan = db.PlanSql(scan ? kScanQuery : kQuery);
      MPPDB_CHECK(plan.ok());

      Executor one_worker(&db.catalog(), &db.storage());
      Executor morsel_off(&db.catalog(), &db.storage(),
                          Executor::Options{.workers = 0, .morsel_rows = SIZE_MAX});
      Executor morsel_on(&db.catalog(), &db.storage(),
                         Executor::Options{.workers = 0});
      // Identical-result check rides along with the measurement: all three
      // modes must agree bit for bit, rows and stats.
      Result<std::vector<Row>> one_worker_rows = one_worker.Execute(*plan);
      Result<std::vector<Row>> off_rows = morsel_off.Execute(*plan);
      Result<std::vector<Row>> on_rows = morsel_on.Execute(*plan);
      MPPDB_CHECK(one_worker_rows.ok() && off_rows.ok() && on_rows.ok());
      MPPDB_CHECK(*one_worker_rows == *off_rows);
      MPPDB_CHECK(*one_worker_rows == *on_rows);
      MPPDB_CHECK(one_worker.stats() == morsel_off.stats());
      MPPDB_CHECK(one_worker.stats() == morsel_on.stats());

      benchutil::TimingStats one_worker_t =
          benchutil::MeasureMillis(/*warmup=*/1, sizes.iterations, [&]() {
            MPPDB_CHECK(one_worker.Execute(*plan).ok());
          });
      benchutil::TimingStats off_t =
          benchutil::MeasureMillis(/*warmup=*/1, sizes.iterations, [&]() {
            MPPDB_CHECK(morsel_off.Execute(*plan).ok());
          });
      benchutil::TimingStats on_t =
          benchutil::MeasureMillis(/*warmup=*/1, sizes.iterations, [&]() {
            MPPDB_CHECK(morsel_on.Execute(*plan).ok());
          });
      double off_speedup = one_worker_t.median_ms / off_t.median_ms;
      double on_speedup = one_worker_t.median_ms / on_t.median_ms;
      std::printf("%-6d %-6s %12.2f %14.2f %13.2f %8.2fx %8.2fx\n", segments,
                  scan ? "scan" : "agg", one_worker_t.median_ms, off_t.median_ms,
                  on_t.median_ms, off_speedup, on_speedup);
      entries->push_back({(scan ? "scan-S=" : "S=") + std::to_string(segments),
                          {{"segments", static_cast<double>(segments)},
                           {"one_worker_ms", one_worker_t.median_ms},
                           {"one_worker_min_ms", one_worker_t.min_ms},
                           {"one_worker_mean_ms", one_worker_t.mean_ms},
                           {"morsel_off_ms", off_t.median_ms},
                           {"morsel_off_min_ms", off_t.min_ms},
                           {"morsel_on_ms", on_t.median_ms},
                           {"morsel_on_min_ms", on_t.min_ms},
                           {"morsel_off_speedup", off_speedup},
                           {"morsel_on_speedup", on_speedup}}});
    }
  }
}

// Zipfian segment skew: per-segment row counts decay as 1/rank^1.2, so
// segment 0's slice dwarfs its peers (the classic straggler). Rows are
// steered to their Zipf-drawn segment by searching distribution-key values
// that hash there — same routing the storage engine uses. Per-worker busy
// time on a fixed 4-worker pool shows whether stealing levels the load:
// with morsels off, the worker that drew the fat slice stays busy long
// after its peers idle; with morsels on, idle workers steal chunk ranges
// out of the fat slice.
void RunSkewSection(const BenchSizes& sizes, bool smoke,
                    std::vector<benchutil::BenchJsonEntry>* entries) {
  constexpr int kSegments = 4;
  constexpr int kWorkers = 4;
  constexpr double kTheta = 1.2;

  Database db(kSegments);
  MPPDB_CHECK(db.CreateTable("skewed",
                             Schema({{"id", TypeId::kInt64}, {"v", TypeId::kInt64}}),
                             TableDistribution::kHashed, {0})
                  .ok());
  // Zipf weights over segments; a row lands on segment s with probability
  // (1/(s+1)^theta) / H.
  std::vector<double> cumulative(kSegments);
  double total = 0;
  for (int s = 0; s < kSegments; ++s) {
    total += 1.0 / std::pow(static_cast<double>(s + 1), kTheta);
    cumulative[static_cast<size_t>(s)] = total;
  }
  std::mt19937_64 rng(20260809);
  std::uniform_real_distribution<double> uniform(0.0, total);
  std::vector<Row> rows;
  rows.reserve(static_cast<size_t>(sizes.zipf_rows));
  std::vector<int64_t> per_segment(kSegments, 0);
  int64_t next_id = 0;
  for (int64_t i = 0; i < sizes.zipf_rows; ++i) {
    const double draw = uniform(rng);
    int target = 0;
    while (cumulative[static_cast<size_t>(target)] < draw) ++target;
    // Find the next id that the storage engine routes to the target segment
    // (expected kSegments candidates per row).
    Row row = {Datum::Int64(next_id), Datum::Int64(i % 997)};
    while (static_cast<int>(HashRowColumns(row, {0}) %
                            static_cast<uint64_t>(kSegments)) != target) {
      row[0] = Datum::Int64(++next_id);
    }
    ++next_id;
    ++per_segment[static_cast<size_t>(target)];
    rows.push_back(std::move(row));
  }
  MPPDB_CHECK(db.Load("skewed", rows).ok());
  std::printf("\nZipfian segment skew (theta=%.1f, %d segments): ", kTheta,
              kSegments);
  for (int s = 0; s < kSegments; ++s) {
    std::printf("%s%lld", s == 0 ? "rows " : " / ",
                static_cast<long long>(per_segment[static_cast<size_t>(s)]));
  }
  std::printf("\n");

  Result<PhysPtr> plan =
      db.PlanSql("SELECT count(*), sum(v), min(v), max(v) FROM skewed");
  MPPDB_CHECK(plan.ok());

  Executor one_worker(&db.catalog(), &db.storage());
  Result<std::vector<Row>> oracle = one_worker.Execute(*plan);
  MPPDB_CHECK(oracle.ok());

  std::printf("%-12s %10s %12s %12s %12s %10s\n", "mode", "time (ms)",
              "busy mean", "busy max", "busy min", "max/mean");
  benchutil::Rule(74);
  for (const bool morsels : {false, true}) {
    MorselScheduler scheduler(kWorkers);
    Executor parallel(&db.catalog(), &db.storage(),
                      Executor::Options{.workers = 0,
                                        .morsel_rows = morsels ? 0 : SIZE_MAX});
    parallel.SetScheduler(&scheduler);
    Result<std::vector<Row>> check = parallel.Execute(*plan);
    MPPDB_CHECK(check.ok());
    MPPDB_CHECK(*check == *oracle);
    MPPDB_CHECK(parallel.stats() == one_worker.stats());

    benchutil::TimingStats t =
        benchutil::MeasureMillis(/*warmup=*/1, sizes.iterations, [&]() {
          MPPDB_CHECK(parallel.Execute(*plan).ok());
        });
    // Busy-time balance over one representative run (reset, run once, read).
    scheduler.ResetBusyTime();
    MPPDB_CHECK(parallel.Execute(*plan).ok());
    std::vector<uint64_t> busy = scheduler.BusyNanos();
    double mean = 0, busy_max = 0, busy_min = 1e300;
    for (uint64_t ns : busy) {
      const double ms = static_cast<double>(ns) / 1e6;
      mean += ms;
      busy_max = busy_max > ms ? busy_max : ms;
      busy_min = busy_min < ms ? busy_min : ms;
    }
    mean /= static_cast<double>(busy.size());
    const double balance = mean > 0 ? busy_max / mean : 0;
    const char* label = morsels ? "morsel-on" : "morsel-off";
    std::printf("%-12s %10.2f %12.3f %12.3f %12.3f %9.2fx\n", label, t.median_ms,
                mean, busy_max, busy_min, balance);
    entries->push_back({std::string("zipf-") + label,
                        {{"workers", static_cast<double>(kWorkers)},
                         {"segments", static_cast<double>(kSegments)},
                         {"time_ms", t.median_ms},
                         {"busy_mean_ms", mean},
                         {"busy_max_ms", busy_max},
                         {"busy_min_ms", busy_min},
                         {"busy_max_over_mean", balance}}});
  }

  // Smoke-gate correctness leg: fine-grained morsels (minimum granularity,
  // maximum steal traffic) must also be bit-identical on the skewed table.
  if (smoke) {
    Executor fine(&db.catalog(), &db.storage(),
                  Executor::Options{.workers = kWorkers,
                                    .morsel_rows = 1024});
    Result<std::vector<Row>> check = fine.Execute(*plan);
    MPPDB_CHECK(check.ok());
    MPPDB_CHECK(*check == *oracle);
    MPPDB_CHECK(fine.stats() == one_worker.stats());
    std::printf("smoke: fine-grained morsel run identical to the 1-worker run\n");
  }
}

int RunBenchmark(bool smoke) {
  benchutil::Header(
      "Parallel execution: 1 worker vs morsel-off vs morsel-on (work stealing)");
  BenchSizes sizes = smoke ? SmokeSizes() : BenchSizes{};

  unsigned cores = std::thread::hardware_concurrency();
  std::printf("hardware_concurrency: %u\n", cores);

  std::vector<benchutil::BenchJsonEntry> entries;
  entries.push_back({"env",
                     {{"hardware_concurrency", static_cast<double>(cores)},
                      {"smoke", smoke ? 1.0 : 0.0}}});
  RunSpeedupSection(sizes, &entries);
  RunSkewSection(sizes, smoke, &entries);
  benchutil::WriteBenchJson("BENCH_parallel.json", "parallel_speedup", entries);
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

// Zone-map data skipping: wall-clock for filters over a range-partitioned
// fact table whose rows are loaded in ascending filter-column order (so the
// per-chunk min/max synopses are tight), swept across selectivities, with
// skipping on vs off. Identical-result checks ride along with every
// measurement — skipping may only change the skip counters of ExecStats,
// never rows or the logical scan/motion counters, and a pool run must
// make exactly the 1-worker run's skips — and chunks_skipped proves the skips
// actually happened. An unclustered control column (chunk ranges span the whole
// domain, so nothing can be skipped) bounds the overhead of consulting
// synopses when they cannot help.
//
// Emits BENCH_skipping.json with per-selectivity timings, speedups, and
// chunk-survival fractions. `--smoke` shrinks the data and iteration counts
// for the ctest gate (release_skipping_smoke), which asserts correctness,
// not speed.

#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/random.h"
#include "db/database.h"
#include "exec/plan.h"
#include "expr/expr.h"

namespace mppdb {
namespace {

struct BenchSizes {
  size_t fact_rows = 400000;
  int segments = 4;
  int partitions = 8;
  int iterations = 5;
};

// Smoke keeps several chunks per (leaf, segment) slice — with too few rows
// per slice every slice is a single chunk whose [min, max] brackets any
// threshold, and nothing is skippable.
BenchSizes SmokeSizes() {
  BenchSizes sizes;
  sizes.fact_rows = 40000;
  sizes.segments = 2;
  sizes.partitions = 4;
  sizes.iterations = 2;
  return sizes;
}

/// Measures `plan` with data skipping off and on, checks that skipping
/// changes nothing but the skip counters (and that a parallel run skips
/// exactly the same chunks), and appends a JSON entry named `name`.
/// `expect_skips` asserts that the zone maps actually pruned chunks (or, for
/// the control, that they provably could not).
void CompareSkipModes(const std::string& name, Database* db, const PhysPtr& plan,
                      int iterations, bool expect_skips,
                      std::vector<benchutil::BenchJsonEntry>* entries) {
  Executor off(&db->catalog(), &db->storage(),
               Executor::Options{.data_skipping = false});
  Executor on(&db->catalog(), &db->storage());
  Executor parallel_on(&db->catalog(), &db->storage(),
                       Executor::Options{.workers = 0});

  Result<std::vector<Row>> baseline = off.Execute(plan);
  MPPDB_CHECK(baseline.ok());
  const ExecStats baseline_stats = off.stats();
  for (Executor* exec : {&on, &parallel_on}) {
    Result<std::vector<Row>> result = exec->Execute(plan);
    MPPDB_CHECK(result.ok());
    MPPDB_CHECK(*result == *baseline);
    ExecStats stats = exec->stats();
    stats.chunks_total = 0;
    stats.chunks_skipped = 0;
    stats.units_skipped = 0;
    MPPDB_CHECK(stats == baseline_stats);
  }
  // 1 worker and a pool must agree on the skips themselves, too.
  MPPDB_CHECK(on.stats() == parallel_on.stats());
  const ExecStats skip_stats = on.stats();
  MPPDB_CHECK(skip_stats.chunks_total > 0);
  if (expect_skips) {
    MPPDB_CHECK(skip_stats.chunks_skipped > 0);
  } else {
    MPPDB_CHECK(skip_stats.chunks_skipped == 0);
  }

  benchutil::TimingStats off_t = benchutil::MeasureMillis(
      /*warmup=*/1, iterations, [&]() { MPPDB_CHECK(off.Execute(plan).ok()); });
  benchutil::TimingStats on_t = benchutil::MeasureMillis(
      /*warmup=*/1, iterations, [&]() { MPPDB_CHECK(on.Execute(plan).ok()); });

  double survival =
      static_cast<double>(skip_stats.chunks_total - skip_stats.chunks_skipped) /
      static_cast<double>(skip_stats.chunks_total);
  double speedup = off_t.median_ms / on_t.median_ms;
  std::printf("%-16s %8zu %6zu/%-6zu %6.1f%% %8.2f %8.2f %6.2fx\n", name.c_str(),
              baseline->size(), skip_stats.chunks_total - skip_stats.chunks_skipped,
              skip_stats.chunks_total, survival * 100, off_t.median_ms,
              on_t.median_ms, speedup);
  entries->push_back(
      {name,
       {{"rows_out", static_cast<double>(baseline->size())},
        {"chunks_total", static_cast<double>(skip_stats.chunks_total)},
        {"chunks_skipped", static_cast<double>(skip_stats.chunks_skipped)},
        {"units_skipped", static_cast<double>(skip_stats.units_skipped)},
        {"chunk_survival", survival},
        {"off_ms", off_t.median_ms},
        {"on_ms", on_t.median_ms},
        {"speedup", speedup}}});
}

void PrintColumns() {
  std::printf("%-16s %8s %13s %7s %8s %8s %7s\n", "workload", "out", "chunks",
              "surv", "off-ms", "on-ms", "spd");
  benchutil::Rule(75);
}

int RunBenchmark(bool smoke) {
  const BenchSizes sizes = smoke ? SmokeSizes() : BenchSizes{};
  std::vector<benchutil::BenchJsonEntry> entries;
  entries.push_back({"env", {{"smoke", smoke ? 1.0 : 0.0},
                             {"fact_rows", static_cast<double>(sizes.fact_rows)}}});

  benchutil::Header("Zone-map data skipping, selectivity sweep");
  // fact(k, b, u): partitioned on b into 8 ranges, hashed on k; k ascending
  // at load time so every slice is clustered on k, u uniform so chunk [min,
  // max] on u always spans the domain (the unskippable control).
  Database db(sizes.segments);
  MPPDB_CHECK(db.CreatePartitionedTable(
                     "fact", Schema({{"k", TypeId::kInt64},
                                     {"b", TypeId::kInt64},
                                     {"u", TypeId::kInt64}}),
                     TableDistribution::kHashed, {0},
                     {{1, PartitionMethod::kRange}},
                     {partition_bounds::IntRanges(0, 10, sizes.partitions)})
                  .ok());
  Random rng(2024);
  const int64_t b_domain = static_cast<int64_t>(sizes.partitions) * 10;
  std::vector<Row> rows;
  rows.reserve(sizes.fact_rows);
  for (size_t i = 0; i < sizes.fact_rows; ++i) {
    rows.push_back({Datum::Int64(static_cast<int64_t>(i)),
                    Datum::Int64(static_cast<int64_t>(i) % b_domain),
                    Datum::Int64(rng.UniformRange(0, 999))});
  }
  MPPDB_CHECK(db.Load("fact", rows).ok());
  const TableDescriptor* fact = db.catalog().FindTable("fact");

  auto filter_plan = [&](ColRefId column, const char* col_name,
                         int64_t threshold) {
    std::vector<PhysPtr> scans;
    for (Oid leaf : fact->partition_scheme->AllLeafOids()) {
      scans.push_back(std::make_shared<TableScanNode>(
          fact->oid, leaf, std::vector<ColRefId>{1, 2, 3}));
    }
    auto append = std::make_shared<AppendNode>(scans);
    ExprPtr pred =
        MakeComparison(CompareOp::kLt, MakeColumnRef(column, col_name, TypeId::kInt64),
                       MakeConst(Datum::Int64(threshold)));
    auto filter = std::make_shared<FilterNode>(pred, append);
    return std::make_shared<MotionNode>(MotionKind::kGather,
                                        std::vector<ColRefId>{}, filter);
  };

  PrintColumns();
  // Clustered column: tight chunk ranges, skipping scales with selectivity.
  for (double selectivity : {0.001, 0.01, 0.1, 0.5}) {
    int64_t threshold =
        static_cast<int64_t>(static_cast<double>(sizes.fact_rows) * selectivity);
    char name[32];
    std::snprintf(name, sizeof(name), "clustered_%.3f", selectivity);
    CompareSkipModes(name, &db, filter_plan(1, "k", threshold), sizes.iterations,
                     /*expect_skips=*/true, &entries);
  }
  // Unclustered control: every chunk's [min, max] on u spans the predicate,
  // so zero chunks are skippable and on/off should cost about the same.
  CompareSkipModes("unclustered_ctl", &db, filter_plan(3, "u", 100),
                   sizes.iterations, /*expect_skips=*/false, &entries);

  if (!smoke) {
    benchutil::WriteBenchJson("BENCH_skipping.json", "data_skipping", entries);
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

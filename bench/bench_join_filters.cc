// Runtime join filters: selective fact-dimension hash join where neither
// side is stored on the join key, so both sides redistribute — the build
// Motion publishes the cross-segment bloom + min/max summary and the fact
// scan consumes it *below* the probe-side Redistribute, rejecting
// non-joining rows before they are exchanged. Swept across probe-survival
// fractions with filters on vs off. The fact table is loaded in ascending
// key order, so the build-side min/max composes with the chunk zone maps and
// skips whole chunks; the bloom kernel handles the survivors.
//
// Identical-result checks ride along with every measurement: filters may
// only change the joinfilter_* counters of ExecStats, never rows or any
// pre-existing counter (rows_moved stays logical; the physical exchange
// savings are reported in joinfilter_motion_rows_saved), and a parallel run
// must reach exactly the 1-worker run's filter verdicts.
//
// Emits BENCH_joinfilter.json with per-selectivity timings, speedups, and
// the rows-exchanged-over-Motion reduction. `--smoke` shrinks the data and
// iteration counts for the ctest gate (release_joinfilter_smoke), which
// asserts correctness and that the filters actually fired, not speed.

#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/random.h"
#include "db/database.h"
#include "exec/plan.h"

namespace mppdb {
namespace {

struct BenchSizes {
  size_t fact_rows = 400000;
  int segments = 4;
  int iterations = 5;
};

// Smoke keeps several chunks per segment slice so the min/max skip path is
// still exercised (a single-chunk slice always brackets the dim range).
BenchSizes SmokeSizes() {
  BenchSizes sizes;
  sizes.fact_rows = 24000;
  sizes.segments = 2;
  sizes.iterations = 2;
  return sizes;
}

void ZeroJoinFilterCounters(ExecStats* stats) {
  stats->joinfilter_built = 0;
  stats->joinfilter_probed = 0;
  stats->joinfilter_rows_rejected = 0;
  stats->joinfilter_chunks_skipped = 0;
  stats->joinfilter_motion_rows_saved = 0;
  stats->joinfilter_probes_stopped = 0;
}

/// fact scan (probe annotation, below_motion) -> Redistribute(sk) joined
/// with dim scan -> Redistribute(k) carrying the publish annotation, under a
/// Gather. The same plan runs with Executor::Options::join_filters on and
/// off, so the shapes (and every annotation) are byte-identical across the
/// comparison.
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
  build_motion =
      WithJoinFilters(build_motion, build_motion->children(), publish_ann);

  PhysPtr fact_scan = std::make_shared<TableScanNode>(
      fact->oid, fact->oid, std::vector<ColRefId>{1, 2});
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
  return std::make_shared<MotionNode>(MotionKind::kGather,
                                      std::vector<ColRefId>{}, join);
}

/// Measures `plan` with join filters off and on, checks the transparency
/// invariant (identical rows; identical ExecStats once the joinfilter_*
/// counters are masked; identical verdicts 1 worker vs pool), and appends
/// a JSON entry named `name`. `expect_filtering` asserts the filters
/// actually rejected rows below the Motion.
void CompareFilterModes(const std::string& name, Database* db,
                        const PhysPtr& plan, int iterations,
                        bool expect_filtering,
                        std::vector<benchutil::BenchJsonEntry>* entries) {
  Executor off(&db->catalog(), &db->storage(),
               Executor::Options{.join_filters = false});
  Executor on(&db->catalog(), &db->storage());
  Executor parallel_on(&db->catalog(), &db->storage(),
                       Executor::Options{.workers = 0});

  Result<std::vector<Row>> baseline = off.Execute(plan);
  MPPDB_CHECK(baseline.ok());
  const ExecStats baseline_stats = off.stats();
  MPPDB_CHECK(baseline_stats.joinfilter_built == 0);
  for (Executor* exec : {&on, &parallel_on}) {
    Result<std::vector<Row>> result = exec->Execute(plan);
    MPPDB_CHECK(result.ok());
    MPPDB_CHECK(*result == *baseline);
    ExecStats stats = exec->stats();
    ZeroJoinFilterCounters(&stats);
    MPPDB_CHECK(stats == baseline_stats);
  }
  // 1 worker and a pool must agree on every filter verdict, too.
  MPPDB_CHECK(on.stats() == parallel_on.stats());
  const ExecStats filter_stats = on.stats();
  MPPDB_CHECK(filter_stats.joinfilter_built == 1);
  if (expect_filtering) {
    MPPDB_CHECK(filter_stats.joinfilter_rows_rejected +
                    filter_stats.joinfilter_chunks_skipped >
                0);
    MPPDB_CHECK(filter_stats.joinfilter_motion_rows_saved > 0);
  }

  benchutil::TimingStats off_t = benchutil::MeasureMillis(
      /*warmup=*/1, iterations, [&]() { MPPDB_CHECK(off.Execute(plan).ok()); });
  benchutil::TimingStats on_t = benchutil::MeasureMillis(
      /*warmup=*/1, iterations, [&]() { MPPDB_CHECK(on.Execute(plan).ok()); });

  const double speedup = off_t.median_ms / on_t.median_ms;
  const double moved = static_cast<double>(filter_stats.rows_moved);
  const double saved =
      static_cast<double>(filter_stats.joinfilter_motion_rows_saved);
  std::printf("%-12s %8zu %9zu %9zu %9zu %8.0f %8.2f %8.2f %6.2fx\n",
              name.c_str(), baseline->size(), filter_stats.joinfilter_rows_rejected,
              filter_stats.joinfilter_chunks_skipped,
              filter_stats.joinfilter_motion_rows_saved, moved - saved,
              off_t.median_ms, on_t.median_ms, speedup);
  entries->push_back(
      {name,
       {{"rows_out", static_cast<double>(baseline->size())},
        {"jf_probed", static_cast<double>(filter_stats.joinfilter_probed)},
        {"jf_rows_rejected",
         static_cast<double>(filter_stats.joinfilter_rows_rejected)},
        {"jf_chunks_skipped",
         static_cast<double>(filter_stats.joinfilter_chunks_skipped)},
        {"motion_rows_saved", saved},
        {"rows_moved_logical", moved},
        {"rows_exchanged_with_filters", moved - saved},
        {"off_ms", off_t.median_ms},
        {"on_ms", on_t.median_ms},
        {"speedup", speedup}}});
}

void PrintColumns() {
  std::printf("%-12s %8s %9s %9s %9s %8s %8s %8s %7s\n", "survival", "out",
              "rejected", "chk-skip", "mot-save", "exchngd", "off-ms", "on-ms",
              "spd");
  benchutil::Rule(85);
}

int RunBenchmark(bool smoke) {
  const BenchSizes sizes = smoke ? SmokeSizes() : BenchSizes{};
  std::vector<benchutil::BenchJsonEntry> entries;
  entries.push_back({"env", {{"smoke", smoke ? 1.0 : 0.0},
                             {"fact_rows", static_cast<double>(sizes.fact_rows)},
                             {"segments", static_cast<double>(sizes.segments)}}});

  benchutil::Header("Runtime join filters, probe-survival sweep");
  // fact(sk, v): sk ascending at load time (clustered, so build min/max can
  // skip chunks), hashed on v so the join must redistribute the probe side
  // on sk. dim_P(k, t) holds keys [0, P% of fact rows), hashed on t so the
  // build side redistributes too and the summary must be the cross-segment
  // merge published at the build Motion.
  Database db(sizes.segments);
  MPPDB_CHECK(db.CreateTable("fact",
                             Schema({{"sk", TypeId::kInt64},
                                     {"v", TypeId::kInt64}}),
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

  PrintColumns();
  for (int survival_pct : {1, 5, 10, 25, 50, 100}) {
    const int64_t dim_rows = static_cast<int64_t>(
        static_cast<double>(sizes.fact_rows) * survival_pct / 100.0);
    char dim_name[32];
    std::snprintf(dim_name, sizeof(dim_name), "dim_%d", survival_pct);
    MPPDB_CHECK(db.CreateTable(dim_name,
                               Schema({{"k", TypeId::kInt64},
                                       {"t", TypeId::kInt64}}),
                               TableDistribution::kHashed, {1})
                    .ok());
    std::vector<Row> dim_data;
    dim_data.reserve(static_cast<size_t>(dim_rows));
    for (int64_t k = 0; k < dim_rows; ++k) {
      dim_data.push_back({Datum::Int64(k), Datum::Int64(k * 3)});
    }
    MPPDB_CHECK(db.Load(dim_name, dim_data).ok());

    char name[32];
    std::snprintf(name, sizeof(name), "survival_%d%%", survival_pct);
    PhysPtr plan =
        FilteredJoinPlan(&db, dim_name, static_cast<double>(dim_rows));
    CompareFilterModes(name, &db, plan, sizes.iterations,
                       /*expect_filtering=*/survival_pct < 100, &entries);
  }

  if (!smoke) {
    benchutil::WriteBenchJson("BENCH_joinfilter.json", "join_filters", entries);
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

// Columnar storage formats: scan wall-clock and bytes-scanned for selective
// filters over a partitioned fact table stored row-oriented vs
// column-oriented with encoded-data predicate evaluation; per-column
// compression ratios of the encoded images. The headline workloads filter
// unclustered dictionary/RLE columns, where zone maps provably cannot skip —
// any win is the encoded fast path's.
// Identical-result checks ride along with every measurement: the encoded path
// may only change its own ExecStats counters, never rows or logical stats,
// 1 worker or a pool.
//
// Emits BENCH_storage.json. `--smoke` shrinks the data for the ctest gate
// (release_storage_smoke), which asserts correctness plus the >= 2x headline
// speedup of encoded evaluation over the row baseline on the dictionary
// workload.

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
  size_t fact_rows = 800000;
  int segments = 4;
  int partitions = 8;
  int iterations = 7;
};

BenchSizes SmokeSizes() {
  BenchSizes sizes;
  sizes.fact_rows = 80000;
  sizes.segments = 2;
  sizes.partitions = 4;
  sizes.iterations = 3;
  return sizes;
}

void ZeroEncodedCounters(ExecStats* stats) {
  stats->chunks_encoded_eval = 0;
  stats->rows_late_materialized = 0;
  stats->encoded_bytes_scanned = 0;
  stats->colstore_rebuilds_shed = 0;
}

/// Measures `plan` on the row-store and column-store databases (identical
/// contents), checks bit-identical rows and (modulo the encoded counters)
/// bit-identical stats — also for a parallel run over the column store —
/// and appends a JSON entry. Returns the speedup of encoded evaluation.
double CompareStorageModes(const std::string& name, Database* db_row,
                           Database* db_col, const PhysPtr& plan, int iterations,
                           std::vector<benchutil::BenchJsonEntry>* entries) {
  Executor base(&db_row->catalog(), &db_row->storage());
  Executor enc(&db_col->catalog(), &db_col->storage());
  Executor parallel_enc(&db_col->catalog(), &db_col->storage(),
                        Executor::Options{.workers = 0});

  Result<std::vector<Row>> baseline = base.Execute(plan);
  MPPDB_CHECK(baseline.ok());
  const ExecStats baseline_stats = base.stats();
  for (Executor* exec : {&enc, &parallel_enc}) {
    Result<std::vector<Row>> result = exec->Execute(plan);
    MPPDB_CHECK(result.ok());
    MPPDB_CHECK(*result == *baseline);
    ExecStats stats = exec->stats();
    ZeroEncodedCounters(&stats);
    MPPDB_CHECK(stats == baseline_stats);
  }
  // The encoded fast path must actually engage on both columnar legs.
  const ExecStats enc_stats = enc.stats();
  MPPDB_CHECK(enc_stats.chunks_encoded_eval > 0);
  MPPDB_CHECK(parallel_enc.stats().chunks_encoded_eval > 0);

  benchutil::TimingStats base_t = benchutil::MeasureMillis(
      /*warmup=*/1, iterations, [&]() { MPPDB_CHECK(base.Execute(plan).ok()); });
  benchutil::TimingStats enc_t = benchutil::MeasureMillis(
      /*warmup=*/1, iterations, [&]() { MPPDB_CHECK(enc.Execute(plan).ok()); });

  const double speedup = base_t.median_ms / enc_t.median_ms;
  std::printf("%-16s %8zu %8zu %10zu %8.2f %8.2f %6.2fx\n", name.c_str(),
              baseline->size(), static_cast<size_t>(enc_stats.chunks_encoded_eval),
              static_cast<size_t>(enc_stats.encoded_bytes_scanned),
              base_t.median_ms, enc_t.median_ms, speedup);
  entries->push_back(
      {name,
       {{"rows_out", static_cast<double>(baseline->size())},
        {"tuples_scanned", static_cast<double>(enc_stats.tuples_scanned)},
        {"chunks_encoded_eval", static_cast<double>(enc_stats.chunks_encoded_eval)},
        {"rows_late_materialized",
         static_cast<double>(enc_stats.rows_late_materialized)},
        {"encoded_bytes_scanned",
         static_cast<double>(enc_stats.encoded_bytes_scanned)},
        {"row_store_ms", base_t.median_ms},
        {"column_encoded_ms", enc_t.median_ms},
        {"speedup", speedup}}});
  return speedup;
}

int RunBenchmark(bool smoke) {
  const BenchSizes sizes = smoke ? SmokeSizes() : BenchSizes{};
  std::vector<benchutil::BenchJsonEntry> entries;
  entries.push_back({"env", {{"smoke", smoke ? 1.0 : 0.0},
                             {"fact_rows", static_cast<double>(sizes.fact_rows)}}});

  benchutil::Header("Columnar storage formats: row vs column vs encoded eval");
  // fact(k, b, tag, qty, price): partitioned on b, hashed on k. tag cycles
  // through 64 strings (dictionary territory, unclustered so zone maps are
  // useless), qty arrives in runs of 64 (RLE territory), k is ascending
  // (bit-packing + clustering), price is high-NDV (plain).
  Schema schema({{"k", TypeId::kInt64},
                 {"b", TypeId::kInt64},
                 {"tag", TypeId::kString},
                 {"qty", TypeId::kInt64},
                 {"price", TypeId::kDouble}});
  const int64_t b_domain = static_cast<int64_t>(sizes.partitions) * 10;
  Random rng(7070);
  std::vector<Row> rows;
  rows.reserve(sizes.fact_rows);
  for (size_t i = 0; i < sizes.fact_rows; ++i) {
    char tag[16];
    std::snprintf(tag, sizeof(tag), "tag_%02zu", i % 64);
    rows.push_back({Datum::Int64(static_cast<int64_t>(i)),
                    Datum::Int64(static_cast<int64_t>(i) % b_domain),
                    Datum::String(tag),
                    Datum::Int64(static_cast<int64_t>(i / 64) % 10),
                    Datum::Double(rng.NextDouble() * 1000)});
  }
  Database db_row(sizes.segments);
  Database db_col(sizes.segments);
  for (Database* db : {&db_row, &db_col}) {
    MPPDB_CHECK(db->CreatePartitionedTable(
                       "fact", schema, TableDistribution::kHashed, {0},
                       {{1, PartitionMethod::kRange}},
                       {partition_bounds::IntRanges(0, 10, sizes.partitions)})
                    .ok());
    MPPDB_CHECK(db->Load("fact", rows).ok());
  }
  MPPDB_CHECK(
      db_col.Run("ALTER TABLE fact SET WITH (orientation = column)").ok());
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
        for (size_t c = 0; c < cols->columns.size(); ++c) {
          for (const EncodedColumnChunk& chunk : cols->columns[c]) {
            col_plain[c] += chunk.plain_bytes;
            col_encoded[c] += chunk.encoded_bytes;
          }
        }
      }
    }
    std::printf("compression: table %.2fx", static_cast<double>(total_plain) /
                                                static_cast<double>(total_encoded));
    std::vector<std::pair<std::string, double>> metrics;
    metrics.push_back({"table_ratio", static_cast<double>(total_plain) /
                                          static_cast<double>(total_encoded)});
    for (size_t c = 0; c < schema.size(); ++c) {
      const double ratio = static_cast<double>(col_plain[c]) /
                           static_cast<double>(col_encoded[c]);
      std::printf("  %s %.2fx", schema.column(c).name.c_str(), ratio);
      metrics.push_back({schema.column(c).name + "_ratio", ratio});
    }
    std::printf("\n\n");
    MPPDB_CHECK(total_encoded < total_plain);
    entries.push_back({"compression", metrics});
  }

  auto filter_plan = [&](ExprPtr pred) {
    std::vector<PhysPtr> scans;
    for (Oid leaf : fact->partition_scheme->AllLeafOids()) {
      scans.push_back(std::make_shared<TableScanNode>(
          fact->oid, leaf, std::vector<ColRefId>{1, 2, 3, 4, 5}));
    }
    auto append = std::make_shared<AppendNode>(scans);
    auto filter = std::make_shared<FilterNode>(pred, append);
    return std::make_shared<MotionNode>(MotionKind::kGather,
                                        std::vector<ColRefId>{}, filter);
  };
  auto tag_col = [] { return MakeColumnRef(3, "tag", TypeId::kString); };
  auto qty_col = [] { return MakeColumnRef(4, "qty", TypeId::kInt64); };
  auto k_col = [] { return MakeColumnRef(1, "k", TypeId::kInt64); };

  std::printf("%-16s %8s %8s %10s %8s %8s %7s\n", "workload", "out", "enc-chk",
              "enc-bytes", "row-ms", "enc-ms", "spd");
  benchutil::Rule(72);

  // Headline: selective equality on the unclustered dictionary column.
  const double dict_speedup = CompareStorageModes(
      "dict_selective", &db_row, &db_col,
      filter_plan(MakeComparison(CompareOp::kEq, tag_col(),
                                 MakeConst(Datum::String("tag_07")))),
      sizes.iterations, &entries);
  // IN list over the dictionary column.
  CompareStorageModes(
      "dict_in_list", &db_row, &db_col,
      filter_plan(MakeInList({tag_col(), MakeConst(Datum::String("tag_03")),
                              MakeConst(Datum::String("tag_33")),
                              MakeConst(Datum::String("tag_55"))})),
      sizes.iterations, &entries);
  // Selective equality on the run-length column (run skipping).
  CompareStorageModes(
      "rle_selective", &db_row, &db_col,
      filter_plan(MakeComparison(CompareOp::kEq, qty_col(),
                                 MakeConst(Datum::Int64(3)))),
      sizes.iterations, &entries);
  // Range on the bit-packed clustered column (zone maps help both sides;
  // frame-of-reference compares on top).
  CompareStorageModes(
      "bitpack_range", &db_row, &db_col,
      filter_plan(MakeComparison(
          CompareOp::kLt, k_col(),
          MakeConst(Datum::Int64(static_cast<int64_t>(sizes.fact_rows / 10))))),
      sizes.iterations, &entries);
  // Conjunction with an arithmetic residual: encoded prefix + late-
  // materialized residual evaluation.
  CompareStorageModes(
      "dict_residual", &db_row, &db_col,
      filter_plan(Conj(
          {MakeComparison(CompareOp::kEq, tag_col(),
                          MakeConst(Datum::String("tag_12"))),
           MakeComparison(CompareOp::kLt,
                          MakeArith(ArithOp::kMul,
                                    MakeColumnRef(5, "price", TypeId::kDouble),
                                    MakeConst(Datum::Double(2.0))),
                          MakeConst(Datum::Double(900.0)))})),
      sizes.iterations, &entries);

  if (smoke) {
    // The gate's acceptance bar: the selective dictionary scan must be at
    // least 2x faster than the row-store baseline.
    std::printf("\nsmoke: dict_selective speedup %.2fx (need >= 2)\n",
                dict_speedup);
    MPPDB_CHECK(dict_speedup >= 2.0);
  } else {
    benchutil::WriteBenchJson("BENCH_storage.json", "storage_formats", entries);
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

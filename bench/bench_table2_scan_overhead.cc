// Reproduces the paper's Table 2: overhead of partitioning on a full table
// scan (SELECT * FROM lineitem), for the four partitioning granularities of
// a 7-year lineitem table versus the unpartitioned baseline.
//
// Paper result: overhead of 1-3% regardless of partition count — the
// DynamicScan/PartitionSelector model does not penalize full scans.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "db/database.h"
#include "workload/tpch_lite.h"

namespace mppdb {
namespace {

using workload::CreateAndLoadLineitem;
using workload::LineitemPartitionCount;
using workload::LineitemPartitioning;
using workload::LineitemPartitioningName;
using workload::TpchConfig;

void RunBenchmark() {
  benchutil::Header("Table 2: Overhead of partitioning (full scan of lineitem)");

  TpchConfig config;
  config.rows = 120000;
  Database db(4);

  struct Variant {
    LineitemPartitioning partitioning;
    std::string table;
  };
  std::vector<Variant> variants = {
      {LineitemPartitioning::kNone, "lineitem_flat"},
      {LineitemPartitioning::kBiMonthly42, "lineitem_42"},
      {LineitemPartitioning::kMonthly84, "lineitem_84"},
      {LineitemPartitioning::kBiWeekly169, "lineitem_169"},
      {LineitemPartitioning::kWeekly361, "lineitem_361"},
  };
  for (const Variant& variant : variants) {
    Status st = CreateAndLoadLineitem(&db, config, variant.partitioning, variant.table);
    MPPDB_CHECK(st.ok());
  }

  // The variants are timed round-robin, one query each per round (rotating
  // which goes first), so machine drift during the run lands on every
  // variant alike instead of on whichever was timed last. Overhead is the
  // median over rounds of that round's time against the flat scan's.
  const int kRounds = 21;
  std::vector<std::string> sqls;
  for (const Variant& variant : variants) {
    sqls.push_back("SELECT * FROM " + variant.table);
  }
  auto run_ms = [&](const std::string& sql) {
    auto start = std::chrono::steady_clock::now();
    auto result = db.Run(sql);
    auto end = std::chrono::steady_clock::now();
    MPPDB_CHECK(result.ok());
    MPPDB_CHECK(result->rows.size() == config.rows);
    return std::chrono::duration<double, std::milli>(end - start).count();
  };
  for (const std::string& sql : sqls) run_ms(sql);  // warm-up
  std::vector<std::vector<double>> times(variants.size());
  for (int round = 0; round < kRounds; ++round) {
    for (size_t k = 0; k < variants.size(); ++k) {
      const size_t v = (static_cast<size_t>(round) + k) % variants.size();
      times[v].push_back(run_ms(sqls[v]));
    }
  }

  std::printf("%8s  %-34s %12s %10s %16s  %s\n", "#parts", "description",
              "median (ms)", "overhead", "[quartiles]", "paper");
  benchutil::Rule(96);
  const char* paper_overheads[] = {"-", "3%", "3%", "1%", "2%"};
  for (size_t v = 0; v < variants.size(); ++v) {
    const int parts = LineitemPartitionCount(variants[v].partitioning);
    const char* name = LineitemPartitioningName(variants[v].partitioning);
    const double ms = benchutil::SummarizeMillis(times[v]).median_ms;
    if (v == 0) {
      std::printf("%8d  %-34s %12.2f %10s %16s  %s\n", parts, name, ms, "-", "",
                  paper_overheads[v]);
      continue;
    }
    std::vector<double> overheads;  // percent, one per round
    for (size_t r = 0; r < times[v].size(); ++r) {
      overheads.push_back((times[v][r] / times[0][r] - 1.0) * 100.0);
    }
    std::sort(overheads.begin(), overheads.end());
    char quartiles[32];
    std::snprintf(quartiles, sizeof(quartiles), "[%.0f%%..%.0f%%]",
                  benchutil::PercentileSorted(overheads, 0.25),
                  benchutil::PercentileSorted(overheads, 0.75));
    std::printf("%8d  %-34s %12.2f %9.1f%% %16s  %s\n", parts, name, ms,
                benchutil::PercentileSorted(overheads, 0.5), quartiles,
                paper_overheads[v]);
  }
  std::printf(
      "\nExpectation (paper): full-scan cost is stable (within a few %%) as the\n"
      "number of partitions grows from 42 to 361.\n");
}

}  // namespace
}  // namespace mppdb

int main() {
  mppdb::RunBenchmark();
  return 0;
}

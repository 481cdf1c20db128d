// Reproduces the paper's §4 evidence in one run: Table 2, Table 3 and
// Figs. 16–18. Each dataset is loaded once. The deterministic claims are
// exact checks; the binary prints PASS/FAIL per claim and exits non-zero if
// any fails. Timings (Table 2, Fig. 17) are reported, not checked.
//
//   Table 2   full-scan overhead of 42..361 weekly/monthly parts vs flat
//   Table 3   workload classification by partition-elimination outcome
//   Fig. 16   partitions scanned per fact table, Planner vs Orca
//   Fig. 17   runtime improvement from partition selection, paper-faithful
//             executor (no zone maps, no join filters) and default executor
//   Fig. 18   plan size: static selection (a), join (b), DML (c)
//
// Takes no arguments.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "bench_util.h"
#include "db/database.h"
#include "types/date.h"
#include "workload/tpcds_lite.h"
#include "workload/tpch_lite.h"

namespace mppdb {
namespace {

int failures = 0;

void Check(bool ok, const std::string& claim) {
  std::printf("  [%s] %s\n", ok ? "PASS" : "FAIL", claim.c_str());
  if (!ok) ++failures;
}

double MillisSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() -
                                                   start)
      .count();
}

// ---------------------------------------------------------------- Table 2

// Overhead of partitioning on a full scan (SELECT * FROM lineitem) for the
// four partitioning granularities vs the unpartitioned baseline. Paper:
// 1-3% regardless of the part count. Report-only.
void Table2() {
  benchutil::Header("Table 2: overhead of partitioning (full scan of lineitem)");
  workload::TpchConfig config;
  config.rows = 120000;
  Database db(4);
  const std::vector<workload::LineitemPartitioning> variants = {
      workload::LineitemPartitioning::kNone,
      workload::LineitemPartitioning::kBiMonthly42,
      workload::LineitemPartitioning::kMonthly84,
      workload::LineitemPartitioning::kBiWeekly169,
      workload::LineitemPartitioning::kWeekly361,
  };
  std::vector<std::string> sqls;
  for (auto partitioning : variants) {
    const std::string table =
        "lineitem_" + std::to_string(workload::LineitemPartitionCount(partitioning));
    MPPDB_CHECK(workload::CreateAndLoadLineitem(&db, config, partitioning, table).ok());
    sqls.push_back("SELECT * FROM " + table);
  }

  // The variants are timed round-robin, one query each per round (rotating
  // which goes first), so machine drift during the run lands on every
  // variant alike instead of on whichever was timed last. Overhead is the
  // median over rounds of that round's time against the flat scan's.
  const int kRounds = 21;
  auto run_ms = [&](const std::string& sql) {
    const auto start = std::chrono::steady_clock::now();
    auto result = db.Run(sql);
    const double ms = MillisSince(start);
    MPPDB_CHECK(result.ok());
    MPPDB_CHECK(result->rows.size() == config.rows);
    return ms;
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
    const int parts = workload::LineitemPartitionCount(variants[v]);
    const char* name = workload::LineitemPartitioningName(variants[v]);
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
}

// ------------------------------------------------------ Table 3 + Fig. 16

// One pass over the 27 TPC-DS-lite queries under both optimizers; both the
// Table 3 buckets and the Fig. 16 per-table counts come from the
// PartitionsScanned counters of that pass.
void Table3AndFig16() {
  benchutil::Header("Table 3 + Figure 16: partition elimination, Orca vs Planner");
  workload::TpcdsConfig config;
  config.base_rows = 2000;
  Database db(4);
  MPPDB_CHECK(workload::CreateAndLoadTpcds(&db, config).ok());
  const std::vector<std::string>& facts = workload::TpcdsFactTables();

  enum Bucket { kOrcaOnly, kOrcaMore, kEqual, kOrcaFewer, kPlannerOnly, kBuckets };
  const char* bucket_names[kBuckets] = {
      "Orca eliminates parts, Planner does not",
      "Orca eliminates more parts than Planner",
      "Orca and Planner eliminate parts equally",
      "Orca eliminates fewer parts than Planner",
      "Orca does not eliminate parts, Planner does",
  };
  const char* paper_shares[kBuckets] = {"11%", "3%", "80%", "3%", "3%"};
  std::vector<int> buckets(kBuckets, 0);
  // "Equal" queries under which neither optimizer eliminates anything.
  std::vector<std::string> equal_none;
  std::map<std::string, size_t> orca_counts, planner_counts;

  const std::vector<workload::WorkloadQuery> queries = workload::TpcdsQueries(config);
  std::printf("%-28s %14s %14s   %s\n", "query", "Orca parts", "Planner parts",
              "bucket");
  benchutil::Rule(78);
  for (const auto& query : queries) {
    auto orca = db.Run(query.sql);
    MPPDB_CHECK(orca.ok());
    QueryOptions legacy;
    legacy.optimizer = OptimizerKind::kLegacyPlanner;
    auto planner = db.Run(query.sql, legacy);
    MPPDB_CHECK(planner.ok());

    // "Eliminates" means scanning fewer than all partitions of the fact
    // tables the query references.
    size_t orca_scanned = 0, planner_scanned = 0, referenced = 0;
    for (const std::string& fact : facts) {
      const TableDescriptor* table = db.catalog().FindTable(fact);
      const size_t o = orca->stats.PartitionsScanned(table->oid);
      const size_t p = planner->stats.PartitionsScanned(table->oid);
      orca_counts[fact] += o;
      planner_counts[fact] += p;
      if (o == 0 && p == 0) continue;
      referenced += table->partition_scheme->NumLeaves();
      orca_scanned += o;
      planner_scanned += p;
    }
    const bool orca_eliminates = orca_scanned < referenced;
    const bool planner_eliminates = planner_scanned < referenced;
    Bucket bucket;
    if (orca_eliminates && !planner_eliminates) {
      bucket = kOrcaOnly;
    } else if (orca_scanned < planner_scanned) {
      bucket = kOrcaMore;
    } else if (orca_scanned == planner_scanned) {
      bucket = kEqual;
    } else if (planner_eliminates && !orca_eliminates) {
      bucket = kPlannerOnly;
    } else {
      bucket = kOrcaFewer;
    }
    ++buckets[bucket];
    if (bucket == kEqual && !orca_eliminates) equal_none.push_back(query.name);
    std::printf("%-28s %14zu %14zu   %s\n", query.name.c_str(), orca_scanned,
                planner_scanned, bucket_names[bucket]);
  }

  const double n = static_cast<double>(queries.size());
  std::printf("\nTable 3 (of %zu queries)\n", queries.size());
  std::printf("%-46s %9s %8s\n", "category", "measured", "paper");
  benchutil::Rule(66);
  for (int b = 0; b < kBuckets; ++b) {
    std::printf("%-46s %3d %4.0f%% %8s\n", bucket_names[b], buckets[b],
                buckets[b] / n * 100, paper_shares[b]);
  }
  std::string names;
  for (const std::string& name : equal_none) names += (names.empty() ? "" : ", ") + name;
  std::printf("(report-only) %zu of the %d \"equal\" queries eliminate nothing under "
              "either optimizer: %s\n",
              equal_none.size(), buckets[kEqual], names.c_str());

  std::printf("\nFigure 16 (paper: Orca <= Planner on every table, up to ~80%% saved)\n");
  std::printf("%-18s %14s %10s %14s\n", "table", "Planner parts", "Orca parts",
              "Orca savings");
  benchutil::Rule(60);
  for (const std::string& fact : facts) {
    const size_t p = planner_counts[fact];
    const size_t o = orca_counts[fact];
    const double savings =
        p == 0 ? 0.0 : (1.0 - static_cast<double>(o) / static_cast<double>(p)) * 100.0;
    std::printf("%-18s %14zu %10zu %13.0f%%\n", fact.c_str(), p, o, savings);
  }

  std::printf("\nChecks\n");
  Check(queries.size() == 27 && buckets == std::vector<int>{4, 1, 22, 0, 0},
        "Table 3 buckets are 4 / 1 / 22 / 0 / 0 of 27 queries");
  const std::map<std::string, std::pair<size_t, size_t>> expected = {
      {"store_sales", {111, 78}},  {"web_sales", {33, 33}},
      {"catalog_sales", {57, 36}}, {"store_returns", {4, 4}},
      {"web_returns", {27, 5}},    {"catalog_returns", {24, 1}},
      {"inventory", {28, 28}},
  };
  bool counts_match = facts.size() == expected.size();
  bool orca_at_most = true;
  for (const std::string& fact : facts) {
    auto it = expected.find(fact);
    counts_match = counts_match && it != expected.end() &&
                   it->second == std::make_pair(planner_counts[fact], orca_counts[fact]);
    orca_at_most = orca_at_most && orca_counts[fact] <= planner_counts[fact];
  }
  Check(counts_match, "Fig. 16 Planner -> Orca parts match the pinned per-table counts");
  Check(orca_at_most, "Fig. 16 Orca scans at most as many parts as Planner on every table");
}

// ---------------------------------------------------------------- Fig. 17

// One way to run a query: an executor configuration and whether partition
// selection is on.
struct Leg {
  const Executor::Options* exec;
  bool selection;
};

struct LegRun {
  double ms;
  size_t rows;
  ExecStats stats;
};

// Plans and executes `sql` on `db`'s data under the leg's executor options,
// timing the whole statement (planning included).
LegRun RunLeg(Database* db, const Leg& leg, const std::string& sql) {
  QueryOptions options;
  options.enable_partition_selection = leg.selection;
  const auto start = std::chrono::steady_clock::now();
  auto plan = db->PlanSql(sql, options);
  MPPDB_CHECK(plan.ok());
  Executor executor(&db->catalog(), &db->storage(), *leg.exec);
  auto rows = executor.Execute(*plan);
  const double ms = MillisSince(start);
  MPPDB_CHECK(rows.ok());
  return {ms, rows->size(), executor.stats()};
}

// Partitions scanned across the fact tables (the partitioned ones).
size_t FactParts(Database& db, const ExecStats& stats) {
  size_t parts = 0;
  for (const std::string& fact : workload::TpcdsFactTables()) {
    parts += stats.PartitionsScanned(db.catalog().FindTable(fact)->oid);
  }
  return parts;
}

// Relative improvement in runtime from enabling partition selection, per
// query. The headline is the paper-faithful executor (zone maps and join
// filters off, so partition selection is the only pruning); the default
// executor is the second column. Report-only.
void Fig17() {
  benchutil::Header("Figure 17: runtime improvement from partition selection");
  workload::TpcdsConfig config;
  config.base_rows = 30000;  // large enough that scans dominate planning
  Database db(4);
  MPPDB_CHECK(workload::CreateAndLoadTpcds(&db, config).ok());

  const Executor::Options faithful{.data_skipping = false, .join_filters = false};
  const Executor::Options layered{};
  // Legs: faithful off/on, default off/on.
  const std::vector<Leg> legs = {
      {&faithful, false}, {&faithful, true}, {&layered, false}, {&layered, true}};
  const int kRounds = 21;

  struct Row17 {
    std::string name;
    std::vector<LegRun> first;               // per leg: the warm-up run
    std::vector<std::vector<double>> times;  // per leg: one per round
    double Millis(size_t leg) const {
      return benchutil::SummarizeMillis(times[leg]).median_ms;
    }
    double Improvement(size_t off) const {
      return (Millis(off) - Millis(off + 1)) / Millis(off) * 100.0;
    }
  };
  std::vector<Row17> rows;
  bool same_rows = true;
  for (const auto& query : workload::TpcdsQueries(config)) {
    Row17 row{query.name, {}, std::vector<std::vector<double>>(legs.size())};
    for (const Leg& leg : legs) row.first.push_back(RunLeg(&db, leg, query.sql));
    for (const LegRun& run : row.first) same_rows = same_rows && run.rows == row.first[0].rows;
    // Interleave the legs round by round, rotating which runs first, so
    // drift lands on every leg alike.
    for (int round = 0; round < kRounds; ++round) {
      for (size_t k = 0; k < legs.size(); ++k) {
        const size_t l = (static_cast<size_t>(round) + k) % legs.size();
        row.times[l].push_back(RunLeg(&db, legs[l], query.sql).ms);
      }
    }
    rows.push_back(std::move(row));
  }

  // Bucket by the faithful selection-off runtime into terciles (the paper's
  // short/medium/long-running blocks).
  std::sort(rows.begin(), rows.end(), [](const Row17& a, const Row17& b) {
    return a.Millis(0) < b.Millis(0);
  });
  auto bucket_of = [&](size_t i) {
    if (i < rows.size() / 3) return "short";
    if (i < 2 * rows.size() / 3) return "medium";
    return "long";
  };
  std::printf("median of %d interleaved rounds; parts = partitions scanned;\n"
              "chunks = zone-map chunks skipped and jf = join-filter rows rejected,\n"
              "both under the default executor (selection off/on)\n\n",
              kRounds);
  std::printf("%-28s %6s | %8s %8s %7s | %8s %8s %7s | %9s %11s %15s\n", "query",
              "class", "off ms", "on ms", "faith", "off ms", "on ms", "default",
              "parts", "chunks", "jf");
  benchutil::Rule(138);
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row17& r = rows[i];
    char parts[24], chunks[24], jf[24];
    std::snprintf(parts, sizeof(parts), "%zu->%zu", FactParts(db, r.first[0].stats),
                  FactParts(db, r.first[1].stats));
    std::snprintf(chunks, sizeof(chunks), "%zu/%zu", r.first[2].stats.chunks_skipped,
                  r.first[3].stats.chunks_skipped);
    std::snprintf(jf, sizeof(jf), "%zu/%zu", r.first[2].stats.joinfilter_rows_rejected,
                  r.first[3].stats.joinfilter_rows_rejected);
    std::printf("%-28s %6s | %8.2f %8.2f %6.1f%% | %8.2f %8.2f %6.1f%% | %9s %11s %15s\n",
                r.name.c_str(), bucket_of(i), r.Millis(0), r.Millis(1),
                r.Improvement(0), r.Millis(2), r.Millis(3), r.Improvement(2), parts,
                chunks, jf);
  }

  std::printf("\n%-28s %12s %12s   %s\n", "summary", "faithful", "default", "paper");
  benchutil::Rule(78);
  const double n = static_cast<double>(rows.size());
  auto share = [&](size_t off, auto pred) {
    int count = 0;
    for (const Row17& r : rows) count += pred(r.Improvement(off)) ? 1 : 0;
    return count / n * 100.0;
  };
  auto above50 = [](double x) { return x > 50; };
  auto above70 = [](double x) { return x > 70; };
  auto negative = [](double x) { return x < 0; };
  std::printf("%-28s %11.0f%% %11.0f%%   %s\n", "queries improving > 50%",
              share(0, above50), share(2, above50), "more than half");
  std::printf("%-28s %11.0f%% %11.0f%%   %s\n", "queries improving > 70%",
              share(0, above70), share(2, above70), "over a quarter");
  std::printf("%-28s %11.0f%% %11.0f%%   %s\n", "negative", share(0, negative),
              share(2, negative), "a few small outliers");

  std::printf("\nChecks\n");
  Check(same_rows,
        "Fig. 17 every query returns the same row count with selection on/off "
        "under both executors");
}

// ---------------------------------------------------------------- Fig. 18

// Serialized plan bytes of one statement under each optimizer, at one value
// x of the swept parameter (selected parts or parts per table).
struct PlanPoint {
  long long x;
  long long planner;
  long long orca;
};

PlanPoint MeasurePlanSizes(Database* db, const std::string& sql, long long x) {
  QueryOptions legacy;
  legacy.optimizer = OptimizerKind::kLegacyPlanner;
  auto planner = db->PlanSql(sql, legacy);
  MPPDB_CHECK(planner.ok());
  auto orca = db->PlanSql(sql);
  MPPDB_CHECK(orca.ok());
  return {x, static_cast<long long>(SerializePlan(*planner).size()),
          static_cast<long long>(SerializePlan(*orca).size())};
}

// R(a,b), S(a,b), both partitioned on b into `parts` ranges, with a few rows
// each (plan size does not depend on volume).
void SetupJoinTables(Database* db, int parts) {
  for (const char* name : {"r", "s"}) {
    Schema schema({{"a", TypeId::kInt64}, {"b", TypeId::kInt64}});
    MPPDB_CHECK(db->CreatePartitionedTable(name, schema, TableDistribution::kHashed,
                                           {0}, {{1, PartitionMethod::kRange}},
                                           {partition_bounds::IntRanges(0, 10, parts)})
                    .ok());
    std::vector<Row> rows;
    for (int i = 0; i < 50; ++i) {
      rows.push_back({Datum::Int64(i * 7 % 500), Datum::Int64((i * 13) % (parts * 10))});
    }
    MPPDB_CHECK(db->Load(name, rows).ok());
  }
}

void PrintPlanSizes(const std::string& title, const std::vector<PlanPoint>& points) {
  std::printf("\n%s\n%10s %18s %16s\n", title.c_str(), "#parts", "Planner plan (B)",
              "Orca plan (B)");
  benchutil::Rule(46);
  for (const PlanPoint& p : points) {
    std::printf("%10lld %18lld %16lld\n", p.x, p.planner, p.orca);
  }
}

bool OrcaConstant(const std::vector<PlanPoint>& points) {
  for (const PlanPoint& p : points) {
    if (p.orca != points[0].orca) return false;
  }
  return true;
}

// Every Planner point lies on the line through the first two (exact integer
// cross products).
bool PlannerAffine(const std::vector<PlanPoint>& v) {
  for (size_t i = 2; i < v.size(); ++i) {
    if ((v[i].planner - v[0].planner) * (v[1].x - v[0].x) !=
        (v[1].planner - v[0].planner) * (v[i].x - v[0].x)) {
      return false;
    }
  }
  return v[1].x != v[0].x;
}

// Equally spaced x with one non-zero second difference of Planner's size,
// i.e. Planner's size is exactly quadratic in x.
bool PlannerQuadratic(const std::vector<PlanPoint>& v) {
  auto d2 = [&](size_t i) {
    return v[i + 2].planner - 2 * v[i + 1].planner + v[i].planner;
  };
  for (size_t i = 0; i + 2 < v.size(); ++i) {
    if (v[i + 2].x - v[i + 1].x != v[1].x - v[0].x ||
        v[i + 1].x - v[i].x != v[1].x - v[0].x || d2(i) != d2(0)) {
      return false;
    }
  }
  return d2(0) != 0;
}

void Fig18() {
  benchutil::Header("Figure 18: plan size (bytes), Planner vs Orca");

  // (a) A constant partition-eliminating predicate selecting 1/25/50/75/100%
  // of 84 monthly parts' date range. #parts is what the Orca run scanned.
  workload::TpchConfig config;
  config.rows = 2000;
  Database static_db(4);
  MPPDB_CHECK(workload::CreateAndLoadLineitem(&static_db, config,
                                              workload::LineitemPartitioning::kMonthly84,
                                              "lineitem")
                  .ok());
  const Oid lineitem = static_db.catalog().FindTable("lineitem")->oid;
  const int32_t first_day = date::FromYMD(config.start_year, 1, 1);
  const int32_t last_day = date::FromYMD(config.start_year + config.years, 1, 1);
  std::vector<PlanPoint> a;
  for (int percent : {1, 25, 50, 75, 100}) {
    int32_t cutoff = first_day + static_cast<int32_t>(
                                     static_cast<int64_t>(last_day - first_day) *
                                     percent / 100);
    if (percent == 1) cutoff = first_day + 30;  // one month's partition
    const std::string sql = "SELECT * FROM lineitem WHERE l_shipdate < DATE '" +
                            date::ToString(cutoff) + "'";
    auto orca_run = static_db.Run(sql);
    MPPDB_CHECK(orca_run.ok());
    a.push_back(MeasurePlanSizes(
        &static_db, sql,
        static_cast<long long>(orca_run->stats.PartitionsScanned(lineitem))));
  }
  PrintPlanSizes("(a) SELECT * FROM lineitem WHERE l_shipdate < X", a);

  // (b) join and (c) DML over R and S with p parts each.
  std::vector<PlanPoint> b, c;
  for (int p = 50; p <= 300; p += 50) {
    Database db(4);
    SetupJoinTables(&db, p);
    b.push_back(MeasurePlanSizes(&db, "SELECT * FROM r, s WHERE r.b = s.b AND s.a < 100", p));
    c.push_back(MeasurePlanSizes(&db, "UPDATE r SET b = s.b FROM s WHERE r.a = s.a", p));
  }
  PrintPlanSizes("(b) SELECT * FROM r, s WHERE r.b = s.b AND s.a < 100", b);
  PrintPlanSizes("(c) UPDATE r SET b = s.b FROM s WHERE r.a = s.a", c);

  // Planner (b) = slope * p + intercept; Planner (c) with second difference
  // d2 at step h has p^2 coefficient d2 / (2 h^2).
  const long long h = b[1].x - b[0].x;
  const long long slope = (b[1].planner - b[0].planner) / h;
  const long long d2 = c[2].planner - 2 * c[1].planner + c[0].planner;
  std::printf("\nPlanner (b) = %lld*p + %lld; Planner (c) second difference %lld "
              "(%.1f*p^2 leading term)\n",
              slope, b[0].planner - slope * b[0].x, d2,
              static_cast<double>(d2) / static_cast<double>(2 * h * h));

  std::printf("\nChecks\n");
  Check(OrcaConstant(a), "Fig. 18(a) Orca plan size is equal at every point");
  Check(PlannerAffine(a), "Fig. 18(a) Planner plan size is affine in the parts Orca scanned");
  Check(OrcaConstant(b), "Fig. 18(b) Orca plan size is equal at every point");
  Check(PlannerAffine(b), "Fig. 18(b) Planner plan size is affine in p");
  Check(OrcaConstant(c), "Fig. 18(c) Orca plan size is equal at every point");
  Check(PlannerQuadratic(c),
        "Fig. 18(c) Planner plan size has a constant, non-zero second difference in p");
}

}  // namespace
}  // namespace mppdb

int main() {
  const auto start = std::chrono::steady_clock::now();
  mppdb::Table2();
  mppdb::Table3AndFig16();
  mppdb::Fig17();
  mppdb::Fig18();
  std::printf("\n%d failed check(s); wall time %.1f s\n", mppdb::failures,
              mppdb::MillisSince(start) / 1000.0);
  return mppdb::failures == 0 ? 0 : 1;
}

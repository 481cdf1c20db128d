// Concurrent query serving: the dispatcher, admission control, and the
// parameterized plan cache under multi-client load.
//
// Three measurements back DESIGN.md §11 ("Serving layer"):
//   1. Plan-cache win: the same parameterized SELECT family served
//      repeatedly through Database::Execute with the cache off (full
//      parse+bind+Cascades per call) vs on (normalize, LRU hit, rebind $n,
//      execute). Reports per-statement p50/p95/p99 latency and the hit
//      rate; asserts cached results stay identical to fresh results across
//      parameter values.
//   2. Throughput curve: 1..64 closed-loop clients submitting a mixed
//      SELECT workload through a SessionManager (bounded admission queue,
//      one resource group wide enough to admit them all). Reports QPS and
//      client-observed latency percentiles per client count. On a
//      multi-core box the curve rises until the morsel scheduler's workers
//      saturate; on a single hardware thread it stays flat by design —
//      the numbers recorded are whatever the box gives.
//   3. Admission control: a deliberately tiny group (2 slots) and queue
//      bound under a burst of clients; asserts saturated groups queue
//      (group_waits > 0, nothing fails) and overflowed queues reject with
//      kResourceExhausted.
//
// `--smoke` shrinks data, clients, and iterations for the
// release_concurrency_smoke ctest gate, which asserts the correctness
// invariants (identical rows, hits observed, typed rejections), not speed.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "catalog/partition_scheme.h"
#include "common/random.h"
#include "db/database.h"
#include "server/session_manager.h"

namespace mppdb {
namespace {

struct BenchSizes {
  size_t order_rows = 200000;
  int parts = 16;
  int segments = 4;
  int cache_iterations = 60;
  std::vector<int> client_counts = {1, 2, 4, 8, 16, 32, 64};
  int queries_per_client = 12;
};

BenchSizes SmokeSizes() {
  BenchSizes sizes;
  sizes.order_rows = 20000;
  sizes.parts = 8;
  sizes.segments = 2;
  sizes.cache_iterations = 10;
  sizes.client_counts = {1, 4};
  sizes.queries_per_client = 6;
  return sizes;
}

/// orders(sk bigint, region bigint, amount double), range-partitioned on sk
/// so the cached plans carry PartitionSelectors that re-evaluate $n at run
/// time (the paper's dynamic elimination under prepared statements).
void BuildOrders(Database* db, const BenchSizes& sizes) {
  Schema schema({{"sk", TypeId::kInt64},
                 {"region", TypeId::kInt64},
                 {"amount", TypeId::kDouble}});
  const int64_t step = static_cast<int64_t>(sizes.order_rows) / sizes.parts;
  auto oid = db->CreatePartitionedTable(
      "orders", schema, TableDistribution::kHashed, {0},
      {{0, PartitionMethod::kRange}},
      {partition_bounds::IntRanges(0, step, sizes.parts)});
  MPPDB_CHECK(oid.ok());
  Random rng(20260809);
  std::vector<Row> rows;
  rows.reserve(sizes.order_rows);
  for (size_t i = 0; i < sizes.order_rows; ++i) {
    rows.push_back({Datum::Int64(static_cast<int64_t>(i)),
                    Datum::Int64(rng.UniformRange(0, 7)),
                    Datum::Double(static_cast<double>(rng.UniformRange(1, 1000)))});
  }
  MPPDB_CHECK(db->Load("orders", rows).ok());
}

/// The repeated statement family: same shape, different literals — exactly
/// what the lexer-level normalizer folds onto one cache entry.
std::string RangeCountSql(int64_t lo, int64_t hi) {
  return "SELECT count(*), sum(amount) FROM orders WHERE sk >= " +
         std::to_string(lo) + " AND sk < " + std::to_string(hi);
}

std::string RegionSumSql(int64_t below) {
  return "SELECT region, sum(amount) FROM orders WHERE sk < " +
         std::to_string(below) + " GROUP BY region ORDER BY region";
}

std::vector<Row> SortedRows(std::vector<Row> rows) {
  std::sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) {
    for (size_t i = 0; i < std::min(a.size(), b.size()); ++i) {
      int c = Datum::Compare(a[i], b[i]);
      if (c != 0) return c < 0;
    }
    return a.size() < b.size();
  });
  return rows;
}

int RunBenchmark(bool smoke) {
  const BenchSizes sizes = smoke ? SmokeSizes() : BenchSizes{};
  Database db(sizes.segments, Executor::Options{.workers = 0});
  BuildOrders(&db, sizes);

  const int64_t span = static_cast<int64_t>(sizes.order_rows);

  // --- 1. Plan-cache win ---------------------------------------------------
  benchutil::Header("Plan cache: repeated parameterized SELECT (ms/stmt)");
  std::printf("%-12s %8s %8s %8s %8s %8s\n", "mode", "p50", "p95", "p99", "mean",
              "min");
  benchutil::Rule(58);
  // Correctness first: cached plans must return bit-identical rows to fresh
  // plans for every parameter value (the $n-invariance property).
  for (int i = 0; i < 5; ++i) {
    const int64_t lo = (span / 7) * i / 5;
    const std::string sql = RangeCountSql(lo, lo + span / 3);
    auto fresh = db.Execute(sql, {});
    QueryOptions cached_opts;
    cached_opts.use_plan_cache = true;
    auto cached = db.Execute(sql, cached_opts);
    MPPDB_CHECK(fresh.ok() && cached.ok());
    MPPDB_CHECK(SortedRows(fresh->rows) == SortedRows(cached->rows));
  }
  db.plan_cache().Clear();

  // The timed statement is short and selective (one partition's worth of
  // rows): the serving-workload shape the cache exists for, where
  // parse+bind+Cascades is a meaningful share of the statement and the win
  // is measurable above execution noise. Wide analytic scans amortize
  // planning away on their own; the correctness loop above covers those.
  double cached_p50 = 0, fresh_p50 = 0;
  const int64_t width = std::max<int64_t>(1, span / (sizes.parts * 4));
  for (const bool use_cache : {false, true}) {
    QueryOptions opts;
    opts.use_plan_cache = use_cache;
    Random rng(7);
    // Warm allocator, lazy synopses, and (cache-on) the cache entry itself,
    // so the timed samples measure the steady state of each mode.
    for (int i = 0; i < 3; ++i) {
      MPPDB_CHECK(db.Execute(RangeCountSql(i, i + width), opts).ok());
    }
    std::vector<double> times;
    for (int i = 0; i < sizes.cache_iterations; ++i) {
      const int64_t lo = rng.UniformRange(0, static_cast<int>(span / 2));
      const std::string sql = RangeCountSql(lo, lo + width);
      times.push_back(benchutil::MeasureMillis(0, 3, [&]() {
                        auto result = db.Execute(sql, opts);
                        MPPDB_CHECK(result.ok());
                        MPPDB_CHECK(result->plan_cache_hit == use_cache);
                      }).min_ms);
    }
    benchutil::TimingStats stats = benchutil::SummarizeMillis(times);
    std::printf("%-12s %8.3f %8.3f %8.3f %8.3f %8.3f\n",
                use_cache ? "cache-on" : "cache-off", stats.median_ms, stats.p95_ms,
                stats.p99_ms, stats.mean_ms, stats.min_ms);
    (use_cache ? cached_p50 : fresh_p50) = stats.median_ms;
  }
  const PlanCache::Stats cache_stats = db.plan_cache().stats();
  const double hit_rate =
      cache_stats.hits + cache_stats.misses == 0
          ? 0.0
          : static_cast<double>(cache_stats.hits) /
                static_cast<double>(cache_stats.hits + cache_stats.misses);
  std::printf("cache: %llu hits / %llu misses (%.0f%% hit rate); "
              "p50 speedup %.2fx\n",
              static_cast<unsigned long long>(cache_stats.hits),
              static_cast<unsigned long long>(cache_stats.misses), 100 * hit_rate,
              cached_p50 > 0 ? fresh_p50 / cached_p50 : 0.0);
  // The whole point of the cache: repeated statements must not pay
  // parse+bind+Cascades again. One miss (the first), hits after.
  MPPDB_CHECK(cache_stats.hits > 0);
  MPPDB_CHECK(cached_p50 <= fresh_p50);

  // --- 2. Multi-client throughput curve ------------------------------------
  benchutil::Header("Throughput: closed-loop clients through SessionManager");
  std::printf("%-8s %10s %10s %10s %10s %8s\n", "clients", "qps", "p50ms",
              "p95ms", "p99ms", "hit%");
  benchutil::Rule(62);
  for (const int clients : sizes.client_counts) {
    const uint64_t hits_before = db.plan_cache().stats().hits;
    const uint64_t lookups_before =
        db.plan_cache().stats().hits + db.plan_cache().stats().misses;
    SessionManagerConfig config;
    config.worker_threads = clients;
    config.max_queue_depth = static_cast<size_t>(clients) * 4 + 16;
    config.use_plan_cache = true;
    config.groups = {{"serve", clients, 0}};
    SessionManager manager(&db, config);

    std::vector<std::vector<double>> latencies(static_cast<size_t>(clients));
    std::atomic<int> failures{0};
    auto start = std::chrono::steady_clock::now();
    std::vector<std::thread> client_threads;
    client_threads.reserve(static_cast<size_t>(clients));
    for (int c = 0; c < clients; ++c) {
      client_threads.emplace_back([&, c]() {
        Random rng(100 + c);
        for (int q = 0; q < sizes.queries_per_client; ++q) {
          const int64_t lo = rng.UniformRange(0, static_cast<int>(span / 2));
          const std::string sql = (q % 3 == 2)
                                      ? RegionSumSql(lo + span / 8)
                                      : RangeCountSql(lo, lo + span / 4);
          auto t0 = std::chrono::steady_clock::now();
          SubmitOptions submit;
          submit.group = "serve";
          auto result = manager.Run(sql, submit);
          auto t1 = std::chrono::steady_clock::now();
          if (!result.ok()) {
            failures.fetch_add(1);
            continue;
          }
          latencies[static_cast<size_t>(c)].push_back(
              std::chrono::duration_cast<std::chrono::duration<double, std::milli>>(
                  t1 - t0)
                  .count());
        }
      });
    }
    for (std::thread& t : client_threads) t.join();
    const double wall_ms =
        std::chrono::duration_cast<std::chrono::duration<double, std::milli>>(
            std::chrono::steady_clock::now() - start)
            .count();
    manager.Shutdown();
    MPPDB_CHECK(failures.load() == 0);
    const SessionManager::Stats serve_stats = manager.stats();
    MPPDB_CHECK(serve_stats.rejected_queue_full == 0);

    std::vector<double> all;
    for (const auto& per_client : latencies) {
      all.insert(all.end(), per_client.begin(), per_client.end());
    }
    MPPDB_CHECK(!all.empty());
    benchutil::TimingStats stats = benchutil::SummarizeMillis(all);
    const double qps = 1000.0 * static_cast<double>(all.size()) / wall_ms;
    const PlanCache::Stats after = db.plan_cache().stats();
    const uint64_t lookups =
        after.hits + after.misses - lookups_before;
    const double run_hit_rate =
        lookups == 0 ? 0.0
                     : static_cast<double>(after.hits - hits_before) /
                           static_cast<double>(lookups);
    std::printf("%-8d %10.1f %10.3f %10.3f %10.3f %7.0f%%\n", clients, qps,
                stats.median_ms, stats.p95_ms, stats.p99_ms, 100 * run_hit_rate);
  }

  // --- 3. Admission control: saturation queues, overflow rejects ----------
  benchutil::Header("Admission control: 2-slot group, bounded queue");
  {
    SessionManagerConfig config;
    config.worker_threads = 4;
    config.max_queue_depth = 4;
    config.use_plan_cache = true;
    config.groups = {{"tiny", 2, 64u << 20}};
    SessionManager manager(&db, config);

    // Burst: up to queue depth admitted; the rest bounce with a typed error.
    std::vector<std::future<Result<QueryResult>>> futures;
    const int burst = 12;
    for (int i = 0; i < burst; ++i) {
      SubmitOptions submit;
      submit.group = "tiny";
      futures.push_back(
          manager.Submit(RangeCountSql(0, span / 2 + i), submit));
    }
    int ok_count = 0, rejected = 0;
    for (auto& f : futures) {
      Result<QueryResult> result = f.get();
      if (result.ok()) {
        ++ok_count;
      } else {
        MPPDB_CHECK(result.status().code() == StatusCode::kResourceExhausted);
        ++rejected;
      }
    }
    manager.Shutdown();
    const SessionManager::Stats serve_stats = manager.stats();
    std::printf("burst %d: %d served, %d rejected (queue bound %zu); "
                "group waits %llu, peak queue %zu\n",
                burst, ok_count, rejected, config.max_queue_depth,
                static_cast<unsigned long long>(serve_stats.group_waits),
                serve_stats.peak_queue_depth);
    // Saturated group => queries queued rather than failed; overflow is the
    // only rejection, and everything admitted completed.
    MPPDB_CHECK(ok_count >= 1);
    MPPDB_CHECK(ok_count + rejected == burst);
    MPPDB_CHECK(serve_stats.completed == static_cast<uint64_t>(ok_count));
    MPPDB_CHECK(serve_stats.failed == 0);
    auto groups = manager.group_states();
    MPPDB_CHECK(groups.at("tiny").peak_running <= 2);
  }

  std::printf("\nOK\n");
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

// Serving-layer unit tests: the SQL normalizer, the parameterized plan
// cache (hits, misses, DDL invalidation, LRU eviction), parameter rebinding
// vs the fresh-plan oracle over partition-eliminating predicates, and the
// SessionManager's admission control (FIFO order, group concurrency and
// memory limits, queue bounds). DESIGN.md §11.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "db/database.h"
#include "server/session_manager.h"
#include "sql/normalizer.h"
#include "test_util.h"

namespace mppdb {
namespace {

// --- Normalizer ------------------------------------------------------------

TEST(NormalizerTest, LiftsLiteralsAndCanonicalizesText) {
  auto n = NormalizeSql("select  A, b FROM t WHERE a >= 10 AND s = 'x''y'");
  ASSERT_TRUE(n.ok()) << n.status().ToString();
  EXPECT_TRUE(n->cacheable);
  EXPECT_TRUE(n->auto_params);
  EXPECT_EQ(n->text, "SELECT a , b FROM t WHERE a >= $1 AND s = $2");
  ASSERT_EQ(n->params.size(), 2u);
  EXPECT_EQ(n->params[0].int64_value(), 10);
  EXPECT_EQ(n->params[1].string_value(), "x'y");
}

TEST(NormalizerTest, SameShapeDifferentLiteralsShareText) {
  auto a = NormalizeSql("SELECT * FROM t WHERE k > 5 AND v = 'a'");
  auto b = NormalizeSql("select *\nfrom T where K > 99 and v = 'zz'");
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->text, b->text);
  EXPECT_NE(a->params, b->params);
}

TEST(NormalizerTest, DateLiteralBecomesOneDateParam) {
  auto n = NormalizeSql("SELECT * FROM t WHERE d < DATE '2013-10-01'");
  ASSERT_TRUE(n.ok());
  ASSERT_EQ(n->params.size(), 1u);
  EXPECT_EQ(n->params[0].type(), TypeId::kDate);
  EXPECT_EQ(n->text, "SELECT * FROM t WHERE d < $1");
}

TEST(NormalizerTest, LimitLiteralStaysInline) {
  auto n = NormalizeSql("SELECT k FROM t WHERE k > 7 LIMIT 10");
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(n->text, "SELECT k FROM t WHERE k > $1 LIMIT 10");
  ASSERT_EQ(n->params.size(), 1u);
}

TEST(NormalizerTest, OrderByOrdinalStaysInline) {
  auto n = NormalizeSql(
      "SELECT b, count(*) FROM t WHERE a > 3 GROUP BY b ORDER BY 2 DESC, 1 LIMIT 5");
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(n->text,
            "SELECT b , COUNT ( * ) FROM t WHERE a > $1 GROUP BY b ORDER BY 2 DESC , 1 "
            "LIMIT 5");
  ASSERT_EQ(n->params.size(), 1u);
  // A literal inside an ORDER BY expression is a value, and is lifted.
  auto expr = NormalizeSql("SELECT a FROM t ORDER BY a + 1");
  ASSERT_TRUE(expr.ok());
  EXPECT_EQ(expr->text, "SELECT a FROM t ORDER BY a + $1");
}

TEST(NormalizerTest, OnlySelectIsCacheableAndExplicitParamsDisableLifting) {
  EXPECT_FALSE(NormalizeSql("INSERT INTO t VALUES (1)")->cacheable);
  EXPECT_FALSE(NormalizeSql("UPDATE t SET v = 1 WHERE k = 2")->cacheable);
  EXPECT_FALSE(NormalizeSql("DROP TABLE t")->cacheable);
  EXPECT_FALSE(NormalizeSql("EXPLAIN SELECT * FROM t")->cacheable);
  auto prepared = NormalizeSql("SELECT * FROM t WHERE k = $1 AND v > 3");
  ASSERT_TRUE(prepared.ok());
  EXPECT_TRUE(prepared->cacheable);
  EXPECT_FALSE(prepared->auto_params);  // caller owns the parameters
  EXPECT_TRUE(prepared->params.empty());
  EXPECT_EQ(prepared->text, "SELECT * FROM t WHERE k = $1 AND v > 3");
}

// --- Plan cache ------------------------------------------------------------

class PlanCacheTest : public ::testing::Test {
 protected:
  PlanCacheTest() : db_(2) {
    MPPDB_CHECK(db_.CreatePartitionedTable(
                       "orders",
                       Schema({{"sk", TypeId::kInt64}, {"amount", TypeId::kInt64}}),
                       TableDistribution::kHashed, {0},
                       {{0, PartitionMethod::kRange}},
                       {partition_bounds::IntRanges(0, 10, 8)})
                    .ok());
    std::vector<Row> rows;
    for (int64_t i = 0; i < 80; ++i) {
      rows.push_back({Datum::Int64(i), Datum::Int64(i * 3)});
    }
    MPPDB_CHECK(db_.Load("orders", rows).ok());
    cached_.use_plan_cache = true;
  }

  Database db_;
  QueryOptions cached_;
};

TEST_F(PlanCacheTest, RepeatedStatementHitsAndSkipsPlanning) {
  auto first = db_.Execute("SELECT count(*) FROM orders WHERE sk < 30", cached_);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_FALSE(first->plan_cache_hit);
  EXPECT_EQ(first->rows[0][0].int64_value(), 30);

  // Different literal, same shape: a hit, and the rebound parameter drives
  // partition selection to the right answer.
  auto second = db_.Execute("SELECT count(*) FROM orders WHERE sk < 50", cached_);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second->plan_cache_hit);
  EXPECT_EQ(second->rows[0][0].int64_value(), 50);

  const PlanCache::Stats stats = db_.plan_cache().stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(db_.plan_cache().size(), 1u);
}

TEST_F(PlanCacheTest, OrderByOrdinalIsPartOfTheKey) {
  auto first_rows = [](const Result<QueryResult>& result) {
    std::vector<std::pair<int64_t, int64_t>> out;
    for (const Row& row : result->rows) {
      out.emplace_back(row[0].int64_value(), row[1].int64_value());
    }
    return out;
  };
  using Pairs = std::vector<std::pair<int64_t, int64_t>>;
  auto by_sk = db_.Execute(
      "SELECT 100 - sk AS r, sk FROM orders WHERE sk < 30 ORDER BY 2 DESC LIMIT 2",
      cached_);
  ASSERT_TRUE(by_sk.ok()) << by_sk.status().ToString();
  EXPECT_FALSE(by_sk->plan_cache_hit);
  EXPECT_EQ(first_rows(by_sk), (Pairs{{71, 29}, {72, 28}}));

  // Same ordinal, different literals: a hit.
  auto hit = db_.Execute(
      "SELECT 100 - sk AS r, sk FROM orders WHERE sk < 50 ORDER BY 2 DESC LIMIT 2",
      cached_);
  ASSERT_TRUE(hit.ok());
  EXPECT_TRUE(hit->plan_cache_hit);
  EXPECT_EQ(first_rows(hit), (Pairs{{51, 49}, {52, 48}}));

  // Another ordinal is another plan, not a rebound parameter.
  auto by_r = db_.Execute(
      "SELECT 100 - sk AS r, sk FROM orders WHERE sk < 50 ORDER BY 1 DESC LIMIT 2",
      cached_);
  ASSERT_TRUE(by_r.ok());
  EXPECT_FALSE(by_r->plan_cache_hit);
  EXPECT_EQ(first_rows(by_r), (Pairs{{100, 0}, {99, 1}}));
  EXPECT_EQ(db_.plan_cache().size(), 2u);
}

TEST_F(PlanCacheTest, CacheOffNeverTouchesTheCache) {
  ASSERT_TRUE(db_.Execute("SELECT count(*) FROM orders WHERE sk < 30").ok());
  EXPECT_EQ(db_.plan_cache().size(), 0u);
  EXPECT_EQ(db_.plan_cache().stats().misses, 0u);
}

TEST_F(PlanCacheTest, CachedRowsMatchFreshOracleAcrossParams) {
  // The $n-invariance property over partition-eliminating predicates: for
  // every parameter value, the cached plan (compiled once, rebound per call)
  // must return exactly what a freshly planned statement returns — and prune
  // to the same partitions.
  for (int64_t hi = 0; hi <= 80; hi += 7) {
    const std::string sql =
        "SELECT sk, amount FROM orders WHERE sk >= " + std::to_string(hi / 3) +
        " AND sk < " + std::to_string(hi) + " ORDER BY sk";
    auto fresh = db_.Execute(sql);
    auto cached = db_.Execute(sql, cached_);
    ASSERT_TRUE(fresh.ok() && cached.ok()) << sql;
    EXPECT_EQ(fresh->rows, cached->rows) << sql;
    EXPECT_EQ(fresh->stats.partitions_scanned, cached->stats.partitions_scanned)
        << sql << " (cached plan must prune like the fresh plan)";
  }
  // One entry served every value; everything after the first was a hit.
  EXPECT_EQ(db_.plan_cache().size(), 1u);
  EXPECT_GE(db_.plan_cache().stats().hits, 10u);
}

TEST_F(PlanCacheTest, PreparedStatementParamsRebindOnHits) {
  QueryOptions opts = cached_;
  opts.params = {Datum::Int64(20)};
  auto first = db_.Execute("SELECT count(*) FROM orders WHERE sk < $1", opts);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(first->rows[0][0].int64_value(), 20);
  opts.params = {Datum::Int64(60)};
  auto second = db_.Execute("SELECT count(*) FROM orders WHERE sk < $1", opts);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second->plan_cache_hit);
  EXPECT_EQ(second->rows[0][0].int64_value(), 60);
  // Missing parameters on a hit: typed error, no crash.
  opts.params.clear();
  auto missing = db_.Execute("SELECT count(*) FROM orders WHERE sk < $1", opts);
  EXPECT_EQ(missing.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(PlanCacheTest, DdlInvalidatesAffectedEntriesOnly) {
  ASSERT_TRUE(db_.CreateTable("other", Schema({{"x", TypeId::kInt64}}),
                              TableDistribution::kHashed, {0})
                  .ok());
  ASSERT_TRUE(db_.Load("other", {{Datum::Int64(1)}}).ok());
  ASSERT_TRUE(db_.Execute("SELECT count(*) FROM orders WHERE sk < 9", cached_).ok());
  ASSERT_TRUE(db_.Execute("SELECT count(*) FROM other WHERE x < 9", cached_).ok());
  EXPECT_EQ(db_.plan_cache().size(), 2u);

  // CREATE INDEX on orders drops only the orders entry.
  ASSERT_TRUE(db_.Execute("CREATE INDEX ON orders (amount)").ok());
  EXPECT_EQ(db_.plan_cache().size(), 1u);
  auto other = db_.Execute("SELECT count(*) FROM other WHERE x < 9", cached_);
  ASSERT_TRUE(other.ok());
  EXPECT_TRUE(other->plan_cache_hit);

  // DROP TABLE other drops its entry; re-serving the statement fails at bind
  // (fresh path), not with a stale plan against freed storage.
  ASSERT_TRUE(db_.Execute("DROP TABLE other").ok());
  EXPECT_EQ(db_.plan_cache().size(), 0u);
  EXPECT_EQ(db_.Execute("SELECT count(*) FROM other WHERE x < 9", cached_)
                .status()
                .code(),
            StatusCode::kBindError);
  EXPECT_GE(db_.plan_cache().stats().invalidations, 2u);
}

TEST_F(PlanCacheTest, IndexDdlRefreshesCachedAccessPaths) {
  auto count_index_scans = [](const PhysPtr& plan) {
    int n = 0;
    std::function<void(const PhysPtr&)> walk = [&](const PhysPtr& node) {
      if (node->kind() == PhysNodeKind::kDynamicIndexScan) ++n;
      for (const auto& child : node->children()) walk(child);
    };
    walk(plan);
    return n;
  };

  // Cached before any index exists: a full-scan aggregate plan.
  const char* sql = "SELECT min(amount) FROM orders";
  auto first = db_.Execute(sql, cached_);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_FALSE(first->plan_cache_hit);
  EXPECT_EQ(count_index_scans(first->plan), 0);
  EXPECT_EQ(first->rows[0][0].int64_value(), 0);
  auto hit = db_.Execute(sql, cached_);
  ASSERT_TRUE(hit.ok());
  EXPECT_TRUE(hit->plan_cache_hit);
  EXPECT_EQ(count_index_scans(hit->plan), 0);

  // CREATE INDEX invalidates the entry; the re-plan must see the new index
  // and switch to the min/max probe — a stale cached plan would silently
  // keep full-scanning.
  ASSERT_TRUE(db_.Execute("CREATE INDEX ON orders (amount)").ok());
  auto replanned = db_.Execute(sql, cached_);
  ASSERT_TRUE(replanned.ok()) << replanned.status().ToString();
  EXPECT_FALSE(replanned->plan_cache_hit);
  EXPECT_EQ(count_index_scans(replanned->plan), 1);
  EXPECT_GT(replanned->stats.index_seeks, 0u);
  EXPECT_EQ(replanned->rows[0][0].int64_value(), 0);

  // And the refreshed entry serves hits with the index plan.
  auto rehit = db_.Execute(sql, cached_);
  ASSERT_TRUE(rehit.ok());
  EXPECT_TRUE(rehit->plan_cache_hit);
  EXPECT_EQ(count_index_scans(rehit->plan), 1);
  EXPECT_EQ(rehit->rows[0][0].int64_value(), 0);
}

TEST_F(PlanCacheTest, LruEvictsOldestBeyondCapacity) {
  PlanCache cache(2);
  auto entry = std::make_shared<CachedPlan>();
  cache.Insert("a", entry);
  cache.Insert("b", entry);
  EXPECT_NE(cache.Lookup("a"), nullptr);  // bumps "a" over "b"
  cache.Insert("c", entry);               // evicts "b"
  EXPECT_EQ(cache.Lookup("b"), nullptr);
  EXPECT_NE(cache.Lookup("a"), nullptr);
  EXPECT_NE(cache.Lookup("c"), nullptr);
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.size(), 2u);
}

TEST(PlanCacheClaimTest, ConcurrentMissesCompileOnce) {
  PlanCache cache;
  std::unique_ptr<PlanCache::CompileClaim> claim;
  ASSERT_EQ(cache.Lookup("k", &claim), nullptr);
  ASSERT_NE(claim, nullptr);

  // A second lookup of the claimed key waits for the claim, then takes the
  // published plan as a hit instead of compiling it again.
  std::unique_ptr<PlanCache::CompileClaim> second_claim;
  std::atomic<bool> returned{false};
  std::shared_ptr<const CachedPlan> seen;
  std::thread waiter([&] {
    seen = cache.Lookup("k", &second_claim);
    returned.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(returned.load());
  auto entry = std::make_shared<CachedPlan>();
  cache.Insert("k", entry);
  claim.reset();
  waiter.join();
  EXPECT_EQ(seen, entry);
  EXPECT_EQ(second_claim, nullptr);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().hits, 1u);

  // A claim released without publishing (failed or uncacheable compile)
  // hands the key to the next caller.
  ASSERT_EQ(cache.Lookup("q", &claim), nullptr);
  claim.reset();
  EXPECT_EQ(cache.Lookup("q", &second_claim), nullptr);
  EXPECT_NE(second_claim, nullptr);
}

TEST_F(PlanCacheTest, DateStringCoercionMatchesBinderVerdicts) {
  ASSERT_TRUE(db_.CreateTable("events",
                              Schema({{"d", TypeId::kDate}, {"v", TypeId::kInt64}}),
                              TableDistribution::kHashed, {1})
                  .ok());
  ASSERT_TRUE(db_.Load("events", {{Datum::Date(100), Datum::Int64(1)},
                                  {Datum::Date(16000), Datum::Int64(2)}})
                  .ok());
  // A bare string compared to a date column: the binder coerces the inline
  // literal; the rebind path must do the same for the lifted parameter.
  const std::string sql = "SELECT count(*) FROM events WHERE d < '2013-10-01'";
  auto fresh = db_.Execute(sql);
  auto miss = db_.Execute(sql, cached_);
  auto hit = db_.Execute(sql, cached_);
  ASSERT_TRUE(fresh.ok() && miss.ok() && hit.ok());
  EXPECT_TRUE(hit->plan_cache_hit);
  EXPECT_EQ(fresh->rows, miss->rows);
  EXPECT_EQ(fresh->rows, hit->rows);
  // Malformed date on the hit path: the binder's verdict, not a wrong answer.
  auto bad = db_.Execute("SELECT count(*) FROM events WHERE d < 'not-a-date'",
                         cached_);
  EXPECT_EQ(bad.status().code(), StatusCode::kBindError);
}

// --- Concurrent Execute ------------------------------------------------------

TEST(ConcurrentExecuteTest, ParallelSelectsShareSchedulerAndCache) {
  Database db(2, Executor::Options{.workers = 0});
  ASSERT_TRUE(db.CreatePartitionedTable(
                    "t", Schema({{"k", TypeId::kInt64}, {"v", TypeId::kInt64}}),
                    TableDistribution::kHashed, {0}, {{0, PartitionMethod::kRange}},
                    {partition_bounds::IntRanges(0, 25, 8)})
                  .ok());
  std::vector<Row> rows;
  for (int64_t i = 0; i < 200; ++i) {
    rows.push_back({Datum::Int64(i), Datum::Int64(i)});
  }
  ASSERT_TRUE(db.Load("t", rows).ok());

  constexpr int kThreads = 8;
  constexpr int kPerThread = 12;
  std::atomic<int> wrong{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&db, &wrong, t]() {
      QueryOptions opts;
      opts.use_plan_cache = true;
      for (int i = 0; i < kPerThread; ++i) {
        const int64_t hi = 10 + ((t * kPerThread + i) * 7) % 190;
        auto result = db.Execute(
            "SELECT count(*) FROM t WHERE k < " + std::to_string(hi), opts);
        if (!result.ok() || result->rows[0][0].int64_value() != hi) {
          wrong.fetch_add(1);
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(wrong.load(), 0);
  EXPECT_EQ(db.plan_cache().size(), 1u);
}

// --- SessionManager ----------------------------------------------------------

class SessionManagerTest : public ::testing::Test {
 protected:
  SessionManagerTest() : db_(2) {
    MPPDB_CHECK(db_.CreateTable("t",
                                Schema({{"k", TypeId::kInt64}, {"v", TypeId::kInt64}}),
                                TableDistribution::kHashed, {0})
                    .ok());
    std::vector<Row> rows;
    for (int64_t i = 0; i < 100; ++i) {
      rows.push_back({Datum::Int64(i), Datum::Int64(i * 2)});
    }
    MPPDB_CHECK(db_.Load("t", rows).ok());
  }
  Database db_;
};

TEST_F(SessionManagerTest, ServesConcurrentClientsWithCacheHits) {
  SessionManagerConfig config;
  config.worker_threads = 4;
  config.groups = {{"default", 4, 0}};
  SessionManager manager(&db_, config);
  std::vector<std::future<Result<QueryResult>>> futures;
  for (int i = 0; i < 20; ++i) {
    futures.push_back(manager.Submit("SELECT count(*) FROM t WHERE k < " +
                                     std::to_string(10 + i)));
  }
  for (size_t i = 0; i < futures.size(); ++i) {
    auto result = futures[i].get();
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result->rows[0][0].int64_value(), 10 + static_cast<int64_t>(i));
  }
  manager.Shutdown();
  const SessionManager::Stats stats = manager.stats();
  EXPECT_EQ(stats.completed, 20u);
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_GE(db_.plan_cache().stats().hits, 19u);
}

TEST_F(SessionManagerTest, SingleWorkerPreservesFifoOrder) {
  SessionManagerConfig config;
  config.worker_threads = 1;
  config.groups = {{"default", 1, 0}};
  config.use_plan_cache = false;
  SessionManager manager(&db_, config);
  // Each UPDATE appends its sequence number; a FIFO dispatcher must apply
  // them in submission order, leaving v = the last submitted value.
  std::vector<std::future<Result<QueryResult>>> futures;
  for (int i = 0; i < 10; ++i) {
    futures.push_back(manager.Submit("UPDATE t SET v = " + std::to_string(i) +
                                     " WHERE k = 0"));
  }
  for (auto& f : futures) ASSERT_TRUE(f.get().ok());
  auto final_v = manager.Run("SELECT v FROM t WHERE k = 0");
  ASSERT_TRUE(final_v.ok());
  EXPECT_EQ(final_v->rows[0][0].int64_value(), 9);
  manager.Shutdown();
}

TEST_F(SessionManagerTest, GroupConcurrencyIsBoundedAndSaturationQueues) {
  SessionManagerConfig config;
  config.worker_threads = 4;
  config.max_queue_depth = 64;
  config.groups = {{"small", 2, 0}};
  SessionManager manager(&db_, config);
  std::vector<std::future<Result<QueryResult>>> futures;
  for (int i = 0; i < 16; ++i) {
    SubmitOptions submit;
    submit.group = "small";
    futures.push_back(
        manager.Submit("SELECT count(*) FROM t WHERE k < 50", submit));
  }
  for (auto& f : futures) ASSERT_TRUE(f.get().ok());
  manager.Shutdown();
  EXPECT_LE(manager.group_states().at("small").peak_running, 2);
  EXPECT_EQ(manager.stats().completed, 16u);
  EXPECT_EQ(manager.stats().rejected_queue_full, 0u);  // queued, not failed
}

TEST_F(SessionManagerTest, GroupMemoryBudgetIsParceledPerQuery) {
  SessionManagerConfig config;
  config.worker_threads = 2;
  // 2 slots sharing a deliberately tiny budget: each query gets half, and a
  // hash build over the whole table cannot fit its mandatory charges.
  config.groups = {{"tight", 2, 1024}};
  SessionManager manager(&db_, config);
  SubmitOptions submit;
  submit.group = "tight";
  auto starved = manager.Run(
      "SELECT a.k, b.v FROM t a JOIN t b ON a.k = b.k ORDER BY a.k", submit);
  EXPECT_EQ(starved.status().code(), StatusCode::kResourceExhausted);
  // A scan without memory-hungry operators still fits the parcel.
  auto small = manager.Run("SELECT count(*) FROM t WHERE k < 5", submit);
  EXPECT_TRUE(small.ok()) << small.status().ToString();
  manager.Shutdown();
}

TEST_F(SessionManagerTest, RejectsUnknownGroupAndQueueOverflowWithTypedErrors) {
  SessionManagerConfig config;
  config.worker_threads = 1;
  config.max_queue_depth = 2;
  config.groups = {{"only", 1, 0}};
  SessionManager manager(&db_, config);
  SubmitOptions wrong;
  wrong.group = "absent";
  EXPECT_EQ(manager.Run("SELECT count(*) FROM t", wrong).status().code(),
            StatusCode::kNotFound);
  // Flood a 1-slot group behind a 2-deep queue: at least one rejection, and
  // every rejection is typed kResourceExhausted.
  SubmitOptions submit;
  submit.group = "only";
  std::vector<std::future<Result<QueryResult>>> futures;
  for (int i = 0; i < 32; ++i) {
    futures.push_back(manager.Submit("SELECT sum(v) FROM t WHERE k < 90", submit));
  }
  int rejected = 0;
  for (auto& f : futures) {
    auto result = f.get();
    if (!result.ok()) {
      EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
      ++rejected;
    }
  }
  EXPECT_GE(rejected, 1);
  manager.Shutdown();
  // Shut-down managers reject rather than hang.
  EXPECT_EQ(manager.Run("SELECT count(*) FROM t", submit).status().code(),
            StatusCode::kCancelled);
}

}  // namespace
}  // namespace mppdb

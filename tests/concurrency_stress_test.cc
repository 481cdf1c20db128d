// Cross-query concurrency stress: many threads hammering one Database with
// cached and fresh SELECTs while other threads fire Cancel() and a DDL
// thread churns CREATE/DROP TABLE and CREATE INDEX. Shakes out races in the
// Database-level reader/writer state lock, the plan cache (lookup / insert /
// DDL invalidation), the cancel registry, per-call executors sharing one
// morsel scheduler, and TableStore's lazily rebuilt synopses reached by
// concurrent queries. Built and run under ThreadSanitizer by the
// tsan_cross_query_stress ctest entry (see tests/CMakeLists.txt), where any
// race fails the build instead of flaking.

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "db/database.h"
#include "server/session_manager.h"
#include "test_util.h"

namespace mppdb {
namespace {

std::unique_ptr<Database> BuildStressDb() {
  auto db = std::make_unique<Database>(4, Executor::Options{.workers = 0});
  MPPDB_CHECK(db->CreatePartitionedTable(
                     "fact",
                     Schema({{"sk", TypeId::kInt64}, {"v", TypeId::kInt64}}),
                     TableDistribution::kHashed, {0},
                     {{0, PartitionMethod::kRange}},
                     {partition_bounds::IntRanges(0, 50, 8)})
                  .ok());
  std::vector<Row> rows;
  for (int64_t i = 0; i < 400; ++i) {
    rows.push_back({Datum::Int64(i), Datum::Int64(i * 3)});
  }
  MPPDB_CHECK(db->Load("fact", rows).ok());
  return db;
}

TEST(ConcurrencyStressTest, ExecuteCancelDdlCrossfire) {
  std::unique_ptr<Database> db = BuildStressDb();
  constexpr int kReaders = 4;
  constexpr int kIterations = 60;
  std::atomic<bool> stop{false};
  std::atomic<int> wrong_answers{0};
  std::atomic<uint64_t> next_query_id{1};

  // Readers: cached SELECTs over shifting ranges; answers must stay exact no
  // matter what the cancel and DDL threads do to *other* tables.
  std::vector<std::thread> threads;
  for (int t = 0; t < kReaders; ++t) {
    threads.emplace_back([&db, &wrong_answers, &next_query_id, t]() {
      QueryOptions opts;
      opts.use_plan_cache = true;
      for (int i = 0; i < kIterations; ++i) {
        const int64_t hi = 20 + ((t * kIterations + i) * 13) % 380;
        opts.query_id = next_query_id.fetch_add(1);
        auto result = db->Execute(
            "SELECT count(*) FROM fact WHERE sk < " + std::to_string(hi), opts);
        // Cancelled is legal (the cancel thread guesses ids); wrong rows are
        // not.
        if (result.ok() && result->rows[0][0].int64_value() != hi) {
          wrong_answers.fetch_add(1);
        }
      }
    });
  }

  // DML thread: in-place updates staling synopses, so concurrent readers
  // exercise the lazy rebuild path under the shared lock.
  threads.emplace_back([&db, &stop]() {
    int round = 0;
    while (!stop.load()) {
      auto update = db->Execute("UPDATE fact SET v = " + std::to_string(round) +
                                " WHERE sk < 25");
      MPPDB_CHECK(update.ok());
      ++round;
    }
  });

  // DDL thread: churns a side table (create, index, query through the cache,
  // drop) — invalidation must keep every cached plan consistent with the
  // catalog.
  threads.emplace_back([&db, &stop]() {
    QueryOptions opts;
    opts.use_plan_cache = true;
    int round = 0;
    while (!stop.load()) {
      MPPDB_CHECK(db->Execute("CREATE TABLE side (x bigint, y bigint) "
                              "DISTRIBUTED BY (x)")
                      .ok());
      MPPDB_CHECK(db->Execute("INSERT INTO side VALUES (1, 2), (3, 4)").ok());
      MPPDB_CHECK(db->Execute("CREATE INDEX ON side (y)").ok());
      auto read = db->Execute("SELECT count(*) FROM side WHERE x < 10", opts);
      MPPDB_CHECK(read.ok() && read->rows[0][0].int64_value() == 2);
      MPPDB_CHECK(db->Execute("DROP TABLE side").ok());
      ++round;
    }
  });

  // Cancel thread: fires at recently issued query ids; hitting a finished or
  // unstarted query is a no-op by contract.
  threads.emplace_back([&db, &stop, &next_query_id]() {
    uint64_t guess = 1;
    while (!stop.load()) {
      const uint64_t latest = next_query_id.load();
      if (guess < latest) {
        db->Cancel(guess++);
      } else {
        std::this_thread::yield();
      }
    }
  });

  for (int t = 0; t < kReaders; ++t) threads[static_cast<size_t>(t)].join();
  stop.store(true);
  for (size_t t = kReaders; t < threads.size(); ++t) threads[t].join();

  EXPECT_EQ(wrong_answers.load(), 0);
  // The cache saw real traffic and the DDL churn really invalidated.
  EXPECT_GE(db->plan_cache().stats().hits, 1u);
  EXPECT_GE(db->plan_cache().stats().invalidations, 1u);
}

// The serving layer under the same crossfire: concurrent clients through a
// SessionManager with two groups while a DDL churner runs directly against
// the Database.
TEST(ConcurrencyStressTest, SessionManagerServesDuringDdlChurn) {
  std::unique_ptr<Database> db = BuildStressDb();
  SessionManagerConfig config;
  config.worker_threads = 4;
  config.max_queue_depth = 128;
  config.groups = {{"fast", 3, 0}, {"slow", 1, 16u << 20}};
  SessionManager manager(db.get(), config);

  std::atomic<bool> stop{false};
  std::thread ddl([&db, &stop]() {
    while (!stop.load()) {
      MPPDB_CHECK(
          db->Execute("CREATE TABLE churn (x bigint) DISTRIBUTED BY (x)").ok());
      MPPDB_CHECK(db->Execute("DROP TABLE churn").ok());
    }
  });

  std::vector<std::future<Result<QueryResult>>> futures;
  for (int i = 0; i < 80; ++i) {
    SubmitOptions submit;
    submit.group = (i % 4 == 0) ? "slow" : "fast";
    const int64_t hi = 10 + (i * 9) % 390;
    futures.push_back(manager.Submit(
        "SELECT count(*) FROM fact WHERE sk < " + std::to_string(hi), submit));
  }
  int64_t expected_i = 0;
  for (auto& f : futures) {
    auto result = f.get();
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    const int64_t hi = 10 + (expected_i * 9) % 390;
    EXPECT_EQ(result->rows[0][0].int64_value(), hi);
    ++expected_i;
  }
  stop.store(true);
  ddl.join();
  manager.Shutdown();
  EXPECT_EQ(manager.stats().failed, 0u);
  EXPECT_LE(manager.group_states().at("slow").peak_running, 1);
}

}  // namespace
}  // namespace mppdb

// Fault-matrix property test: random SQL queries over a partitioned star
// schema, executed under every named fault point × fault kind ×
// {1 worker, pool} — plus a morsel-scheduler mode with
// the pool (4 workers) wider than the segment count (3), so faults fire
// across Motion suspension/resume and continuation rescheduling — with
// query-level transient retries enabled. The contract for every cell of the
// matrix:
//
//   - success means BIT-IDENTICAL rows and ExecStats to the fault-free
//     1-worker oracle (a cured transient retry leaves no trace);
//   - failure means a clean typed Status from the resilience taxonomy —
//     never a hang, a crash, or an untyped error;
//   - the Database (executor, hub, exchanges, join filters) is immediately
//     reusable for the next cell, with no state leaking across runs.
//
// A second sweep drives random memory budgets through the same queries:
// every run either succeeds with oracle rows (advisory allocations may shed)
// or fails kResourceExhausted.
//
// Built under AddressSanitizer by the asan_fault_matrix ctest entry (see
// tests/CMakeLists.txt), where injected teardown paths run leak- and
// use-after-free-checked.

#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "common/fault_injection.h"
#include "common/random.h"
#include "db/database.h"
#include "test_util.h"

namespace mppdb {
namespace {

class FaultMatrixTest : public ::testing::Test {
 protected:
  FaultMatrixTest()
      : db_(3),
        db_parallel_(3, Executor::Options{.workers = 0}),
        db_parallel_morsel_(3, Executor::Options{.workers = 4,
                                                 .morsel_rows = 1024}) {
    Random rng(20260807);
    std::vector<Row> fact_rows;
    for (int i = 0; i < 500; ++i) {
      fact_rows.push_back({Datum::Int64(rng.UniformRange(0, 399)),
                           Datum::Int64(rng.UniformRange(1, 10)),
                           Datum::Int64(rng.UniformRange(0, 99))});
    }
    std::vector<Row> dim_rows;
    for (int k = 0; k < 400; k += 5) {
      dim_rows.push_back({Datum::Int64(k), Datum::Int64(k % 7)});
    }
    for (Database* db : AllModes()) {
      MPPDB_CHECK(db->CreatePartitionedTable(
                         "fact", Schema({{"sk", TypeId::kInt64},
                                         {"qty", TypeId::kInt64},
                                         {"v", TypeId::kInt64}}),
                         TableDistribution::kHashed, {1},
                         {{0, PartitionMethod::kRange}},
                         {partition_bounds::IntRanges(0, 25, 16)})
                      .ok());
      MPPDB_CHECK(db->CreateTable("dim", Schema({{"k", TypeId::kInt64},
                                                 {"grp", TypeId::kInt64}}),
                                  TableDistribution::kHashed, {0})
                      .ok());
      MPPDB_CHECK(db->Load("fact", fact_rows).ok());
      MPPDB_CHECK(db->Load("dim", dim_rows).ok());
    }
  }

  std::vector<Database*> AllModes() {
    return {&db_, &db_parallel_, &db_parallel_morsel_};
  }

  std::string RandomPredicate(Random* rng) {
    switch (rng->Uniform(4)) {
      case 0:
        return "sk < " + std::to_string(rng->UniformRange(50, 400));
      case 1:
        return "sk BETWEEN " + std::to_string(rng->UniformRange(0, 150)) +
               " AND " + std::to_string(rng->UniformRange(100, 380));
      case 2:
        return "qty >= " + std::to_string(rng->UniformRange(2, 8));
      default:
        return "(sk < " + std::to_string(rng->UniformRange(100, 300)) +
               " AND qty < " + std::to_string(rng->UniformRange(3, 9)) + ")";
    }
  }

  // Query shapes chosen to reach every fault point: partitioned scans with
  // sargable predicates (storage.scan_chunk, exec.batch), joins with
  // selector-driven dynamic elimination and runtime filters (hub.push,
  // joinfilter.publish, alloc.budget), aggregation and ordering (exec.batch,
  // alloc.budget), and Motions everywhere (motion.send / motion.recv). The
  // four unfiltered statements read bare scans in place: the aggregate's
  // input and the join's build side are storage slices, and the join's
  // probe side suspends at a Redistribute Motion; SELECT * and the ordered
  // LIMIT take ownership of the slices when the Gather deposits them.
  std::vector<std::string> RandomQueries(Random* rng) {
    return {
        "SELECT sk, qty FROM fact WHERE " + RandomPredicate(rng),
        "SELECT qty, count(*), sum(v) FROM fact WHERE " + RandomPredicate(rng) +
            " GROUP BY qty ORDER BY qty",
        "SELECT count(*) FROM fact f JOIN dim d ON f.sk = d.k WHERE " +
            RandomPredicate(rng),
        "SELECT sk FROM fact WHERE " + RandomPredicate(rng) + " ORDER BY sk",
        "SELECT qty, count(*), sum(v) FROM fact GROUP BY qty ORDER BY qty",
        "SELECT count(*), sum(d.grp) FROM fact f JOIN dim d ON f.sk = d.k",
        "SELECT * FROM fact",
        "SELECT * FROM fact ORDER BY v, sk LIMIT 25",
    };
  }

  static bool IsTypedResilienceError(const Status& status) {
    switch (status.code()) {
      case StatusCode::kTransientIO:
      case StatusCode::kInternal:
      case StatusCode::kCancelled:
      case StatusCode::kDeadlineExceeded:
      case StatusCode::kResourceExhausted:
        return true;
      default:
        return false;
    }
  }

  Database db_;
  Database db_parallel_;
  Database db_parallel_morsel_;
};

TEST_F(FaultMatrixTest, EveryFaultPointInEveryModeIsIdenticalOrTyped) {
  Random rng(99);
  const std::vector<std::string> queries = RandomQueries(&rng);

  for (const std::string& sql : queries) {
    // Fault-free oracle: 1 worker.
    auto oracle = db_.Run(sql);
    ASSERT_TRUE(oracle.ok()) << sql << "\n" << oracle.status().ToString();

    for (Database* db : AllModes()) {
      const std::string mode =
          " [workers=" + std::to_string(db->exec_options().workers) +
          " morsel_rows=" + std::to_string(db->exec_options().morsel_rows) + "]";
      for (const char* point : FaultInjector::kPoints) {
        for (FaultKind kind : {FaultKind::kTransient, FaultKind::kFatal}) {
          FaultInjector injector(rng.Next());
          FaultSpec spec;
          spec.kind = kind;
          spec.probability = 0.7;
          spec.skip_first = static_cast<int>(rng.Uniform(4));
          injector.Arm(point, spec);

          QueryOptions options;
          options.fault_injector = &injector;
          options.max_transient_retries = 2;
          options.retry_backoff_ms = 0;
          auto result = db->Run(sql, options);
          const std::string cell =
              sql + mode + " point=" + point +
              (kind == FaultKind::kTransient ? " transient" : " fatal");
          if (result.ok()) {
            // Either the fault never fired or a retry cured a transient —
            // both must leave a bit-identical result.
            EXPECT_TRUE(result->rows == oracle->rows) << cell;
            EXPECT_TRUE(result->stats == oracle->stats) << cell;
            if (kind == FaultKind::kFatal) {
              EXPECT_EQ(injector.fires(point), 0u) << cell;
            }
          } else {
            EXPECT_TRUE(IsTypedResilienceError(result.status()))
                << cell << ": " << result.status().ToString();
            EXPECT_GT(injector.fires(point), 0u) << cell;
            if (kind == FaultKind::kFatal) {
              EXPECT_EQ(result.status().code(), StatusCode::kInternal) << cell;
            } else {
              EXPECT_EQ(result.status().code(), StatusCode::kTransientIO) << cell;
            }
          }
        }
      }
      // No state leaks across cells: a fault-free run on the same Database
      // still matches the oracle exactly.
      auto clean = db->Run(sql);
      ASSERT_TRUE(clean.ok()) << sql << mode << "\n" << clean.status().ToString();
      EXPECT_TRUE(clean->rows == oracle->rows) << sql << mode;
      EXPECT_TRUE(clean->stats == oracle->stats) << sql << mode;
    }
  }
}

// A statement and the Motion its plan must contain.
struct FaultShape {
  std::string sql;
  const char* motion;
};

// For every shape in every mode: a fault armed on one segment's `point`,
// firing once, fails the statement with kInternal (fatal) or is cured by the
// retry (transient) with rows and ExecStats bit-identical to the oracle; a
// fault-free run afterwards still matches.
void CheckOneShotFaults(const std::vector<FaultShape>& shapes,
                        const std::vector<const char*>& points,
                        Database* oracle_db, const std::vector<Database*>& modes) {
  for (const FaultShape& shape : shapes) {
    auto explain = oracle_db->Explain(shape.sql);
    ASSERT_TRUE(explain.ok()) << explain.status().ToString();
    ASSERT_NE(explain->find(shape.motion), std::string::npos) << *explain;
    auto oracle = oracle_db->Run(shape.sql);
    ASSERT_TRUE(oracle.ok()) << shape.sql << "\n" << oracle.status().ToString();
    ASSERT_FALSE(oracle->rows.empty()) << shape.sql;

    for (Database* db : modes) {
      for (const char* point : points) {
        for (int segment = 0; segment < 3; ++segment) {
          for (FaultKind kind : {FaultKind::kTransient, FaultKind::kFatal}) {
            FaultInjector injector(7);
            FaultSpec spec;
            spec.kind = kind;
            spec.segment = segment;
            spec.max_fires = 1;
            injector.Arm(point, spec);
            QueryOptions options;
            options.fault_injector = &injector;
            options.max_transient_retries = 2;
            options.retry_backoff_ms = 0;
            auto result = db->Run(shape.sql, options);
            const std::string cell =
                shape.sql + " workers=" + std::to_string(db->exec_options().workers) +
                " point=" + point + " segment=" + std::to_string(segment) +
                (kind == FaultKind::kTransient ? " transient" : " fatal");
            EXPECT_EQ(injector.fires(point), 1u) << cell;
            if (kind == FaultKind::kTransient) {
              ASSERT_TRUE(result.ok()) << cell << ": " << result.status().ToString();
              EXPECT_TRUE(result->rows == oracle->rows) << cell;
              EXPECT_TRUE(result->stats == oracle->stats) << cell;
            } else {
              ASSERT_FALSE(result.ok()) << cell;
              EXPECT_EQ(result.status().code(), StatusCode::kInternal)
                  << cell << ": " << result.status().ToString();
            }
          }
        }
      }
      auto clean = db->Run(shape.sql);
      ASSERT_TRUE(clean.ok()) << shape.sql << "\n" << clean.status().ToString();
      EXPECT_TRUE(clean->rows == oracle->rows) << shape.sql;
      EXPECT_TRUE(clean->stats == oracle->stats) << shape.sql;
    }
  }
}

// Faults at the Motion hand-off while slices cross it by reference: a
// Gather hands segment 0 the source segments' storage slices as they are,
// and every Broadcast destination reads the one shared batch in place.
TEST_F(FaultMatrixTest, MotionFaultsWhileSlicesCrossByReference) {
  CheckOneShotFaults(
      {
          {"SELECT * FROM fact", "GatherMotion"},
          {"SELECT v, sk + 1 FROM fact", "GatherMotion"},
          {"SELECT * FROM fact LIMIT 7", "GatherMotion"},
          {"SELECT f.sk, d.grp FROM fact f JOIN dim d ON f.v = d.grp", "BroadcastMotion"},
      },
      {"motion.send", "motion.recv"}, &db_, AllModes());
}

// Faults in the scan and at the Motion hand-off while a filtered scan's
// selected slices cross a Gather: the storage slices travel with the
// selection of their survivors, and the join-filtered probe side hands its
// selection to the join. The predicates are not sargable, so every segment
// scans every chunk.
TEST_F(FaultMatrixTest, ScanAndMotionFaultsWhileSelectedSlicesCrossAGather) {
  CheckOneShotFaults(
      {
          {"SELECT * FROM fact WHERE v % 2 = 0", "GatherMotion"},
          {"SELECT sk, v + 1 FROM fact WHERE v % 3 = 1", "GatherMotion"},
          {"SELECT * FROM fact WHERE v % 5 <> 2 LIMIT 9", "GatherMotion"},
          {"SELECT f.sk, d.grp FROM fact f JOIN dim d ON f.sk = d.k WHERE f.v % 4 <> 1",
           "GatherMotion"},
      },
      {"storage.scan_chunk", "motion.send"}, &db_, AllModes());
}

TEST_F(FaultMatrixTest, RandomMemoryBudgetsAreOracleRowsOrResourceExhausted) {
  Random rng(7);
  const std::vector<std::string> queries = RandomQueries(&rng);
  const size_t budgets[] = {64, 512, 4096, 32768, 1u << 20};

  for (const std::string& sql : queries) {
    auto oracle = db_.Run(sql);
    ASSERT_TRUE(oracle.ok()) << sql << "\n" << oracle.status().ToString();

    for (Database* db : AllModes()) {
      for (size_t budget : budgets) {
        QueryOptions options;
        options.memory_limit_bytes = budget;
        auto result = db->Run(sql, options);
        const std::string cell = sql + " budget=" + std::to_string(budget);
        if (result.ok()) {
          // Advisory allocations (join-filter summaries, synopsis rebuilds)
          // may shed under pressure, so stats can legitimately differ — the
          // rows may not.
          EXPECT_TRUE(result->rows == oracle->rows) << cell;
        } else {
          EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted)
              << cell << ": " << result.status().ToString();
        }
      }
      // Unlimited again: bit-identical, no residue from refused charges.
      auto clean = db->Run(sql);
      ASSERT_TRUE(clean.ok()) << sql << "\n" << clean.status().ToString();
      EXPECT_TRUE(clean->rows == oracle->rows) << sql;
      EXPECT_TRUE(clean->stats == oracle->stats) << sql;
    }
  }
}

// --- Spill fault points ---------------------------------------------------
//
// The sweeps above never trip the memory budget, so the spill.* points are
// vacuous there. This matrix drives a query that must spill (both join
// sides ~320 KB estimated against a 450 KB limit, DESIGN.md §14) through
// every spill point × kind × executor mode, with the same contract — plus
// one more: the spill directory is empty after every outcome, success or
// failure, so injected I/O errors never leak temp files.
TEST(SpillFaultMatrixTest, SpillPointsAreCuredOrTypedAndLeakFree) {
  namespace fs = std::filesystem;
  const auto files_under = [](const std::string& dir) {
    size_t n = 0;
    std::error_code ec;
    for (auto it = fs::recursive_directory_iterator(dir, ec);
         !ec && it != fs::recursive_directory_iterator(); it.increment(ec)) {
      if (it->is_regular_file(ec)) ++n;
    }
    return n;
  };
  const std::string spill_dir =
      (fs::temp_directory_path() /
       ("mppdb-fault-matrix-spill-" + std::to_string(::getpid())))
          .string();
  fs::create_directories(spill_dir);

  const Executor::Options modes[] = {
      {},
      {.workers = 0},
      {.workers = 4, .morsel_rows = 1024},
  };

  Random rng(20260809);
  for (const Executor::Options& mode : modes) {
    Database db(1, mode);
    ASSERT_TRUE(db.Run("CREATE TABLE d (id BIGINT, t BIGINT)").ok());
    ASSERT_TRUE(db.Run("CREATE TABLE f (a BIGINT, b BIGINT)").ok());
    for (const char* table : {"d", "f"}) {
      for (int64_t base = 0; base < 4000; base += 500) {
        std::string sql = std::string("INSERT INTO ") + table + " VALUES ";
        for (int64_t i = base; i < base + 500; ++i) {
          if (i != base) sql += ", ";
          sql += "(" + std::to_string(i) + ", " + std::to_string(i % 150) + ")";
        }
        ASSERT_TRUE(db.Run(sql).ok());
      }
    }
    const std::string sql = "SELECT count(*) FROM f JOIN d ON f.b = d.id";
    auto oracle = db.Run(sql);
    ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();

    for (const char* point : {"spill.open", "spill.write", "spill.read"}) {
      for (FaultKind kind : {FaultKind::kTransient, FaultKind::kFatal}) {
        // max_fires 1: a transient must be cured by the retry loop;
        // unlimited: every attempt refaults and the typed error surfaces.
        for (int max_fires : {1, -1}) {
          FaultInjector injector(rng.Next());
          FaultSpec spec;
          spec.kind = kind;
          spec.skip_first = static_cast<int>(rng.Uniform(6));
          spec.max_fires = max_fires;
          injector.Arm(point, spec);

          QueryOptions options;
          options.fault_injector = &injector;
          options.max_transient_retries = 2;
          options.retry_backoff_ms = 0;
          options.memory_limit_bytes = 450 * 1000;
          options.spill_dir = spill_dir;
          auto result = db.Run(sql, options);
          const std::string cell =
              std::string("point=") + point +
              (kind == FaultKind::kTransient ? " transient" : " fatal") +
              " max_fires=" + std::to_string(max_fires) +
              " workers=" + std::to_string(mode.workers) +
              " morsel_rows=" + std::to_string(mode.morsel_rows);
          EXPECT_GT(injector.hits(point), 0u) << cell << ": query never spilled";
          if (kind == FaultKind::kTransient && max_fires == 1) {
            // One transient fire, then the query-level retry completes.
            ASSERT_TRUE(result.ok()) << cell << ": "
                                     << result.status().ToString();
          }
          if (result.ok()) {
            EXPECT_TRUE(result->rows == oracle->rows) << cell;
            EXPECT_GT(result->stats.spill_bytes_written, 0u) << cell;
          } else {
            EXPECT_GT(injector.fires(point), 0u) << cell;
            EXPECT_EQ(result.status().code(),
                      kind == FaultKind::kFatal ? StatusCode::kInternal
                                                : StatusCode::kTransientIO)
                << cell << ": " << result.status().ToString();
          }
          EXPECT_EQ(files_under(spill_dir), 0u)
              << cell << ": leaked spill files";
        }
      }
    }
    // The Database is immediately reusable after every injected outcome.
    QueryOptions spill_only;
    spill_only.memory_limit_bytes = 450 * 1000;
    spill_only.spill_dir = spill_dir;
    auto clean = db.Run(sql, spill_only);
    ASSERT_TRUE(clean.ok()) << clean.status().ToString();
    EXPECT_TRUE(clean->rows == oracle->rows);
    EXPECT_GT(clean->stats.spill_bytes_written, 0u);
    EXPECT_EQ(files_under(spill_dir), 0u);
  }
  std::error_code ec;
  fs::remove_all(spill_dir, ec);
}

}  // namespace
}  // namespace mppdb

// Property-based end-to-end test: generate random SQL queries over a
// partitioned star schema and assert that all four execution configurations
// agree on the result multiset:
//   1. Cascades optimizer, partition selection enabled,
//   2. Cascades optimizer, partition selection disabled,
//   3. Cascades optimizer, dynamic elimination disabled,
//   4. the legacy Planner.
// This is the strongest form of the paper's implicit contract: partition
// elimination — static or dynamic, under either optimizer — never changes
// query results, only the partitions touched.
//
// Each query additionally runs through the executor-mode matrix
// {1 worker, pool} x {data skipping on, off} x {default, whole-slice,
// fine-grained morsels} x {row-store, column-store, mixed-per-partition} —
// the morsel legs use a 4-worker pool above the 3 segments, the whole-slice
// leg sets morsel_rows = SIZE_MAX (one morsel per slice), and the
// fine-grained leg forces 1024-row morsels so steals and per-morsel stat
// shards are exercised — asserting bit-identical rows and ExecStats against
// the 1-worker run (zone-map skip counters are zeroed before comparing
// on-vs-off, since those are exactly what skipping is allowed to change),
// plus a runtime join-filter on/off toggle whose only allowed stats
// difference is the joinfilter_* counter family.
//
// Every configuration above is the engine checking itself. The last leg is
// independent of it: when CMake finds SQLite3, the same fact/dim rows are
// loaded into an in-memory SQLite database, every query runs there too, and
// the result multisets must agree. The semantic mapping between the two:
//   - Comparison is of multisets: both sides' rows are sorted before
//     comparing, so row order (which only ORDER BY fixes) never matters.
//   - Integers compare exactly; a value that is REAL on either side
//     (avg(price), or sum over a double column) compares within a relative
//     1e-9, since the engine's two-phase aggregation sums in a different
//     order than SQLite.
//   - NULL handling matches: comparisons are three-valued in both, and
//     sum/min/max/avg over no rows are NULL while count is 0.
//   - Integer division truncates toward zero in both. Division by zero
//     differs (the engine fails the query, SQLite yields NULL), so the
//     generator emits no division.
// Without SQLite3 the leg is compiled out and SqliteOracleLeg reports a
// GTEST_SKIP.

#include <gtest/gtest.h>
#include <unistd.h>

#if MPPDB_HAVE_SQLITE3
#include <sqlite3.h>
#endif

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "common/random.h"
#include "db/database.h"
#include "test_util.h"
#include "types/date.h"

namespace mppdb {
namespace {

using testutil::SameRows;

#if MPPDB_HAVE_SQLITE3
/// One result cell, in the common vocabulary of both engines.
using OracleCell = std::variant<std::monostate, int64_t, double, std::string>;
using OracleRow = std::vector<OracleCell>;

OracleCell ToOracleCell(const Datum& d) {
  if (d.is_null()) return std::monostate{};
  switch (d.type()) {
    case TypeId::kDouble:
      return d.double_value();
    case TypeId::kString:
      return d.string_value();
    default:
      return d.AsInt64();
  }
}

bool IsNumericCell(const OracleCell& c) {
  return std::holds_alternative<int64_t>(c) || std::holds_alternative<double>(c);
}

double CellAsDouble(const OracleCell& c) {
  return std::holds_alternative<int64_t>(c)
             ? static_cast<double>(std::get<int64_t>(c))
             : std::get<double>(c);
}

/// Total order for sorting a multiset: NULL first, then numbers by value
/// (ints and reals interleaved), then strings.
bool CellLess(const OracleCell& a, const OracleCell& b) {
  auto rank = [](const OracleCell& c) {
    return std::holds_alternative<std::monostate>(c) ? 0 : IsNumericCell(c) ? 1 : 2;
  };
  if (rank(a) != rank(b)) return rank(a) < rank(b);
  if (rank(a) == 1) return CellAsDouble(a) < CellAsDouble(b);
  if (rank(a) == 2) return std::get<std::string>(a) < std::get<std::string>(b);
  return false;
}

bool CellsMatch(const OracleCell& a, const OracleCell& b) {
  if (std::holds_alternative<int64_t>(a) && std::holds_alternative<int64_t>(b)) {
    return std::get<int64_t>(a) == std::get<int64_t>(b);
  }
  if (IsNumericCell(a) && IsNumericCell(b)) {
    const double x = CellAsDouble(a);
    const double y = CellAsDouble(b);
    return std::fabs(x - y) <= 1e-9 * std::max({std::fabs(x), std::fabs(y), 1.0});
  }
  return a == b;
}

std::string CellToString(const OracleCell& c) {
  if (std::holds_alternative<std::monostate>(c)) return "NULL";
  if (std::holds_alternative<int64_t>(c)) return std::to_string(std::get<int64_t>(c));
  if (std::holds_alternative<double>(c)) return std::to_string(std::get<double>(c));
  return "'" + std::get<std::string>(c) + "'";
}

std::string RowsToString(const std::vector<OracleRow>& rows) {
  std::string out;
  for (const OracleRow& row : rows) {
    out += "(";
    for (size_t i = 0; i < row.size(); ++i) {
      out += (i > 0 ? ", " : "") + CellToString(row[i]);
    }
    out += ")\n";
  }
  return out;
}

/// Multiset equality under CellsMatch.
bool SameMultiset(std::vector<OracleRow> a, std::vector<OracleRow> b) {
  auto row_less = [](const OracleRow& x, const OracleRow& y) {
    return std::lexicographical_compare(x.begin(), x.end(), y.begin(), y.end(),
                                        CellLess);
  };
  std::sort(a.begin(), a.end(), row_less);
  std::sort(b.begin(), b.end(), row_less);
  if (a.size() != b.size()) return false;
  for (size_t r = 0; r < a.size(); ++r) {
    if (a[r].size() != b[r].size()) return false;
    for (size_t c = 0; c < a[r].size(); ++c) {
      if (!CellsMatch(a[r][c], b[r][c])) return false;
    }
  }
  return true;
}

/// An in-memory SQLite database holding the same rows as the engine's.
class SqliteOracle {
 public:
  SqliteOracle() { MPPDB_CHECK(sqlite3_open(":memory:", &db_) == SQLITE_OK); }
  ~SqliteOracle() { sqlite3_close(db_); }
  SqliteOracle(const SqliteOracle&) = delete;
  SqliteOracle& operator=(const SqliteOracle&) = delete;

  void Exec(const std::string& sql) {
    MPPDB_CHECK(sqlite3_exec(db_, sql.c_str(), nullptr, nullptr, nullptr) ==
                SQLITE_OK);
  }

  /// Inserts `rows` into `table` through one prepared statement.
  void Load(const std::string& table, const std::vector<Row>& rows) {
    MPPDB_CHECK(!rows.empty());
    Exec("BEGIN");
    std::string sql = "INSERT INTO " + table + " VALUES (?";
    for (size_t i = 1; i < rows[0].size(); ++i) sql += ", ?";
    sql += ")";
    sqlite3_stmt* stmt = nullptr;
    MPPDB_CHECK(sqlite3_prepare_v2(db_, sql.c_str(), -1, &stmt, nullptr) == SQLITE_OK);
    for (const Row& row : rows) {
      sqlite3_reset(stmt);
      for (size_t i = 0; i < row.size(); ++i) {
        const int slot = static_cast<int>(i) + 1;
        const Datum& d = row[i];
        if (d.is_null()) {
          sqlite3_bind_null(stmt, slot);
        } else if (d.type() == TypeId::kDouble) {
          sqlite3_bind_double(stmt, slot, d.double_value());
        } else if (d.type() == TypeId::kString) {
          sqlite3_bind_text(stmt, slot, d.string_value().c_str(), -1,
                            SQLITE_TRANSIENT);
        } else {
          sqlite3_bind_int64(stmt, slot, d.AsInt64());
        }
      }
      MPPDB_CHECK(sqlite3_step(stmt) == SQLITE_DONE);
    }
    sqlite3_finalize(stmt);
    Exec("COMMIT");
  }

  /// Runs `sql`; false (with `error` set) if SQLite rejects it.
  bool Query(const std::string& sql, std::vector<OracleRow>* rows,
             std::string* error) {
    sqlite3_stmt* stmt = nullptr;
    if (sqlite3_prepare_v2(db_, sql.c_str(), -1, &stmt, nullptr) != SQLITE_OK) {
      *error = sqlite3_errmsg(db_);
      return false;
    }
    int rc;
    while ((rc = sqlite3_step(stmt)) == SQLITE_ROW) {
      OracleRow row;
      for (int c = 0; c < sqlite3_column_count(stmt); ++c) {
        switch (sqlite3_column_type(stmt, c)) {
          case SQLITE_INTEGER:
            row.emplace_back(static_cast<int64_t>(sqlite3_column_int64(stmt, c)));
            break;
          case SQLITE_FLOAT:
            row.emplace_back(sqlite3_column_double(stmt, c));
            break;
          case SQLITE_TEXT:
            row.emplace_back(std::string(
                reinterpret_cast<const char*>(sqlite3_column_text(stmt, c))));
            break;
          default:
            row.emplace_back(std::monostate{});
            break;
        }
      }
      rows->push_back(std::move(row));
    }
    if (rc != SQLITE_DONE) *error = sqlite3_errmsg(db_);
    sqlite3_finalize(stmt);
    return rc == SQLITE_DONE;
  }

 private:
  sqlite3* db_ = nullptr;
};
#endif  // MPPDB_HAVE_SQLITE3

class RandomQueryTest : public ::testing::Test {
 protected:
  RandomQueryTest()
      : db_(3),
        db_parallel_(3, Executor::Options{.workers = 0}),
        db_noskip_(3, Executor::Options{.data_skipping = false}),
        db_noskip_parallel_(3, Executor::Options{.workers = 0,
                                                 .data_skipping = false}),
        db_parallel_nomorsel_(3, Executor::Options{.workers = 4,
                                                   .morsel_rows = SIZE_MAX}),
        db_parallel_fine_(3, Executor::Options{.workers = 4,
                                               .morsel_rows = 1024}),
        db_column_(3),
        db_column_parallel_(3, Executor::Options{.workers = 0}),
        db_mixed_(3),
        db_nospill_(3, Executor::Options{.spill = false}),
        db_nospill_parallel_(3, Executor::Options{.workers = 0,
                                                  .spill = false}) {
    Random rng(4242);
    std::vector<Row> fact_rows;
    for (int i = 0; i < 600; ++i) {
      fact_rows.push_back({Datum::Int64(rng.UniformRange(0, 399)),
                           Datum::Int64(rng.UniformRange(1, 10)),
                           Datum::Double(rng.NextDouble() * 100)});
    }
    std::vector<Row> dim_rows;
    for (int k = 0; k < 400; k += 3) {
      dim_rows.push_back({Datum::Int64(k), Datum::Int64(k % 7),
                          Datum::String(k % 2 == 0 ? "even" : "odd")});
    }
    // All executor-mode databases carry identical storage contents, so any
    // divergence below is an executor-mode difference.
    for (Database* db : AllModes()) {
      // fact(sk, qty, price) partitioned on sk into 16 ranges of 25.
      MPPDB_CHECK(db->CreatePartitionedTable(
                         "fact", Schema({{"sk", TypeId::kInt64},
                                         {"qty", TypeId::kInt64},
                                         {"price", TypeId::kDouble}}),
                         TableDistribution::kHashed, {1},
                         {{0, PartitionMethod::kRange}},
                         {partition_bounds::IntRanges(0, 25, 16)})
                      .ok());
      MPPDB_CHECK(db->CreateTable("dim", Schema({{"k", TypeId::kInt64},
                                                 {"grp", TypeId::kInt64},
                                                 {"tag", TypeId::kString}}),
                                  TableDistribution::kHashed, {0})
                      .ok());
      MPPDB_CHECK(db->Load("fact", fact_rows).ok());
      MPPDB_CHECK(db->Load("dim", dim_rows).ok());
      // Indexes on the join/partition keys: the reference legs may now pick
      // index access paths (range seeks, index joins), so the whole matrix
      // exercises them; the index-off leg below pins down their oracle.
      MPPDB_CHECK(db->Run("CREATE INDEX ON fact (sk)").ok());
      MPPDB_CHECK(db->Run("CREATE INDEX ON dim (k)").ok());
    }
    // Storage axis: same data, column-oriented (1 worker and pool) and
    // mixed-per-partition. Encoded-data evaluation may only
    // change its own counters, never rows or downstream stats.
    for (Database* db : {&db_column_, &db_column_parallel_}) {
      MPPDB_CHECK(db->Run("ALTER TABLE fact SET WITH (orientation = column)").ok());
      MPPDB_CHECK(db->Run("ALTER TABLE dim SET WITH (orientation = column)").ok());
    }
    for (int p = 0; p < 16; p += 2) {
      MPPDB_CHECK(db_mixed_
                      .Run("ALTER TABLE fact SET PARTITION r" + std::to_string(p) +
                           " WITH (orientation = column)")
                      .ok());
    }
#if MPPDB_HAVE_SQLITE3
    sqlite_.Exec("CREATE TABLE fact (sk INTEGER, qty INTEGER, price REAL)");
    sqlite_.Exec("CREATE TABLE dim (k INTEGER, grp INTEGER, tag TEXT)");
    sqlite_.Load("fact", fact_rows);
    sqlite_.Load("dim", dim_rows);
#endif
  }

  std::vector<Database*> AllModes() {
    return {&db_,          &db_parallel_,          &db_noskip_,
            &db_noskip_parallel_, &db_parallel_nomorsel_, &db_parallel_fine_,
            &db_column_,   &db_column_parallel_,   &db_mixed_,
            &db_nospill_,  &db_nospill_parallel_};
  }

  /// The independent-oracle leg: `engine_rows` must equal SQLite's answer to
  /// `sql` as a multiset (see the file comment for the mapping).
  void CheckAgainstSqlite(const std::string& sql,
                          const std::vector<Row>& engine_rows) {
#if MPPDB_HAVE_SQLITE3
    std::vector<OracleRow> expected;
    std::string error;
    ASSERT_TRUE(sqlite_.Query(sql, &expected, &error)) << sql << "\n" << error;
    std::vector<OracleRow> actual;
    for (const Row& row : engine_rows) {
      OracleRow cells;
      for (const Datum& d : row) cells.push_back(ToOracleCell(d));
      actual.push_back(std::move(cells));
    }
    EXPECT_TRUE(SameMultiset(actual, expected))
        << sql << "\nengine:\n" << RowsToString(actual) << "sqlite:\n"
        << RowsToString(expected);
    ++sqlite_checks_;
#else
    (void)sql;
    (void)engine_rows;
#endif
  }

  // Random predicate over the given column names (int-typed).
  std::string RandomPredicate(Random* rng, const std::vector<std::string>& columns,
                              int depth) {
    if (depth == 0 || rng->Bernoulli(0.55)) {
      const std::string& column = columns[rng->Uniform(columns.size())];
      switch (rng->Uniform(5)) {
        case 0:
          return column + " < " + std::to_string(rng->UniformRange(-50, 450));
        case 1:
          return column + " >= " + std::to_string(rng->UniformRange(-50, 450));
        case 2:
          return column + " = " + std::to_string(rng->UniformRange(0, 400));
        case 3:
          return column + " BETWEEN " + std::to_string(rng->UniformRange(0, 200)) +
                 " AND " + std::to_string(rng->UniformRange(150, 420));
        default:
          return column + " IN (" + std::to_string(rng->UniformRange(0, 400)) + ", " +
                 std::to_string(rng->UniformRange(0, 400)) + ", " +
                 std::to_string(rng->UniformRange(0, 400)) + ")";
      }
    }
    std::string op = rng->Bernoulli(0.6) ? " AND " : " OR ";
    return "(" + RandomPredicate(rng, columns, depth - 1) + op +
           RandomPredicate(rng, columns, depth - 1) + ")";
  }

  void CheckAllConfigsAgree(const std::string& sql) {
    QueryOptions reference_options;
    auto reference = db_.Run(sql, reference_options);
    ASSERT_TRUE(reference.ok()) << sql << "\n" << reference.status().ToString();

    // Independent oracle first: the 1-worker run must match SQLite.
    CheckAgainstSqlite(sql, reference->rows);

    // Executor-mode matrix: 1 worker vs a pool with default, whole-slice
    // (SIZE_MAX) and fine-grained morsels must be bit-identical — same rows
    // in the same order, same ExecStats.
    for (Database* db : {&db_parallel_, &db_parallel_nomorsel_, &db_parallel_fine_}) {
      auto mode_result = db->Run(sql, reference_options);
      ASSERT_TRUE(mode_result.ok())
          << sql << "\n" << mode_result.status().ToString();
      EXPECT_TRUE(reference->rows == mode_result->rows)
          << sql << " (morsel_rows=" << db->exec_options().morsel_rows << ")";
      EXPECT_TRUE(reference->stats == mode_result->stats)
          << sql << " (morsel_rows=" << db->exec_options().morsel_rows << ")";
    }

    // Storage axis: row-store, column-store, and mixed-per-partition must
    // produce bit-identical rows, and bit-identical stats once the encoded-
    // path counters — the only thing the encoded fast path may change — are
    // zeroed on the columnar side.
    for (Database* db : {&db_column_, &db_column_parallel_, &db_mixed_}) {
      auto mode_result = db->Run(sql, reference_options);
      ASSERT_TRUE(mode_result.ok())
          << sql << "\n" << mode_result.status().ToString();
      EXPECT_TRUE(reference->rows == mode_result->rows)
          << sql << " (columnar, workers=" << db->exec_options().workers << ")";
      EXPECT_TRUE(reference->stats == mode_result->stats.WithoutEncodedCounters())
          << sql << " (columnar, workers=" << db->exec_options().workers << ")";
    }

    // Skipping-off modes: identical rows, and identical stats once the skip
    // counters — the only thing zone maps may change — are zeroed on the
    // skipping-on side. Join-filter counters are zeroed on both sides: how
    // many rows a filter probes (vs skips wholesale at chunk level) depends
    // on zone maps, but everything the filters feed downstream does not.
    const ExecStats reference_noskip =
        reference->stats.WithoutSkipCounters().WithoutJoinFilterCounters();
    for (Database* db : {&db_noskip_, &db_noskip_parallel_}) {
      auto mode_result = db->Run(sql, reference_options);
      ASSERT_TRUE(mode_result.ok())
          << sql << "\n" << mode_result.status().ToString();
      EXPECT_TRUE(reference->rows == mode_result->rows)
          << sql << " (skipping off, workers=" << db->exec_options().workers << ")";
      EXPECT_TRUE(reference_noskip == mode_result->stats.WithoutJoinFilterCounters())
          << sql << " (skipping off, workers=" << db->exec_options().workers << ")";
    }

    // Runtime join filters are transparent: with filters disabled the same
    // plan shape produces the same rows in the same order and bit-identical
    // stats except the joinfilter_* counters, which must all read zero.
    QueryOptions no_filters = reference_options;
    no_filters.enable_join_filters = false;
    auto unfiltered = db_.Run(sql, no_filters);
    ASSERT_TRUE(unfiltered.ok()) << sql << "\n" << unfiltered.status().ToString();
    EXPECT_TRUE(reference->rows == unfiltered->rows) << sql << " (filters off)";
    EXPECT_TRUE(reference->stats.WithoutJoinFilterCounters() == unfiltered->stats)
        << sql << " (filters off)";

    // Index access paths: with the toggle off the optimizer plans exactly
    // as before indexes existed, yet the rows must be bit-identical — same
    // rows in the same order — and the index/top-N counters must read zero.
    // Scan-footprint stats are NOT compared: a seek can legitimately
    // displace a dynamic-elimination arrangement (different partitions
    // touched for the same answer); the shape-for-shape footprint contract
    // lives in index_exec_test.
    QueryOptions no_index = reference_options;
    no_index.enable_index_paths = false;
    auto unindexed = db_.Run(sql, no_index);
    ASSERT_TRUE(unindexed.ok()) << sql << "\n" << unindexed.status().ToString();
    EXPECT_TRUE(reference->rows == unindexed->rows) << sql << " (index off)";
    EXPECT_EQ(unindexed->stats.index_seeks, 0u) << sql;
    EXPECT_EQ(unindexed->stats.index_rows_read, 0u) << sql;
    EXPECT_EQ(unindexed->stats.topn_rows_cut, 0u) << sql;

    QueryOptions no_selection;
    no_selection.enable_partition_selection = false;
    auto unpruned = db_.Run(sql, no_selection);
    ASSERT_TRUE(unpruned.ok()) << sql;
    EXPECT_TRUE(SameRows(reference->rows, unpruned->rows)) << sql;

    QueryOptions no_dpe;
    no_dpe.enable_dynamic_elimination = false;
    auto static_only = db_.Run(sql, no_dpe);
    ASSERT_TRUE(static_only.ok()) << sql;
    EXPECT_TRUE(SameRows(reference->rows, static_only->rows)) << sql;

    QueryOptions legacy;
    legacy.optimizer = OptimizerKind::kLegacyPlanner;
    auto planner = db_.Run(sql, legacy);
    ASSERT_TRUE(planner.ok()) << sql;
    EXPECT_TRUE(SameRows(reference->rows, planner->rows)) << sql;

    // Pruning soundness: enabled never scans more than disabled. Compared
    // on index-free legs so both sides have the same plan shape — with
    // index paths in play, the cost model may pick a statically-pruned seek
    // over a dynamically-eliminated scan, and the two footprints are not
    // ordered.
    QueryOptions pruned_opts = no_index;
    pruned_opts.enable_index_join = false;
    auto pruned_plain = db_.Run(sql, pruned_opts);
    ASSERT_TRUE(pruned_plain.ok()) << sql;
    QueryOptions no_selection_plain = pruned_opts;
    no_selection_plain.enable_partition_selection = false;
    auto unpruned_plain = db_.Run(sql, no_selection_plain);
    ASSERT_TRUE(unpruned_plain.ok()) << sql;
    EXPECT_LE(pruned_plain->stats.TotalPartitionsScanned(),
              unpruned_plain->stats.TotalPartitionsScanned())
        << sql;
  }

  Database db_;
  Database db_parallel_;
  Database db_noskip_;
  Database db_noskip_parallel_;
  Database db_parallel_nomorsel_;
  Database db_parallel_fine_;
  Database db_column_;
  Database db_column_parallel_;
  Database db_mixed_;
  Database db_nospill_;
  Database db_nospill_parallel_;
#if MPPDB_HAVE_SQLITE3
  SqliteOracle sqlite_;
#endif
  /// Queries the SQLite leg compared (stays 0 when it is compiled out).
  size_t sqlite_checks_ = 0;
};

// The SQLite leg must actually run: every CheckAllConfigsAgree call counts
// one comparison. Also pins the oracle itself on hand-checkable answers.
TEST_F(RandomQueryTest, SqliteOracleLeg) {
#if MPPDB_HAVE_SQLITE3
  for (const char* sql :
       {"SELECT count(*), sum(qty), min(sk), max(sk) FROM fact",
        "SELECT count(*), sum(qty) FROM fact WHERE sk < 0",
        "SELECT grp, count(*) FROM dim GROUP BY grp",
        "SELECT count(*) FROM fact f JOIN dim d ON f.sk = d.k"}) {
    CheckAllConfigsAgree(sql);
  }
  EXPECT_EQ(sqlite_checks_, 4u);
  std::vector<OracleRow> empty_sum;
  std::string error;
  ASSERT_TRUE(
      sqlite_.Query("SELECT count(*), sum(qty) FROM fact WHERE sk < 0", &empty_sum,
                    &error))
      << error;
  ASSERT_EQ(empty_sum.size(), 1u);
  EXPECT_TRUE(CellsMatch(empty_sum[0][0], OracleCell(int64_t{0})));
  EXPECT_TRUE(std::holds_alternative<std::monostate>(empty_sum[0][1]));
#else
  GTEST_SKIP() << "SQLite3 was not found at configure time; the independent "
                  "oracle leg is compiled out";
#endif
}

TEST_F(RandomQueryTest, SingleTableFilters) {
  Random rng(1);
  for (int trial = 0; trial < 60; ++trial) {
    std::string sql = "SELECT count(*), sum(qty) FROM fact WHERE " +
                      RandomPredicate(&rng, {"sk", "qty"}, 2);
    CheckAllConfigsAgree(sql);
  }
}

TEST_F(RandomQueryTest, JoinsWithRandomFilters) {
  Random rng(2);
  for (int trial = 0; trial < 40; ++trial) {
    std::string sql =
        "SELECT count(*) FROM fact f JOIN dim d ON f.sk = d.k WHERE " +
        RandomPredicate(&rng, {"grp", "qty"}, 1);
    if (rng.Bernoulli(0.5)) {
      sql += " AND " + RandomPredicate(&rng, {"sk"}, 0);
    }
    CheckAllConfigsAgree(sql);
  }
}

TEST_F(RandomQueryTest, InSubqueries) {
  Random rng(3);
  for (int trial = 0; trial < 30; ++trial) {
    std::string sql = "SELECT count(*), min(sk), max(sk) FROM fact WHERE sk IN "
                      "(SELECT k FROM dim WHERE " +
                      RandomPredicate(&rng, {"grp", "k"}, 1) + ")";
    CheckAllConfigsAgree(sql);
  }
}

TEST_F(RandomQueryTest, GroupByQueries) {
  Random rng(4);
  for (int trial = 0; trial < 25; ++trial) {
    std::string sql = "SELECT qty, count(*), avg(price) FROM fact WHERE " +
                      RandomPredicate(&rng, {"sk"}, 1) +
                      " GROUP BY qty ORDER BY qty";
    CheckAllConfigsAgree(sql);
  }
}

// Spill axis (DESIGN.md §14): random queries under random memory budgets,
// spill on vs off, composed with {1 worker, pool}.
// The property, per (query, budget, mode) cell:
//   - if spill-off succeeds, the budget never constrained anything mandatory
//     and spill-on must be bit-identical — rows, order, AND stats, so the
//     spill machinery is provably inert until the budget actually refuses;
//   - if spill-off fails kResourceExhausted, spill-on either completes with
//     exactly the unlimited oracle's rows (spilling is invisible in results)
//     or fails kResourceExhausted itself (Motion receive buffers and other
//     never-spilled mandatory charges can still exceed the budget);
//   - nothing else may happen, and no spill files survive either outcome.
TEST_F(RandomQueryTest, SpillOnOffBudgetSweepAgrees) {
  namespace fs = std::filesystem;
  const std::string spill_dir =
      (fs::temp_directory_path() /
       ("mppdb-random-spill-" + std::to_string(::getpid())))
          .string();
  fs::create_directories(spill_dir);
  const auto files_under = [&spill_dir]() {
    size_t n = 0;
    std::error_code ec;
    for (auto it = fs::recursive_directory_iterator(spill_dir, ec);
         !ec && it != fs::recursive_directory_iterator(); it.increment(ec)) {
      if (it->is_regular_file(ec)) ++n;
    }
    return n;
  };

  const std::pair<Database*, Database*> pairs[] = {
      {&db_, &db_nospill_},
      {&db_parallel_, &db_nospill_parallel_},
  };
  size_t spilled_cells = 0;  // cells where spilling rescued a refused query
  Random rng(6);
  for (int trial = 0; trial < 20; ++trial) {
    std::string sql;
    switch (trial % 3) {
      case 0:
        sql = "SELECT qty, count(*), avg(price) FROM fact WHERE " +
              RandomPredicate(&rng, {"sk"}, 1) + " GROUP BY qty ORDER BY qty";
        break;
      case 1:
        sql = "SELECT count(*) FROM fact f JOIN dim d ON f.sk = d.k WHERE " +
              RandomPredicate(&rng, {"qty"}, 1);
        break;
      default:
        sql = "SELECT sk, qty FROM fact WHERE " +
              RandomPredicate(&rng, {"sk", "qty"}, 1) + " ORDER BY sk";
        break;
    }
    auto oracle = db_.Run(sql);
    ASSERT_TRUE(oracle.ok()) << sql << "\n" << oracle.status().ToString();

    for (const auto& [spill_db, nospill_db] : pairs) {
      for (int b = 0; b < 4; ++b) {
        const size_t budget = size_t{1} << rng.UniformRange(10, 17);
        QueryOptions options;
        options.memory_limit_bytes = budget;
        options.spill_dir = spill_dir;
        auto off = nospill_db->Run(sql, options);
        auto on = spill_db->Run(sql, options);
        const std::string cell =
            sql + " budget=" + std::to_string(budget) +
            " workers=" + std::to_string(spill_db->exec_options().workers);
        if (off.ok()) {
          ASSERT_TRUE(on.ok()) << cell << ": " << on.status().ToString();
          EXPECT_TRUE(on->rows == off->rows) << cell;
          EXPECT_TRUE(on->stats == off->stats) << cell;
          EXPECT_EQ(on->stats.spill_bytes_written, 0u) << cell;
        } else {
          ASSERT_EQ(off.status().code(), StatusCode::kResourceExhausted)
              << cell << ": " << off.status().ToString();
          if (on.ok()) {
            EXPECT_TRUE(on->rows == oracle->rows) << cell;
            EXPECT_GT(on->stats.spill_bytes_written, 0u) << cell;
            ++spilled_cells;
          } else {
            EXPECT_EQ(on.status().code(), StatusCode::kResourceExhausted)
                << cell << ": " << on.status().ToString();
          }
        }
        EXPECT_EQ(files_under(), 0u) << cell << ": leaked spill files";
      }
    }
  }
  // The sweep is deterministic (fixed seed): the rescue branch — refused
  // without spilling, completed with it — must actually be exercised.
  EXPECT_GT(spilled_cells, 0u);
  std::error_code ec;
  fs::remove_all(spill_dir, ec);
}

TEST_F(RandomQueryTest, PreparedStatementsPruneConsistently) {
  Random rng(5);
  for (int trial = 0; trial < 25; ++trial) {
    int64_t bound = rng.UniformRange(0, 420);
    QueryOptions with_param;
    with_param.params = {Datum::Int64(bound)};
    auto prepared = db_.Run("SELECT count(*) FROM fact WHERE sk < $1", with_param);
    ASSERT_TRUE(prepared.ok());
    auto inlined =
        db_.Run("SELECT count(*) FROM fact WHERE sk < " + std::to_string(bound));
    ASSERT_TRUE(inlined.ok());
    EXPECT_TRUE(SameRows(prepared->rows, inlined->rows)) << "bound=" << bound;
    // Both prune identically at run time.
    Oid fact_oid = db_.catalog().FindTable("fact")->oid;
    EXPECT_EQ(prepared->stats.PartitionsScanned(fact_oid),
              inlined->stats.PartitionsScanned(fact_oid));
  }
}

}  // namespace
}  // namespace mppdb

// End-to-end columnar execution: per-partition storage orientation DDL
// (CREATE ... WITH, ALTER TABLE SET [PARTITION] WITH), the EXPLAIN storage
// footer, and the core contract of encoded-data predicate evaluation — a
// column-oriented table returns bit-identical rows and (modulo the encoded-
// path counters, which are exactly what the fast path is allowed to change)
// bit-identical ExecStats to the row-store oracle, across
// {1 worker, pool} x {skipping on, off}, including error outcomes. Encoded
// evaluation follows each partition's orientation: the row-store oracle
// never takes it.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/random.h"
#include "db/database.h"
#include "optimizer/stats.h"
#include "test_util.h"

namespace mppdb {
namespace {

class ColumnarExecTest : public ::testing::Test {
 protected:
  ColumnarExecTest()
      : row_(3),
        col_(3),
        col_par_(3, Executor::Options{.workers = 0}),
        col_noskip_(3, Executor::Options{.data_skipping = false}),
        mixed_(3) {
    Random rng(9001);
    std::vector<Row> sales_rows;
    for (int i = 0; i < 5000; ++i) {
      // sk routes the partition; qty is NULL now and then; tag and region are
      // low-cardinality strings (dictionary territory).
      sales_rows.push_back(
          {Datum::Int64(rng.UniformRange(0, 399)),
           rng.Bernoulli(0.06) ? Datum::Null()
                               : Datum::Int64(rng.UniformRange(0, 9)),
           Datum::String("t" + std::to_string(rng.Uniform(4))),
           Datum::Double(rng.NextDouble() * 100)});
    }
    std::vector<Row> dim_rows;
    for (int k = 0; k < 400; k += 2) {
      dim_rows.push_back({Datum::Int64(k), Datum::String(k % 3 == 0 ? "a" : "b")});
    }
    for (Database* db : AllDbs()) {
      MPPDB_CHECK(db->CreatePartitionedTable(
                         "sales", Schema({{"sk", TypeId::kInt64},
                                          {"qty", TypeId::kInt64},
                                          {"tag", TypeId::kString},
                                          {"price", TypeId::kDouble}}),
                         TableDistribution::kHashed, {0},
                         {{0, PartitionMethod::kRange}},
                         {partition_bounds::IntRanges(0, 50, 8)})
                      .ok());
      MPPDB_CHECK(db->CreateTable("dim", Schema({{"k", TypeId::kInt64},
                                                 {"cls", TypeId::kString}}),
                                  TableDistribution::kHashed, {0})
                      .ok());
      MPPDB_CHECK(db->Load("sales", sales_rows).ok());
      MPPDB_CHECK(db->Load("dim", dim_rows).ok());
    }
    // Everything except the row oracle goes column-oriented through the DDL
    // path; the mixed database flips only half the sales partitions.
    for (Database* db : ColumnDbs()) {
      MPPDB_CHECK(db->Run("ALTER TABLE sales SET WITH (orientation = column)").ok());
      MPPDB_CHECK(db->Run("ALTER TABLE dim SET WITH (orientation = column)").ok());
    }
    for (int p = 0; p < 8; p += 2) {
      MPPDB_CHECK(mixed_
                      .Run("ALTER TABLE sales SET PARTITION r" + std::to_string(p) +
                           " WITH (orientation = column)")
                      .ok());
    }
  }

  std::vector<Database*> AllDbs() {
    return {&row_, &col_, &col_par_, &col_noskip_, &mixed_};
  }
  std::vector<Database*> ColumnDbs() {
    return {&col_, &col_par_, &col_noskip_};
  }

  // The encoded fast path may only change its own counters; everything the
  // query feeds downstream must match the row oracle bit for bit. With
  // skipping off, the skip counters and every joinfilter_* counter but
  // joinfilter_built are masked too: how many rows a filter probes depends
  // on zone maps, whether it is built does not.
  static ExecStats MaskSkipCounters(const ExecStats& stats) {
    ExecStats out = stats.WithoutSkipCounters().WithoutJoinFilterCounters();
    out.joinfilter_built = stats.joinfilter_built;
    return out;
  }

  void CheckAgainstRowOracle(const std::string& sql) {
    auto reference = row_.Run(sql);
    ASSERT_TRUE(reference.ok()) << sql << "\n" << reference.status().ToString();
    const ExecStats reference_noskip = MaskSkipCounters(reference->stats);
    for (Database* db : ColumnDbs()) {
      auto mode = db->Run(sql);
      ASSERT_TRUE(mode.ok()) << sql << "\n" << mode.status().ToString();
      const bool skipping = db->exec_options().data_skipping;
      EXPECT_TRUE(reference->rows == mode->rows)
          << sql << " (workers=" << db->exec_options().workers
          << " skipping=" << skipping << ")";
      const ExecStats mode_stats = mode->stats.WithoutEncodedCounters();
      if (skipping) {
        EXPECT_TRUE(reference->stats == mode_stats)
            << sql << " (workers=" << db->exec_options().workers << ")";
      } else {
        EXPECT_TRUE(reference_noskip == MaskSkipCounters(mode_stats))
            << sql << " (skipping off)";
      }
    }
    auto mixed = mixed_.Run(sql);
    ASSERT_TRUE(mixed.ok()) << sql << "\n" << mixed.status().ToString();
    EXPECT_TRUE(reference->rows == mixed->rows) << sql << " (mixed orientation)";
    EXPECT_TRUE(reference->stats == mixed->stats.WithoutEncodedCounters())
        << sql << " (mixed orientation)";
  }

  Database row_;
  Database col_;
  Database col_par_;
  Database col_noskip_;
  Database mixed_;
};

TEST_F(ColumnarExecTest, SelectiveScansMatchRowOracle) {
  for (const char* sql : {
           "SELECT count(*), sum(qty) FROM sales WHERE tag = 't1'",
           "SELECT count(*) FROM sales WHERE tag IN ('t0', 't3') AND qty < 4",
           "SELECT sk, qty FROM sales WHERE sk BETWEEN 90 AND 110 AND tag = 't2' "
           "ORDER BY sk, qty",
           "SELECT count(*) FROM sales WHERE qty IS NULL",
           "SELECT count(*) FROM sales WHERE qty IS NOT NULL AND qty >= 7",
           "SELECT count(*) FROM sales WHERE tag = 't0' OR tag = 't3'",
           "SELECT count(*), avg(price) FROM sales WHERE sk < 120 AND "
           "price * 2 < 50",  // arithmetic residual on encoded survivors
           "SELECT tag, count(*) FROM sales WHERE qty IN (1, 2, 5) "
           "GROUP BY tag ORDER BY tag",
       }) {
    CheckAgainstRowOracle(sql);
  }
}

TEST_F(ColumnarExecTest, JoinsAndSubqueriesMatchRowOracle) {
  for (const char* sql : {
           "SELECT count(*) FROM sales s JOIN dim d ON s.sk = d.k "
           "WHERE s.tag = 't1' AND d.cls = 'a'",
           "SELECT count(*) FROM sales WHERE sk IN "
           "(SELECT k FROM dim WHERE cls = 'b') AND tag = 't2'",
       }) {
    CheckAgainstRowOracle(sql);
  }
}

TEST_F(ColumnarExecTest, EncodedEvalActuallyEngages) {
  auto result = col_.Run("SELECT count(*) FROM sales WHERE tag = 't1'");
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->stats.chunks_encoded_eval, 0u);
  EXPECT_GT(result->stats.encoded_bytes_scanned, 0u);
  // Late materialization touches only survivors, a strict subset here.
  EXPECT_LT(result->stats.rows_late_materialized, result->stats.tuples_scanned);
  // Row-oriented partitions never take the encoded path.
  auto row = row_.Run("SELECT count(*) FROM sales WHERE tag = 't1'");
  ASSERT_TRUE(row.ok());
  EXPECT_EQ(row->stats.chunks_encoded_eval, 0u);
  EXPECT_EQ(row->stats.rows_late_materialized, 0u);
}

TEST_F(ColumnarExecTest, ErrorOutcomesMatchRowOracle) {
  // The residual divides by zero on rows the compiled prefix keeps alive;
  // every mode must surface the same execution error.
  const std::string sql =
      "SELECT count(*) FROM sales WHERE tag = 't1' AND qty / (sk - sk) = 1";
  auto reference = row_.Run(sql);
  ASSERT_FALSE(reference.ok());
  for (Database* db : ColumnDbs()) {
    auto mode = db->Run(sql);
    ASSERT_FALSE(mode.ok()) << "workers=" << db->exec_options().workers
                            << " skipping=" << db->exec_options().data_skipping;
    EXPECT_EQ(mode.status().code(), reference.status().code());
  }
}

TEST_F(ColumnarExecTest, DictionaryNdvFeedsTheEstimator) {
  // A scan builds the encoded images; after that the estimator's NDV for the
  // dictionary-coded tag column is exact (4 distinct values), not the
  // non-null-count fallback.
  ASSERT_TRUE(col_.Run("SELECT count(*) FROM sales WHERE tag = 't1'").ok());
  CardinalityEstimator estimator(&col_.storage());
  Oid sales_oid = col_.catalog().FindTable("sales")->oid;
  auto stats = estimator.TableColumnStats(sales_oid, 2);
  ASSERT_TRUE(stats.has_value());
  EXPECT_EQ(stats->ndv, 4.0);
  // The row-store database keeps the rollup estimate for the same column.
  CardinalityEstimator row_estimator(&row_.storage());
  Oid row_oid = row_.catalog().FindTable("sales")->oid;
  auto row_stats = row_estimator.TableColumnStats(row_oid, 2);
  ASSERT_TRUE(row_stats.has_value());
  EXPECT_GT(row_stats->ndv, 4.0);
}

TEST_F(ColumnarExecTest, DmlAfterAlterStaysCorrect) {
  // Insert through SQL after the table went columnar: the encoded images are
  // staled and lazily rebuilt; results stay identical to the row oracle.
  for (Database* db : AllDbs()) {
    ASSERT_TRUE(db->Run("INSERT INTO sales VALUES (7, 3, 't9', 1.5)").ok());
    ASSERT_TRUE(db->Run("UPDATE sales SET qty = 8 WHERE sk = 7 AND tag = 't9'").ok());
  }
  CheckAgainstRowOracle("SELECT count(*), sum(qty) FROM sales WHERE tag = 't9'");
  for (Database* db : AllDbs()) {
    ASSERT_TRUE(db->Run("DELETE FROM sales WHERE tag = 't9'").ok());
  }
  CheckAgainstRowOracle("SELECT count(*) FROM sales WHERE tag = 't9'");
}

TEST_F(ColumnarExecTest, ExplainPrintsStorageFooter) {
  auto plan = col_.Explain("SELECT count(*) FROM sales WHERE tag = 't1'");
  ASSERT_TRUE(plan.ok());
  EXPECT_NE(plan->find("Storage: sales (default column)"), std::string::npos)
      << *plan;
  EXPECT_NE(plan->find("tag: dict"), std::string::npos) << *plan;
  EXPECT_NE(plan->find("r0: column ("), std::string::npos) << *plan;

  // Mixed orientation: flipped partitions print column, the rest row.
  auto mixed_plan = mixed_.Explain("SELECT count(*) FROM sales");
  ASSERT_TRUE(mixed_plan.ok());
  EXPECT_NE(mixed_plan->find("Storage: sales (default row)"), std::string::npos)
      << *mixed_plan;
  EXPECT_NE(mixed_plan->find("r0: column ("), std::string::npos) << *mixed_plan;
  EXPECT_NE(mixed_plan->find("r1: row"), std::string::npos) << *mixed_plan;

  // Row-oriented tables keep EXPLAIN byte-compatible: no footer at all.
  auto row_plan = row_.Explain("SELECT count(*) FROM sales");
  ASSERT_TRUE(row_plan.ok());
  EXPECT_EQ(row_plan->find("Storage:"), std::string::npos) << *row_plan;
}

TEST(ColumnarDdlTest, CreateTableWithOrientationOption) {
  Database db(2);
  ASSERT_TRUE(db.Run("CREATE TABLE ct (a INT, b VARCHAR) "
                     "WITH (orientation = column)")
                  .ok());
  const TableDescriptor* table = db.catalog().FindTable("ct");
  ASSERT_NE(table, nullptr);
  EXPECT_EQ(table->default_orientation, StorageOrientation::kColumn);
  ASSERT_TRUE(db.Run("INSERT INTO ct VALUES (1, 'x'), (2, 'y'), (2, 'x')").ok());
  auto result = db.Run("SELECT count(*) FROM ct WHERE b = 'x'");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->rows[0][0].int64_value(), 2);
}

TEST(ColumnarDdlTest, AlterTableAndPartitionRoundTrip) {
  Database db(2);
  ASSERT_TRUE(db.CreatePartitionedTable(
                    "t", Schema({{"k", TypeId::kInt64}, {"v", TypeId::kString}}),
                    TableDistribution::kHashed, {0},
                    {{0, PartitionMethod::kRange}},
                    {partition_bounds::IntRanges(0, 10, 4)})
                  .ok());
  const TableDescriptor* table = db.catalog().FindTable("t");
  Oid leaf1 = table->partition_scheme->Leaves()[1].oid;

  ASSERT_TRUE(db.Run("ALTER TABLE t SET PARTITION r1 WITH (orientation = column)").ok());
  EXPECT_EQ(table->UnitOrientation(leaf1), StorageOrientation::kColumn);
  EXPECT_EQ(table->default_orientation, StorageOrientation::kRow);

  // Whole-table ALTER resets per-partition overrides.
  ASSERT_TRUE(db.Run("ALTER TABLE t SET WITH (orientation = column)").ok());
  EXPECT_EQ(table->default_orientation, StorageOrientation::kColumn);
  ASSERT_TRUE(db.Run("ALTER TABLE t SET WITH (orientation = row)").ok());
  EXPECT_EQ(table->UnitOrientation(leaf1), StorageOrientation::kRow);

  // Error surface: unknown option, bad value, unknown partition, no table.
  EXPECT_EQ(db.Run("ALTER TABLE t SET WITH (compression = zstd)").status().code(),
            StatusCode::kBindError);
  EXPECT_EQ(db.Run("ALTER TABLE t SET WITH (orientation = diagonal)").status().code(),
            StatusCode::kBindError);
  EXPECT_EQ(
      db.Run("ALTER TABLE t SET PARTITION nope WITH (orientation = column)")
          .status()
          .code(),
      StatusCode::kNotFound);
  EXPECT_FALSE(db.Run("ALTER TABLE absent SET WITH (orientation = column)").ok());
}

}  // namespace
}  // namespace mppdb

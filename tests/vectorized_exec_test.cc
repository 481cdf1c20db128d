// Batch-kernel execution: every workload query must return bit-identical
// rows and ExecStats whether the plan runs on 1 worker or on a pool (with
// default and with fine-grained morsels), runtime errors must surface as
// typed statuses, and the kernel evaluator itself must agree with the
// scalar EvalExpr on random expression trees including every error path.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "db/database.h"
#include "expr/eval.h"
#include "expr/expr.h"
#include "expr/vector_eval.h"
#include "test_util.h"
#include "types/date.h"
#include "workload/tpcds_lite.h"
#include "workload/tpch_lite.h"

namespace mppdb {
namespace {

/// The 1-worker run is the reference; a pool run and a pool run
/// with 1024-row morsels (steals and per-morsel stat shards) must reproduce
/// it exactly.
struct WorkerCountDbs {
  explicit WorkerCountDbs(int segments)
      : one_worker(segments),
        parallel(segments, Executor::Options{.workers = 0}),
        parallel_fine(segments, Executor::Options{.workers = 4,
                                                  .morsel_rows = 1024}) {}

  std::vector<Database*> All() { return {&one_worker, &parallel, &parallel_fine}; }

  void ExpectAgree(const std::string& label, const std::string& sql) {
    auto reference = one_worker.Run(sql);
    ASSERT_TRUE(reference.ok()) << label << ": " << reference.status().ToString();
    for (Database* db : {&parallel, &parallel_fine}) {
      auto result = db->Run(sql);
      ASSERT_TRUE(result.ok()) << label << ": " << result.status().ToString();
      // Bit-identical: same rows in the same order, bitwise-equal datums, and
      // the same partitions scanned / tuples read / rows moved.
      EXPECT_TRUE(reference->rows == result->rows)
          << label << " (morsel_rows=" << db->exec_options().morsel_rows << ")";
      EXPECT_TRUE(reference->stats == result->stats)
          << label << " (morsel_rows=" << db->exec_options().morsel_rows << ")";
    }
  }

  Database one_worker;
  Database parallel;
  Database parallel_fine;
};

// Every TPC-DS workload query: static pruning, join-induced dynamic pruning,
// IN subqueries, star joins, and aggregations.
TEST(BatchExecutionTest, TpcdsWorkloadBitIdenticalInSerialAndParallel) {
  workload::TpcdsConfig config;
  config.base_rows = 800;
  WorkerCountDbs dbs(4);
  for (Database* db : dbs.All()) {
    ASSERT_TRUE(workload::CreateAndLoadTpcds(db, config).ok());
  }
  for (const auto& query : workload::TpcdsQueries(config)) {
    dbs.ExpectAgree(query.name, query.sql);
  }
}

// The TPC-H-style lineitem at 8 segments, hitting the fused filter-over-scan
// path at several selectivities and the aggregation pipeline.
TEST(BatchExecutionTest, TpchQueriesBitIdenticalAt8Segments) {
  workload::TpchConfig config;
  config.rows = 3000;
  WorkerCountDbs dbs(8);
  for (Database* db : dbs.All()) {
    ASSERT_TRUE(workload::CreateAndLoadLineitem(
                    db, config, workload::LineitemPartitioning::kMonthly84, "lineitem")
                    .ok());
  }
  const char* queries[] = {
      "SELECT count(*), sum(l_quantity), avg(l_extendedprice) FROM lineitem",
      "SELECT l_suppkey, count(*) FROM lineitem GROUP BY l_suppkey "
      "ORDER BY l_suppkey LIMIT 20",
      "SELECT count(*) FROM lineitem WHERE l_shipdate BETWEEN '1999-01-01' AND "
      "'1999-03-31'",
      "SELECT l_orderkey, l_quantity, l_extendedprice FROM lineitem "
      "WHERE l_discount < 0.01 "
      "ORDER BY l_orderkey, l_quantity, l_extendedprice LIMIT 50",
      "SELECT count(*) FROM lineitem WHERE l_quantity > 25 AND l_discount > 0.05",
  };
  for (const char* sql : queries) dbs.ExpectAgree(sql, sql);
}

// Interleaved writes and reads leave 1-worker and pool databases in
// identical states.
TEST(BatchExecutionTest, DmlProducesIdenticalStateInSerialAndParallel) {
  WorkerCountDbs dbs(4);
  const char* ddl =
      "CREATE TABLE t (k BIGINT, v DOUBLE) DISTRIBUTED BY (k) "
      "PARTITION BY RANGE (k) START 0 END 40 EVERY 10";
  const char* statements[] = {
      "INSERT INTO t VALUES (1, 1.5), (11, 2.5), (21, 3.5), (31, 4.5)",
      "INSERT INTO t VALUES (2, 10.0), (12, 20.0), (22, 30.0)",
      "UPDATE t SET v = v * 2 WHERE k > 15",
      "DELETE FROM t WHERE k = 11",
      "INSERT INTO t SELECT k + 5, v FROM t WHERE k < 3",
  };
  const char* probes[] = {
      "SELECT k, v FROM t ORDER BY k",
      "SELECT count(*), sum(v) FROM t WHERE k BETWEEN 10 AND 29",
  };
  for (Database* db : dbs.All()) {
    ASSERT_TRUE(db->Run(ddl).ok());
  }
  for (const char* sql : statements) {
    for (Database* db : dbs.All()) {
      auto result = db->Run(sql);
      ASSERT_TRUE(result.ok()) << sql << ": " << result.status().ToString();
    }
    for (const char* probe : probes) {
      dbs.ExpectAgree(std::string(sql) + " then " + probe, probe);
    }
  }
}

// A data-dependent division by zero inside the Filter kernel fails the query
// with a typed kExecutionError carrying the scalar evaluator's message, the
// failed run publishes no stats, and the executor stays reusable.
TEST(BatchExecutionTest, RuntimeErrorsAreTypedAndExecutorStaysReusable) {
  testutil::TestDb db(4);
  const TableDescriptor* t =
      db.CreatePlainTable("t", Schema({{"k", TypeId::kInt64}}), {0});
  std::vector<Row> rows;
  for (int64_t i = 0; i < 32; ++i) rows.push_back({Datum::Int64(i)});
  db.Insert(t, rows);

  ExprPtr pred = MakeComparison(
      CompareOp::kGt,
      MakeArith(ArithOp::kDiv, MakeConst(Datum::Int64(10)),
                MakeArith(ArithOp::kSub, MakeColumnRef(1, "k", TypeId::kInt64),
                          MakeConst(Datum::Int64(7)))),
      MakeConst(Datum::Int64(0)));
  auto scan = std::make_shared<TableScanNode>(t->oid, t->oid, std::vector<ColRefId>{1});
  auto filter = std::make_shared<FilterNode>(pred, scan);
  auto plan = std::make_shared<MotionNode>(MotionKind::kGather,
                                           std::vector<ColRefId>{}, filter);

  for (int workers : {1, 0}) {
    Executor exec(&db.catalog, &db.storage, Executor::Options{.workers = workers});
    auto result = exec.Execute(plan);
    ASSERT_FALSE(result.ok()) << "workers=" << workers;
    EXPECT_EQ(result.status().code(), StatusCode::kExecutionError);
    EXPECT_EQ(result.status().message(), "division by zero");
    EXPECT_TRUE(exec.stats() == ExecStats());

    // Reusable after failure.
    auto gather = std::make_shared<MotionNode>(MotionKind::kGather,
                                               std::vector<ColRefId>{}, scan);
    auto retry = exec.Execute(gather);
    ASSERT_TRUE(retry.ok()) << retry.status().ToString();
    EXPECT_EQ(retry->size(), 32u);
  }
}

// ---------------------------------------------------------------------------
// Kernel fuzz: random expression trees evaluated by EvalExprBatch /
// EvalPredicateBatch must agree with EvalExpr / EvalPredicate on every row —
// values, NULLs, WHERE semantics, and error statuses alike.
// ---------------------------------------------------------------------------

class KernelFuzzTest : public ::testing::Test {
 protected:
  // Layout: c1 BIGINT, c2 BIGINT, c3 DOUBLE, c4 STRING.
  KernelFuzzTest() : layout_({1, 2, 3, 4}) {}

  Datum RandomDatum(Random* rng) {
    switch (rng->Uniform(6)) {
      case 0:
        return Datum::Null();
      case 1:
        return Datum::Int64(rng->UniformRange(-3, 3));
      case 2:
        return Datum::Double(static_cast<double>(rng->UniformRange(-20, 20)) / 4.0);
      case 3:
        return Datum::String(rng->Bernoulli(0.5) ? "aa" : "bb");
      case 4:
        return Datum::Bool(rng->Bernoulli(0.5));
      default:
        return Datum::Int64(rng->UniformRange(0, 40));
    }
  }

  ExprPtr RandomLeaf(Random* rng) {
    switch (rng->Uniform(8)) {
      case 0:
        return MakeColumnRef(1, "c1", TypeId::kInt64);
      case 1:
        return MakeColumnRef(2, "c2", TypeId::kInt64);
      case 2:
        return MakeColumnRef(3, "c3", TypeId::kDouble);
      case 3:
        return MakeColumnRef(4, "c4", TypeId::kString);
      case 4:
        // Unknown column and unbound parameter: compile to kError
        // instructions that must fire exactly when EvalExpr errors.
        return rng->Bernoulli(0.5) ? MakeColumnRef(99, "ghost", TypeId::kInt64)
                                   : MakeParam(1, TypeId::kInt64);
      default:
        return MakeConst(RandomDatum(rng));
    }
  }

  ExprPtr RandomExpr(Random* rng, int depth) {
    if (depth == 0 || rng->Bernoulli(0.3)) return RandomLeaf(rng);
    switch (rng->Uniform(7)) {
      case 0:
        return MakeComparison(static_cast<CompareOp>(rng->Uniform(6)),
                              RandomExpr(rng, depth - 1), RandomExpr(rng, depth - 1));
      case 1:
        // Small integer operands make division/modulo by zero reachable.
        return MakeArith(static_cast<ArithOp>(rng->Uniform(5)),
                         RandomExpr(rng, depth - 1), RandomExpr(rng, depth - 1));
      case 2:
        return Conj({RandomExpr(rng, depth - 1), RandomExpr(rng, depth - 1)});
      case 3:
        return MakeOr({RandomExpr(rng, depth - 1), RandomExpr(rng, depth - 1)});
      case 4:
        return MakeNot(RandomExpr(rng, depth - 1));
      case 5:
        return std::make_shared<IsNullExpr>(RandomExpr(rng, depth - 1));
      default: {
        std::vector<ExprPtr> children;
        children.push_back(RandomExpr(rng, depth - 1));
        size_t items = 1 + rng->Uniform(3);
        for (size_t i = 0; i < items; ++i) {
          children.push_back(MakeConst(RandomDatum(rng)));
        }
        return MakeInList(std::move(children));
      }
    }
  }

  std::vector<Row> RandomRows(Random* rng, size_t n) {
    std::vector<Row> rows;
    rows.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      Row row;
      row.push_back(rng->Bernoulli(0.15) ? Datum::Null()
                                         : Datum::Int64(rng->UniformRange(-3, 3)));
      row.push_back(rng->Bernoulli(0.15) ? Datum::Null()
                                         : Datum::Int64(rng->UniformRange(0, 40)));
      row.push_back(rng->Bernoulli(0.15)
                        ? Datum::Null()
                        : Datum::Double(
                              static_cast<double>(rng->UniformRange(-20, 20)) / 4.0));
      row.push_back(rng->Bernoulli(0.15) ? Datum::Null()
                                         : Datum::String(rng->Bernoulli(0.5) ? "aa"
                                                                             : "bb"));
      rows.push_back(std::move(row));
    }
    return rows;
  }

  ColumnLayout layout_;
};

// Strongest per-row check: a single-row batch must reproduce the row
// evaluator exactly — same value (bitwise), same NULL, or the same error
// Status message.
TEST_F(KernelFuzzTest, SingleRowBatchesMatchEvalExprExactly) {
  Random rng(20140622);
  for (int trial = 0; trial < 400; ++trial) {
    ExprPtr expr = RandomExpr(&rng, 3);
    std::vector<Row> rows = RandomRows(&rng, 16);
    KernelProgram program = KernelProgram::Compile(expr, layout_);
    KernelContext ctx;
    ctx.Prepare(program, KernelContext::kDefaultChunkRows);
    for (size_t i = 0; i < rows.size(); ++i) {
      auto row_result = EvalExpr(expr, layout_, rows[i]);
      SelVec sel = {static_cast<uint32_t>(i)};
      Status batch_status = EvalExprBatch(program, &ctx, rows, /*base=*/i, sel);
      if (row_result.ok()) {
        ASSERT_TRUE(batch_status.ok())
            << expr->ToString() << " row " << i << ": " << batch_status.ToString();
        const Datum& batch_value = ctx.slot(program.root())[0];
        EXPECT_TRUE(*row_result == batch_value)
            << expr->ToString() << " row " << i << ": row=" << row_result->ToString()
            << " batch=" << batch_value.ToString();
      } else {
        ASSERT_FALSE(batch_status.ok()) << expr->ToString() << " row " << i;
        EXPECT_EQ(row_result.status().message(), batch_status.message())
            << expr->ToString() << " row " << i;
      }

      // Predicate semantics: NULL and false both drop the row.
      auto row_pred = EvalPredicate(expr, layout_, rows[i]);
      SelVec out_sel;
      Status pred_status = EvalPredicateBatch(program, &ctx, rows, i, sel, &out_sel);
      if (row_pred.ok()) {
        ASSERT_TRUE(pred_status.ok()) << expr->ToString() << " row " << i;
        EXPECT_EQ(*row_pred, out_sel.size() == 1) << expr->ToString() << " row " << i;
      } else {
        ASSERT_FALSE(pred_status.ok()) << expr->ToString() << " row " << i;
        EXPECT_EQ(row_pred.status().message(), pred_status.message())
            << expr->ToString() << " row " << i;
      }
    }
  }
}

// Whole-chunk batches: when every row evaluates cleanly the batch values are
// bitwise-identical; when at least one row errors the batch errors with a
// message some erroring row produced (the batch evaluates column-major, so
// with multiple failing rows it may surface a different one than strict
// row-major order — the only documented deviation).
TEST_F(KernelFuzzTest, WholeChunkBatchesMatchEvalExpr) {
  Random rng(424242);
  for (int trial = 0; trial < 300; ++trial) {
    ExprPtr expr = RandomExpr(&rng, 3);
    std::vector<Row> rows = RandomRows(&rng, 64);
    KernelProgram program = KernelProgram::Compile(expr, layout_);
    KernelContext ctx;
    ctx.Prepare(program, rows.size());

    std::vector<Result<Datum>> row_results;
    std::vector<std::string> row_errors;
    for (const Row& row : rows) {
      row_results.push_back(EvalExpr(expr, layout_, row));
      if (!row_results.back().ok()) {
        row_errors.push_back(row_results.back().status().message());
      }
    }

    SelVec sel;
    for (uint32_t i = 0; i < rows.size(); ++i) sel.push_back(i);
    Status batch_status = EvalExprBatch(program, &ctx, rows, /*base=*/0, sel);
    if (row_errors.empty()) {
      ASSERT_TRUE(batch_status.ok())
          << expr->ToString() << ": " << batch_status.ToString();
      for (size_t i = 0; i < rows.size(); ++i) {
        EXPECT_TRUE(*row_results[i] == ctx.slot(program.root())[i])
            << expr->ToString() << " row " << i;
      }
    } else {
      ASSERT_FALSE(batch_status.ok()) << expr->ToString();
      bool known_error = false;
      for (const std::string& message : row_errors) {
        known_error = known_error || message == batch_status.message();
      }
      EXPECT_TRUE(known_error)
          << expr->ToString() << ": batch error '" << batch_status.message()
          << "' matches no row error";
    }

    // EvalPredicateBatch over an error-free chunk selects exactly the rows
    // EvalPredicate keeps, in ascending row order.
    if (row_errors.empty()) {
      SelVec expected;
      bool pred_ok = true;
      for (uint32_t i = 0; i < rows.size(); ++i) {
        auto row_pred = EvalPredicate(expr, layout_, rows[i]);
        if (!row_pred.ok()) {
          pred_ok = false;  // non-boolean predicate value
          break;
        }
        if (*row_pred) expected.push_back(i);
      }
      SelVec out_sel;
      Status pred_status = EvalPredicateBatch(program, &ctx, rows, 0, sel, &out_sel);
      if (pred_ok) {
        ASSERT_TRUE(pred_status.ok()) << expr->ToString();
        EXPECT_EQ(expected, out_sel) << expr->ToString();
      } else {
        EXPECT_FALSE(pred_status.ok()) << expr->ToString();
      }
    }
  }
}

}  // namespace
}  // namespace mppdb

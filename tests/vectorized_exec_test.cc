// Batch-kernel execution: every workload query must return bit-identical
// rows and ExecStats whether the plan runs on 1 worker or on a pool (with
// default and with fine-grained morsels), runtime errors must surface as
// typed statuses, the kernel evaluator itself must agree with the scalar
// EvalExpr on random expression trees including every error path, and
// HashAgg must agree bit for bit with an in-test first-appearance oracle.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include <unistd.h>

#include "catalog/partition_scheme.h"
#include "common/random.h"
#include "db/database.h"
#include "expr/eval.h"
#include "expr/expr.h"
#include "expr/vector_eval.h"
#include "join_filter_matrix.h"
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

// A filtered, join-filtered scan hands its consumers selections over the
// storage slices: every consumer reads exactly the selected rows, at every
// worker count and morsel size, and the join-filter stop rule decides the
// same way at all of them (see join_filter_matrix.h).
TEST(BatchExecutionTest, SelectedSlicesReachEveryConsumer) {
  testutil::CheckSelectedSliceConsumers();
}

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


// ---------------------------------------------------------------------------
// HashAgg property test: per segment, groups come out in first-appearance
// order with every aggregate accumulated in input order, exactly as an
// in-test oracle (a std::map over Datum::Compare) computes them. The output
// must match the oracle bit for bit, and the ExecStats must not depend on
// the worker count, the morsel size, or a budget that forces the spill path.
// ---------------------------------------------------------------------------

// Same null flag, same type, same bits: a double sum accumulated in another
// order, or an int64 key emitted as a double, fails.
bool SameBits(const Datum& a, const Datum& b) {
  if (a.is_null() || b.is_null()) return a.is_null() == b.is_null();
  if (a.type() != b.type()) return false;
  switch (a.type()) {
    case TypeId::kDouble:
      return std::bit_cast<uint64_t>(a.double_value()) ==
             std::bit_cast<uint64_t>(b.double_value());
    case TypeId::kString:
      return a.string_value() == b.string_value();
    default:
      return a.AsInt64() == b.AsInt64();
  }
}

bool SameRows(const std::vector<Row>& a, const std::vector<Row>& b) {
  if (a.size() != b.size()) return false;
  for (size_t r = 0; r < a.size(); ++r) {
    if (a[r].size() != b[r].size()) return false;
    for (size_t c = 0; c < a[r].size(); ++c) {
      if (!SameBits(a[r][c], b[r][c])) return false;
    }
  }
  return true;
}

class HashAggPropertyTest : public ::testing::Test {
 protected:
  static constexpr int kSegments = 3;
  // Table columns, in scan order: p BIGINT (the partition key: 4 ranges of
  // 10), g BIGINT, n DOUBLE (holding INT, BIGINT and DOUBLE datums, -0.0
  // among them), s VARCHAR, v DOUBLE, w BIGINT. Column i has ColRefId i + 1.
  enum Col { kP, kG, kN, kS, kV, kW };

  // The aggregate arguments: a bare column (read in place) or an
  // expression (a kernel), with the oracle's own evaluation of it.
  struct OracleAgg {
    AggFunc func;
    ExprPtr arg;
    std::function<Datum(const Row&)> eval;
  };

  HashAggPropertyTest() : db_(kSegments) {}

  static ExprPtr Ref(Col c) {
    static const char* kNames[] = {"p", "g", "n", "s", "v", "w"};
    static const TypeId kTypes[] = {TypeId::kInt64,  TypeId::kInt64,
                                    TypeId::kDouble, TypeId::kString,
                                    TypeId::kDouble, TypeId::kInt64};
    return MakeColumnRef(c + 1, kNames[c], kTypes[c]);
  }

  // A table whose g column holds exactly `distinct` keys (one of them NULL
  // when there are several), over `rows` rows spread across the segments
  // and the 4 partitions.
  void Load(int64_t distinct, int64_t rows) {
    Schema schema({{"p", TypeId::kInt64},
                   {"g", TypeId::kInt64},
                   {"n", TypeId::kDouble},
                   {"s", TypeId::kString},
                   {"v", TypeId::kDouble},
                   {"w", TypeId::kInt64}});
    auto oid = db_.catalog.CreatePartitionedTable(
        "t", schema, TableDistribution::kHashed, {kV}, {{kP, PartitionMethod::kRange}},
        {partition_bounds::IntRanges(0, 10, 4)});
    ASSERT_TRUE(oid.ok());
    table_ = db_.catalog.FindTable(*oid);
    ASSERT_TRUE(db_.storage.CreateStorage(table_).ok());
    std::vector<Row> data;
    for (int64_t i = 0; i < rows; ++i) {
      // 7919 is prime, so the first `distinct` rows hit every key.
      const int64_t key = (i * 7919 + 13) % distinct;
      // n: 0, 0.5, 1, ..., 3 by key; integral values rotate through INT,
      // BIGINT and DOUBLE datums (equal, so one group), zero through -0.0.
      const int64_t half = key % 7;
      Datum n;
      if (key % 11 == 5) {
        n = Datum::Null();
      } else if (half % 2 == 1) {
        n = Datum::Double(half / 2.0);
      } else if (half == 0 && i % 4 == 0) {
        n = Datum::Double(-0.0);
      } else {
        switch (i % 3) {
          case 0: n = Datum::Int32(static_cast<int32_t>(half / 2)); break;
          case 1: n = Datum::Int64(half / 2); break;
          default: n = Datum::Double(static_cast<double>(half / 2)); break;
        }
      }
      data.push_back(
          {Datum::Int64(i % 40),
           key == 1 ? Datum::Null() : Datum::Int64(key * 3 - 7), n,
           key % 5 == 4 ? Datum::Null() : Datum::String("s" + std::to_string(key % 13)),
           i % 17 == 3 ? Datum::Null()
                       : Datum::Double(0.1 * static_cast<double>(i % 101) +
                                       0.001 * static_cast<double>(i % 7)),
           i % 13 == 6 ? Datum::Null() : Datum::Int64(i % 50 - 20)});
    }
    ASSERT_TRUE(db_.storage.GetStore(table_->oid)->InsertBatch(data).ok());
  }

  PhysPtr Scan() const {
    std::vector<ColRefId> ids;
    for (int c = kP; c <= kW; ++c) ids.push_back(c + 1);
    auto selector = std::make_shared<PartitionSelectorNode>(
        table_->oid, 1, std::vector<ColRefId>{kP + 1}, std::vector<ExprPtr>{nullptr},
        nullptr);
    auto scan = std::make_shared<DynamicScanNode>(table_->oid, 1, ids);
    return std::make_shared<SequenceNode>(std::vector<PhysPtr>{selector, scan});
  }

  // The filtered input runs as the fused filter-over-scan, in morsels on a
  // pool; the bare one is read in place, one slice per partition.
  PhysPtr Input(bool filtered) const {
    if (!filtered) return Scan();
    return std::make_shared<FilterNode>(
        MakeComparison(CompareOp::kNe, Ref(kP), MakeConst(Datum::Int64(3))), Scan());
  }

  // Each segment's input rows, in the order the scan yields them.
  std::vector<std::vector<Row>> SegmentInputs(bool filtered) const {
    std::vector<std::vector<Row>> inputs(kSegments);
    const TableStore& store = *db_.storage.GetStore(table_->oid);
    for (int seg = 0; seg < kSegments; ++seg) {
      for (Oid unit : store.UnitOids()) {
        for (const Row& row : store.UnitRows(unit, seg)) {
          if (!filtered || row[kP].int64_value() != 3) inputs[seg].push_back(row);
        }
      }
    }
    return inputs;
  }

  static std::vector<OracleAgg> Aggs() {
    auto col = [](Col c) { return [c](const Row& row) { return row[c]; }; };
    auto v_times_2 = [](const Row& row) {
      return row[kV].is_null() ? Datum::Null()
                               : Datum::Double(row[kV].double_value() * 2.0);
    };
    auto w_plus_1 = [](const Row& row) {
      return row[kW].is_null() ? Datum::Null() : Datum::Int64(row[kW].int64_value() + 1);
    };
    ExprPtr v2 = MakeArith(ArithOp::kMul, Ref(kV), MakeConst(Datum::Double(2.0)));
    ExprPtr w1 = MakeArith(ArithOp::kAdd, Ref(kW), MakeConst(Datum::Int64(1)));
    return {{AggFunc::kCountStar, nullptr, nullptr},
            {AggFunc::kCount, Ref(kV), col(kV)},
            {AggFunc::kSum, Ref(kV), col(kV)},
            {AggFunc::kAvg, Ref(kV), col(kV)},
            {AggFunc::kMin, Ref(kV), col(kV)},
            {AggFunc::kMax, Ref(kV), col(kV)},
            {AggFunc::kSum, Ref(kW), col(kW)},
            {AggFunc::kAvg, Ref(kW), col(kW)},
            {AggFunc::kSum, Ref(kN), col(kN)},
            {AggFunc::kMax, Ref(kN), col(kN)},
            {AggFunc::kMin, Ref(kS), col(kS)},
            {AggFunc::kCount, w1, w_plus_1},
            {AggFunc::kMin, w1, w_plus_1},
            {AggFunc::kSum, v2, v_times_2},
            {AggFunc::kMax, v2, v_times_2}};
  }

  PhysPtr Plan(const std::vector<Col>& keys, bool filtered) const {
    std::vector<ColRefId> group_by;
    for (Col c : keys) group_by.push_back(c + 1);
    std::vector<AggItem> items;
    for (const OracleAgg& agg : Aggs()) {
      items.push_back({agg.func, agg.arg, static_cast<ColRefId>(100 + items.size()),
                       "a" + std::to_string(items.size())});
    }
    return std::make_shared<HashAggNode>(group_by, items, Input(filtered));
  }

  // The oracle: per segment, a std::map from key to group number (so keys
  // that Datum::Compare calls equal share a group and keep their first
  // datums), then every aggregate folded in input order. The root output of
  // an un-Gathered plan is each segment's output in segment order.
  std::vector<Row> Oracle(const std::vector<Col>& keys, bool filtered) const {
    struct KeyLess {
      bool operator()(const Row& a, const Row& b) const {
        for (size_t i = 0; i < a.size(); ++i) {
          const int c = Datum::Compare(a[i], b[i]);
          if (c != 0) return c < 0;
        }
        return false;
      }
    };
    struct State {
      int64_t count = 0;
      int64_t sum_int = 0;
      double sum_double = 0;
      bool saw_double = false;
      Datum best;
    };
    const std::vector<OracleAgg> aggs = Aggs();
    std::vector<Row> out;
    const std::vector<std::vector<Row>> inputs = SegmentInputs(filtered);
    for (int seg = 0; seg < kSegments; ++seg) {
      std::map<Row, size_t, KeyLess> index;
      std::vector<Row> group_keys;
      std::vector<std::vector<State>> states;
      for (const Row& row : inputs[seg]) {
        Row key;
        for (Col c : keys) key.push_back(row[c]);
        auto [it, fresh] = index.emplace(key, group_keys.size());
        if (fresh) {
          group_keys.push_back(key);
          states.emplace_back(aggs.size());
        }
        for (size_t a = 0; a < aggs.size(); ++a) {
          State& st = states[it->second][a];
          if (aggs[a].func == AggFunc::kCountStar) {
            ++st.count;
            continue;
          }
          const Datum v = aggs[a].eval(row);
          if (v.is_null()) continue;
          const bool first = st.count++ == 0;
          if (v.type() == TypeId::kDouble) {
            st.saw_double = true;
            st.sum_double += v.double_value();
          } else if (v.type() != TypeId::kString) {
            st.sum_int += v.AsInt64();
            st.sum_double += static_cast<double>(v.AsInt64());
          }
          const int c = first ? 0 : Datum::Compare(v, st.best);
          if (first || (aggs[a].func == AggFunc::kMin && c < 0) ||
              (aggs[a].func == AggFunc::kMax && c > 0)) {
            st.best = v;
          }
        }
      }
      if (keys.empty() && group_keys.empty() && seg == 0) {
        group_keys.emplace_back();
        states.emplace_back(aggs.size());
      }
      for (size_t g = 0; g < group_keys.size(); ++g) {
        Row row = group_keys[g];
        for (size_t a = 0; a < aggs.size(); ++a) {
          const State& st = states[g][a];
          switch (aggs[a].func) {
            case AggFunc::kCountStar:
            case AggFunc::kCount:
              row.push_back(Datum::Int64(st.count));
              break;
            case AggFunc::kSum:
              row.push_back(st.count == 0 ? Datum::Null()
                            : st.saw_double ? Datum::Double(st.sum_double)
                                            : Datum::Int64(st.sum_int));
              break;
            case AggFunc::kAvg:
              row.push_back(st.count == 0 ? Datum::Null()
                                          : Datum::Double(st.sum_double /
                                                          static_cast<double>(st.count)));
              break;
            case AggFunc::kMin:
            case AggFunc::kMax:
              row.push_back(st.count == 0 ? Datum::Null() : st.best);
              break;
          }
        }
        out.push_back(std::move(row));
      }
    }
    return out;
  }

  // Runs every key set, filtered and not, on 1 and 4 workers with default
  // and whole-slice morsels, then under a 96 KB budget on 1 worker (on a
  // pool, concurrent segments share the budget, and whether the spill
  // path's mandatory charges fit depends on their interleaving: ROADMAP
  // item 7). Returns the spill passes the budgeted runs of the g key made.
  size_t CheckAll(const std::string& label) {
    const std::vector<std::vector<Col>> key_sets = {
        {kG}, {kN, kS}, {kG, kN, kS}, {}};
    const std::string spill_dir =
        (std::filesystem::temp_directory_path() /
         ("mppdb-hashagg-test-" + std::to_string(::getpid())))
            .string();
    std::filesystem::create_directories(spill_dir);
    size_t spill_passes = 0;
    for (size_t k = 0; k < key_sets.size(); ++k) {
      for (bool filtered : {false, true}) {
        const std::string what = label + " keys#" + std::to_string(k) +
                                 (filtered ? " filtered" : " bare");
        const PhysPtr plan = Plan(key_sets[k], filtered);
        const std::vector<Row> expected = Oracle(key_sets[k], filtered);
        std::optional<ExecStats> reference;
        for (int workers : {1, 4}) {
          for (size_t morsel_rows : {size_t{0}, SIZE_MAX}) {
            Executor exec(&db_.catalog, &db_.storage,
                          Executor::Options{.workers = workers, .morsel_rows = morsel_rows});
            auto result = exec.Execute(plan);
            const std::string run = what + " workers=" + std::to_string(workers) +
                                    " morsel_rows=" + std::to_string(morsel_rows);
            if (!result.ok()) {
              ADD_FAILURE() << run << ": " << result.status().ToString();
              continue;
            }
            EXPECT_TRUE(SameRows(*result, expected)) << run;
            if (!reference) reference = exec.stats();
            EXPECT_TRUE(exec.stats() == *reference) << run;
          }
        }
        Executor exec(&db_.catalog, &db_.storage);
        QueryContext ctx;
        ctx.set_spill_dir(spill_dir);
        ctx.budget().set_limit(96 * 1024);
        auto result = exec.Execute(plan, &ctx);
        const std::string run = what + " budgeted";
        if (!result.ok()) {
          ADD_FAILURE() << run << ": " << result.status().ToString();
          continue;
        }
        EXPECT_TRUE(SameRows(*result, expected)) << run;
        ExecStats stats = exec.stats();
        if (k == 0) spill_passes += stats.spill_passes;
        stats.spill_partitions = 0;
        stats.spill_bytes_written = 0;
        stats.spill_bytes_read = 0;
        stats.spill_passes = 0;
        EXPECT_TRUE(stats == *reference) << run;
      }
    }
    std::filesystem::remove_all(spill_dir);
    return spill_passes;
  }

  testutil::TestDb db_;
  const TableDescriptor* table_ = nullptr;
};

// The oracle's input order is the engine's: a bare scan returns each
// segment's units in UnitOids order.
TEST_F(HashAggPropertyTest, OracleReadsTheScanOrder) {
  Load(10, 500);
  Executor exec(&db_.catalog, &db_.storage);
  auto rows = exec.Execute(Scan());
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  std::vector<Row> expected;
  for (const std::vector<Row>& seg : SegmentInputs(false)) {
    expected.insert(expected.end(), seg.begin(), seg.end());
  }
  EXPECT_TRUE(SameRows(*rows, expected));
}

TEST_F(HashAggPropertyTest, OneGroup) {
  Load(1, 3000);
  EXPECT_EQ(CheckAll("1 key"), 0u);
}

TEST_F(HashAggPropertyTest, TenGroups) {
  Load(10, 3000);
  EXPECT_EQ(CheckAll("10 keys"), 0u);
}

// 1000 and 50k groups grow the group index through several doublings, and
// the budget refuses their grouping state, so the spill path runs.
TEST_F(HashAggPropertyTest, ThousandGroups) {
  Load(1000, 6000);
  EXPECT_GT(CheckAll("1000 keys"), 0u);
}

TEST_F(HashAggPropertyTest, FiftyThousandGroups) {
  Load(50000, 60000);
  EXPECT_GT(CheckAll("50k keys"), 0u);
}

}  // namespace
}  // namespace mppdb

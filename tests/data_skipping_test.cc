// Zone-map data skipping: sargable-predicate analysis decision table, chunk
// synopsis maintenance under DML (randomized, against a recomputed-from-rows
// oracle), and end-to-end skip behavior — rows/errors identical with skipping
// on and off, with chunks_skipped / units_skipped proving skips happened.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "exec/executor.h"
#include "exec/plan.h"
#include "expr/expr.h"
#include "expr/sargable.h"
#include "storage/synopsis.h"
#include "test_util.h"

namespace mppdb {
namespace {

using testutil::TestDb;

ExprPtr Lit(int64_t v) { return MakeConst(Datum::Int64(v)); }
ExprPtr ColA() { return MakeColumnRef(1, "a", TypeId::kInt64); }
ExprPtr ColB() { return MakeColumnRef(2, "b", TypeId::kInt64); }

// --- Sargable analysis decision table ---------------------------------------

TEST(SargableAnalysisTest, ConjunctsWithRangeTestsPrune) {
  ExprPtr pred = Conj({MakeComparison(CompareOp::kLt, ColA(), Lit(5)),
                       MakeComparison(CompareOp::kEq, ColB(), Lit(3))});
  SargablePredicate analyzed = AnalyzeSargable(pred);
  EXPECT_FALSE(analyzed.truncated);
  ASSERT_EQ(analyzed.prefix.size(), 2u);
  EXPECT_EQ(analyzed.prefix[0].tests.size(), 1u);
  EXPECT_EQ(analyzed.prefix[1].tests.size(), 1u);
  EXPECT_EQ(analyzed.prefix[0].tests[0].column, 1);
  EXPECT_EQ(analyzed.prefix[1].tests[0].column, 2);
}

TEST(SargableAnalysisTest, SwappedComparisonNormalizes) {
  // 5 > a is the same sargable test as a < 5.
  ExprPtr pred = MakeComparison(CompareOp::kGt, Lit(5), ColA());
  SargablePredicate analyzed = AnalyzeSargable(pred);
  ASSERT_EQ(analyzed.prefix.size(), 1u);
  ASSERT_EQ(analyzed.prefix[0].tests.size(), 1u);
  const ConstraintSet& values = analyzed.prefix[0].tests[0].values;
  EXPECT_TRUE(values.Contains(Datum::Int64(4)));
  EXPECT_FALSE(values.Contains(Datum::Int64(5)));
}

TEST(SargableAnalysisTest, ErroringConjunctTruncatesPrefix) {
  // 1/0 = 1 can error, so it and everything after it must stay residual.
  ExprPtr div = MakeArith(ArithOp::kDiv, Lit(1), Lit(0));
  ExprPtr pred = Conj({MakeComparison(CompareOp::kLt, ColA(), Lit(5)),
                       MakeComparison(CompareOp::kEq, div, Lit(1)),
                       MakeComparison(CompareOp::kEq, ColB(), Lit(3))});
  SargablePredicate analyzed = AnalyzeSargable(pred);
  EXPECT_TRUE(analyzed.truncated);
  ASSERT_EQ(analyzed.prefix.size(), 1u);
  EXPECT_EQ(analyzed.prefix[0].tests.size(), 1u);
}

TEST(SargableAnalysisTest, ConstantTrueInOrDisablesPruning) {
  // TRUE OR a < 5 is never false; it must contribute no tests (but is still
  // error-free, so it extends the prefix for later conjuncts).
  ExprPtr pred = MakeOr({MakeConst(Datum::Bool(true)),
                         MakeComparison(CompareOp::kLt, ColA(), Lit(5))});
  SargablePredicate analyzed = AnalyzeSargable(pred);
  EXPECT_FALSE(analyzed.truncated);
  ASSERT_EQ(analyzed.prefix.size(), 1u);
  EXPECT_TRUE(analyzed.prefix[0].tests.empty());
}

TEST(SargableAnalysisTest, OrOfSargableDisjunctsCombines) {
  ExprPtr pred = MakeOr({MakeComparison(CompareOp::kLt, ColA(), Lit(5)),
                         MakeComparison(CompareOp::kGt, ColA(), Lit(100))});
  SargablePredicate analyzed = AnalyzeSargable(pred);
  ASSERT_EQ(analyzed.prefix.size(), 1u);
  // Both disjuncts' tests must miss for the conjunct to be provably false.
  EXPECT_EQ(analyzed.prefix[0].tests.size(), 2u);
}

TEST(SargableAnalysisTest, InListWithNullItemCannotPrune) {
  // a IN (1, NULL): a non-matching probe yields NULL, never FALSE.
  ExprPtr with_null = MakeInList({ColA(), Lit(1), MakeConst(Datum::Null())});
  SargablePredicate analyzed = AnalyzeSargable(with_null);
  EXPECT_FALSE(analyzed.truncated);
  ASSERT_EQ(analyzed.prefix.size(), 1u);
  EXPECT_TRUE(analyzed.prefix[0].tests.empty());

  ExprPtr clean = MakeInList({ColA(), Lit(1), Lit(7)});
  analyzed = AnalyzeSargable(clean);
  ASSERT_EQ(analyzed.prefix.size(), 1u);
  ASSERT_EQ(analyzed.prefix[0].tests.size(), 1u);
  EXPECT_TRUE(analyzed.prefix[0].tests[0].values.Contains(Datum::Int64(7)));
  EXPECT_FALSE(analyzed.prefix[0].tests[0].values.Contains(Datum::Int64(2)));
}

TEST(SargableAnalysisTest, NullTests) {
  SargablePredicate is_null =
      AnalyzeSargable(std::make_shared<IsNullExpr>(ColA()));
  ASSERT_EQ(is_null.prefix.size(), 1u);
  ASSERT_EQ(is_null.prefix[0].tests.size(), 1u);
  EXPECT_EQ(is_null.prefix[0].tests[0].kind, SargableTest::Kind::kIsNull);

  SargablePredicate not_null =
      AnalyzeSargable(MakeNot(std::make_shared<IsNullExpr>(ColA())));
  ASSERT_EQ(not_null.prefix.size(), 1u);
  ASSERT_EQ(not_null.prefix[0].tests.size(), 1u);
  EXPECT_EQ(not_null.prefix[0].tests[0].kind, SargableTest::Kind::kNotNull);
}

TEST(SargableAnalysisTest, ComparisonWithNullConstantIsErrorFreeButNotSargable) {
  // a < NULL is NULL on every row: never false, but can never error either.
  ExprPtr pred = Conj({MakeComparison(CompareOp::kLt, ColA(), MakeConst(Datum::Null())),
                       MakeComparison(CompareOp::kEq, ColB(), Lit(3))});
  SargablePredicate analyzed = AnalyzeSargable(pred);
  EXPECT_FALSE(analyzed.truncated);
  ASSERT_EQ(analyzed.prefix.size(), 2u);
  EXPECT_TRUE(analyzed.prefix[0].tests.empty());
  EXPECT_EQ(analyzed.prefix[1].tests.size(), 1u);
}

// --- Synopsis skip decisions -------------------------------------------------

class SkipDecisionTest : public ::testing::Test {
 protected:
  // Chunk over (a, b) with a in [100, 200] (no nulls) and b in {1..3 or NULL}.
  ChunkSynopsis MakeChunk(bool b_has_nulls) {
    ChunkSynopsis chunk(2);
    for (int i = 0; i <= 100; ++i) {
      Datum b = (b_has_nulls && i % 10 == 0) ? Datum::Null()
                                             : Datum::Int64(i % 3 + 1);
      chunk.AddRow({Datum::Int64(100 + i), b});
    }
    return chunk;
  }

  CompiledSargable Compile(const ExprPtr& pred) {
    return CompileSargable(AnalyzeSargable(pred), ColumnLayout({1, 2}));
  }
};

TEST_F(SkipDecisionTest, RangeMissSkips) {
  EXPECT_TRUE(SynopsisCanSkip(Compile(MakeComparison(CompareOp::kLt, ColA(), Lit(50))),
                              MakeChunk(false)));
  EXPECT_TRUE(SynopsisCanSkip(Compile(MakeComparison(CompareOp::kGt, ColA(), Lit(500))),
                              MakeChunk(false)));
  EXPECT_TRUE(SynopsisCanSkip(Compile(MakeComparison(CompareOp::kEq, ColA(), Lit(99))),
                              MakeChunk(false)));
}

TEST_F(SkipDecisionTest, RangeOverlapKeeps) {
  EXPECT_FALSE(SynopsisCanSkip(
      Compile(MakeComparison(CompareOp::kLt, ColA(), Lit(150))), MakeChunk(false)));
  EXPECT_FALSE(SynopsisCanSkip(
      Compile(MakeComparison(CompareOp::kEq, ColA(), Lit(200))), MakeChunk(false)));
}

TEST_F(SkipDecisionTest, NullsBlockValueSetSkips) {
  // b IN (9): disjoint from {1..3}, but the NULL rows make the conjunct NULL
  // rather than FALSE, so the AND would keep evaluating later conjuncts.
  ExprPtr pred = MakeInList({ColB(), Lit(9)});
  EXPECT_TRUE(SynopsisCanSkip(Compile(pred), MakeChunk(false)));
  EXPECT_FALSE(SynopsisCanSkip(Compile(pred), MakeChunk(true)));
}

TEST_F(SkipDecisionTest, IsNullTests) {
  ExprPtr is_null = std::make_shared<IsNullExpr>(ColB());
  EXPECT_TRUE(SynopsisCanSkip(Compile(is_null), MakeChunk(false)));
  EXPECT_FALSE(SynopsisCanSkip(Compile(is_null), MakeChunk(true)));
  // NOT (a IS NULL) never misses here — a has non-null values.
  ExprPtr not_null = MakeNot(std::make_shared<IsNullExpr>(ColA()));
  EXPECT_FALSE(SynopsisCanSkip(Compile(not_null), MakeChunk(false)));
}

TEST_F(SkipDecisionTest, LaterConjunctSkipsOnlyIfEarlierErrorFree) {
  // a < 1000 matches every row; b = 9 misses. The miss licenses the skip
  // because a's family check passes.
  ExprPtr pred = Conj({MakeComparison(CompareOp::kLt, ColA(), Lit(1000)),
                       MakeComparison(CompareOp::kEq, ColB(), Lit(9))});
  EXPECT_TRUE(SynopsisCanSkip(Compile(pred), MakeChunk(false)));

  // Same shape, but the first conjunct compares a against a string: that
  // would error on every row of this chunk, so nothing may skip.
  ExprPtr mismatch =
      Conj({MakeComparison(CompareOp::kLt, ColA(), MakeConst(Datum::String("x"))),
            MakeComparison(CompareOp::kEq, ColB(), Lit(9))});
  EXPECT_FALSE(SynopsisCanSkip(Compile(mismatch), MakeChunk(false)));
}

TEST_F(SkipDecisionTest, MixedFamilyColumnNeverSkips) {
  ChunkSynopsis chunk(2);
  chunk.AddRow({Datum::Int64(1), Datum::Int64(1)});
  chunk.AddRow({Datum::String("zebra"), Datum::Int64(2)});
  EXPECT_FALSE(chunk.columns[0].comparable);
  // a = 99 misses the int extremes, but the column is untrustworthy.
  EXPECT_FALSE(SynopsisCanSkip(
      Compile(MakeComparison(CompareOp::kEq, ColA(), Lit(99))), chunk));
  // And a mixed-family column in a *family check* blocks later skips too.
  ExprPtr pred = Conj({MakeComparison(CompareOp::kLt, ColA(), Lit(1000)),
                       MakeComparison(CompareOp::kEq, ColB(), Lit(9))});
  EXPECT_FALSE(SynopsisCanSkip(Compile(pred), chunk));
}

TEST_F(SkipDecisionTest, EmptyChunkNeverSkips) {
  EXPECT_FALSE(SynopsisCanSkip(
      Compile(MakeComparison(CompareOp::kLt, ColA(), Lit(0))), ChunkSynopsis(2)));
}

// --- Synopsis maintenance under DML (property test) --------------------------

void ExpectColumnsEqual(const ColumnSynopsis& expected, const ColumnSynopsis& actual,
                        const std::string& context) {
  EXPECT_EQ(expected.null_count, actual.null_count) << context;
  EXPECT_EQ(expected.non_null_count, actual.non_null_count) << context;
  EXPECT_EQ(expected.comparable, actual.comparable) << context;
  EXPECT_EQ(expected.min.is_null(), actual.min.is_null()) << context;
  if (expected.comparable && actual.comparable && !expected.min.is_null() &&
      !actual.min.is_null()) {
    EXPECT_EQ(Datum::Compare(expected.min, actual.min), 0)
        << context << " min " << expected.min.ToString() << " vs "
        << actual.min.ToString();
    EXPECT_EQ(Datum::Compare(expected.max, actual.max), 0)
        << context << " max " << expected.max.ToString() << " vs "
        << actual.max.ToString();
  }
}

void ExpectChunksEqual(const ChunkSynopsis& expected, const ChunkSynopsis& actual,
                       const std::string& context) {
  ASSERT_EQ(expected.row_count, actual.row_count) << context;
  ASSERT_EQ(expected.columns.size(), actual.columns.size()) << context;
  for (size_t i = 0; i < expected.columns.size(); ++i) {
    ExpectColumnsEqual(expected.columns[i], actual.columns[i],
                       context + " column " + std::to_string(i));
  }
}

// Every slice synopsis must match one recomputed from the slice's rows.
void CheckStoreSynopses(TableStore* store, int num_segments,
                        const std::string& context) {
  for (Oid unit : store->UnitOids()) {
    for (int segment = 0; segment < num_segments; ++segment) {
      const std::vector<Row>& rows = store->UnitRows(unit, segment);
      SliceSynopsis oracle(store->descriptor().schema.size());
      for (const Row& row : rows) oracle.Append(row);

      const SliceSynopsis& actual = store->UnitSynopsis(unit, segment);
      std::string slice_context = context + " unit " + std::to_string(unit) +
                                  " segment " + std::to_string(segment);
      ExpectChunksEqual(oracle.rollup, actual.rollup, slice_context + " rollup");
      ASSERT_EQ(oracle.chunks.size(), actual.chunks.size()) << slice_context;
      for (size_t c = 0; c < oracle.chunks.size(); ++c) {
        ExpectChunksEqual(oracle.chunks[c], actual.chunks[c],
                          slice_context + " chunk " + std::to_string(c));
      }
    }
  }
}

TEST(SynopsisMaintenanceTest, RandomizedDmlMatchesOracle) {
  constexpr int kSegments = 3;
  TestDb db(kSegments);
  // Partitioned on b into 8 ranges of width 500 plus an unpartitioned table,
  // so both unit layouts are exercised.
  const TableDescriptor* fact = db.CreateIntPartitionedTable("fact", 8, 500);
  const TableDescriptor* plain = db.CreatePlainTable(
      "plain", Schema({{"x", TypeId::kInt64}, {"y", TypeId::kInt64}}), {0});
  TableStore* fact_store = db.storage.GetStore(fact->oid);
  TableStore* plain_store = db.storage.GetStore(plain->oid);

  Random rng(20260807);
  int64_t next = 0;
  auto random_fact_row = [&]() -> Row {
    // b must stay routable; a is sometimes NULL to exercise null counts.
    Datum a = rng.Bernoulli(0.1) ? Datum::Null() : Datum::Int64(next * 7 % 5000);
    ++next;
    return {a, Datum::Int64(rng.UniformRange(0, 3999))};
  };

  for (int step = 0; step < 40; ++step) {
    TableStore* store = rng.Bernoulli(0.7) ? fact_store : plain_store;
    switch (rng.Uniform(3)) {
      case 0: {  // single-row inserts
        int n = static_cast<int>(rng.UniformRange(1, 20));
        for (int i = 0; i < n; ++i) {
          Row row = random_fact_row();
          ASSERT_TRUE(store->Insert(row).ok());
        }
        break;
      }
      case 1: {  // batch insert, large enough to cross chunk boundaries
        std::vector<Row> rows;
        int n = static_cast<int>(rng.UniformRange(200, 1500));
        for (int i = 0; i < n; ++i) rows.push_back(random_fact_row());
        ASSERT_TRUE(store->InsertBatch(rows).ok());
        break;
      }
      case 2: {  // in-place DML on a random slice: edits and deletions
        std::vector<Oid> units = store->UnitOids();
        Oid unit = units[rng.Uniform(units.size())];
        int segment = static_cast<int>(rng.Uniform(kSegments));
        std::vector<Row>* rows = store->MutableUnitRows(unit, segment);
        for (Row& row : *rows) {
          if (rng.Bernoulli(0.2)) {
            row[0] = rng.Bernoulli(0.15) ? Datum::Null()
                                         : Datum::Int64(rng.UniformRange(-100, 9000));
          }
        }
        if (!rows->empty() && rng.Bernoulli(0.5)) {
          rows->erase(rows->begin() +
                      static_cast<long>(rng.Uniform(rows->size())));
        }
        break;
      }
    }
    // Verify a random subset of steps (full verification is O(rows)).
    if (step % 5 == 4 || step == 39) {
      CheckStoreSynopses(fact_store, kSegments, "step " + std::to_string(step));
      CheckStoreSynopses(plain_store, kSegments, "step " + std::to_string(step));
    }
  }
}

TEST(SynopsisMaintenanceTest, InsertAfterStaleDoesNotPatchIncrementally) {
  // An insert into a slice whose synopsis is already stale (in-place DML
  // happened since the last read) must leave the synopsis stale — patching it
  // incrementally would bake in pre-DML extremes.
  TestDb db(1);
  const TableDescriptor* t = db.CreatePlainTable(
      "t", Schema({{"x", TypeId::kInt64}, {"y", TypeId::kInt64}}), {0});
  TableStore* store = db.storage.GetStore(t->oid);
  ASSERT_TRUE(store->Insert({Datum::Int64(100), Datum::Int64(1)}).ok());

  // Stale the synopsis by shrinking x in place, then append without reading.
  (*store->MutableUnitRows(t->oid, 0))[0][0] = Datum::Int64(5);
  ASSERT_TRUE(store->Insert({Datum::Int64(50), Datum::Int64(2)}).ok());

  const SliceSynopsis& synopsis = store->UnitSynopsis(t->oid, 0);
  ASSERT_EQ(synopsis.rollup.row_count, 2u);
  EXPECT_EQ(Datum::Compare(synopsis.rollup.columns[0].min, Datum::Int64(5)), 0);
  EXPECT_EQ(Datum::Compare(synopsis.rollup.columns[0].max, Datum::Int64(50)), 0);
}

// --- End-to-end skipping -----------------------------------------------------

// Plan: Filter(pred) over Append of every leaf TableScan (colrefs 1=a, 2=b).
PhysPtr FilterOverAllLeaves(const TableDescriptor* table, ExprPtr pred) {
  std::vector<PhysPtr> scans;
  for (Oid leaf : table->partition_scheme->AllLeafOids()) {
    scans.push_back(std::make_shared<TableScanNode>(table->oid, leaf,
                                                    std::vector<ColRefId>{1, 2}));
  }
  PhysPtr child = scans.size() == 1
                      ? scans[0]
                      : std::make_shared<AppendNode>(std::move(scans));
  return std::make_shared<FilterNode>(std::move(pred), std::move(child));
}

class DataSkippingExecTest : public ::testing::Test {
 protected:
  static constexpr int kSegments = 2;
  static constexpr int64_t kRows = 40000;

  void SetUp() override {
    // fact(a, b) partitioned on b into 4 ranges of 2500, hashed on a. Rows
    // are loaded in ascending a, so each slice is clustered on a and chunk
    // zone maps on a are tight.
    fact_ = db_.CreateIntPartitionedTable("fact", 4, 2500);
    std::vector<Row> rows;
    rows.reserve(kRows);
    for (int64_t i = 0; i < kRows; ++i) {
      rows.push_back({Datum::Int64(i), Datum::Int64(i % 10000)});
    }
    db_.Insert(fact_, rows);
  }

  // Runs the plan with skipping on and off; asserts identical rows and
  // identical stats modulo the skip counters, and returns the skip-on stats.
  ExecStats CheckSkipOnOffAgree(const PhysPtr& plan) {
    auto with_skip = db_.executor.Execute(plan);
    EXPECT_TRUE(with_skip.ok()) << with_skip.status().ToString();
    ExecStats on_stats = db_.executor.stats();

    Executor no_skip(&db_.catalog, &db_.storage,
                     Executor::Options{.data_skipping = false});
    auto without = no_skip.Execute(plan);
    EXPECT_TRUE(without.ok()) << without.status().ToString();
    EXPECT_TRUE(*with_skip == *without);

    ExecStats on_zeroed = on_stats;
    on_zeroed.chunks_total = 0;
    on_zeroed.chunks_skipped = 0;
    on_zeroed.units_skipped = 0;
    EXPECT_TRUE(on_zeroed == no_skip.stats());
    return on_stats;
  }

  TestDb db_{kSegments};
  const TableDescriptor* fact_ = nullptr;
};

TEST_F(DataSkippingExecTest, ClusteredRangePredicateSkipsChunks) {
  // a < 2000 survives only the leading chunks of each slice.
  PhysPtr plan =
      FilterOverAllLeaves(fact_, MakeComparison(CompareOp::kLt, ColA(), Lit(2000)));
  ExecStats stats = CheckSkipOnOffAgree(plan);
  EXPECT_GT(stats.chunks_total, 0u);
  EXPECT_GT(stats.chunks_skipped, 0u);
  EXPECT_LT(stats.chunks_skipped, stats.chunks_total);
  // All rows with a < 2000 really came back (none were skipped away).
  EXPECT_EQ(stats.tuples_scanned, static_cast<size_t>(kRows));
}

TEST_F(DataSkippingExecTest, PartitionKeyPredicateSkipsWholeUnits) {
  // b < 2500 is false for every row of 3 of the 4 leaves: their slices go
  // away via the rollup synopsis without touching per-chunk synopses.
  PhysPtr plan =
      FilterOverAllLeaves(fact_, MakeComparison(CompareOp::kLt, ColB(), Lit(2500)));
  ExecStats stats = CheckSkipOnOffAgree(plan);
  EXPECT_GE(stats.units_skipped, 3u);  // 3 leaves x up to kSegments slices
  EXPECT_GT(stats.chunks_skipped, 0u);
}

TEST_F(DataSkippingExecTest, SelectiveEqualitySkipsNearlyEverything) {
  PhysPtr plan =
      FilterOverAllLeaves(fact_, MakeComparison(CompareOp::kEq, ColA(), Lit(31337)));
  auto result = db_.executor.Execute(plan);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->size(), 1u);
  const ExecStats& stats = db_.executor.stats();
  // Each slice's chunks cover disjoint sorted [min, max] ranges of a, so at
  // most one chunk per (leaf, segment) slice can bracket 31337 — either the
  // chunk actually holding it or one straddling the leaf's round-robin value
  // jump across it. Everything else (the vast majority) is skipped.
  EXPECT_GE(stats.chunks_skipped + 4 * kSegments, stats.chunks_total);
  EXPECT_GT(stats.chunks_skipped, stats.chunks_total / 2);
}

TEST_F(DataSkippingExecTest, ParallelMorselsSkipIdentically) {
  PhysPtr plan =
      FilterOverAllLeaves(fact_, MakeComparison(CompareOp::kLt, ColA(), Lit(2000)));
  auto one_worker_result = db_.executor.Execute(plan);
  ASSERT_TRUE(one_worker_result.ok());

  // 1024-row morsels put every chunk in its own stealable range.
  Executor parallel(&db_.catalog, &db_.storage,
                    Executor::Options{.workers = 4,
                                      .morsel_rows = 1024});
  auto parallel_result = parallel.Execute(plan);
  ASSERT_TRUE(parallel_result.ok());
  EXPECT_TRUE(*one_worker_result == *parallel_result);
  // Including the skip counters: per-morsel decisions add up to the 1-worker
  // ones.
  EXPECT_TRUE(db_.executor.stats() == parallel.stats());
  EXPECT_GT(parallel.stats().chunks_skipped, 0u);

  Executor parallel_noskip(&db_.catalog, &db_.storage,
                           Executor::Options{.workers = 4,
                                             .morsel_rows = 1024,
                                             .data_skipping = false});
  auto parallel_noskip_result = parallel_noskip.Execute(plan);
  ASSERT_TRUE(parallel_noskip_result.ok());
  EXPECT_TRUE(*one_worker_result == *parallel_noskip_result);
  EXPECT_EQ(parallel_noskip.stats().chunks_skipped, 0u);
}

TEST_F(DataSkippingExecTest, SkippingTracksInPlaceDml) {
  PhysPtr plan =
      FilterOverAllLeaves(fact_, MakeComparison(CompareOp::kGt, ColA(), Lit(50000)));
  auto before = db_.executor.Execute(plan);
  ASSERT_TRUE(before.ok());
  EXPECT_TRUE(before->empty());
  ExecStats stats = db_.executor.stats();
  EXPECT_EQ(stats.chunks_skipped, stats.chunks_total);

  // Rewrite one stored row beyond the predicate bound; the staled synopsis
  // must rebuild and stop skipping that chunk.
  TableStore* store = db_.storage.GetStore(fact_->oid);
  Oid first_unit = store->UnitOids().front();
  std::vector<Row>* rows = store->MutableUnitRows(first_unit, 0);
  ASSERT_FALSE(rows->empty());
  (*rows)[0][0] = Datum::Int64(99999);

  auto after = db_.executor.Execute(plan);
  ASSERT_TRUE(after.ok());
  ASSERT_EQ(after->size(), 1u);
  EXPECT_EQ(Datum::Compare((*after)[0][0], Datum::Int64(99999)), 0);
}

TEST_F(DataSkippingExecTest, ErrorBeforeSargableConjunctStillRaises) {
  // 1/0 = 1 AND a < 0: the erroring conjunct precedes the sargable one, so
  // no chunk may be skipped and both modes must fail.
  ExprPtr div = MakeArith(ArithOp::kDiv, Lit(1), Lit(0));
  PhysPtr plan = FilterOverAllLeaves(
      fact_, Conj({MakeComparison(CompareOp::kEq, div, Lit(1)),
                   MakeComparison(CompareOp::kLt, ColA(), Lit(0))}));
  auto with_skip = db_.executor.Execute(plan);
  EXPECT_FALSE(with_skip.ok());

  Executor no_skip(&db_.catalog, &db_.storage,
                   Executor::Options{.data_skipping = false});
  auto without = no_skip.Execute(plan);
  EXPECT_FALSE(without.ok());
  EXPECT_EQ(with_skip.status().code(), without.status().code());
}

TEST_F(DataSkippingExecTest, FalseSargableConjunctShortCircuitsErrorInBothModes) {
  // a < -100 AND 1/0 = 1: the first conjunct is FALSE for every row, so AND
  // short-circuits before the division in both modes — empty result, no
  // error. With skipping on, the proof happens per chunk instead of per row.
  ExprPtr div = MakeArith(ArithOp::kDiv, Lit(1), Lit(0));
  PhysPtr plan = FilterOverAllLeaves(
      fact_, Conj({MakeComparison(CompareOp::kLt, ColA(), Lit(-100)),
                   MakeComparison(CompareOp::kEq, div, Lit(1))}));
  ExecStats stats = CheckSkipOnOffAgree(plan);
  EXPECT_EQ(stats.chunks_skipped, stats.chunks_total);
}

TEST_F(DataSkippingExecTest, FamilyMismatchErrorSurvivesSkipping) {
  // a < 'zebra' errors on every row (int vs string); the synopsis family
  // check must refuse to skip so the error surfaces in both modes.
  PhysPtr plan = FilterOverAllLeaves(
      fact_, MakeComparison(CompareOp::kLt, ColA(), MakeConst(Datum::String("zebra"))));
  auto with_skip = db_.executor.Execute(plan);
  EXPECT_FALSE(with_skip.ok());

  Executor no_skip(&db_.catalog, &db_.storage,
                   Executor::Options{.data_skipping = false});
  auto without = no_skip.Execute(plan);
  EXPECT_FALSE(without.ok());
  EXPECT_EQ(with_skip.status().code(), without.status().code());
}

}  // namespace
}  // namespace mppdb

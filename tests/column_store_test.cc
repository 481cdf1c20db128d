// Columnar storage: adaptive per-chunk encoding selection, lossless
// round-trips (fuzzed over NULL runs, single-value, high-NDV, and mixed
// profiles), encode-time stats parity with the row-order AddValue fold,
// synopsis assembly from encoded chunks without decoding, encoded-data
// predicate evaluation against the row-at-a-time oracle (three-valued
// verdicts included), and exact NDV from dictionaries.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/random.h"
#include "expr/encoded_eval.h"
#include "expr/eval.h"
#include "expr/expr.h"
#include "storage/column_store.h"
#include "storage/storage.h"
#include "storage/synopsis.h"
#include "test_util.h"

namespace mppdb {
namespace {

using testutil::TestDb;

bool SameDatum(const Datum& a, const Datum& b) {
  if (a.is_null() || b.is_null()) return a.is_null() && b.is_null();
  if (!DatumsComparable(a, b)) return false;
  return Datum::Compare(a, b) == 0;
}

// Wraps a single column into 1-column rows so EncodeColumnChunk fuzzing can
// speak in terms of plain value vectors.
std::vector<Row> OneColumnRows(const std::vector<Datum>& values) {
  std::vector<Row> rows;
  rows.reserve(values.size());
  for (const Datum& v : values) rows.push_back({v});
  return rows;
}

void ExpectLosslessRoundTrip(const std::vector<Datum>& values) {
  std::vector<Row> rows = OneColumnRows(values);
  EncodedColumnChunk chunk = EncodeColumnChunk(rows, 0, rows.size(), 0);
  ASSERT_EQ(chunk.row_count, values.size());
  for (size_t i = 0; i < values.size(); ++i) {
    EXPECT_EQ(chunk.IsNullAt(i), values[i].is_null()) << "row " << i;
    EXPECT_TRUE(SameDatum(chunk.ValueAt(i), values[i]))
        << "row " << i << " encoding " << ColumnEncodingName(chunk.encoding);
  }
  std::vector<Datum> decoded;
  chunk.AppendValuesTo(&decoded);
  ASSERT_EQ(decoded.size(), values.size());
  for (size_t i = 0; i < values.size(); ++i) {
    EXPECT_TRUE(SameDatum(decoded[i], values[i])) << "row " << i;
  }
  EXPECT_LE(chunk.encoded_bytes, chunk.plain_bytes);
}

// --- Encoding selection ------------------------------------------------------

TEST(ColumnEncodingTest, SingleValueColumnRunLengthEncodes) {
  std::vector<Datum> values(1024, Datum::String("constant"));
  std::vector<Row> rows = OneColumnRows(values);
  EncodedColumnChunk chunk = EncodeColumnChunk(rows, 0, rows.size(), 0);
  EXPECT_EQ(chunk.encoding, ColumnEncoding::kRunLength);
  ASSERT_EQ(chunk.run_values.size(), 1u);
  EXPECT_EQ(chunk.run_lengths[0], 1024u);
  ExpectLosslessRoundTrip(values);
}

TEST(ColumnEncodingTest, AllNullColumnRunLengthEncodes) {
  std::vector<Datum> values(512, Datum::Null());
  std::vector<Row> rows = OneColumnRows(values);
  EncodedColumnChunk chunk = EncodeColumnChunk(rows, 0, rows.size(), 0);
  EXPECT_EQ(chunk.encoding, ColumnEncoding::kRunLength);
  EXPECT_EQ(chunk.stats.null_count, 512u);
  EXPECT_EQ(chunk.stats.non_null_count, 0u);
  ExpectLosslessRoundTrip(values);
}

TEST(ColumnEncodingTest, LowCardinalityStringsDictionaryEncode) {
  const char* vocab[] = {"apple", "pear", "quince"};
  std::vector<Datum> values;
  for (int i = 0; i < 1024; ++i) values.push_back(Datum::String(vocab[i % 3]));
  std::vector<Row> rows = OneColumnRows(values);
  EncodedColumnChunk chunk = EncodeColumnChunk(rows, 0, rows.size(), 0);
  EXPECT_EQ(chunk.encoding, ColumnEncoding::kDictionary);
  ASSERT_EQ(chunk.dict.size(), 3u);
  // Dictionary entries are sorted, so min/max fall out of the ends.
  EXPECT_EQ(chunk.dict.front().string_value(), "apple");
  EXPECT_EQ(chunk.dict.back().string_value(), "quince");
  ExpectLosslessRoundTrip(values);
}

TEST(ColumnEncodingTest, WideIntegersBitPack) {
  std::vector<Datum> values;
  for (int64_t i = 0; i < 1024; ++i) values.push_back(Datum::Int64(7000 + i));
  std::vector<Row> rows = OneColumnRows(values);
  EncodedColumnChunk chunk = EncodeColumnChunk(rows, 0, rows.size(), 0);
  // 1024 distinct values overflow the dictionary; a 1024-wide frame packs
  // into 10-bit slots.
  EXPECT_EQ(chunk.encoding, ColumnEncoding::kBitPacked);
  EXPECT_EQ(chunk.packed_base, 7000);
  EXPECT_EQ(chunk.packed_bits, 10);
  ExpectLosslessRoundTrip(values);
}

TEST(ColumnEncodingTest, HighCardinalityStringsStayPlain) {
  std::vector<Datum> values;
  for (int i = 0; i < 1024; ++i) {
    values.push_back(Datum::String("unique_" + std::to_string(i)));
  }
  std::vector<Row> rows = OneColumnRows(values);
  EncodedColumnChunk chunk = EncodeColumnChunk(rows, 0, rows.size(), 0);
  EXPECT_EQ(chunk.encoding, ColumnEncoding::kPlain);
  ExpectLosslessRoundTrip(values);
}

TEST(ColumnEncodingTest, MixedFamilyChunkStaysPlain) {
  // Rows are not type-checked on insert; a chunk mixing comparison families
  // must refuse every value-ordering encoding.
  std::vector<Datum> values;
  for (int i = 0; i < 100; ++i) {
    values.push_back(i % 2 == 0 ? Datum::Int64(i) : Datum::String("s"));
  }
  std::vector<Row> rows = OneColumnRows(values);
  EncodedColumnChunk chunk = EncodeColumnChunk(rows, 0, rows.size(), 0);
  EXPECT_EQ(chunk.encoding, ColumnEncoding::kPlain);
  EXPECT_FALSE(chunk.stats.comparable);
  ExpectLosslessRoundTrip(values);
}

// --- Round-trip fuzz ---------------------------------------------------------

std::vector<Datum> RandomColumn(Random* rng, int profile, size_t n) {
  std::vector<Datum> values;
  values.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    if (rng->Bernoulli(0.15)) {
      // NULLs arrive in runs about half the time.
      size_t run = rng->Bernoulli(0.5) ? 1 + rng->Uniform(20) : 1;
      for (size_t j = 0; j < run && values.size() < n; ++j) {
        values.push_back(Datum::Null());
      }
      if (values.size() >= n) break;
      i = values.size();
    }
    switch (profile) {
      case 0:  // single value
        values.push_back(Datum::Int64(42));
        break;
      case 1:  // low-NDV ints (dictionary / RLE territory)
        values.push_back(Datum::Int64(rng->UniformRange(0, 5)));
        break;
      case 2:  // wide ints (bit-packing territory)
        values.push_back(Datum::Int64(rng->UniformRange(-100000, 100000)));
        break;
      case 3:  // low-NDV strings
        values.push_back(Datum::String("tag_" + std::to_string(rng->Uniform(4))));
        break;
      case 4:  // high-NDV doubles (plain territory)
        values.push_back(Datum::Double(rng->NextDouble() * 1e6));
        break;
      default:  // sorted-ish ints with repeats (RLE territory)
        values.push_back(Datum::Int64(static_cast<int64_t>(i) / 16));
        break;
    }
  }
  values.resize(n, Datum::Null());
  return values;
}

TEST(ColumnEncodingTest, RoundTripFuzz) {
  Random rng(77);
  for (int trial = 0; trial < 120; ++trial) {
    const int profile = static_cast<int>(rng.Uniform(6));
    // Chunk sizes include tiny, odd, and full-chunk lengths.
    const size_t n = 1 + rng.Uniform(kStorageChunkRows);
    ExpectLosslessRoundTrip(RandomColumn(&rng, profile, n));
  }
}

TEST(ColumnEncodingTest, StatsMatchRowOrderAddValueFold) {
  Random rng(78);
  for (int trial = 0; trial < 60; ++trial) {
    const int profile = static_cast<int>(rng.Uniform(6));
    const size_t n = 1 + rng.Uniform(kStorageChunkRows);
    std::vector<Datum> values = RandomColumn(&rng, profile, n);
    std::vector<Row> rows = OneColumnRows(values);
    EncodedColumnChunk chunk = EncodeColumnChunk(rows, 0, rows.size(), 0);
    ColumnSynopsis oracle;
    for (const Datum& v : values) oracle.AddValue(v);
    EXPECT_EQ(chunk.stats.null_count, oracle.null_count);
    EXPECT_EQ(chunk.stats.non_null_count, oracle.non_null_count);
    EXPECT_EQ(chunk.stats.comparable, oracle.comparable);
    if (oracle.comparable && oracle.non_null_count > 0) {
      EXPECT_TRUE(SameDatum(chunk.stats.min, oracle.min));
      EXPECT_TRUE(SameDatum(chunk.stats.max, oracle.max));
    }
  }
}

// --- Synopsis assembly from encoded chunks -----------------------------------

TEST(SliceColumnsTest, SynopsisFromColumnsMatchesRowSynopsis) {
  Random rng(79);
  for (int trial = 0; trial < 20; ++trial) {
    const size_t n = 1 + rng.Uniform(3 * kStorageChunkRows);
    std::vector<Datum> col_a = RandomColumn(&rng, 1, n);
    std::vector<Datum> col_b = RandomColumn(&rng, static_cast<int>(rng.Uniform(6)), n);
    std::vector<Row> rows;
    for (size_t i = 0; i < n; ++i) rows.push_back({col_a[i], col_b[i]});

    SliceColumns cols = EncodeSlice(rows, 2);
    ASSERT_EQ(cols.row_count, n);
    ASSERT_EQ(cols.num_chunks(), (n + kStorageChunkRows - 1) / kStorageChunkRows);

    SliceSynopsis oracle(2);
    for (const Row& row : rows) oracle.Append(row);
    SliceSynopsis assembled = SynopsisFromColumns(cols);

    ASSERT_EQ(assembled.chunks.size(), oracle.chunks.size());
    auto check_chunk = [&](const ChunkSynopsis& got, const ChunkSynopsis& want) {
      EXPECT_EQ(got.row_count, want.row_count);
      ASSERT_EQ(got.columns.size(), want.columns.size());
      for (size_t c = 0; c < want.columns.size(); ++c) {
        EXPECT_EQ(got.columns[c].null_count, want.columns[c].null_count);
        EXPECT_EQ(got.columns[c].non_null_count, want.columns[c].non_null_count);
        EXPECT_EQ(got.columns[c].comparable, want.columns[c].comparable);
        if (want.columns[c].comparable && want.columns[c].non_null_count > 0) {
          EXPECT_TRUE(SameDatum(got.columns[c].min, want.columns[c].min));
          EXPECT_TRUE(SameDatum(got.columns[c].max, want.columns[c].max));
        }
      }
    };
    for (size_t k = 0; k < oracle.chunks.size(); ++k) {
      check_chunk(assembled.chunks[k], oracle.chunks[k]);
    }
    check_chunk(assembled.rollup, oracle.rollup);
  }
}

// --- Encoded predicate evaluation vs the row oracle --------------------------

ExprPtr Lit(int64_t v) { return MakeConst(Datum::Int64(v)); }
ExprPtr ColA() { return MakeColumnRef(1, "a", TypeId::kInt64); }
ExprPtr ColB() { return MakeColumnRef(2, "b", TypeId::kInt64); }
ExprPtr ColC() { return MakeColumnRef(3, "c", TypeId::kString); }

class EncodedEvalTest : public ::testing::Test {
 protected:
  EncodedEvalTest() : layout_({1, 2, 3}) {}

  // a: low-NDV ints with NULLs (dictionary), b: wide ints (bit-packed),
  // c: low-NDV strings (dictionary / RLE).
  std::vector<Row> RandomRows(Random* rng, size_t n) {
    std::vector<Row> rows;
    rows.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      Datum a = rng->Bernoulli(0.1) ? Datum::Null()
                                    : Datum::Int64(rng->UniformRange(0, 12));
      Datum b = Datum::Int64(rng->UniformRange(0, 50000));
      Datum c = Datum::String("t" + std::to_string(rng->Uniform(5)));
      rows.push_back({a, b, c});
    }
    return rows;
  }

  ExprPtr RandomTerm(Random* rng) {
    switch (rng->Uniform(8)) {
      case 0:
        return MakeComparison(CompareOp::kLt, ColA(), Lit(rng->UniformRange(0, 12)));
      case 1:
        return MakeComparison(CompareOp::kGe, ColB(),
                              Lit(rng->UniformRange(0, 50000)));
      case 2:
        return MakeComparison(CompareOp::kEq, ColC(),
                              MakeConst(Datum::String(
                                  "t" + std::to_string(rng->Uniform(5)))));
      case 3:
        return MakeInList({ColA(), Lit(rng->UniformRange(0, 12)),
                           Lit(rng->UniformRange(0, 12))});
      case 4:
        // IN with a NULL item: misses yield NULL, never FALSE.
        return MakeInList({ColA(), Lit(rng->UniformRange(0, 12)),
                           MakeConst(Datum::Null())});
      case 5:
        return std::make_shared<IsNullExpr>(ColA());
      case 6:
        return MakeNot(std::make_shared<IsNullExpr>(ColA()));
      default:
        return MakeOr({MakeComparison(CompareOp::kLt, ColB(),
                                      Lit(rng->UniformRange(0, 25000))),
                       MakeComparison(CompareOp::kGt, ColB(),
                                      Lit(rng->UniformRange(25000, 50000)))});
    }
  }

  // Replays the scan's encoded fast path over every chunk and checks the kept
  // row set against row-at-a-time evaluation of the full predicate.
  void CheckAgainstOracle(const ExprPtr& predicate, const std::vector<Row>& rows) {
    EncodedPredicate compiled = CompileEncodedPredicate(predicate, layout_);
    ASSERT_TRUE(compiled.HasTerms()) << predicate->ToString();
    SliceColumns cols = EncodeSlice(rows, 3);
    const bool has_residual = compiled.residual != nullptr;
    for (size_t chunk = 0; chunk < cols.num_chunks(); ++chunk) {
      const size_t base = chunk * kStorageChunkRows;
      const size_t end = std::min(rows.size(), base + kStorageChunkRows);
      if (!EncodedChunkEligible(compiled, cols, chunk)) continue;
      SelVec sel;
      std::vector<char> pure;
      EvalEncodedPredicate(compiled, cols, chunk, base, end - base, &sel,
                           has_residual ? &pure : nullptr);
      std::vector<size_t> kept;
      for (size_t s = 0; s < sel.size(); ++s) {
        bool keep = true;
        if (has_residual) {
          auto residual = EvalPredicate(compiled.residual, layout_, rows[sel[s]]);
          ASSERT_TRUE(residual.ok());
          keep = *residual && pure[s] != 0;
        }
        if (keep) kept.push_back(sel[s]);
      }
      std::vector<size_t> oracle;
      for (size_t i = base; i < end; ++i) {
        auto keep = EvalPredicate(predicate, layout_, rows[i]);
        ASSERT_TRUE(keep.ok());
        if (*keep) oracle.push_back(i);
      }
      EXPECT_EQ(kept, oracle) << predicate->ToString() << " chunk " << chunk;
    }
  }

  ColumnLayout layout_;
};

TEST_F(EncodedEvalTest, FullyCompiledPredicatesMatchOracle) {
  Random rng(101);
  std::vector<Row> rows = RandomRows(&rng, 2500);
  for (int trial = 0; trial < 80; ++trial) {
    std::vector<ExprPtr> conjuncts;
    const size_t arity = 1 + rng.Uniform(3);
    for (size_t i = 0; i < arity; ++i) conjuncts.push_back(RandomTerm(&rng));
    CheckAgainstOracle(Conj(conjuncts), rows);
  }
}

TEST_F(EncodedEvalTest, ResidualPredicatesMatchOracle) {
  Random rng(102);
  std::vector<Row> rows = RandomRows(&rng, 2500);
  for (int trial = 0; trial < 80; ++trial) {
    std::vector<ExprPtr> conjuncts;
    const size_t arity = 1 + rng.Uniform(2);
    for (size_t i = 0; i < arity; ++i) conjuncts.push_back(RandomTerm(&rng));
    // Arithmetic is never compiled into a term, so this conjunct (and
    // everything after it) stays residual.
    conjuncts.push_back(MakeComparison(
        CompareOp::kLt, MakeArith(ArithOp::kAdd, ColB(), Lit(1)),
        Lit(rng.UniformRange(0, 50001))));
    conjuncts.push_back(RandomTerm(&rng));
    CheckAgainstOracle(Conj(conjuncts), rows);
  }
}

TEST_F(EncodedEvalTest, NullVerdictRowsReachTheResidualImpure) {
  // a IS NULL makes `a < 5` NULL, not FALSE: the row must survive to the
  // residual (the oracle's AND short-circuit only fires on FALSE) but can
  // never be kept (pure = 0).
  std::vector<Row> rows = {{Datum::Null(), Datum::Int64(1), Datum::String("x")},
                           {Datum::Int64(3), Datum::Int64(1), Datum::String("x")},
                           {Datum::Int64(9), Datum::Int64(1), Datum::String("x")}};
  ExprPtr prefix = MakeComparison(CompareOp::kLt, ColA(), Lit(5));
  ExprPtr residual = MakeComparison(CompareOp::kEq,
                                    MakeArith(ArithOp::kAdd, ColB(), Lit(0)), Lit(1));
  EncodedPredicate compiled =
      CompileEncodedPredicate(Conj({prefix, residual}), layout_);
  ASSERT_TRUE(compiled.HasTerms());
  ASSERT_NE(compiled.residual, nullptr);
  SliceColumns cols = EncodeSlice(rows, 3);
  ASSERT_TRUE(EncodedChunkEligible(compiled, cols, 0));
  SelVec sel;
  std::vector<char> pure;
  EvalEncodedPredicate(compiled, cols, 0, 0, rows.size(), &sel, &pure);
  // Row 0 (NULL verdict) and row 1 (TRUE) survive; row 2 is FALSE and is the
  // only row on which the oracle would never evaluate the residual.
  ASSERT_EQ(sel, (SelVec{0, 1}));
  EXPECT_EQ(pure[0], 0);
  EXPECT_EQ(pure[1], 1);
  // Without a residual, WHERE semantics drop NULL verdicts too.
  EncodedPredicate prefix_only = CompileEncodedPredicate(prefix, layout_);
  ASSERT_EQ(prefix_only.residual, nullptr);
  SelVec where_sel;
  EvalEncodedPredicate(prefix_only, cols, 0, 0, rows.size(), &where_sel, nullptr);
  EXPECT_EQ(where_sel, (SelVec{1}));
}

TEST_F(EncodedEvalTest, MixedFamilyChunksAreIneligible) {
  // A string smuggled into the int column poisons the chunk's family check:
  // the comparison could raise a type-mismatch error, so the chunk must fall
  // back to ordinary row evaluation.
  std::vector<Row> rows = {{Datum::Int64(1), Datum::Int64(1), Datum::String("x")},
                           {Datum::String("!"), Datum::Int64(2), Datum::String("x")}};
  EncodedPredicate compiled = CompileEncodedPredicate(
      MakeComparison(CompareOp::kLt, ColA(), Lit(5)), layout_);
  ASSERT_TRUE(compiled.HasTerms());
  SliceColumns cols = EncodeSlice(rows, 3);
  EXPECT_FALSE(EncodedChunkEligible(compiled, cols, 0));
}

// --- Exact NDV from dictionaries ---------------------------------------------

TEST(ExactDistinctTest, DictionarySlicesExposeExactNdv) {
  TestDb db(2);
  const TableDescriptor* table = db.CreatePlainTable(
      "t", Schema({{"k", TypeId::kInt64}, {"tag", TypeId::kString}}));
  ASSERT_TRUE(db.catalog.SetTableOrientation("t", StorageOrientation::kColumn).ok());
  std::vector<Row> rows;
  for (int i = 0; i < 3000; ++i) {
    rows.push_back({Datum::Int64(i % 7),
                    Datum::String("tag_" + std::to_string(i % 11))});
  }
  db.Insert(table, rows);
  TableStore* store = db.storage.GetStore(table->oid);
  // Images build lazily; the estimate is only exact once they exist.
  EXPECT_FALSE(store->ExactDistinctFromDictionaries(0).has_value());
  for (Oid unit : store->UnitOids()) {
    for (int segment = 0; segment < store->num_segments(); ++segment) {
      store->UnitColumns(unit, segment);
    }
  }
  EXPECT_EQ(store->ExactDistinctFromDictionaries(0), std::optional<size_t>(7));
  EXPECT_EQ(store->ExactDistinctFromDictionaries(1), std::optional<size_t>(11));
}

TEST(ExactDistinctTest, RowOrientedTablesFallBackToEstimate) {
  TestDb db(2);
  const TableDescriptor* table =
      db.CreatePlainTable("t", Schema({{"k", TypeId::kInt64}}));
  db.Insert(table, {{Datum::Int64(1)}, {Datum::Int64(2)}});
  EXPECT_FALSE(
      db.storage.GetStore(table->oid)->ExactDistinctFromDictionaries(0).has_value());
}

}  // namespace
}  // namespace mppdb

// Out-of-core execution tests (DESIGN.md §14): hash join, hash aggregation,
// and sort that exceed the memory budget must spill to disk and complete
// with rows bit-identical to the unlimited-budget oracle — only the spill
// counters in ExecStats may move. Also covers the recursion fallbacks
// (all-duplicate keys), temp-file lifecycle across every outcome (success,
// fatal spill I/O faults, cancellation mid-spill, budget exhaustion), and
// the EXPLAIN ANALYZE spill footer.
//
// The fault × spill matrix lives in fault_matrix_test.cc; the randomized
// spill-on/off axis in random_query_property_test.cc.

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <limits>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "common/fault_injection.h"
#include "db/database.h"
#include "exec/executor.h"
#include "exec/plan.h"
#include "expr/expr.h"
#include "runtime/query_context.h"
#include "runtime/spill/row_codec.h"
#include "storage/storage.h"
#include "test_util.h"

namespace mppdb {
namespace {

using testutil::TestDb;

// Both executor modes; `spill` defaults on.
const Executor::Options kModes[] = {
    {.workers = 1},
    {.workers = 0},
};

std::string ModeName(const Executor::Options& mode) {
  return "workers=" + std::to_string(mode.workers);
}

Executor::Options SpillOff(Executor::Options mode) {
  mode.spill = false;
  return mode;
}

// Regular files anywhere under `dir` (0 if the directory does not exist).
size_t FilesUnder(const std::string& dir) {
  namespace fs = std::filesystem;
  std::error_code ec;
  if (!fs::exists(dir, ec)) return 0;
  size_t n = 0;
  for (auto it = fs::recursive_directory_iterator(dir, ec);
       !ec && it != fs::recursive_directory_iterator(); it.increment(ec)) {
    if (it->is_regular_file(ec)) ++n;
  }
  return n;
}

// A scratch directory handed to QueryContext::set_spill_dir, removed (with
// anything leaked into it) on destruction.
struct TempSpillDir {
  TempSpillDir() {
    static int counter = 0;
    path = (std::filesystem::temp_directory_path() /
            ("mppdb-spill-test-" + std::to_string(::getpid()) + "-" +
             std::to_string(counter++)))
               .string();
    std::filesystem::create_directories(path);
  }
  ~TempSpillDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
  std::string path;
};

// Zeroes the spill counters so a spilled run's stats can be compared to the
// in-memory oracle's: every pre-existing field must be untouched.
ExecStats WithoutSpillCounters(ExecStats stats) {
  stats.spill_partitions = 0;
  stats.spill_bytes_written = 0;
  stats.spill_bytes_read = 0;
  stats.spill_passes = 0;
  stats.sort_runs = 0;
  return stats;
}

// --- Row codec ------------------------------------------------------------

// Same datum, bit for bit: null flag, type id and payload (a double's bits,
// so -0.0 and a NaN's payload count).
bool SameDatum(const Datum& a, const Datum& b) {
  if (a.is_null() || b.is_null()) return a.is_null() == b.is_null();
  if (a.type() != b.type()) return false;
  if (a.type() == TypeId::kDouble) {
    const double x = a.double_value();
    const double y = b.double_value();
    return std::memcmp(&x, &y, sizeof(double)) == 0;
  }
  return Datum::Compare(a, b) == 0;
}

bool SameRows(const std::vector<Row>& a, const std::vector<Row>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].size() != b[i].size()) return false;
    for (size_t j = 0; j < a[i].size(); ++j) {
      if (!SameDatum(a[i][j], b[i][j])) return false;
    }
  }
  return true;
}

double NanWithPayload() {
  const uint64_t bits = 0x7ff8000000000001ull;
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

// A fixed batch over every tag, and the bytes the codec has always written
// for it (one-byte tags, little-endian payloads, u32 row and string
// lengths): the spilled byte counts rest on this format.
std::vector<Row> GoldenBatch() {
  const double kInf = std::numeric_limits<double>::infinity();
  return {
      {Datum::Null(), Datum::Bool(true), Datum::Bool(false), Datum::Int32(-7),
       Datum::Int64(std::numeric_limits<int64_t>::min()), Datum::Double(-0.0),
       Datum::Date(-1), Datum::String("")},
      {Datum::Int32(std::numeric_limits<int32_t>::max()),
       Datum::Int64(0x0102030405060708), Datum::Double(kInf),
       Datum::Double(-kInf), Datum::String(std::string("a\0b", 3)),
       Datum::String("\xff\xfe")},
      {},
      {Datum::Double(NanWithPayload()), Datum::Date(19000), Datum::String("spill")},
  };
}

constexpr const char* kGoldenHex =
    "08000000000101010002f9ffffff030000000000000080040000000000000080"
    "06ffffffff05000000000600000002ffffff7f03080706050403020104000000"
    "000000f07f04000000000000f0ff05030000006100620502000000fffe000000"
    "000300000004010000000000f87f06384a000005050000007370696c6c";

std::string ToHex(const std::string& bytes) {
  static const char* const kDigits = "0123456789abcdef";
  std::string hex;
  for (unsigned char c : bytes) {
    hex.push_back(kDigits[c >> 4]);
    hex.push_back(kDigits[c & 15]);
  }
  return hex;
}

TEST(RowCodecTest, RoundTripsEveryTag) {
  std::vector<Row> rows = GoldenBatch();
  rows.push_back({Datum::Int32(std::numeric_limits<int32_t>::min()),
                  Datum::Int64(std::numeric_limits<int64_t>::max()),
                  Datum::Double(0.0), Datum::Double(5e-324), Datum::Date(0),
                  Datum::String(std::string(70000, '\xff'))});
  std::string body;
  EncodeBatchBody(rows.data(), rows.size(), nullptr, &body);
  std::vector<Row> decoded;
  ASSERT_TRUE(DecodeBatchBody(body.data(), body.size(),
                              static_cast<uint32_t>(rows.size()), &decoded)
                  .ok());
  EXPECT_TRUE(SameRows(decoded, rows));

  // Through a permutation: rows come back in the order given, and the
  // decoder appends after what `decoded` already holds.
  const std::vector<uint32_t> order = {4, 2, 0, 3, 1};
  EncodeBatchBody(rows.data(), order.size(), order.data(), &body);
  ASSERT_TRUE(DecodeBatchBody(body.data(), body.size(),
                              static_cast<uint32_t>(order.size()), &decoded)
                  .ok());
  ASSERT_EQ(decoded.size(), rows.size() + order.size());
  std::vector<Row> permuted;
  for (uint32_t i : order) permuted.push_back(rows[i]);
  EXPECT_TRUE(SameRows(
      std::vector<Row>(decoded.begin() + static_cast<ptrdiff_t>(rows.size()),
                       decoded.end()),
      permuted));
}

TEST(RowCodecTest, EncodesTheGoldenBytes) {
  const std::vector<Row> rows = GoldenBatch();
  std::string body;
  EncodeBatchBody(rows.data(), rows.size(), nullptr, &body);
  EXPECT_EQ(ToHex(body), kGoldenHex);
  std::vector<Row> decoded;
  ASSERT_TRUE(DecodeBatchBody(body.data(), body.size(),
                              static_cast<uint32_t>(rows.size()), &decoded)
                  .ok());
  EXPECT_TRUE(SameRows(decoded, rows));
}

// A frame cut at any byte, an unknown tag, a string length past the end or
// trailing bytes fail typed kInternal and append nothing: no half-decoded
// row reaches the caller.
TEST(RowCodecTest, CorruptFramesFailTypedAndAppendNothing) {
  const std::vector<Row> rows = GoldenBatch();
  const uint32_t num_rows = static_cast<uint32_t>(rows.size());
  std::string body;
  EncodeBatchBody(rows.data(), rows.size(), nullptr, &body);
  const Row sentinel = {Datum::Int64(42)};
  auto expect_rejected = [&](const std::string& bytes, const std::string& what) {
    std::vector<Row> out = {sentinel};
    const Status st = DecodeBatchBody(bytes.data(), bytes.size(), num_rows, &out);
    EXPECT_EQ(st.code(), StatusCode::kInternal) << what << ": " << st.ToString();
    EXPECT_TRUE(SameRows(out, {sentinel})) << what;
  };
  for (size_t cut = 0; cut < body.size(); ++cut) {
    expect_rejected(body.substr(0, cut), "cut at " + std::to_string(cut));
  }
  expect_rejected(body + '\0', "trailing byte");
  // The first row's datums start after its u32 count: tag 0 (NULL), then
  // tag 1 (BOOL) at offset 5.
  for (const char tag : {'\x07', '\x80', '\xff'}) {
    std::string planted = body;
    planted[5] = tag;
    expect_rejected(planted, "unknown tag at a datum");
  }
  std::string long_string = body;
  // The first row's empty string: tag at 37, its u32 length at 38.
  ASSERT_EQ(long_string[37], '\x05');
  long_string[38] = '\x7f';
  expect_rejected(long_string, "string length past the end");
  std::string huge_count = body;
  huge_count[3] = '\x7f';
  expect_rejected(huge_count, "row count past the end");
}

// --- Fixtures -------------------------------------------------------------

// Single-segment database: handcrafted operator-rooted plans are
// distribution-correct in both modes, so budget refusals land exactly
// where each test intends. (Multi-segment planner-made plans are covered by
// the probe-side-Motion test below and the SQL-level suites.)
struct SpillJoinFixture {
  SpillJoinFixture(int64_t dim_rows, int64_t fact_rows, bool all_dup_keys)
      : db(1) {
    dim = db.CreatePlainTable(
        "dim", Schema({{"id", TypeId::kInt64}, {"tag", TypeId::kInt64}}), {0});
    std::vector<Row> drows;
    for (int64_t i = 0; i < dim_rows; ++i) {
      drows.push_back({Datum::Int64(all_dup_keys ? 7 : i), Datum::Int64(i * 2)});
    }
    db.Insert(dim, drows);
    fact = db.CreatePlainTable(
        "fact", Schema({{"a", TypeId::kInt64}, {"b", TypeId::kInt64}}), {0});
    std::vector<Row> frows;
    for (int64_t i = 0; i < fact_rows; ++i) {
      int64_t b;
      if (all_dup_keys) {
        b = (i % 2 == 0) ? 7 : 9;  // half match the duplicated build key
      } else {
        b = (i < fact_rows / 2) ? i % 150 : 100000 + i;  // half match
      }
      frows.push_back({Datum::Int64(i), Datum::Int64(b)});
    }
    db.Insert(fact, frows);
  }

  PhysPtr JoinPlan(JoinType type, ExprPtr residual, bool gather) const {
    auto build = std::make_shared<TableScanNode>(dim->oid, dim->oid,
                                                 std::vector<ColRefId>{11, 12});
    auto probe = std::make_shared<TableScanNode>(fact->oid, fact->oid,
                                                 std::vector<ColRefId>{1, 2});
    PhysPtr join = std::make_shared<HashJoinNode>(
        type, std::vector<ColRefId>{11}, std::vector<ColRefId>{2},
        std::move(residual), build, probe);
    if (!gather) return join;
    return std::make_shared<MotionNode>(MotionKind::kGather,
                                        std::vector<ColRefId>{}, join);
  }

  TestDb db;
  const TableDescriptor* dim;
  const TableDescriptor* fact;
};

// Runs `plan` three ways per mode: unlimited oracle, limited with spill off
// (must fail kResourceExhausted), limited with spill on (must match the
// oracle bit-for-bit with nonzero spill counters and no leftover files).
void ExpectSpillMatchesOracle(TestDb& db, const PhysPtr& plan, size_t limit,
                              size_t min_spill_passes = 1) {
  for (const Executor::Options& mode : kModes) {
    TempSpillDir dir;
    Executor exec(&db.catalog, &db.storage, mode);
    QueryContext ctx;
    ctx.set_spill_dir(dir.path);

    auto oracle = exec.Execute(plan, &ctx);
    ASSERT_TRUE(oracle.ok()) << ModeName(mode) << ": "
                             << oracle.status().ToString();
    const ExecStats oracle_stats = exec.stats();
    EXPECT_EQ(oracle_stats.spill_bytes_written, 0u) << ModeName(mode);

    Executor no_spill(&db.catalog, &db.storage, SpillOff(mode));
    ctx.budget().set_limit(limit);
    auto refused = no_spill.Execute(plan, &ctx);
    ASSERT_FALSE(refused.ok()) << ModeName(mode) << ": spill-off run passed "
                               << "— limit does not constrain this plan";
    EXPECT_EQ(refused.status().code(), StatusCode::kResourceExhausted)
        << ModeName(mode) << ": " << refused.status().ToString();
    EXPECT_EQ(FilesUnder(dir.path), 0u) << ModeName(mode);

    auto spilled = exec.Execute(plan, &ctx);
    ASSERT_TRUE(spilled.ok()) << ModeName(mode) << ": "
                              << spilled.status().ToString();
    EXPECT_TRUE(*spilled == *oracle) << ModeName(mode);
    const ExecStats spilled_stats = exec.stats();
    EXPECT_GT(spilled_stats.spill_bytes_written, 0u) << ModeName(mode);
    EXPECT_GT(spilled_stats.spill_bytes_read, 0u) << ModeName(mode);
    EXPECT_GE(spilled_stats.spill_passes, min_spill_passes) << ModeName(mode);
    // Stats-only visibility: every pre-existing counter is identical to the
    // in-memory run's.
    EXPECT_TRUE(WithoutSpillCounters(spilled_stats) ==
                WithoutSpillCounters(oracle_stats))
        << ModeName(mode);
    EXPECT_EQ(FilesUnder(dir.path), 0u)
        << ModeName(mode) << ": leaked spill files";
    ctx.budget().set_limit(0);
  }
}

// --- Hash join ------------------------------------------------------------

// Build table (4000 rows ≈ 320 KB estimated) exceeds a 200 KB budget; the
// spilled join must be bit-identical through a Gather root (Motion buffers
// never spill and still fit).
TEST(SpillExecTest, JoinSpillsBitIdenticalAcrossModes) {
  SpillJoinFixture fx(4000, 600, /*all_dup_keys=*/false);
  PhysPtr plan = fx.JoinPlan(JoinType::kInner, nullptr, /*gather=*/true);
  ExpectSpillMatchesOracle(fx.db, plan, 200 * 1000);
}

// Residual predicates are evaluated on the spill path too, over the same
// joint layout.
TEST(SpillExecTest, JoinResidualSpillsBitIdenticalAcrossModes) {
  SpillJoinFixture fx(4000, 600, /*all_dup_keys=*/false);
  // tag < a: build-side column against probe-side column.
  ExprPtr residual =
      MakeComparison(CompareOp::kLt, MakeColumnRef(12, "tag", TypeId::kInt64),
                     MakeColumnRef(1, "a", TypeId::kInt64));
  PhysPtr plan = fx.JoinPlan(JoinType::kInner, residual, /*gather=*/false);
  ExpectSpillMatchesOracle(fx.db, plan, 200 * 1000);
}

// All-duplicate build keys: no salt can split the partition, so recursion
// must bottom out at the block-streaming fallback (one pass per depth, then
// blocks). Semi join exercises the per-probe satisfied bookkeeping across
// blocks.
TEST(SpillExecTest, SemiJoinAllDuplicateKeysHitsFallback) {
  SpillJoinFixture fx(2500, 40, /*all_dup_keys=*/true);
  PhysPtr plan = fx.JoinPlan(JoinType::kSemi, nullptr, /*gather=*/true);
  // 1 initial partitioning pass + 3 re-partitions before depth is exhausted.
  ExpectSpillMatchesOracle(fx.db, plan, 60 * 1000, /*min_spill_passes=*/4);
}

// Inner join through the fallback: matches are found block by block but
// must come out in the oracle's per-probe reverse-build order, restored by
// the rank tags.
TEST(SpillExecTest, InnerJoinAllDuplicateKeysFallbackOrdering) {
  SpillJoinFixture fx(2500, 6, /*all_dup_keys=*/true);
  PhysPtr plan = fx.JoinPlan(JoinType::kInner, nullptr, /*gather=*/false);
  ExpectSpillMatchesOracle(fx.db, plan, 60 * 1000, /*min_spill_passes=*/4);
}

// Empty probe side with a spill-triggering build: every partition is
// probe-empty and is skipped without joining; no files leak. The converse
// (empty build side) never trips the spill trigger — its estimate is zero —
// and must keep working with a spill dir configured.
TEST(SpillExecTest, EmptySidesWithSpillConfigured) {
  TestDb db(1);
  const TableDescriptor* dim = db.CreatePlainTable(
      "dim", Schema({{"id", TypeId::kInt64}, {"tag", TypeId::kInt64}}), {0});
  std::vector<Row> drows;
  for (int64_t i = 0; i < 4000; ++i) {
    drows.push_back({Datum::Int64(i), Datum::Int64(i * 2)});
  }
  db.Insert(dim, drows);
  const TableDescriptor* empty = db.CreatePlainTable(
      "empty_t", Schema({{"a", TypeId::kInt64}, {"b", TypeId::kInt64}}), {0});

  for (const Executor::Options& mode : kModes) {
    TempSpillDir dir;
    Executor exec(&db.catalog, &db.storage, mode);
    QueryContext ctx;
    ctx.set_spill_dir(dir.path);
    ctx.budget().set_limit(200 * 1000);

    // Build spills, probe is empty.
    auto build_scan = std::make_shared<TableScanNode>(
        dim->oid, dim->oid, std::vector<ColRefId>{11, 12});
    auto probe_scan = std::make_shared<TableScanNode>(
        empty->oid, empty->oid, std::vector<ColRefId>{1, 2});
    PhysPtr plan = std::make_shared<HashJoinNode>(
        JoinType::kInner, std::vector<ColRefId>{11}, std::vector<ColRefId>{2},
        nullptr, build_scan, probe_scan);
    auto result = exec.Execute(plan, &ctx);
    ASSERT_TRUE(result.ok()) << ModeName(mode) << ": "
                             << result.status().ToString();
    EXPECT_TRUE(result->empty()) << ModeName(mode);
    EXPECT_EQ(FilesUnder(dir.path), 0u) << ModeName(mode);

    // Build empty: a zero estimate is never refused, so no spill at all.
    PhysPtr flipped = std::make_shared<HashJoinNode>(
        JoinType::kInner, std::vector<ColRefId>{1}, std::vector<ColRefId>{12},
        nullptr, probe_scan, build_scan);
    auto flipped_result = exec.Execute(flipped, &ctx);
    ASSERT_TRUE(flipped_result.ok())
        << ModeName(mode) << ": " << flipped_result.status().ToString();
    EXPECT_TRUE(flipped_result->empty()) << ModeName(mode);
    EXPECT_EQ(exec.stats().spill_bytes_written, 0u) << ModeName(mode);
    EXPECT_EQ(FilesUnder(dir.path), 0u) << ModeName(mode);
    ctx.budget().set_limit(0);
  }
}

// Probe side behind a Motion (broadcast): at any worker count the probe
// child suspends at the exchange and the join frame unwinds mid-decision —
// the spill decision must survive the suspension (segment memo, not a local).
// dim is hash-distributed on its join key, fact is broadcast, so the
// multi-segment join is distribution-correct and the gathered result
// matches the 1-worker oracle as a set.
TEST(SpillExecTest, JoinSpillSurvivesProbeSideMotionSuspension) {
  TestDb db(4);
  const TableDescriptor* dim = db.CreatePlainTable(
      "dim", Schema({{"id", TypeId::kInt64}, {"tag", TypeId::kInt64}}), {0});
  std::vector<Row> drows;
  for (int64_t i = 0; i < 12000; ++i) {
    drows.push_back({Datum::Int64(i), Datum::Int64(i * 2)});
  }
  db.Insert(dim, drows);
  const TableDescriptor* fact = db.CreatePlainTable(
      "fact", Schema({{"a", TypeId::kInt64}, {"b", TypeId::kInt64}}), {0});
  std::vector<Row> frows;
  for (int64_t i = 0; i < 150; ++i) {
    frows.push_back(
        {Datum::Int64(i), Datum::Int64(i < 75 ? i : 100000 + i)});
  }
  db.Insert(fact, frows);

  auto make_plan = [&]() -> PhysPtr {
    auto build = std::make_shared<TableScanNode>(dim->oid, dim->oid,
                                                 std::vector<ColRefId>{11, 12});
    auto probe_scan = std::make_shared<TableScanNode>(
        fact->oid, fact->oid, std::vector<ColRefId>{1, 2});
    auto bcast = std::make_shared<MotionNode>(MotionKind::kBroadcast,
                                              std::vector<ColRefId>{}, probe_scan);
    auto join = std::make_shared<HashJoinNode>(
        JoinType::kInner, std::vector<ColRefId>{11}, std::vector<ColRefId>{2},
        nullptr, build, bcast);
    return std::make_shared<MotionNode>(MotionKind::kGather,
                                        std::vector<ColRefId>{}, join);
  };
  PhysPtr plan = make_plan();

  std::vector<Row> oracle;
  {
    Executor exec(&db.catalog, &db.storage, kModes[0]);
    auto result = exec.Execute(plan);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    oracle = std::move(result).value();
    EXPECT_EQ(oracle.size(), 75u);
  }

  // Broadcast buffers (150 rows × 4 segments ≈ 48 KB) are mandatory and fit
  // in 200 KB; each segment's build table (~3000 rows ≈ 240 KB estimated)
  // does not, so every segment spills regardless of charge interleaving.
  for (const Executor::Options& mode : kModes) {
    TempSpillDir dir;
    Executor exec(&db.catalog, &db.storage, mode);
    QueryContext ctx;
    ctx.set_spill_dir(dir.path);
    ctx.budget().set_limit(200 * 1000);
    auto spilled = exec.Execute(plan, &ctx);
    ASSERT_TRUE(spilled.ok()) << ModeName(mode) << ": "
                              << spilled.status().ToString();
    EXPECT_TRUE(testutil::SameRows(*spilled, oracle)) << ModeName(mode);
    EXPECT_GT(exec.stats().spill_bytes_written, 0u) << ModeName(mode);
    EXPECT_EQ(FilesUnder(dir.path), 0u) << ModeName(mode);

    Executor no_spill(&db.catalog, &db.storage, SpillOff(mode));
    auto refused = no_spill.Execute(plan, &ctx);
    ASSERT_FALSE(refused.ok()) << ModeName(mode);
    EXPECT_EQ(refused.status().code(), StatusCode::kResourceExhausted)
        << ModeName(mode) << ": " << refused.status().ToString();
  }
}

// --- Hash aggregation -----------------------------------------------------

struct SpillAggFixture {
  explicit SpillAggFixture(bool skewed) : db(1) {
    t = db.CreatePlainTable("t", Schema({{"a", TypeId::kInt64},
                                         {"b", TypeId::kInt64},
                                         {"c", TypeId::kDouble}}),
                            {0});
    std::vector<Row> rows;
    if (skewed) {
      // One group holds 5000 rows, 1000 singleton groups around it: the
      // heavy group's partition never fits and never splits, forcing the
      // max-depth streaming path, while light partitions aggregate in
      // memory.
      for (int64_t i = 0; i < 6000; ++i) {
        const int64_t key = (i % 6 == 5) ? 1000000 + i : 1;
        rows.push_back({Datum::Int64(key), Datum::Int64(i % 97),
                        Datum::Double(static_cast<double>(i) * 0.25)});
      }
    } else {
      for (int64_t i = 0; i < 12000; ++i) {
        rows.push_back({Datum::Int64(i), Datum::Int64(i % 97),
                        Datum::Double(static_cast<double>(i) * 0.25)});
      }
    }
    db.Insert(t, rows);
  }

  PhysPtr AggPlan() const {
    auto scan = std::make_shared<TableScanNode>(
        t->oid, t->oid, std::vector<ColRefId>{1, 2, 3});
    return std::make_shared<HashAggNode>(
        std::vector<ColRefId>{1},
        std::vector<AggItem>{
            {AggFunc::kCountStar, nullptr, 20, "cnt"},
            {AggFunc::kSum, MakeColumnRef(2, "b", TypeId::kInt64), 21, "sb"},
            // Double sum: accumulation order must match the oracle exactly
            // for the comparison below to hold bit-for-bit.
            {AggFunc::kSum, MakeColumnRef(3, "c", TypeId::kDouble), 22, "sc"}},
        scan);
  }

  TestDb db;
  const TableDescriptor* t;
};

// 12000 distinct groups ≈ 1.5 MB of grouping state against a 300 KB budget:
// partitions aggregate in memory after one partitioning pass. Group emission
// order and double sums must match the oracle exactly.
TEST(SpillExecTest, AggSpillsBitIdenticalAcrossModes) {
  SpillAggFixture fx(/*skewed=*/false);
  ExpectSpillMatchesOracle(fx.db, fx.AggPlan(), 300 * 1000);
}

// Skewed groups: the heavy partition survives every re-partitioning salt
// and streams at max depth with honest per-group charges.
TEST(SpillExecTest, AggSkewedGroupsStreamAtMaxDepth) {
  SpillAggFixture fx(/*skewed=*/true);
  ExpectSpillMatchesOracle(fx.db, fx.AggPlan(), 50 * 1000,
                           /*min_spill_passes=*/4);
}

// --- In-place scan input --------------------------------------------------

// HashAgg and HashJoin read a bare scan fragment's storage slices in place
// and copy them only when they spill. A 16-partition table makes the input
// 16 slices, so a refusal lands partway through it; the spilled run must
// match the unlimited run bit for bit and count every scanned tuple and
// partition exactly once.
struct InPlaceSpillFixture {
  static constexpr int kParts = 16;

  InPlaceSpillFixture() : db(1) {
    // r(a, b) partitioned on b into 16 ranges of 10: a repeats every 3000
    // rows, so most groups collect rows from several partitions.
    r = db.CreateIntPartitionedTable("r", kParts);
    std::vector<Row> rows;
    for (int64_t i = 0; i < 8000; ++i) {
      rows.push_back({Datum::Int64(i % 3000), Datum::Int64(i % (kParts * 10))});
    }
    db.Insert(r, rows);
    fact = db.CreatePlainTable(
        "fact", Schema({{"a", TypeId::kInt64}, {"b", TypeId::kInt64}}), {0});
    std::vector<Row> frows;
    for (int64_t i = 0; i < 600; ++i) {
      frows.push_back({Datum::Int64(i), Datum::Int64(i < 300 ? i * 7 : 100000 + i)});
    }
    db.Insert(fact, frows);
  }

  // Sequence(PartitionSelector, DynamicScan) over every partition of r.
  PhysPtr BareScanOfR(int scan_id) const {
    auto selector = std::make_shared<PartitionSelectorNode>(
        r->oid, scan_id, std::vector<ColRefId>{12}, std::vector<ExprPtr>{nullptr},
        nullptr);
    auto scan = std::make_shared<DynamicScanNode>(r->oid, scan_id,
                                                  std::vector<ColRefId>{11, 12});
    return std::make_shared<SequenceNode>(std::vector<PhysPtr>{selector, scan});
  }

  PhysPtr AggPlan() const {
    return std::make_shared<HashAggNode>(
        std::vector<ColRefId>{11},
        std::vector<AggItem>{
            {AggFunc::kCountStar, nullptr, 20, "cnt"},
            {AggFunc::kSum, MakeColumnRef(12, "b", TypeId::kInt64), 21, "sb"}},
        BareScanOfR(1));
  }

  PhysPtr JoinPlan() const {
    auto probe = std::make_shared<TableScanNode>(fact->oid, fact->oid,
                                                 std::vector<ColRefId>{1, 2});
    auto join = std::make_shared<HashJoinNode>(
        JoinType::kInner, std::vector<ColRefId>{11}, std::vector<ColRefId>{2}, nullptr,
        BareScanOfR(2), probe);
    return std::make_shared<MotionNode>(MotionKind::kGather, std::vector<ColRefId>{},
                                        join);
  }

  // Spills under `limit` bit-identically (ExpectSpillMatchesOracle), and the
  // oracle, whose stats the spilled run matches, scanned each table once.
  void ExpectSpillsCountingScansOnce(const PhysPtr& plan, size_t limit,
                                     size_t tuples, size_t r_parts, size_t fact_parts) {
    ExpectSpillMatchesOracle(db, plan, limit);
    for (const Executor::Options& mode : kModes) {
      Executor exec(&db.catalog, &db.storage, mode);
      auto oracle = exec.Execute(plan);
      ASSERT_TRUE(oracle.ok()) << ModeName(mode) << ": " << oracle.status().ToString();
      EXPECT_EQ(exec.stats().tuples_scanned, tuples) << ModeName(mode);
      EXPECT_EQ(exec.stats().PartitionsScanned(r->oid), r_parts) << ModeName(mode);
      EXPECT_EQ(exec.stats().PartitionsScanned(fact->oid), fact_parts) << ModeName(mode);
    }
  }

  TestDb db;
  const TableDescriptor* r;
  const TableDescriptor* fact;
};

// 3000 groups ≈ 400 KB of grouping state against 150 KB: the aggregate
// refuses its budget about a third of the way through the slices, copies
// them in input order and re-aggregates out of core.
TEST(SpillExecTest, InPlaceAggSpillsPartwayThroughSlices) {
  InPlaceSpillFixture fx;
  fx.ExpectSpillsCountingScansOnce(fx.AggPlan(), 150 * 1000, 8000,
                                   InPlaceSpillFixture::kParts, 0);
}

// An 8000-row build read in place (≈ 640 KB estimated) against 200 KB: the
// build charge is refused, both inputs are copied and the join spills.
TEST(SpillExecTest, InPlaceJoinSpillsBitIdentical) {
  InPlaceSpillFixture fx;
  fx.ExpectSpillsCountingScansOnce(fx.JoinPlan(), 200 * 1000, 8600,
                                   InPlaceSpillFixture::kParts, 1);
}

// --- Sort -----------------------------------------------------------------

struct SpillSortFixture {
  explicit SpillSortFixture(int64_t n) : db(1) {
    t = db.CreatePlainTable(
        "t", Schema({{"a", TypeId::kInt64}, {"b", TypeId::kInt64}}), {0});
    std::vector<Row> rows;
    for (int64_t i = 0; i < n; ++i) {
      // Heavily duplicated keys: stability is observable through column a.
      rows.push_back({Datum::Int64(i), Datum::Int64((i * 37) % 1000)});
    }
    db.Insert(t, rows);
  }

  PhysPtr SortPlan(bool ascending) const {
    auto scan = std::make_shared<TableScanNode>(t->oid, t->oid,
                                                std::vector<ColRefId>{1, 2});
    return std::make_shared<SortNode>(
        std::vector<SortKey>{{2, ascending}}, scan);
  }

  TestDb db;
  const TableDescriptor* t;
};

// 20000 rows ≈ 1.1 MB of sort state against 300 KB: a handful of runs, one
// merge. Duplicate keys make any stability bug visible.
TEST(SpillExecTest, SortSpillsBitIdenticalAcrossModes) {
  SpillSortFixture fx(20000);
  ExpectSpillMatchesOracle(fx.db, fx.SortPlan(/*ascending=*/true),
                           300 * 1000, /*min_spill_passes=*/2);
}

TEST(SpillExecTest, SortDescendingSpillsBitIdentical) {
  SpillSortFixture fx(20000);
  ExpectSpillMatchesOracle(fx.db, fx.SortPlan(/*ascending=*/false),
                           300 * 1000, /*min_spill_passes=*/2);
}

// A 40 KB budget yields ~32 runs — more than the merge fan-in — so the
// cascaded (multi-level) merge path runs.
TEST(SpillExecTest, SortCascadedMergeBitIdentical) {
  SpillSortFixture fx(20000);
  PhysPtr plan = fx.SortPlan(/*ascending=*/true);
  ExpectSpillMatchesOracle(fx.db, plan, 40 * 1000, /*min_spill_passes=*/3);
  // Confirm the run count actually exceeded the fan-in in one mode.
  TempSpillDir dir;
  Executor exec(&fx.db.catalog, &fx.db.storage, kModes[0]);
  QueryContext ctx;
  ctx.set_spill_dir(dir.path);
  ctx.budget().set_limit(40 * 1000);
  auto result = exec.Execute(plan, &ctx);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GT(exec.stats().sort_runs, 16u);
}

// --- Sort property: every sort path against an independent oracle --------
//
// The spill-sort tests above compare the engine's spilled sort with its own
// in-memory sort. These compare Sort (in memory and spilled) and TopN with
// std::stable_sort under Datum::Compare, computed here from the inserted
// rows, over every key type and its edge values.

// Columns of the property table. Every key column mixes duplicates (so
// stability shows through the unique `id`) with its type's edge values.
enum PropCol : int {
  kId,
  kInt,        // INT with NULLs
  kBig,        // BIGINT incl. INT64_MAX and INT64_MIN + 1
  kDate,       // DATE incl. days before 1970
  kDbl,        // DOUBLE incl. -0.0 / 0.0, ±inf, ±1e300, denormals
  kBool,       // BOOL with NULLs
  kMixSmall,   // BIGINT, INT and DOUBLE values, every integer |v| <= 2^53
  kMixBig,     // BIGINT and DOUBLE values on both sides of 2^53
  kStr,        // VARCHAR sharing 8+ byte prefixes, an embedded NUL, 0xFF
  kIntMinNull, // BIGINT with INT64_MIN beside NULLs
  kNan,        // DOUBLE with NaN: Datum::Compare is no strict weak order
  kMixInexact, // BIGINT beyond 2^53 beside DOUBLE, rounded: no order either
  kNumPropCols,
};

constexpr int64_t kTwo53 = int64_t{1} << 53;
constexpr int64_t kTwo60 = int64_t{1} << 60;

template <typename T>
const T& Pick(const std::vector<T>& pool, std::mt19937_64& rng) {
  return pool[rng() % pool.size()];
}

Row MakePropRow(int64_t id, std::mt19937_64& rng) {
  const double inf = std::numeric_limits<double>::infinity();
  auto null_one_in = [&](uint64_t k) { return rng() % k == 0; };
  Row row(kNumPropCols);
  row[kId] = Datum::Int64(id);
  if (!null_one_in(10)) row[kInt] = Datum::Int32(static_cast<int32_t>(rng() % 41) - 20);
  if (!null_one_in(20)) {
    static const std::vector<int64_t> big = {INT64_MAX, INT64_MIN + 1, -1, 0, 1,
                                             int64_t{1} << 40, -(int64_t{1} << 40),
                                             123456789012345};
    row[kBig] = Datum::Int64(rng() % 2 ? Pick(big, rng)
                                       : static_cast<int64_t>(rng() % 50) - 25);
  }
  if (!null_one_in(20)) row[kDate] = Datum::Date(static_cast<int32_t>(rng() % 60) - 5);
  if (!null_one_in(20)) {
    static const std::vector<double> dbl = {-0.0, 0.0, inf, -inf, 1e300, -1e300,
                                            5e-324, -5e-324, 0.5, -0.5};
    row[kDbl] = Datum::Double(rng() % 2 ? Pick(dbl, rng)
                                        : static_cast<double>(rng() % 100) / 4 - 12);
  }
  if (!null_one_in(5)) row[kBool] = Datum::Bool(rng() % 2 == 0);
  if (!null_one_in(20)) {
    static const std::vector<Datum> mix_small = {
        Datum::Int64(kTwo53),  Datum::Int64(-kTwo53), Datum::Int64(0),
        Datum::Int64(7),       Datum::Int32(-1),      Datum::Int32(3),
        Datum::Double(static_cast<double>(kTwo53)),   Datum::Double(-0.0),
        Datum::Double(0.5),    Datum::Double(7.0),    Datum::Double(1e15 + 0.5)};
    row[kMixSmall] = Pick(mix_small, rng);
  }
  if (!null_one_in(20)) {
    // Every integer here is exact in a double, so Datum::Compare still
    // orders the column; the encoder must fall back all the same.
    static const std::vector<Datum> mix_big = {
        Datum::Int64(kTwo60),      Datum::Int64(kTwo60 + 2048),
        Datum::Int64(-kTwo60),     Datum::Int64(kTwo53 + 2),
        Datum::Int64(5),           Datum::Double(static_cast<double>(kTwo60)),
        Datum::Double(1.5e18),     Datum::Double(0.25),
        Datum::Double(-3.0),       Datum::Double(static_cast<double>(kTwo53))};
    row[kMixBig] = Pick(mix_big, rng);
  }
  if (!null_one_in(20)) {
    static const std::vector<std::string> str = {
        "", "a", "commonpr", "commonpre", "commonprefix", "commonprefix_1",
        "commonprefix_10", "commonprefix_2", std::string("commonpr\0x", 10),
        "\xff\xfe", "zz"};
    row[kStr] = Datum::String(Pick(str, rng));
  }
  if (!null_one_in(10)) {
    static const std::vector<int64_t> with_min = {INT64_MIN, INT64_MAX, 0, -3, 3};
    row[kIntMinNull] = Datum::Int64(Pick(with_min, rng));
  }
  if (!null_one_in(20)) {
    static const std::vector<double> nan = {std::nan(""), 1.0, -2.0, 0.0, inf};
    row[kNan] = Datum::Double(Pick(nan, rng));
  }
  if (!null_one_in(20)) {
    // 2^53 + 1 and 2^53 + 3 round in Compare's AsDouble: each ties a double
    // that the other integers do not.
    static const std::vector<Datum> inexact = {
        Datum::Int64(kTwo53 + 1), Datum::Int64(kTwo53), Datum::Int64(kTwo53 + 3),
        Datum::Double(static_cast<double>(kTwo53)),
        Datum::Double(static_cast<double>(kTwo53 + 4)), Datum::Int64(-9),
        Datum::Double(-9.5)};
    row[kMixInexact] = Pick(inexact, rng);
  }
  return row;
}

struct PropKey {
  int col;
  bool ascending;
};

// The oracle: std::stable_sort under Datum::Compare, NULL first ascending
// and last descending.
std::vector<Row> OracleSort(std::vector<Row> rows, const std::vector<PropKey>& keys) {
  std::stable_sort(rows.begin(), rows.end(), [&](const Row& a, const Row& b) {
    for (const PropKey& k : keys) {
      const int c = Datum::Compare(a[static_cast<size_t>(k.col)],
                                   b[static_cast<size_t>(k.col)]);
      if (c != 0) return k.ascending ? c < 0 : c > 0;
    }
    return false;
  });
  return rows;
}

// Row-for-row identity: the same input rows (by unique id) in the same
// order, each datum the same type and bits.
bool SameRowsInOrder(const std::vector<Row>& a, const std::vector<Row>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].size() != b[i].size()) return false;
    for (size_t j = 0; j < a[i].size(); ++j) {
      const Datum& x = a[i][j];
      const Datum& y = b[i][j];
      if (x.is_null() != y.is_null()) return false;
      if (x.is_null()) continue;
      if (x.type() != y.type()) return false;
      if (x.type() == TypeId::kDouble) {
        const double dx = x.double_value(), dy = y.double_value();
        if (std::memcmp(&dx, &dy, sizeof dx) != 0) return false;
      } else if (Datum::Compare(x, y) != 0) {
        return false;
      }
    }
  }
  return true;
}

// The same multiset of rows, by id.
bool SameIds(const std::vector<Row>& a, const std::vector<Row>& b) {
  auto ids = [](const std::vector<Row>& rows) {
    std::vector<int64_t> out;
    for (const Row& r : rows) out.push_back(r[kId].int64_value());
    std::sort(out.begin(), out.end());
    return out;
  };
  return ids(a) == ids(b);
}

std::string KeysName(const std::vector<PropKey>& keys) {
  std::string s;
  for (const PropKey& k : keys) {
    s += "col" + std::to_string(k.col) + (k.ascending ? "+" : "-") + " ";
  }
  return s;
}

struct SortPropertyFixture {
  static constexpr int64_t kRows = 3000;

  SortPropertyFixture() : db(1) {
    std::vector<Column> cols;
    const TypeId types[kNumPropCols] = {
        TypeId::kInt64, TypeId::kInt32,  TypeId::kInt64, TypeId::kDate,
        TypeId::kDouble, TypeId::kBool,  TypeId::kDouble, TypeId::kDouble,
        TypeId::kString, TypeId::kInt64, TypeId::kDouble, TypeId::kDouble};
    for (int c = 0; c < kNumPropCols; ++c) {
      cols.push_back({"c" + std::to_string(c), types[c]});
    }
    t = db.CreatePlainTable("prop", Schema(cols), {0});
    std::mt19937_64 rng(20240611);
    for (int64_t i = 0; i < kRows; ++i) rows.push_back(MakePropRow(i, rng));
    db.Insert(t, rows);
  }

  PhysPtr Scan() const {
    std::vector<ColRefId> ids;
    for (int c = 0; c < kNumPropCols; ++c) ids.push_back(static_cast<ColRefId>(c + 1));
    return std::make_shared<TableScanNode>(t->oid, t->oid, ids);
  }
  static std::vector<SortKey> PlanKeys(const std::vector<PropKey>& keys) {
    std::vector<SortKey> out;
    for (const PropKey& k : keys) {
      out.push_back({static_cast<ColRefId>(k.col + 1), k.ascending});
    }
    return out;
  }
  PhysPtr SortPlan(const std::vector<PropKey>& keys) const {
    return std::make_shared<SortNode>(PlanKeys(keys), Scan());
  }
  PhysPtr TopNPlan(const std::vector<PropKey>& keys, size_t k) const {
    return std::make_shared<TopNNode>(PlanKeys(keys), k, Scan());
  }
  // The budget model's charge for sorting every row: Sort spills below it.
  size_t SortBytes(const std::vector<PropKey>& keys) const {
    size_t payload = 0;
    for (const Row& row : rows) {
      for (const PropKey& k : keys) {
        payload += DatumPayloadBytes(row[static_cast<size_t>(k.col)]);
      }
    }
    return ApproxRowsBytes(rows.size(), keys.size()) + payload;
  }

  struct Run {
    std::vector<Row> rows;
    ExecStats stats;
  };
  Run Execute(const PhysPtr& plan, int workers, size_t limit) {
    TempSpillDir dir;
    Executor exec(&db.catalog, &db.storage, Executor::Options{.workers = workers});
    QueryContext ctx;
    ctx.set_spill_dir(dir.path);
    ctx.budget().set_limit(limit);
    auto result = exec.Execute(plan, &ctx);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(FilesUnder(dir.path), 0u);
    if (!result.ok()) return {};
    return {std::move(*result), exec.stats()};
  }

  TestDb db;
  const TableDescriptor* t;
  std::vector<Row> rows;  // in insert order: the Sort's input
};

// Every key type on its own, both directions; then 2–3 key mixes. The two
// unordered columns are kept apart (SortPropertyTest.UnorderedKeysKeepTodaysOrder).
std::vector<std::vector<PropKey>> OrderedKeySets() {
  std::vector<std::vector<PropKey>> sets;
  for (int c = kInt; c <= kIntMinNull; ++c) {
    sets.push_back({{c, true}});
    sets.push_back({{c, false}});
  }
  sets.push_back({{kInt, true}, {kStr, false}});
  sets.push_back({{kBool, false}, {kDbl, true}, {kDate, false}});
  sets.push_back({{kMixSmall, true}, {kBig, false}});
  sets.push_back({{kStr, true}, {kMixBig, false}, {kInt, true}});
  sets.push_back({{kDate, true}, {kBool, true}});
  sets.push_back({{kIntMinNull, false}, {kDbl, false}});
  return sets;
}

TEST(SortPropertyTest, ScanFeedsRowsInInsertOrder) {
  SortPropertyFixture fx;
  for (int workers : {1, 4}) {
    EXPECT_TRUE(SameRowsInOrder(fx.Execute(fx.Scan(), workers, 0).rows, fx.rows))
        << "workers=" << workers;
  }
}

TEST(SortPropertyTest, InMemorySortMatchesStableSortOracle) {
  SortPropertyFixture fx;
  for (const std::vector<PropKey>& keys : OrderedKeySets()) {
    const std::vector<Row> oracle = OracleSort(fx.rows, keys);
    for (int workers : {1, 4}) {
      SortPropertyFixture::Run run = fx.Execute(fx.SortPlan(keys), workers, 0);
      EXPECT_TRUE(SameRowsInOrder(run.rows, oracle))
          << KeysName(keys) << "workers=" << workers;
      EXPECT_EQ(run.stats.sort_runs, 0u);
    }
  }
}

// Budgets below the sort's charge: two runs (the fewest a spilled sort
// makes, since each run is charged at the model's per-row rate), several
// runs, and more runs than the merge fan-in (a cascaded merge).
TEST(SortPropertyTest, SpilledSortMatchesStableSortOracle) {
  SortPropertyFixture fx;
  const struct {
    size_t divisor_x4;  // limit = SortBytes * 4 / divisor_x4
    size_t min_runs, max_runs;
  } budgets[] = {{5, 2, 2}, {20, 3, 16}, {160, 17, 1000}};
  for (const std::vector<PropKey>& keys : OrderedKeySets()) {
    const std::vector<Row> oracle = OracleSort(fx.rows, keys);
    for (const auto& b : budgets) {
      const size_t limit = fx.SortBytes(keys) * 4 / b.divisor_x4;
      SortPropertyFixture::Run run = fx.Execute(fx.SortPlan(keys), 1, limit);
      EXPECT_TRUE(SameRowsInOrder(run.rows, oracle))
          << KeysName(keys) << "limit=" << limit;
      EXPECT_GE(run.stats.sort_runs, b.min_runs) << KeysName(keys) << "limit=" << limit;
      EXPECT_LE(run.stats.sort_runs, b.max_runs) << KeysName(keys) << "limit=" << limit;
      EXPECT_GT(run.stats.spill_bytes_read, 0u) << KeysName(keys);
    }
  }
}

TEST(SortPropertyTest, TopNMatchesStableSortOraclePrefix) {
  SortPropertyFixture fx;
  const size_t n = fx.rows.size();
  for (const std::vector<PropKey>& keys : OrderedKeySets()) {
    const std::vector<Row> oracle = OracleSort(fx.rows, keys);
    for (size_t k : {size_t{0}, size_t{1}, size_t{20}, n, n + 5}) {
      const std::vector<Row> expected(oracle.begin(),
                                      oracle.begin() + static_cast<ptrdiff_t>(std::min(k, n)));
      for (int workers : {1, 4}) {
        SortPropertyFixture::Run run = fx.Execute(fx.TopNPlan(keys, k), workers, 0);
        EXPECT_TRUE(SameRowsInOrder(run.rows, expected))
            << KeysName(keys) << "k=" << k << " workers=" << workers;
        EXPECT_EQ(run.stats.topn_rows_cut, n - expected.size());
      }
    }
  }
}

// With a NaN in a key, Datum::Compare calls NaN equal to every value; with
// integers beyond 2^53 beside doubles it ties values that are unequal among
// themselves. Either way it is no strict weak order, and the result of a
// sort depends on the algorithm's comparisons. The in-memory Sort falls
// back to the same stable sort under the same comparison outcomes, so it
// still equals the oracle exactly; the run merge and the TopN heap compare
// differently from one global stable sort, so for them only the row set is
// checked.
TEST(SortPropertyTest, UnorderedKeysKeepTodaysOrder) {
  SortPropertyFixture fx;
  const size_t n = fx.rows.size();
  const std::vector<std::vector<PropKey>> sets = {
      {{kNan, true}},
      {{kNan, false}, {kInt, true}},
      {{kInt, false}, {kNan, true}},
      {{kMixInexact, true}},
      {{kBool, true}, {kMixInexact, false}}};
  for (const std::vector<PropKey>& keys : sets) {
    const std::vector<Row> oracle = OracleSort(fx.rows, keys);
    for (int workers : {1, 4}) {
      EXPECT_TRUE(SameRowsInOrder(fx.Execute(fx.SortPlan(keys), workers, 0).rows, oracle))
          << KeysName(keys) << "workers=" << workers;
    }
    SortPropertyFixture::Run spilled =
        fx.Execute(fx.SortPlan(keys), 1, fx.SortBytes(keys) / 5);
    EXPECT_GT(spilled.stats.sort_runs, 1u) << KeysName(keys);
    EXPECT_TRUE(SameIds(spilled.rows, fx.rows)) << KeysName(keys);
    EXPECT_EQ(fx.Execute(fx.TopNPlan(keys, 20), 1, 0).rows.size(), 20u);
    EXPECT_TRUE(SameIds(fx.Execute(fx.TopNPlan(keys, n), 1, 0).rows, fx.rows));
  }
}

// A budget below the irreducible spill working set (one run floor / one
// spill block) still fails typed — and still cleans up.
TEST(SpillExecTest, BudgetBelowSpillFloorFailsTypedAndClean) {
  SpillSortFixture sort_fx(20000);
  SpillJoinFixture join_fx(2500, 40, /*all_dup_keys=*/true);
  const struct {
    TestDb* db;
    PhysPtr plan;
  } cases[] = {
      {&sort_fx.db, sort_fx.SortPlan(true)},
      {&join_fx.db, join_fx.JoinPlan(JoinType::kInner, nullptr, false)},
  };
  for (const auto& c : cases) {
    for (const Executor::Options& mode : kModes) {
      TempSpillDir dir;
      Executor exec(&c.db->catalog, &c.db->storage, mode);
      QueryContext ctx;
      ctx.set_spill_dir(dir.path);
      ctx.budget().set_limit(500);
      auto result = exec.Execute(c.plan, &ctx);
      ASSERT_FALSE(result.ok()) << ModeName(mode);
      EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted)
          << ModeName(mode) << ": " << result.status().ToString();
      EXPECT_EQ(FilesUnder(dir.path), 0u) << ModeName(mode);
    }
  }
}

// --- Temp-file lifecycle --------------------------------------------------

// Spill files must be unlinked, and every budget charge released, after
// every outcome: fatal faults at each spill point (files already on disk
// when the error fires) in the join, the aggregate, the sort and the sort's
// cascaded merge, and cancellation arriving while a spill is in progress.
TEST(SpillExecTest, SpillFilesReclaimedOnFaultAndCancel) {
  SpillJoinFixture fx(4000, 600, /*all_dup_keys=*/false);
  PhysPtr plan = fx.JoinPlan(JoinType::kInner, nullptr, /*gather=*/true);
  SpillAggFixture agg_fx(/*skewed=*/false);
  SpillSortFixture sort_fx(20000);
  const struct {
    const char* name;
    TestDb* db;
    PhysPtr plan;
    size_t limit;
  } cases[] = {
      {"join", &fx.db, plan, 200 * 1000},
      {"agg", &agg_fx.db, agg_fx.AggPlan(), 300 * 1000},
      {"sort", &sort_fx.db, sort_fx.SortPlan(/*ascending=*/true), 300 * 1000},
      // About 32 runs: the cascaded merge writes and reads merged runs.
      {"sort cascade", &sort_fx.db, sort_fx.SortPlan(/*ascending=*/true), 40 * 1000},
  };

  for (const auto& c : cases) {
    for (const Executor::Options& mode : kModes) {
      for (const char* point : {"spill.open", "spill.write", "spill.read"}) {
        const std::string what =
            std::string(c.name) + " " + ModeName(mode) + " " + point;
        TempSpillDir dir;
        Executor exec(&c.db->catalog, &c.db->storage, mode);
        FaultInjector injector(7);
        FaultSpec fatal;
        fatal.kind = FaultKind::kFatal;
        // Let some spill I/O happen first so files exist when the fault fires.
        fatal.skip_first = 3;
        injector.Arm(point, fatal);
        QueryContext ctx;
        ctx.set_fault_injector(&injector);
        ctx.set_spill_dir(dir.path);
        ctx.budget().set_limit(c.limit);
        auto result = exec.Execute(c.plan, &ctx);
        ASSERT_FALSE(result.ok()) << what;
        EXPECT_EQ(result.status().code(), StatusCode::kInternal)
            << what << ": " << result.status().ToString();
        EXPECT_GT(injector.fires(point), 0u) << what;
        EXPECT_EQ(FilesUnder(dir.path), 0u) << what << ": leaked spill files";
        EXPECT_EQ(ctx.budget().used(), 0u) << what << ": budget charges leaked";
      }
    }
  }

  // Cancellation while a spill write stalls: the delay parks the query
  // mid-spill (files on disk), Cancel() unwinds it, teardown reclaims.
  for (const Executor::Options& mode : kModes) {
    TempSpillDir dir;
    Executor exec(&fx.db.catalog, &fx.db.storage, mode);
    FaultInjector injector(7);
    FaultSpec stall;
    stall.kind = FaultKind::kDelay;
    stall.delay_ms = 5000;
    stall.skip_first = 3;
    stall.max_fires = 1;
    injector.Arm("spill.write", stall);
    QueryContext ctx;
    ctx.set_fault_injector(&injector);
    ctx.set_spill_dir(dir.path);
    ctx.budget().set_limit(200 * 1000);
    std::thread canceller([&ctx] {
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
      ctx.Cancel();
    });
    auto result = exec.Execute(plan, &ctx);
    canceller.join();
    ASSERT_FALSE(result.ok()) << ModeName(mode);
    EXPECT_EQ(result.status().code(), StatusCode::kCancelled)
        << ModeName(mode) << ": " << result.status().ToString();
    EXPECT_EQ(FilesUnder(dir.path), 0u) << ModeName(mode);

    // The executor and context stay reusable: the retried query spills
    // again and completes (idempotent teardown).
    ctx.Reset();
    ctx.budget().set_limit(200 * 1000);
    auto retry = exec.Execute(plan, &ctx);
    ASSERT_TRUE(retry.ok()) << ModeName(mode) << ": "
                            << retry.status().ToString();
    EXPECT_GT(exec.stats().spill_bytes_written, 0u) << ModeName(mode);
    EXPECT_EQ(FilesUnder(dir.path), 0u) << ModeName(mode);
  }
}

// --- Database level: retry, spill_dir option, EXPLAIN ANALYZE -------------

void InsertBulk(Database& db, const std::string& table, int64_t begin,
                int64_t end) {
  for (int64_t base = begin; base < end; base += 500) {
    std::string sql = "INSERT INTO " + table + " VALUES ";
    for (int64_t i = base; i < std::min(end, base + 500); ++i) {
      if (i != base) sql += ", ";
      sql += "(" + std::to_string(i) + ", " + std::to_string(i % 150) + ")";
    }
    auto st = db.Run(sql);
    ASSERT_TRUE(st.ok()) << st.status().ToString();
  }
}

// A transient spill-write fault is cured by the query-level retry loop: the
// statement succeeds, rows match the fault-free run, and the spill dir ends
// empty (retry teardown reclaimed the first attempt's files).
TEST(SpillDatabaseTest, TransientSpillFaultRetriedToSuccess) {
  Database db(1);
  ASSERT_TRUE(db.Run("CREATE TABLE d (id BIGINT, t BIGINT)").ok());
  ASSERT_TRUE(db.Run("CREATE TABLE f (a BIGINT, b BIGINT)").ok());
  InsertBulk(db, "d", 0, 4000);
  InsertBulk(db, "f", 0, 4000);

  const std::string sql =
      "SELECT count(*) FROM f JOIN d ON f.b = d.id";
  auto oracle = db.Run(sql);
  ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();

  // Both sides are 4000 rows (~320 KB estimated), so whichever side the
  // optimizer broadcasts, its mandatory Motion receive buffers fit in
  // 450 KB while the build table pushes past it and spills.
  TempSpillDir dir;
  FaultInjector injector(11);
  FaultSpec transient;
  transient.kind = FaultKind::kTransient;
  transient.skip_first = 2;
  transient.max_fires = 1;
  injector.Arm("spill.write", transient);
  QueryOptions options;
  options.fault_injector = &injector;
  options.memory_limit_bytes = 450 * 1000;
  options.spill_dir = dir.path;
  auto result = db.Execute(sql, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(injector.fires("spill.write"), 1u);
  EXPECT_TRUE(result->rows == oracle->rows);
  EXPECT_GT(result->stats.spill_bytes_written, 0u);
  EXPECT_EQ(FilesUnder(dir.path), 0u);
}

// EXPLAIN ANALYZE executes the statement and reports the spill counters in
// the plan footer; under an unconstrained budget the same footer reports
// zeros.
TEST(SpillDatabaseTest, ExplainAnalyzeReportsSpillCounters) {
  Database db(1);
  ASSERT_TRUE(db.Run("CREATE TABLE d (id BIGINT, t BIGINT)").ok());
  ASSERT_TRUE(db.Run("CREATE TABLE f (a BIGINT, b BIGINT)").ok());
  InsertBulk(db, "d", 0, 4000);
  InsertBulk(db, "f", 0, 4000);

  const std::string sql =
      "EXPLAIN ANALYZE SELECT count(*) FROM f JOIN d ON f.b = d.id";
  TempSpillDir dir;
  QueryOptions options;
  options.memory_limit_bytes = 450 * 1000;
  options.spill_dir = dir.path;
  auto analyzed = db.Execute(sql, options);
  ASSERT_TRUE(analyzed.ok()) << analyzed.status().ToString();
  ASSERT_EQ(analyzed->rows.size(), 1u);
  const std::string text = analyzed->rows[0][0].string_value();
  EXPECT_NE(text.find("Spill: partitions="), std::string::npos) << text;
  EXPECT_EQ(text.find("bytes_written=0 "), std::string::npos) << text;
  EXPECT_GT(analyzed->stats.spill_bytes_written, 0u);
  EXPECT_GT(analyzed->stats.spill_passes, 0u);
  EXPECT_EQ(FilesUnder(dir.path), 0u);

  QueryOptions unlimited;
  unlimited.spill_dir = dir.path;
  auto no_spill = db.Execute(sql, unlimited);
  ASSERT_TRUE(no_spill.ok()) << no_spill.status().ToString();
  const std::string baseline = no_spill->rows[0][0].string_value();
  EXPECT_NE(baseline.find("Spill: partitions=0 bytes_written=0"),
            std::string::npos)
      << baseline;
}

}  // namespace
}  // namespace mppdb

// Runtime join-filter correctness suite.
//
// The hard invariant under test: join filters never change results or any
// pre-existing ExecStats counter — across {1 worker, pool} x {data
// skipping on, off} — and every observable difference is
// confined to the joinfilter_* counter family. On top of that, the suite
// pins down the semantic corners: an empty build side rejects every probe
// row, NULL join keys never pass a probing filter, a filter whose prefix
// rejects nothing stops probing, filtering (and chunk skipping at
// a bare scan) below a Redistribute Motion reports exchange savings while
// rows_moved stays logical, probes
// reach multi-level partitioned scans, the cost gate (and its off switch)
// keeps filters off joins that cannot pay for them, and EXPLAIN shows the
// filters and their counters.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/random.h"
#include "db/database.h"
#include "exec/plan.h"
#include "runtime/join_filter.h"
#include "test_util.h"

namespace mppdb {
namespace {

using testutil::SameRows;

// --- BlockedBloomFilter / JoinFilterSummary unit coverage ----------------

uint64_t TestHash(uint64_t i) {
  // splitmix64-style scramble; the filter expects well-mixed hashes.
  uint64_t z = i + 0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

TEST(BlockedBloomFilterTest, NoFalseNegativesAndLowFalsePositives) {
  BlockedBloomFilter filter(1000);
  for (uint64_t i = 0; i < 1000; ++i) filter.Insert(TestHash(i));
  for (uint64_t i = 0; i < 1000; ++i) {
    EXPECT_TRUE(filter.MayContain(TestHash(i))) << i;
  }
  size_t false_positives = 0;
  for (uint64_t i = 1000; i < 21000; ++i) {
    if (filter.MayContain(TestHash(i))) ++false_positives;
  }
  // ≥32 bits/key split-block filters sit far below 2% in practice.
  EXPECT_LT(false_positives, 400u) << "false positive rate above 2%";
}

TEST(BlockedBloomFilterTest, InsertionOrderDoesNotMatter) {
  BlockedBloomFilter forward(256);
  BlockedBloomFilter backward(256);
  for (uint64_t i = 0; i < 256; ++i) forward.Insert(TestHash(i));
  for (uint64_t i = 256; i-- > 0;) backward.Insert(TestHash(i));
  for (uint64_t i = 0; i < 4096; ++i) {
    EXPECT_EQ(forward.MayContain(TestHash(i)), backward.MayContain(TestHash(i)))
        << i;
  }
}

TEST(JoinFilterSummaryTest, EmptyBuildRejectsEverything) {
  JoinFilterSummaryBuilder builder(1, 0);
  JoinFilterSummary summary = builder.Finish();
  EXPECT_FALSE(summary.RowMayMatch({Datum::Int64(7)}, {0}));
  ChunkSynopsis chunk(1);
  chunk.AddRow({Datum::Int64(7)});
  EXPECT_TRUE(summary.ChunkProvablyDisjoint(chunk, {0}));
}

TEST(JoinFilterSummaryTest, NullKeysNeverFoldOrMatch) {
  JoinFilterSummaryBuilder builder(1, 4);
  builder.Add({Datum::Int64(10)}, {0});
  builder.Add({Datum::Null()}, {0});  // not folded: NULL never joins
  builder.Add({Datum::Int64(20)}, {0});
  JoinFilterSummary summary = builder.Finish();
  EXPECT_EQ(summary.build_rows, 2u);
  EXPECT_TRUE(summary.RowMayMatch({Datum::Int64(10)}, {0}));
  EXPECT_FALSE(summary.RowMayMatch({Datum::Null()}, {0}));
  EXPECT_FALSE(summary.RowMayMatch({Datum::Int64(30)}, {0}));  // out of range
}

TEST(JoinFilterSummaryTest, ChunkDisjointnessUsesBuildRange) {
  JoinFilterSummaryBuilder builder(1, 4);
  builder.Add({Datum::Int64(100)}, {0});
  builder.Add({Datum::Int64(150)}, {0});
  JoinFilterSummary summary = builder.Finish();
  ChunkSynopsis below(1);
  below.AddRow({Datum::Int64(1)});
  below.AddRow({Datum::Int64(99)});
  EXPECT_TRUE(summary.ChunkProvablyDisjoint(below, {0}));
  ChunkSynopsis overlapping(1);
  overlapping.AddRow({Datum::Int64(99)});
  overlapping.AddRow({Datum::Int64(101)});
  EXPECT_FALSE(summary.ChunkProvablyDisjoint(overlapping, {0}));
}

// --- End-to-end suite -----------------------------------------------------

struct ModeResult {
  std::vector<Row> rows;
  ExecStats stats;
};

// Runs `sql` with filters on and off in one executor mode and asserts the
// transparency contract; returns the filters-on outcome.
ModeResult CheckTransparent(Database* db, const std::string& sql) {
  QueryOptions on;
  auto filtered = db->Run(sql, on);
  EXPECT_TRUE(filtered.ok()) << sql << "\n" << filtered.status().ToString();
  QueryOptions off;
  off.enable_join_filters = false;
  auto plain = db->Run(sql, off);
  EXPECT_TRUE(plain.ok()) << sql << "\n" << plain.status().ToString();
  if (!filtered.ok() || !plain.ok()) return {};
  EXPECT_TRUE(filtered->rows == plain->rows) << sql;
  EXPECT_TRUE(filtered->stats.WithoutJoinFilterCounters() == plain->stats)
      << sql << ": join filters changed a pre-existing counter";
  return {filtered->rows, filtered->stats};
}

std::vector<Executor::Options> ExecutorModeMatrix(bool with_noskip) {
  std::vector<Executor::Options> modes = {
      {},
      {.workers = 0},
  };
  if (with_noskip) {
    modes.push_back({.data_skipping = false});
    modes.push_back({.workers = 0, .data_skipping = false});
  }
  return modes;
}

TEST(JoinFilterEndToEndTest, EmptyBuildSideRejectsAllProbeRows) {
  for (const Executor::Options& mode : ExecutorModeMatrix(/*with_noskip=*/true)) {
    Database db(4, mode);
    ASSERT_TRUE(db.CreateTable("fact", Schema({{"sk", TypeId::kInt64},
                                               {"qty", TypeId::kInt64}}),
                               TableDistribution::kHashed, {0})
                    .ok());
    ASSERT_TRUE(db.CreateTable("dim", Schema({{"k", TypeId::kInt64},
                                              {"grp", TypeId::kInt64}}),
                               TableDistribution::kHashed, {0})
                    .ok());
    std::vector<Row> fact_rows;
    for (int64_t i = 0; i < 3000; ++i) {
      fact_rows.push_back({Datum::Int64(i % 500), Datum::Int64(i % 7)});
    }
    ASSERT_TRUE(db.Load("fact", fact_rows).ok());
    // dim stays empty: every probe row is provably joinless.
    ModeResult result =
        CheckTransparent(&db, "SELECT * FROM fact f JOIN dim d ON f.sk = d.k");
    EXPECT_TRUE(result.rows.empty());
    EXPECT_GE(result.stats.joinfilter_built, 1u);
    // The empty summary kills work before the join: either whole chunks are
    // skipped (skipping on) or every row is rejected at the probe.
    EXPECT_GT(result.stats.joinfilter_chunks_skipped +
                  result.stats.joinfilter_rows_rejected,
              0u);
  }
}

TEST(JoinFilterEndToEndTest, NullJoinKeysNeverPassTheFilter) {
  for (const Executor::Options& mode : ExecutorModeMatrix(/*with_noskip=*/true)) {
    Database db(3, mode);
    ASSERT_TRUE(db.CreateTable("fact", Schema({{"sk", TypeId::kInt64},
                                               {"qty", TypeId::kInt64}}),
                               TableDistribution::kHashed, {0})
                    .ok());
    ASSERT_TRUE(db.CreateTable("dim", Schema({{"k", TypeId::kInt64},
                                              {"grp", TypeId::kInt64}}),
                               TableDistribution::kHashed, {0})
                    .ok());
    std::vector<Row> fact_rows;
    size_t null_keys = 0;
    for (int64_t i = 0; i < 900; ++i) {
      if (i % 4 == 0) {
        fact_rows.push_back({Datum::Null(), Datum::Int64(i)});
        ++null_keys;
      } else {
        fact_rows.push_back({Datum::Int64(i % 50), Datum::Int64(i)});
      }
    }
    std::vector<Row> dim_rows;
    for (int64_t k = 0; k < 50; ++k) {
      dim_rows.push_back({Datum::Int64(k), Datum::Int64(k % 5)});
    }
    dim_rows.push_back({Datum::Null(), Datum::Int64(-1)});  // never folded
    ASSERT_TRUE(db.Load("fact", fact_rows).ok());
    ASSERT_TRUE(db.Load("dim", dim_rows).ok());
    ModeResult result = CheckTransparent(
        &db, "SELECT count(*) FROM fact f JOIN dim d ON f.sk = d.k");
    ASSERT_EQ(result.rows.size(), 1u);
    // Every non-null fact key 0..49 matches one dim key; NULLs match nothing.
    EXPECT_EQ(result.rows[0][0],
              Datum::Int64(static_cast<int64_t>(900 - null_keys)));
    // Every NULL-key probe row is rejected by the filter before the join.
    EXPECT_GE(result.stats.joinfilter_rows_rejected, null_keys);
  }
}

TEST(JoinFilterEndToEndTest, FilterBelowRedistributeMotionSavesExchange) {
  // Neither side is distributed on the join key and the sizes sit in the
  // window where redistributing both sides beats broadcasting the build
  // side, so the probe scan ends up below a Redistribute Motion and the
  // build side below another — the global-filter configuration.
  for (const Executor::Options& mode : ExecutorModeMatrix(/*with_noskip=*/true)) {
    Database db(4, mode);
    ASSERT_TRUE(db.CreateTable("fact", Schema({{"sk", TypeId::kInt64},
                                               {"val", TypeId::kInt64}}),
                               TableDistribution::kHashed, {1})
                    .ok());
    ASSERT_TRUE(db.CreateTable("dim", Schema({{"k", TypeId::kInt64},
                                              {"tag", TypeId::kInt64}}),
                               TableDistribution::kHashed, {1})
                    .ok());
    Random rng(99);
    std::vector<Row> fact_rows;
    for (int64_t i = 0; i < 650; ++i) {
      // ~94% of fact keys miss the dim key domain [0, 300).
      fact_rows.push_back(
          {Datum::Int64(rng.UniformRange(0, 4999)), Datum::Int64(i)});
    }
    std::vector<Row> dim_rows;
    for (int64_t k = 0; k < 300; ++k) {
      dim_rows.push_back({Datum::Int64(k), Datum::Int64(k * 3)});
    }
    ASSERT_TRUE(db.Load("fact", fact_rows).ok());
    ASSERT_TRUE(db.Load("dim", dim_rows).ok());
    ModeResult result = CheckTransparent(
        &db, "SELECT count(*) FROM fact f JOIN dim d ON f.sk = d.k");
    // The merged (global) summary is published exactly once per query.
    EXPECT_EQ(result.stats.joinfilter_built, 1u) << "expected one global filter";
    // Rejected probe rows were counted into rows_moved (kept logical) but
    // never exchanged; the savings are visible and substantial.
    EXPECT_GT(result.stats.joinfilter_motion_rows_saved, 300u);
  }
}

TEST(JoinFilterEndToEndTest, BareProbeScanBelowMotionSkipsDisjointChunks) {
  // fact's join keys rise with load order, so each segment's slice holds
  // them in rising 1024-row chunks and every chunk past a segment's first
  // lies above the build keys' range [0, 2000). Neither side is distributed
  // on the join key, and dim is too large to broadcast at 4 segments yet
  // small enough to pass the cost gate, so the bare fact scan sits below a
  // Redistribute Motion:
  // with no predicate between them, a disjoint chunk is skipped whole, and
  // its rows are never exchanged although rows_moved still counts them.
  constexpr int64_t kFactRows = 12000;
  for (const Executor::Options& mode : ExecutorModeMatrix(/*with_noskip=*/true)) {
    Database db(4, mode);
    ASSERT_TRUE(db.CreateTable("fact", Schema({{"sk", TypeId::kInt64},
                                               {"val", TypeId::kInt64}}),
                               TableDistribution::kHashed, {1})
                    .ok());
    ASSERT_TRUE(db.CreateTable("dim", Schema({{"k", TypeId::kInt64},
                                              {"tag", TypeId::kInt64}}),
                               TableDistribution::kHashed, {1})
                    .ok());
    std::vector<Row> fact_rows;
    for (int64_t i = 0; i < kFactRows; ++i) {
      fact_rows.push_back({Datum::Int64(i), Datum::Int64(i)});
    }
    std::vector<Row> dim_rows;
    for (int64_t j = 0; j < 5800; ++j) {
      dim_rows.push_back({Datum::Int64(j % 2000), Datum::Int64(j)});
    }
    ASSERT_TRUE(db.Load("fact", fact_rows).ok());
    ASSERT_TRUE(db.Load("dim", dim_rows).ok());
    ModeResult result = CheckTransparent(
        &db, "SELECT count(*) FROM fact f JOIN dim d ON f.sk = d.k");
    ASSERT_EQ(result.rows.size(), 1u);
    EXPECT_EQ(result.rows[0][0], Datum::Int64(5800));  // one fact row per dim row
    const ExecStats& stats = result.stats;
    // Every fact row was redistributed, logically.
    EXPECT_GE(stats.rows_moved, static_cast<size_t>(kFactRows));
    // Each segment's first chunk lies inside the build range, so the first
    // probe rows all join: the filter stops probing on every segment after
    // its prefix, and rejects nothing.
    EXPECT_EQ(stats.joinfilter_probes_stopped, 4u);
    EXPECT_EQ(stats.joinfilter_probed, 4 * Executor::kJoinFilterPrefixRows);
    EXPECT_EQ(stats.joinfilter_rows_rejected, 0u);
    // The stopped filter still skips every chunk past a segment's first.
    const size_t skipped_rows =
        mode.data_skipping ? kFactRows - 4 * TableStore::kChunkRows : 0;
    if (mode.data_skipping) {
      EXPECT_GT(stats.joinfilter_chunks_skipped, 0u);
    } else {
      EXPECT_EQ(stats.joinfilter_chunks_skipped, 0u);
    }
    // Skipped and rejected rows alike stayed out of the exchange.
    EXPECT_EQ(stats.joinfilter_motion_rows_saved,
              skipped_rows + stats.joinfilter_rows_rejected);
  }
}

TEST(JoinFilterEndToEndTest, MultiLevelPartitionedProbeScans) {
  for (const Executor::Options& mode : ExecutorModeMatrix(/*with_noskip=*/true)) {
    Database db(3, mode);
    // fact partitioned on sk (4 ranges of 100) then qty (3 ranges of 4).
    ASSERT_TRUE(db.CreatePartitionedTable(
                      "fact",
                      Schema({{"sk", TypeId::kInt64},
                              {"qty", TypeId::kInt64},
                              {"val", TypeId::kInt64}}),
                      TableDistribution::kHashed, {2},
                      {{0, PartitionMethod::kRange}, {1, PartitionMethod::kRange}},
                      {partition_bounds::IntRanges(0, 100, 4),
                       partition_bounds::IntRanges(0, 4, 3)})
                    .ok());
    ASSERT_TRUE(db.CreateTable("dim", Schema({{"k", TypeId::kInt64},
                                              {"grp", TypeId::kInt64}}),
                               TableDistribution::kHashed, {0})
                    .ok());
    Random rng(7);
    std::vector<Row> fact_rows;
    for (int64_t i = 0; i < 1200; ++i) {
      fact_rows.push_back({Datum::Int64(rng.UniformRange(0, 399)),
                           Datum::Int64(rng.UniformRange(0, 11)),
                           Datum::Int64(i)});
    }
    std::vector<Row> dim_rows;
    for (int64_t k = 0; k < 400; k += 16) {
      dim_rows.push_back({Datum::Int64(k), Datum::Int64(k % 3)});
    }
    ASSERT_TRUE(db.Load("fact", fact_rows).ok());
    ASSERT_TRUE(db.Load("dim", dim_rows).ok());
    ModeResult result = CheckTransparent(
        &db,
        "SELECT count(*), sum(f.val) FROM fact f JOIN dim d ON f.sk = d.k "
        "WHERE f.qty < 9");
    // The probe consumer sits on the partitioned side's leaf scans.
    EXPECT_GT(result.stats.joinfilter_probed +
                  result.stats.joinfilter_chunks_skipped,
              0u)
        << "filter never reached the partitioned probe side";
    EXPECT_GT(result.stats.joinfilter_rows_rejected +
                  result.stats.joinfilter_chunks_skipped,
              0u);
  }
}

TEST(JoinFilterEndToEndTest, CostGateAndOffSwitch) {
  Database db(3);
  ASSERT_TRUE(db.CreateTable("big", Schema({{"a", TypeId::kInt64},
                                            {"pad", TypeId::kInt64}}),
                             TableDistribution::kHashed, {0})
                  .ok());
  ASSERT_TRUE(db.CreateTable("near_big", Schema({{"b", TypeId::kInt64},
                                                 {"pad", TypeId::kInt64}}),
                             TableDistribution::kHashed, {0})
                  .ok());
  std::vector<Row> big_rows;
  for (int64_t i = 0; i < 500; ++i) {
    big_rows.push_back({Datum::Int64(i), Datum::Int64(i)});
  }
  std::vector<Row> near_rows;
  for (int64_t i = 0; i < 400; ++i) {
    near_rows.push_back({Datum::Int64(i), Datum::Int64(i)});
  }
  ASSERT_TRUE(db.Load("big", big_rows).ok());
  ASSERT_TRUE(db.Load("near_big", near_rows).ok());

  // Probe (500) is under twice the build (400): the gate keeps filters off.
  auto gated =
      db.Run("SELECT count(*) FROM big JOIN near_big ON big.a = near_big.b");
  ASSERT_TRUE(gated.ok());
  EXPECT_EQ(gated->stats.joinfilter_built, 0u);
  EXPECT_EQ(gated->stats.joinfilter_probed, 0u);

  // A clearly profitable join places a filter — and the off switch removes
  // it again without touching anything else.
  ASSERT_TRUE(db.CreateTable("tiny", Schema({{"t", TypeId::kInt64}}),
                             TableDistribution::kHashed, {0})
                  .ok());
  ASSERT_TRUE(db.Load("tiny", {{Datum::Int64(3)}, {Datum::Int64(4)}}).ok());
  auto filtered = db.Run("SELECT count(*) FROM big JOIN tiny ON big.a = tiny.t");
  ASSERT_TRUE(filtered.ok());
  EXPECT_GE(filtered->stats.joinfilter_built, 1u);
  QueryOptions off;
  off.enable_join_filters = false;
  auto plain =
      db.Run("SELECT count(*) FROM big JOIN tiny ON big.a = tiny.t", off);
  ASSERT_TRUE(plain.ok());
  EXPECT_EQ(plain->stats.joinfilter_built, 0u);
  EXPECT_EQ(plain->stats.joinfilter_probed, 0u);
  EXPECT_EQ(plain->stats.joinfilter_rows_rejected, 0u);
  EXPECT_TRUE(filtered->rows == plain->rows);
}

// A predicate that lets few rows through cannot fill the stop rule's probe
// prefix quickly: the prefix ends once the scan has evaluated
// kJoinFilterPrefixScanRows rows (chunks the zone maps skip are not
// evaluated), and the filter, which rejects nothing, stops on every segment
// that probed a row. Which rows it probed follows from the slice order
// alone, at every worker count and morsel size.
TEST(JoinFilterEndToEndTest, SelectivePredicateEndsThePrefixAtTheScanCap) {
  constexpr int64_t kFactRows = 30000;
  std::vector<Executor::Options> modes = ExecutorModeMatrix(/*with_noskip=*/true);
  modes.push_back({.workers = 4, .morsel_rows = 1024});
  for (const Executor::Options& mode : modes) {
    Database db(3, mode);
    ASSERT_TRUE(db.CreateTable("fact", Schema({{"sk", TypeId::kInt64},
                                               {"v", TypeId::kInt64}}),
                               TableDistribution::kHashed, {0})
                    .ok());
    ASSERT_TRUE(db.CreateTable("dim", Schema({{"k", TypeId::kInt64},
                                              {"grp", TypeId::kInt64}}),
                               TableDistribution::kHashed, {0})
                    .ok());
    // Every fact key joins; v = 0 holds for 20 rows in every 5000.
    std::vector<Row> fact_rows;
    for (int64_t i = 0; i < kFactRows; ++i) {
      fact_rows.push_back({Datum::Int64(i % 20), Datum::Int64(i / 20 % 250)});
    }
    std::vector<Row> dim_rows;
    for (int64_t k = 0; k < 20; ++k) dim_rows.push_back({Datum::Int64(k), Datum::Int64(k)});
    ASSERT_TRUE(db.Load("fact", fact_rows).ok());
    ASSERT_TRUE(db.Load("dim", dim_rows).ok());
    ModeResult result = CheckTransparent(
        &db, "SELECT count(*) FROM fact f JOIN dim d ON f.sk = d.k WHERE f.v = 0");
    ASSERT_EQ(result.rows.size(), 1u);
    EXPECT_EQ(result.rows[0][0], Datum::Int64(kFactRows / 250));

    // Each segment's prefix is the first chunks of its slice that the scan
    // evaluates, up to kJoinFilterPrefixScanRows rows: with data skipping
    // a chunk holding no v = 0 row is skipped by its zone map. The filter
    // probes the prefix's v = 0 rows and nothing after.
    const Oid fact = db.catalog().FindTable("fact")->oid;
    const TableStore& store = *db.storage().GetStore(fact);
    size_t probed = 0, stopped = 0;
    for (int seg = 0; seg < 3; ++seg) {
      const std::vector<Row>& rows = store.UnitRows(fact, seg);
      size_t evaluated = 0, prefix = 0;
      for (size_t base = 0; base < rows.size() &&
                            evaluated < Executor::kJoinFilterPrefixScanRows;
           base += TableStore::kChunkRows) {
        const size_t end = std::min(rows.size(), base + TableStore::kChunkRows);
        size_t matches = 0;
        for (size_t r = base; r < end; ++r) matches += rows[r][1].AsInt64() == 0;
        if (mode.data_skipping && matches == 0) continue;
        evaluated += end - base;
        prefix += matches;
      }
      ASSERT_GE(evaluated, Executor::kJoinFilterPrefixScanRows) << "segment " << seg;
      ASSERT_LT(prefix, Executor::kJoinFilterPrefixRows) << "segment " << seg;
      probed += prefix;
      if (prefix > 0) ++stopped;
    }
    EXPECT_GT(stopped, 0u);
    EXPECT_EQ(result.stats.joinfilter_probed, probed);
    EXPECT_EQ(result.stats.joinfilter_rows_rejected, 0u);
    EXPECT_EQ(result.stats.joinfilter_probes_stopped, stopped);
  }
}

// EXPLAIN shows where each filter is published and probed; EXPLAIN ANALYZE
// adds the run's join-filter counters. The annotations stay out of the
// serialized plan, so plan-cache keys and plan sizes do not move.
TEST(JoinFilterEndToEndTest, ExplainShowsFiltersAndAnalyzeShowsCounters) {
  Database db(3);
  ASSERT_TRUE(db.CreateTable("big", Schema({{"a", TypeId::kInt64},
                                            {"pad", TypeId::kInt64}}),
                             TableDistribution::kHashed, {0})
                  .ok());
  ASSERT_TRUE(db.CreateTable("tiny", Schema({{"t", TypeId::kInt64}}),
                             TableDistribution::kHashed, {0})
                  .ok());
  std::vector<Row> big_rows;
  for (int64_t i = 0; i < 500; ++i) {
    big_rows.push_back({Datum::Int64(i), Datum::Int64(i)});
  }
  ASSERT_TRUE(db.Load("big", big_rows).ok());
  ASSERT_TRUE(db.Load("tiny", {{Datum::Int64(3)}, {Datum::Int64(4)}}).ok());
  const std::string sql = "SELECT count(*) FROM big JOIN tiny ON big.a = tiny.t";

  auto explained = db.Run("EXPLAIN " + sql);
  ASSERT_TRUE(explained.ok()) << explained.status().ToString();
  const std::string plan_text = explained->rows[0][0].string_value();
  EXPECT_NE(plan_text.find("[join filters: publish jf0 keys=["), std::string::npos)
      << plan_text;
  EXPECT_NE(plan_text.find("probe jf0 keys=["), std::string::npos) << plan_text;
  auto plan = db.PlanSql(sql);
  ASSERT_TRUE(plan.ok());
  EXPECT_NE(PlanToString(*plan).find("jf0"), std::string::npos);
  EXPECT_EQ(SerializePlan(*plan).find("jf0"), std::string::npos);

  auto analyzed = db.Run("EXPLAIN ANALYZE " + sql);
  ASSERT_TRUE(analyzed.ok()) << analyzed.status().ToString();
  const ExecStats& s = analyzed->stats;
  EXPECT_GE(s.joinfilter_built, 1u);
  EXPECT_GT(s.joinfilter_rows_rejected, 0u);
  const std::string footer =
      "Join filters: built=" + std::to_string(s.joinfilter_built) +
      " probed=" + std::to_string(s.joinfilter_probed) +
      " rejected=" + std::to_string(s.joinfilter_rows_rejected) +
      " chunks_skipped=" + std::to_string(s.joinfilter_chunks_skipped) +
      " motion_rows_saved=" + std::to_string(s.joinfilter_motion_rows_saved) +
      " probes_stopped=" + std::to_string(s.joinfilter_probes_stopped) + "\n";
  const std::string analyzed_text = analyzed->rows[0][0].string_value();
  EXPECT_NE(analyzed_text.find(footer), std::string::npos) << analyzed_text;

  // Filters off: no annotation, and a footer of zeros.
  QueryOptions off;
  off.enable_join_filters = false;
  auto plain = db.Run("EXPLAIN ANALYZE " + sql, off);
  ASSERT_TRUE(plain.ok()) << plain.status().ToString();
  const std::string plain_text = plain->rows[0][0].string_value();
  EXPECT_EQ(plain_text.find("[join filters:"), std::string::npos) << plain_text;
  EXPECT_NE(plain_text.find("Join filters: built=0 probed=0 rejected=0 chunks_skipped=0 "
                            "motion_rows_saved=0 probes_stopped=0\n"),
            std::string::npos)
      << plain_text;
}

TEST(JoinFilterEndToEndTest, SemiJoinProbesAreFiltered) {
  for (const Executor::Options& mode : ExecutorModeMatrix(/*with_noskip=*/false)) {
    Database db(3, mode);
    ASSERT_TRUE(db.CreateTable("fact", Schema({{"sk", TypeId::kInt64},
                                               {"qty", TypeId::kInt64}}),
                               TableDistribution::kHashed, {0})
                    .ok());
    ASSERT_TRUE(db.CreateTable("dim", Schema({{"k", TypeId::kInt64},
                                              {"grp", TypeId::kInt64}}),
                               TableDistribution::kHashed, {0})
                    .ok());
    std::vector<Row> fact_rows;
    for (int64_t i = 0; i < 800; ++i) {
      fact_rows.push_back({Datum::Int64(i), Datum::Int64(i % 9)});
    }
    std::vector<Row> dim_rows;
    for (int64_t k = 0; k < 20; ++k) {
      dim_rows.push_back({Datum::Int64(k * 2), Datum::Int64(k)});
    }
    ASSERT_TRUE(db.Load("fact", fact_rows).ok());
    ASSERT_TRUE(db.Load("dim", dim_rows).ok());
    ModeResult result = CheckTransparent(
        &db,
        "SELECT count(*) FROM fact WHERE sk IN (SELECT k FROM dim)");
    ASSERT_EQ(result.rows.size(), 1u);
    EXPECT_EQ(result.rows[0][0], Datum::Int64(20));
  }
}

}  // namespace
}  // namespace mppdb

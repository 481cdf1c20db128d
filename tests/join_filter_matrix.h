#ifndef MPPDB_TESTS_JOIN_FILTER_MATRIX_H_
#define MPPDB_TESTS_JOIN_FILTER_MATRIX_H_

// Consumers of a filtered, join-filtered scan: the fused scan hands on each
// storage slice with a selection of its survivors, and every consumer must
// read exactly the selected rows, in order. Shared by vectorized_exec_test
// (under AddressSanitizer) and parallel_stress_test (under
// ThreadSanitizer).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "exec/executor.h"
#include "exec/plan.h"
#include "expr/expr.h"
#include "runtime/join_filter.h"
#include "test_util.h"

namespace mppdb {
namespace testutil {

/// The join-filter counters of `stats`, and the rest of it.
inline ExecStats JoinFilterCounters(const ExecStats& stats) {
  ExecStats out;
  out.joinfilter_built = stats.joinfilter_built;
  out.joinfilter_probed = stats.joinfilter_probed;
  out.joinfilter_rows_rejected = stats.joinfilter_rows_rejected;
  out.joinfilter_chunks_skipped = stats.joinfilter_chunks_skipped;
  out.joinfilter_motion_rows_saved = stats.joinfilter_motion_rows_saved;
  out.joinfilter_probes_stopped = stats.joinfilter_probes_stopped;
  return out;
}

/// f(a, b) holds a = b = 0..3999 in 40 range parts of 100 on b, hashed on a
/// over 4 segments: 160 slices of about 25 rows, each one storage chunk, and
/// a rises along every segment's scan order. X = Filter(a % 7 <> 3) over a
/// DynamicScan of every part, probing join filter 0 on a; it is published
/// from d(k, w), hashed on k (so co-located with f), by a HashJoin on
/// d.k = a. Three builds of d:
///  - "stops": every a. Nothing is rejected, so on each segment the filter
///    stops after its first kJoinFilterPrefixRows probe rows.
///  - "rejects later": a < 150, plus a few keys at the top of the range so
///    that no chunk is disjoint from any segment's build. The first slice
///    of every segment rejects nothing and the next one most of its rows,
///    inside the prefix, so the filter keeps probing.
///  - "empty build": every probe row is rejected.
/// Each consumer runs at workers {1, 4} x morsel_rows {0, 1024, SIZE_MAX}:
/// rows and ExecStats, the joinfilter_* counters included, are identical
/// across the six. Consumers whose output the join above drops exactly as
/// the filter would (Project, HashAgg, Sort, HashJoin build and probe, a
/// PartitionSelector, Redistribute, Broadcast, Gather, NestedLoopJoin) also
/// match the filters-off run in rows and every other counter; Limit, TopN
/// and INSERT are checked against rows computed by hand.
inline void CheckSelectedSliceConsumers() {
  constexpr int kSegments = 4;
  constexpr int64_t kRows = 4000;
  constexpr int kParts = 40;
  // The "rejects later" build's keys: a < kCut and a >= kTop.
  constexpr int64_t kCut = 150;
  constexpr int64_t kTop = kRows - 40;
  const std::vector<Executor::Options> configs = {
      {.workers = 1, .morsel_rows = 0},    {.workers = 1, .morsel_rows = 1024},
      {.workers = 1, .morsel_rows = SIZE_MAX}, {.workers = 4, .morsel_rows = 0},
      {.workers = 4, .morsel_rows = 1024}, {.workers = 4, .morsel_rows = SIZE_MAX}};

  auto col = [](ColRefId id, const char* name) {
    return MakeColumnRef(id, name, TypeId::kInt64);
  };
  auto lit = [](int64_t v) { return MakeConst(Datum::Int64(v)); };
  auto ints = [](std::initializer_list<int64_t> values) {
    Row row;
    for (int64_t v : values) row.push_back(Datum::Int64(v));
    return row;
  };
  auto survives_predicate = [](int64_t a) { return a % 7 != 3; };

  struct Scenario {
    const char* name;
    std::function<bool(int64_t)> in_build;
    /// The filter stops after its prefix on every segment.
    bool stops;
  };
  const Scenario scenarios[] = {
      {"stops", [](int64_t) { return true; }, true},
      {"rejects later", [](int64_t a) { return a < kCut || a >= kTop; }, false},
      {"empty build", [](int64_t) { return false; }, false},
  };

  for (const Scenario& scenario : scenarios) {
    SCOPED_TRACE(scenario.name);
    TestDb db(kSegments);
    const TableDescriptor* f =
        db.CreateIntPartitionedTable("f", kParts, kRows / kParts);
    const TableDescriptor* d = db.CreatePlainTable(
        "d", Schema({{"k", TypeId::kInt64}, {"w", TypeId::kInt64}}), {0});
    const TableDescriptor* p = db.CreatePlainTable(
        "p", Schema({{"a", TypeId::kInt64}, {"b", TypeId::kInt64}}), {0});
    const TableDescriptor* r = db.CreatePlainTable(
        "r", Schema({{"a", TypeId::kInt64}, {"b", TypeId::kInt64}}), {0});
    std::vector<Row> f_rows, d_rows;
    for (int64_t a = 0; a < kRows; ++a) {
      f_rows.push_back(ints({a, a}));
      if (scenario.in_build(a)) d_rows.push_back(ints({a, 10 * a}));
    }
    db.Insert(f, f_rows);
    db.Insert(p, f_rows);
    if (!d_rows.empty()) db.Insert(d, d_rows);
    const TableStore& f_store = *db.storage.GetStore(f->oid);

    // Each segment's rows in scan order (parts ascending), and what the
    // filtered, join-filtered scan keeps of them: a filter that does not stop
    // keeps the rows its segment's summary may match.
    std::vector<std::vector<Row>> scanned(kSegments), kept(kSegments);
    size_t total_kept = 0, probe_rows = 0, rejected = 0;
    const TableStore& d_store = *db.storage.GetStore(d->oid);
    for (int seg = 0; seg < kSegments; ++seg) {
      const std::vector<Row>& build = d_store.UnitRows(d->oid, seg);
      JoinFilterSummaryBuilder builder(1, build.size());
      for (const Row& row : build) builder.Add(row, {0});
      const JoinFilterSummary summary = builder.Finish();
      for (Oid unit : f_store.UnitOids()) {
        for (const Row& row : f_store.UnitRows(unit, seg)) {
          scanned[seg].push_back(row);
          if (!survives_predicate(row[0].AsInt64())) continue;
          ++probe_rows;
          if (scenario.stops || summary.RowMayMatch(row, {0})) {
            kept[seg].push_back(row);
          } else {
            ++rejected;
          }
        }
      }
      total_kept += kept[seg].size();
    }

    // X: Filter [probe jf0 on a] over the DynamicScan of every part of f.
    // Below a Motion, rejected rows are counted into rows_moved, which stays
    // logical.
    auto filtered_scan = [&](bool below_motion = false) -> PhysPtr {
      auto selector = std::make_shared<PartitionSelectorNode>(
          f->oid, 1, std::vector<ColRefId>{2}, std::vector<ExprPtr>{nullptr}, nullptr);
      auto scan = std::make_shared<DynamicScanNode>(f->oid, 1, std::vector<ColRefId>{1, 2});
      auto sequence = std::make_shared<SequenceNode>(std::vector<PhysPtr>{selector, scan});
      auto filter = std::make_shared<FilterNode>(
          MakeComparison(CompareOp::kNe, MakeArith(ArithOp::kMod, col(1, "a"), lit(7)),
                         lit(3)),
          sequence);
      JoinFilterAnnotations probe;
      probe.probes.push_back(JoinFilterProbe{0, {1}, false, below_motion});
      return WithJoinFilters(filter, filter->children(), std::move(probe));
    };
    // The join that publishes filter 0 before it runs `probe`: on k = key.
    auto join_d = [&](PhysPtr probe, ColRefId key) -> PhysPtr {
      auto join = std::make_shared<HashJoinNode>(
          JoinType::kInner, std::vector<ColRefId>{11}, std::vector<ColRefId>{key},
          nullptr,
          std::make_shared<TableScanNode>(d->oid, d->oid, std::vector<ColRefId>{11, 12}),
          std::move(probe));
      JoinFilterAnnotations ann;
      ann.publishes.push_back(JoinFilterSpec{0, {11}, 1000, false});
      return WithJoinFilters(join, join->children(), std::move(ann));
    };
    auto gather = [](PhysPtr child) -> PhysPtr {
      return std::make_shared<MotionNode>(MotionKind::kGather, std::vector<ColRefId>{},
                                          std::move(child));
    };
    // Publishes filter 0 (over no probe rows), then runs `consumer`.
    auto published = [&](PhysPtr consumer) -> PhysPtr {
      auto none = std::make_shared<ValuesNode>(std::vector<Row>{},
                                               std::vector<ColRefId>{61, 62});
      return std::make_shared<SequenceNode>(
          std::vector<PhysPtr>{join_d(none, 61), std::move(consumer)});
    };

    struct Case {
      std::string name;
      std::function<PhysPtr()> plan;
      /// Rows computed by hand; empty when the filters-off run is the
      /// reference instead.
      std::function<std::vector<Row>()> expected;
      /// Every counter but joinfilter_* matches the filters-off run (not so
      /// where the filtered rows select partitions).
      bool stats_like_off = true;
    };
    std::vector<Case> cases;
    cases.push_back({"hashjoin probe",
                     [&] { return gather(join_d(filtered_scan(), 1)); }, nullptr});
    cases.push_back({"project",
                     [&] {
                       std::vector<ProjectItem> items = {
                           {col(1, "a"), 31, "a"},
                           {MakeArith(ArithOp::kAdd, col(2, "b"), lit(1)), 32, "c"}};
                       return gather(join_d(
                           std::make_shared<ProjectNode>(items, filtered_scan()), 31));
                     },
                     nullptr});
    cases.push_back({"hashagg",
                     [&] {
                       std::vector<AggItem> aggs = {
                           {AggFunc::kCountStar, nullptr, 33, "n"},
                           {AggFunc::kSum, col(2, "b"), 34, "s"}};
                       return gather(join_d(
                           std::make_shared<HashAggNode>(std::vector<ColRefId>{1}, aggs,
                                                         filtered_scan()),
                           1));
                     },
                     nullptr});
    cases.push_back({"sort",
                     [&] {
                       return gather(join_d(
                           std::make_shared<SortNode>(std::vector<SortKey>{{2, false}},
                                                      filtered_scan()),
                           1));
                     },
                     nullptr});
    cases.push_back(
        {"hashjoin build and local publish",
         [&] {
           // The selected slices are the build side, which publishes
           // filter 1 for the bare scan of p on its probe side.
           PhysPtr build = filtered_scan();
           JoinFilterAnnotations pub;
           pub.publishes.push_back(JoinFilterSpec{1, {1}, 1000, false});
           PhysPtr p_scan =
               std::make_shared<TableScanNode>(p->oid, p->oid, std::vector<ColRefId>{21, 22});
           JoinFilterAnnotations probe;
           probe.probes.push_back(JoinFilterProbe{1, {21}, false, false});
           p_scan = WithJoinFilters(p_scan, {}, std::move(probe));
           auto inner = std::make_shared<HashJoinNode>(
               JoinType::kInner, std::vector<ColRefId>{1}, std::vector<ColRefId>{21},
               nullptr, build, p_scan);
           return gather(join_d(WithJoinFilters(inner, inner->children(), std::move(pub)), 1));
         },
         nullptr});
    cases.push_back(
        {"partition selector",
         [&] {
           // Each selected row routes a = b to its part of f.
           auto selector = std::make_shared<PartitionSelectorNode>(
               f->oid, 2, std::vector<ColRefId>{42},
               std::vector<ExprPtr>{MakeComparison(CompareOp::kEq, col(42, "b"), col(1, "a"))},
               filtered_scan());
           auto scan =
               std::make_shared<DynamicScanNode>(f->oid, 2, std::vector<ColRefId>{41, 42});
           auto inner = std::make_shared<HashJoinNode>(
               JoinType::kInner, std::vector<ColRefId>{1}, std::vector<ColRefId>{41},
               nullptr, selector, scan);
           return gather(join_d(inner, 1));
         },
         nullptr, /*stats_like_off=*/false});
    for (MotionKind kind : {MotionKind::kRedistribute, MotionKind::kBroadcast,
                            MotionKind::kGather}) {
      const std::string name = kind == MotionKind::kRedistribute ? "redistribute"
                               : kind == MotionKind::kBroadcast  ? "broadcast"
                                                                 : "gather";
      cases.push_back({name,
                       [&, kind] {
                         std::vector<ColRefId> hash;
                         if (kind == MotionKind::kRedistribute) hash = {1};
                         auto motion =
                             std::make_shared<MotionNode>(kind, hash, filtered_scan(true));
                         return gather(join_d(motion, 1));
                       },
                       nullptr});
    }
    cases.push_back({"nestedloop join",
                     [&] {
                       auto outer = std::make_shared<ValuesNode>(
                           std::vector<Row>{ints({7})}, std::vector<ColRefId>{51});
                       auto nlj = std::make_shared<NestedLoopJoinNode>(
                           JoinType::kInner, nullptr, outer, filtered_scan());
                       return gather(join_d(nlj, 1));
                     },
                     nullptr});
    cases.push_back({"limit",
                     [&] {
                       return gather(
                           published(std::make_shared<LimitNode>(5, filtered_scan())));
                     },
                     [&] {
                       std::vector<Row> out;
                       for (const std::vector<Row>& seg : kept) {
                         out.insert(out.end(), seg.begin(),
                                    seg.begin() + std::min<size_t>(5, seg.size()));
                       }
                       return out;
                     }});
    cases.push_back({"topn",
                     [&] {
                       return gather(published(std::make_shared<TopNNode>(
                           std::vector<SortKey>{{1, false}}, 3, filtered_scan())));
                     },
                     [&] {
                       std::vector<Row> out;
                       for (std::vector<Row> seg : kept) {
                         std::reverse(seg.begin(), seg.end());  // a rises along a slice
                         seg.resize(std::min<size_t>(3, seg.size()));
                         out.insert(out.end(), seg.begin(), seg.end());
                       }
                       return out;
                     }});

    cases.push_back({"insert",
                     [&] {
                       return std::make_shared<InsertNode>(
                           r->oid, 71, gather(published(filtered_scan())));
                     },
                     [&] { return std::vector<Row>{ints({static_cast<int64_t>(total_kept)})}; }});

    for (const Case& c : cases) {
      SCOPED_TRACE(c.name);
      std::vector<Row> first_rows;
      ExecStats first_stats;
      for (size_t i = 0; i < configs.size(); ++i) {
        SCOPED_TRACE("workers=" + std::to_string(configs[i].workers) +
                     " morsel_rows=" + std::to_string(configs[i].morsel_rows));
        Executor on(&db.catalog, &db.storage, configs[i]);
        auto rows = on.Execute(c.plan());
        ASSERT_TRUE(rows.ok()) << rows.status().ToString();
        if (i == 0) {
          first_rows = *rows;
          first_stats = on.stats();
          if (c.expected) {
            EXPECT_TRUE(*rows == c.expected()) << "rows differ from the hand oracle";
          } else {
            Executor::Options off_options = configs[i];
            off_options.join_filters = false;
            Executor off(&db.catalog, &db.storage, off_options);
            auto off_rows = off.Execute(c.plan());
            ASSERT_TRUE(off_rows.ok()) << off_rows.status().ToString();
            EXPECT_TRUE(*rows == *off_rows) << "rows differ from filters off";
            if (c.stats_like_off) {
              EXPECT_TRUE(on.stats().WithoutJoinFilterCounters() == off.stats())
                  << "a counter other than joinfilter_* differs from filters off";
            }
            EXPECT_EQ(rows->empty(), total_kept == 0);
          }
        } else {
          EXPECT_TRUE(*rows == first_rows);
          EXPECT_TRUE(on.stats() == first_stats);
        }
      }
    }

    // Every run of the insert case wrote exactly the kept rows.
    std::vector<Row> inserted, expected_inserted;
    const TableStore& r_store = *db.storage.GetStore(r->oid);
    for (int seg = 0; seg < kSegments; ++seg) {
      const std::vector<Row>& rows = r_store.UnitRows(r->oid, seg);
      inserted.insert(inserted.end(), rows.begin(), rows.end());
    }
    for (size_t i = 0; i < configs.size(); ++i) {
      for (const std::vector<Row>& seg : kept) {
        expected_inserted.insert(expected_inserted.end(), seg.begin(), seg.end());
      }
    }
    EXPECT_TRUE(Sorted(inserted) == Sorted(expected_inserted));

    // What the filter did, from the plain probe case: it is the same at
    // every configuration (checked above).
    Executor exec(&db.catalog, &db.storage);
    ASSERT_TRUE(exec.Execute(gather(join_d(filtered_scan(), 1))).ok());
    const ExecStats jf = JoinFilterCounters(exec.stats());
    EXPECT_EQ(jf.joinfilter_built, static_cast<size_t>(kSegments));
    const std::string which = scenario.name;
    if (which == "stops") {
      EXPECT_EQ(jf.joinfilter_probes_stopped, static_cast<size_t>(kSegments));
      EXPECT_EQ(jf.joinfilter_probed, kSegments * Executor::kJoinFilterPrefixRows);
      EXPECT_EQ(jf.joinfilter_rows_rejected, 0u);
      EXPECT_EQ(jf.joinfilter_chunks_skipped, 0u);
    } else if (which == "rejects later") {
      // Every segment's build reaches the top of the range, so no chunk is
      // skipped and the filter probes every row that passes the predicate.
      for (int seg = 0; seg < kSegments; ++seg) {
        const std::vector<Row>& build = d_store.UnitRows(d->oid, seg);
        ASSERT_TRUE(std::any_of(build.begin(), build.end(), [&](const Row& row) {
          return row[0].AsInt64() >= kTop;
        })) << "segment " << seg;
        // Its first slice (part 0, a < 100) rejects nothing.
        ASSERT_FALSE(scanned[seg].empty());
        EXPECT_LT(scanned[seg].front()[0].AsInt64(), kCut);
      }
      EXPECT_EQ(jf.joinfilter_probes_stopped, 0u);
      EXPECT_EQ(jf.joinfilter_probed, probe_rows);
      EXPECT_EQ(jf.joinfilter_rows_rejected, rejected);
      EXPECT_EQ(jf.joinfilter_chunks_skipped, 0u);
    } else {
      // The predicate is not provably error-free on a chunk, so no chunk is
      // skipped: every probe row is probed and rejected.
      EXPECT_EQ(total_kept, 0u);
      EXPECT_EQ(jf.joinfilter_probes_stopped, 0u);
      EXPECT_EQ(jf.joinfilter_probed, probe_rows);
      EXPECT_EQ(jf.joinfilter_rows_rejected, probe_rows);
      EXPECT_EQ(jf.joinfilter_chunks_skipped, 0u);
    }
  }
}

}  // namespace testutil
}  // namespace mppdb

#endif  // MPPDB_TESTS_JOIN_FILTER_MATRIX_H_

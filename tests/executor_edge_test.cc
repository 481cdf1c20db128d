// Edge-case and failure-injection tests for the executor: motion routing
// properties, replicated tables, residual join predicates, error paths, and
// the per-tuple equality fast path of the PartitionSelector.

#include <gtest/gtest.h>

#include "exec/executor.h"
#include "exec/plan.h"
#include "test_util.h"

namespace mppdb {
namespace {

using testutil::SameRows;
using testutil::TestDb;

ExprPtr Lit(int64_t v) { return MakeConst(Datum::Int64(v)); }
ExprPtr Ref(ColRefId id) { return MakeColumnRef(id, "c" + std::to_string(id), TypeId::kInt64); }

class ExecutorEdgeTest : public ::testing::Test {
 protected:
  ExecutorEdgeTest() {
    t_ = db_.CreatePlainTable("t", Schema({{"a", TypeId::kInt64},
                                           {"b", TypeId::kInt64}}));
    std::vector<Row> rows;
    for (int i = 0; i < 50; ++i) {
      rows.push_back({Datum::Int64(i), Datum::Int64(i % 7)});
    }
    db_.Insert(t_, rows);
  }

  PhysPtr Scan(std::vector<ColRefId> ids = {1, 2}) {
    return std::make_shared<TableScanNode>(t_->oid, t_->oid, std::move(ids));
  }

  TestDb db_{4};
  const TableDescriptor* t_ = nullptr;
};

TEST_F(ExecutorEdgeTest, BroadcastDeliversFullCopyToEverySegment) {
  // Broadcast then count per segment via a second motion: every segment must
  // hold all 50 rows, so gathering the broadcast yields 50 * num_segments.
  auto bcast = std::make_shared<MotionNode>(MotionKind::kBroadcast,
                                            std::vector<ColRefId>{}, Scan());
  auto result = db_.executor.Execute(bcast);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->size(), 50u * 4u);
}

TEST_F(ExecutorEdgeTest, GatherConcentratesOnOneSegment) {
  auto gather = std::make_shared<MotionNode>(MotionKind::kGather,
                                             std::vector<ColRefId>{}, Scan());
  auto result = db_.executor.Execute(gather);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->size(), 50u);
}

TEST_F(ExecutorEdgeTest, RedistributeColocatesEqualKeys) {
  // After redistribution on b, joining two redistributed copies of t on b
  // produces the full self-join: co-location must hold.
  auto left = std::make_shared<MotionNode>(MotionKind::kRedistribute,
                                           std::vector<ColRefId>{2}, Scan({1, 2}));
  auto right = std::make_shared<MotionNode>(MotionKind::kRedistribute,
                                            std::vector<ColRefId>{4}, Scan({3, 4}));
  auto join = std::make_shared<HashJoinNode>(JoinType::kInner,
                                             std::vector<ColRefId>{2},
                                             std::vector<ColRefId>{4}, nullptr, left,
                                             right);
  auto gather = std::make_shared<MotionNode>(MotionKind::kGather,
                                             std::vector<ColRefId>{}, join);
  auto result = db_.executor.Execute(gather);
  ASSERT_TRUE(result.ok());
  // 50 rows, 7 groups of size 8 or 7: sum over groups of n^2.
  size_t expected = 0;
  std::map<int64_t, size_t> counts;
  for (int i = 0; i < 50; ++i) counts[i % 7]++;
  for (auto& [k, n] : counts) expected += n * n;
  EXPECT_EQ(result->size(), expected);
}

TEST_F(ExecutorEdgeTest, HashJoinResidualFiltersMatches) {
  // Self join on b with residual a1 < a2.
  auto join = std::make_shared<HashJoinNode>(
      JoinType::kInner, std::vector<ColRefId>{2}, std::vector<ColRefId>{4},
      MakeComparison(CompareOp::kLt, Ref(1), Ref(3)),
      std::make_shared<MotionNode>(MotionKind::kBroadcast, std::vector<ColRefId>{},
                                   Scan({1, 2})),
      Scan({3, 4}));
  auto gather = std::make_shared<MotionNode>(MotionKind::kGather,
                                             std::vector<ColRefId>{}, join);
  auto result = db_.executor.Execute(gather);
  ASSERT_TRUE(result.ok());
  for (const Row& row : *result) {
    EXPECT_LT(row[0].int64_value(), row[2].int64_value());
    EXPECT_EQ(row[1].int64_value(), row[3].int64_value());
  }
}

TEST_F(ExecutorEdgeTest, SemiJoinWithResidual) {
  auto join = std::make_shared<HashJoinNode>(
      JoinType::kSemi, std::vector<ColRefId>{2}, std::vector<ColRefId>{4},
      MakeComparison(CompareOp::kLt, Ref(1), Lit(3)),
      std::make_shared<MotionNode>(MotionKind::kBroadcast, std::vector<ColRefId>{},
                                   Scan({1, 2})),
      Scan({3, 4}));
  auto gather = std::make_shared<MotionNode>(MotionKind::kGather,
                                             std::vector<ColRefId>{}, join);
  auto result = db_.executor.Execute(gather);
  ASSERT_TRUE(result.ok());
  // Probe rows whose b matches a build row with a < 3: build rows with a<3
  // have b in {0,1,2}, so probe rows with b in {0,1,2} survive, once each.
  size_t expected = 0;
  for (int i = 0; i < 50; ++i) {
    if (i % 7 <= 2) ++expected;
  }
  EXPECT_EQ(result->size(), expected);
}

TEST_F(ExecutorEdgeTest, ReplicatedTableScansOnceAtRoot) {
  Schema schema({{"x", TypeId::kInt64}});
  auto oid = db_.catalog.CreateTable("repl", schema, TableDistribution::kReplicated, {});
  ASSERT_TRUE(oid.ok());
  const TableDescriptor* repl = db_.catalog.FindTable(*oid);
  ASSERT_TRUE(db_.storage.CreateStorage(repl).ok());
  ASSERT_TRUE(db_.storage.GetStore(repl->oid)
                  ->InsertBatch({{Datum::Int64(1)}, {Datum::Int64(2)}})
                  .ok());
  auto scan = std::make_shared<TableScanNode>(repl->oid, repl->oid,
                                              std::vector<ColRefId>{1});
  auto result = db_.executor.Execute(scan);
  ASSERT_TRUE(result.ok());
  // No duplication despite 3 copies in storage (one per segment).
  EXPECT_EQ(result->size(), 2u);
}

TEST_F(ExecutorEdgeTest, ScanOfUnknownTableFails) {
  auto scan = std::make_shared<TableScanNode>(99999, 99999, std::vector<ColRefId>{1});
  EXPECT_EQ(db_.executor.Execute(scan).status().code(), StatusCode::kExecutionError);
}

/// An unbounded range seek on schema column `index_column` of `table_oid`.
PhysPtr IndexSeekAll(Oid table_oid, int scan_id, std::vector<ColRefId> ids,
                     int index_column) {
  return std::make_shared<DynamicIndexScanNode>(
      table_oid, scan_id, std::move(ids), index_column, IndexScanMode::kRangeSeek,
      IndexBound::Unbounded(), IndexBound::Unbounded(), nullptr, /*ascending=*/true,
      /*per_unit_limit=*/0);
}

TEST_F(ExecutorEdgeTest, DynamicIndexScanWithoutSelectorFails) {
  const TableDescriptor* orders = db_.CreateOrdersTable(6);
  ASSERT_TRUE(db_.catalog.CreateIndex("orders", "amount").ok());
  db_.Insert(orders, {{testutil::D("2012-02-10"), Datum::Double(1), Datum::String("x")}});
  // Scan id 4 pairs with no PartitionSelector, so its channel never opens.
  auto result = db_.executor.Execute(IndexSeekAll(orders->oid, 4, {1, 2, 3}, 1));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kExecutionError);
  EXPECT_NE(result.status().message().find("DynamicIndexScan executed before its "
                                           "PartitionSelector"),
            std::string::npos)
      << result.status().ToString();
}

TEST_F(ExecutorEdgeTest, DynamicIndexScanOfReplicatedTableReadsOneCopy) {
  Schema schema({{"x", TypeId::kInt64}});
  auto oid = db_.catalog.CreateTable("repl", schema, TableDistribution::kReplicated, {});
  ASSERT_TRUE(oid.ok());
  const TableDescriptor* repl = db_.catalog.FindTable(*oid);
  ASSERT_TRUE(db_.storage.CreateStorage(repl).ok());
  ASSERT_TRUE(db_.catalog.CreateIndex("repl", "x").ok());
  db_.Insert(repl, {{Datum::Int64(3)}, {Datum::Int64(1)}, {Datum::Int64(2)}});
  auto result = db_.executor.Execute(IndexSeekAll(repl->oid, -1, {1}, 0));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // Each of the 4 segments holds a copy; only segment 0 reads it.
  EXPECT_TRUE(SameRows(*result, {{Datum::Int64(3)}, {Datum::Int64(1)}, {Datum::Int64(2)}}));
  EXPECT_EQ(db_.executor.stats().index_seeks, 1u);
  EXPECT_EQ(db_.executor.stats().tuples_scanned, 3u);
  EXPECT_EQ(db_.executor.stats().PartitionsScanned(repl->oid), 1u);
}

TEST_F(ExecutorEdgeTest, SelectorWithForeignOidFails) {
  const TableDescriptor* orders = db_.CreateOrdersTable(6);
  (void)orders;
  // A selector that pushes an OID that is not a leaf of the scanned table.
  const TableDescriptor* other = db_.CreateOrdersTable(6, "orders_b");
  auto selector = std::make_shared<PartitionSelectorNode>(
      other->oid, 3, std::vector<ColRefId>{1}, std::vector<ExprPtr>{nullptr},
      nullptr);
  // DynamicScan points at `orders`, selector pushes `orders_b` leaves.
  auto scan = std::make_shared<DynamicScanNode>(
      db_.catalog.FindTable("orders")->oid, 3, std::vector<ColRefId>{1, 2, 3});
  auto plan = std::make_shared<SequenceNode>(std::vector<PhysPtr>{selector, scan});
  auto result = db_.executor.Execute(plan);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kExecutionError);
}

TEST_F(ExecutorEdgeTest, CheckedPartScanWithoutChannelFails) {
  const TableDescriptor* orders = db_.CreateOrdersTable(6);
  Oid leaf = orders->partition_scheme->AllLeafOids()[0];
  auto scan = std::make_shared<CheckedPartScanNode>(orders->oid, leaf, 9,
                                                    std::vector<ColRefId>{1, 2, 3});
  EXPECT_FALSE(db_.executor.Execute(scan).ok());
}

TEST_F(ExecutorEdgeTest, EqualityFastPathMatchesGenericSelection) {
  // Same join-DPE computation through (a) the equality fast path
  // (pred: key = col) and (b) the generic path (key <= col AND key >= col,
  // semantically identical but not recognized as equality).
  const TableDescriptor* orders = db_.CreateOrdersTable(24);
  std::vector<Row> rows;
  for (int month = 1; month <= 12; ++month) {
    rows.push_back({Datum::Date(date::FromYMD(2013, month, 10)),
                    Datum::Double(month), Datum::String("x")});
  }
  db_.Insert(orders, rows);
  const TableDescriptor* dim = db_.CreatePlainTable(
      "dim_dates", Schema({{"d", TypeId::kDate}}), {0});
  db_.Insert(dim, {{testutil::D("2013-03-10")}, {testutil::D("2013-08-10")}});

  auto build_plan = [&](bool fast) {
    auto dim_scan = std::make_shared<TableScanNode>(dim->oid, dim->oid,
                                                    std::vector<ColRefId>{11});
    auto bcast = std::make_shared<MotionNode>(MotionKind::kBroadcast,
                                              std::vector<ColRefId>{}, dim_scan);
    ExprPtr key = MakeColumnRef(1, "date", TypeId::kDate);
    ExprPtr other = MakeColumnRef(11, "d", TypeId::kDate);
    ExprPtr pred =
        fast ? MakeComparison(CompareOp::kEq, key, other)
             : Conj({MakeComparison(CompareOp::kLe, key, other),
                     MakeComparison(CompareOp::kGe, key, other)});
    auto selector = std::make_shared<PartitionSelectorNode>(
        orders->oid, 5, std::vector<ColRefId>{1}, std::vector<ExprPtr>{pred}, bcast);
    auto scan = std::make_shared<DynamicScanNode>(orders->oid, 5,
                                                  std::vector<ColRefId>{1, 2, 3});
    auto join = std::make_shared<HashJoinNode>(
        JoinType::kInner, std::vector<ColRefId>{11}, std::vector<ColRefId>{1},
        nullptr, selector, scan);
    return std::make_shared<MotionNode>(MotionKind::kGather, std::vector<ColRefId>{},
                                        join);
  };

  auto fast = db_.executor.Execute(build_plan(true));
  ASSERT_TRUE(fast.ok()) << fast.status().ToString();
  size_t fast_parts = db_.executor.stats().PartitionsScanned(orders->oid);
  auto generic = db_.executor.Execute(build_plan(false));
  ASSERT_TRUE(generic.ok());
  size_t generic_parts = db_.executor.stats().PartitionsScanned(orders->oid);
  EXPECT_TRUE(SameRows(*fast, *generic));
  EXPECT_EQ(fast_parts, 2u);
  EXPECT_EQ(generic_parts, 2u);
}

TEST_F(ExecutorEdgeTest, StatsCountTuplesAndMovedRows) {
  auto gather = std::make_shared<MotionNode>(MotionKind::kGather,
                                             std::vector<ColRefId>{}, Scan());
  ASSERT_TRUE(db_.executor.Execute(gather).ok());
  EXPECT_EQ(db_.executor.stats().tuples_scanned, 50u);
  EXPECT_EQ(db_.executor.stats().rows_moved, 50u);
  // Stats reset between executions.
  ASSERT_TRUE(db_.executor.Execute(Scan()).ok());
  EXPECT_EQ(db_.executor.stats().rows_moved, 0u);
}

}  // namespace
}  // namespace mppdb

#include <gtest/gtest.h>

#include "exec/executor.h"
#include "exec/plan.h"
#include "expr/expr.h"
#include "test_util.h"

namespace mppdb {
namespace {

using testutil::D;
using testutil::SameRows;
using testutil::TestDb;

ExprPtr Lit(int64_t v) { return MakeConst(Datum::Int64(v)); }

// Loads one order row per month-midpoint of 2012-2013 (24 rows).
void LoadMonthlyOrders(TestDb* db, const TableDescriptor* orders) {
  std::vector<Row> rows;
  for (int year : {2012, 2013}) {
    for (int month = 1; month <= 12; ++month) {
      rows.push_back({Datum::Date(date::FromYMD(year, month, 15)),
                      Datum::Double(month * 10.0),
                      Datum::String(month % 2 == 0 ? "east" : "west")});
    }
  }
  db->Insert(orders, rows);
}

// Fixture with the `orders` table and colrefs 1..3 (date, amount, region).
class ExecutorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    orders_ = db_.CreateOrdersTable(24);
    LoadMonthlyOrders(&db_, orders_);
  }

  PhysPtr OrdersDynamicScan(int scan_id = 1) {
    return std::make_shared<DynamicScanNode>(orders_->oid, scan_id,
                                             std::vector<ColRefId>{1, 2, 3});
  }

  ExprPtr DateCol() { return MakeColumnRef(1, "date", TypeId::kDate); }

  TestDb db_{4};
  const TableDescriptor* orders_ = nullptr;
};

TEST_F(ExecutorTest, FullTableScanViaAppendOfLeaves) {
  // Legacy-planner shape: Append of one TableScan per leaf.
  std::vector<PhysPtr> scans;
  for (Oid leaf : orders_->partition_scheme->AllLeafOids()) {
    scans.push_back(std::make_shared<TableScanNode>(orders_->oid, leaf,
                                                    std::vector<ColRefId>{1, 2, 3}));
  }
  auto plan = std::make_shared<AppendNode>(std::move(scans));
  auto result = db_.executor.Execute(plan);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->size(), 24u);
  EXPECT_EQ(db_.executor.stats().PartitionsScanned(orders_->oid), 24u);
}

TEST_F(ExecutorTest, DynamicScanWithoutSelectorFails) {
  auto result = db_.executor.Execute(OrdersDynamicScan());
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kExecutionError);
}

TEST_F(ExecutorTest, SelectorWithNoPredicateScansEverything) {
  // Paper Fig. 5(a): Sequence(PartitionSelector(no pred), DynamicScan).
  auto selector = std::make_shared<PartitionSelectorNode>(
      orders_->oid, 1, std::vector<ColRefId>{1}, std::vector<ExprPtr>{nullptr},
      nullptr);
  auto plan = std::make_shared<SequenceNode>(
      std::vector<PhysPtr>{selector, OrdersDynamicScan()});
  auto result = db_.executor.Execute(plan);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->size(), 24u);
  EXPECT_EQ(db_.executor.stats().PartitionsScanned(orders_->oid), 24u);
}

TEST_F(ExecutorTest, StaticEqualitySelectorScansOnePartition) {
  // Paper Fig. 5(b).
  ExprPtr pred = MakeComparison(CompareOp::kEq, DateCol(),
                                MakeConst(D("2013-05-20")));
  auto selector = std::make_shared<PartitionSelectorNode>(
      orders_->oid, 1, std::vector<ColRefId>{1}, std::vector<ExprPtr>{pred}, nullptr);
  auto plan = std::make_shared<SequenceNode>(
      std::vector<PhysPtr>{selector, OrdersDynamicScan()});
  auto result = db_.executor.Execute(plan);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(db_.executor.stats().PartitionsScanned(orders_->oid), 1u);
  // The one May-2013 row is still returned (scan, not filter).
  EXPECT_EQ(result->size(), 1u);
}

TEST_F(ExecutorTest, StaticRangeSelectorScansLastQuarter) {
  // Paper Figs. 2 / 5(c): Q4-2013 -> 3 of 24 partitions.
  ExprPtr pred = Conj({MakeComparison(CompareOp::kGe, DateCol(),
                                      MakeConst(D("2013-10-01"))),
                       MakeComparison(CompareOp::kLe, DateCol(),
                                      MakeConst(D("2013-12-31")))});
  auto selector = std::make_shared<PartitionSelectorNode>(
      orders_->oid, 1, std::vector<ColRefId>{1}, std::vector<ExprPtr>{pred}, nullptr);
  auto plan = std::make_shared<SequenceNode>(
      std::vector<PhysPtr>{selector, OrdersDynamicScan()});
  auto result = db_.executor.Execute(plan);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(db_.executor.stats().PartitionsScanned(orders_->oid), 3u);
  EXPECT_EQ(result->size(), 3u);
}

TEST_F(ExecutorTest, FilterAndProject) {
  std::vector<PhysPtr> scans;
  for (Oid leaf : orders_->partition_scheme->AllLeafOids()) {
    scans.push_back(std::make_shared<TableScanNode>(orders_->oid, leaf,
                                                    std::vector<ColRefId>{1, 2, 3}));
  }
  PhysPtr plan = std::make_shared<AppendNode>(std::move(scans));
  plan = std::make_shared<FilterNode>(
      MakeComparison(CompareOp::kEq, MakeColumnRef(3, "region", TypeId::kString),
                     MakeConst(Datum::String("east"))),
      plan);
  plan = std::make_shared<ProjectNode>(
      std::vector<ProjectItem>{
          {MakeArith(ArithOp::kMul, MakeColumnRef(2, "amount", TypeId::kDouble),
                     MakeConst(Datum::Double(2.0))),
           10, "double_amount"}},
      plan);
  auto result = db_.executor.Execute(plan);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->size(), 12u);  // even months only
  for (const Row& row : *result) {
    ASSERT_EQ(row.size(), 1u);
  }
}

TEST_F(ExecutorTest, JoinDrivenDynamicElimination) {
  // Paper Fig. 5(d): dimension table R(A) joined on orders' partition key.
  // Selector is a pass-through on the build side; DynamicScan is the probe.
  const TableDescriptor* dates = db_.CreatePlainTable(
      "date_dim", Schema({{"id", TypeId::kDate}, {"month", TypeId::kInt32}}), {0});
  // Dimension rows: Oct-Dec 2013 only.
  db_.Insert(dates, {{D("2013-10-15"), Datum::Int32(10)},
                     {D("2013-11-15"), Datum::Int32(11)},
                     {D("2013-12-15"), Datum::Int32(12)}});

  auto dim_scan = std::make_shared<TableScanNode>(dates->oid, dates->oid,
                                                  std::vector<ColRefId>{11, 12});
  // Broadcast the dimension so every segment's selector/probe sees it.
  auto bcast = std::make_shared<MotionNode>(MotionKind::kBroadcast,
                                            std::vector<ColRefId>{}, dim_scan);
  // Selector predicate: orders.date = date_dim.id (key col 1, outer col 11).
  ExprPtr join_dpe_pred = MakeComparison(CompareOp::kEq, DateCol(),
                                         MakeColumnRef(11, "id", TypeId::kDate));
  auto selector = std::make_shared<PartitionSelectorNode>(
      orders_->oid, 1, std::vector<ColRefId>{1}, std::vector<ExprPtr>{join_dpe_pred},
      bcast);
  auto join = std::make_shared<HashJoinNode>(
      JoinType::kInner, std::vector<ColRefId>{11}, std::vector<ColRefId>{1}, nullptr,
      selector, OrdersDynamicScan());
  auto gather = std::make_shared<MotionNode>(MotionKind::kGather,
                                             std::vector<ColRefId>{}, join);
  auto result = db_.executor.Execute(gather);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // Dates at day 15 in Oct/Nov/Dec 2013 match the monthly orders rows.
  EXPECT_EQ(result->size(), 3u);
  // Dynamic elimination: only partitions for dates present in the dimension
  // (deduplicated across the broadcast copies) are scanned.
  EXPECT_EQ(db_.executor.stats().PartitionsScanned(orders_->oid), 3u);
}

TEST_F(ExecutorTest, HashJoinBasic) {
  const TableDescriptor* t1 = db_.CreatePlainTable(
      "t1", Schema({{"k", TypeId::kInt64}, {"v", TypeId::kString}}), {0});
  const TableDescriptor* t2 =
      db_.CreatePlainTable("t2", Schema({{"k", TypeId::kInt64}}), {0});
  db_.Insert(t1, {{Lit(1)->kind() == ExprKind::kConst ? Datum::Int64(1)
                                                       : Datum::Null(),
                   Datum::String("a")},
                  {Datum::Int64(2), Datum::String("b")},
                  {Datum::Null(), Datum::String("n")}});
  db_.Insert(t2, {{Datum::Int64(2)}, {Datum::Int64(2)}, {Datum::Int64(3)},
                  {Datum::Null()}});

  auto s1 = std::make_shared<TableScanNode>(t1->oid, t1->oid,
                                            std::vector<ColRefId>{1, 2});
  auto s2 = std::make_shared<TableScanNode>(t2->oid, t2->oid,
                                            std::vector<ColRefId>{3});
  // Both hash-distributed on k: same key lands on same segment (colocated).
  auto join = std::make_shared<HashJoinNode>(JoinType::kInner,
                                             std::vector<ColRefId>{1},
                                             std::vector<ColRefId>{3}, nullptr, s1, s2);
  auto gather = std::make_shared<MotionNode>(MotionKind::kGather,
                                             std::vector<ColRefId>{}, join);
  auto result = db_.executor.Execute(gather);
  ASSERT_TRUE(result.ok());
  // t1 row (2,b) matches two t2 rows; NULL keys never join.
  ASSERT_EQ(result->size(), 2u);
  for (const Row& row : *result) {
    EXPECT_EQ(row[0].int64_value(), 2);
    EXPECT_EQ(row[1].string_value(), "b");
    EXPECT_EQ(row[2].int64_value(), 2);
  }
}

TEST_F(ExecutorTest, SemiJoinPreservesProbeRowsOnce) {
  const TableDescriptor* main =
      db_.CreatePlainTable("main_t", Schema({{"k", TypeId::kInt64}}), {0});
  const TableDescriptor* sub =
      db_.CreatePlainTable("sub_t", Schema({{"k", TypeId::kInt64}}), {0});
  db_.Insert(main, {{Datum::Int64(1)}, {Datum::Int64(2)}, {Datum::Int64(3)}});
  db_.Insert(sub, {{Datum::Int64(2)}, {Datum::Int64(2)}, {Datum::Int64(3)}});
  auto build = std::make_shared<TableScanNode>(sub->oid, sub->oid,
                                               std::vector<ColRefId>{10});
  auto probe = std::make_shared<TableScanNode>(main->oid, main->oid,
                                               std::vector<ColRefId>{20});
  auto join = std::make_shared<HashJoinNode>(JoinType::kSemi,
                                             std::vector<ColRefId>{10},
                                             std::vector<ColRefId>{20}, nullptr,
                                             build, probe);
  auto gather = std::make_shared<MotionNode>(MotionKind::kGather,
                                             std::vector<ColRefId>{}, join);
  auto result = db_.executor.Execute(gather);
  ASSERT_TRUE(result.ok());
  // Rows 2 and 3 qualify, each exactly once despite duplicate build keys.
  EXPECT_TRUE(SameRows(*result, {{Datum::Int64(2)}, {Datum::Int64(3)}}));
}

TEST_F(ExecutorTest, NestedLoopJoinWithRangePredicate) {
  const TableDescriptor* a =
      db_.CreatePlainTable("nl_a", Schema({{"x", TypeId::kInt64}}), {0});
  const TableDescriptor* b =
      db_.CreatePlainTable("nl_b", Schema({{"y", TypeId::kInt64}}), {0});
  db_.Insert(a, {{Datum::Int64(1)}, {Datum::Int64(5)}});
  db_.Insert(b, {{Datum::Int64(3)}, {Datum::Int64(7)}});
  auto sa = std::make_shared<TableScanNode>(a->oid, a->oid, std::vector<ColRefId>{1});
  auto bcast_a = std::make_shared<MotionNode>(MotionKind::kBroadcast,
                                              std::vector<ColRefId>{}, sa);
  auto sb = std::make_shared<TableScanNode>(b->oid, b->oid, std::vector<ColRefId>{2});
  auto join = std::make_shared<NestedLoopJoinNode>(
      JoinType::kInner,
      MakeComparison(CompareOp::kLt, MakeColumnRef(1, "x", TypeId::kInt64),
                     MakeColumnRef(2, "y", TypeId::kInt64)),
      bcast_a, sb);
  auto gather = std::make_shared<MotionNode>(MotionKind::kGather,
                                             std::vector<ColRefId>{}, join);
  auto result = db_.executor.Execute(gather);
  ASSERT_TRUE(result.ok());
  // (1,3), (1,7), (5,7)
  EXPECT_EQ(result->size(), 3u);
}

TEST_F(ExecutorTest, HashAggWithGroups) {
  std::vector<PhysPtr> scans;
  for (Oid leaf : orders_->partition_scheme->AllLeafOids()) {
    scans.push_back(std::make_shared<TableScanNode>(orders_->oid, leaf,
                                                    std::vector<ColRefId>{1, 2, 3}));
  }
  PhysPtr plan = std::make_shared<AppendNode>(std::move(scans));
  plan = std::make_shared<MotionNode>(MotionKind::kGather, std::vector<ColRefId>{},
                                      plan);
  plan = std::make_shared<HashAggNode>(
      std::vector<ColRefId>{3},
      std::vector<AggItem>{
          {AggFunc::kCountStar, nullptr, 20, "cnt"},
          {AggFunc::kSum, MakeColumnRef(2, "amount", TypeId::kDouble), 21, "total"},
          {AggFunc::kMin, MakeColumnRef(1, "date", TypeId::kDate), 22, "first"}},
      plan);
  auto result = db_.executor.Execute(plan);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->size(), 2u);  // east, west
  for (const Row& row : *result) {
    EXPECT_EQ(row[1].int64_value(), 12);
  }
}

TEST_F(ExecutorTest, ScalarAggOverEmptyInput) {
  const TableDescriptor* empty =
      db_.CreatePlainTable("empty_t", Schema({{"x", TypeId::kInt64}}), {0});
  auto scan = std::make_shared<TableScanNode>(empty->oid, empty->oid,
                                              std::vector<ColRefId>{1});
  auto gather = std::make_shared<MotionNode>(MotionKind::kGather,
                                             std::vector<ColRefId>{}, scan);
  auto agg = std::make_shared<HashAggNode>(
      std::vector<ColRefId>{},
      std::vector<AggItem>{{AggFunc::kCountStar, nullptr, 10, "cnt"},
                           {AggFunc::kSum, MakeColumnRef(1, "x", TypeId::kInt64), 11,
                            "s"},
                           {AggFunc::kAvg, MakeColumnRef(1, "x", TypeId::kInt64), 12,
                            "a"}},
      gather);
  auto result = db_.executor.Execute(agg);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->size(), 1u);
  EXPECT_EQ((*result)[0][0].int64_value(), 0);
  EXPECT_TRUE((*result)[0][1].is_null());
  EXPECT_TRUE((*result)[0][2].is_null());
}

TEST_F(ExecutorTest, SortAndLimit) {
  std::vector<PhysPtr> scans;
  for (Oid leaf : orders_->partition_scheme->AllLeafOids()) {
    scans.push_back(std::make_shared<TableScanNode>(orders_->oid, leaf,
                                                    std::vector<ColRefId>{1, 2, 3}));
  }
  PhysPtr plan = std::make_shared<AppendNode>(std::move(scans));
  plan = std::make_shared<MotionNode>(MotionKind::kGather, std::vector<ColRefId>{},
                                      plan);
  plan = std::make_shared<SortNode>(std::vector<SortKey>{{1, false}}, plan);
  plan = std::make_shared<LimitNode>(2, plan);
  auto result = db_.executor.Execute(plan);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->size(), 2u);
  EXPECT_EQ((*result)[0][0].date_value(), date::FromYMD(2013, 12, 15));
  EXPECT_EQ((*result)[1][0].date_value(), date::FromYMD(2013, 11, 15));
}

TEST_F(ExecutorTest, RedistributeMotionPreservesMultiset) {
  std::vector<PhysPtr> scans;
  for (Oid leaf : orders_->partition_scheme->AllLeafOids()) {
    scans.push_back(std::make_shared<TableScanNode>(orders_->oid, leaf,
                                                    std::vector<ColRefId>{1, 2, 3}));
  }
  PhysPtr base = std::make_shared<AppendNode>(std::move(scans));
  auto baseline = db_.executor.Execute(base);
  ASSERT_TRUE(baseline.ok());

  PhysPtr redist = std::make_shared<MotionNode>(MotionKind::kRedistribute,
                                                std::vector<ColRefId>{1}, base);
  auto moved = db_.executor.Execute(redist);
  ASSERT_TRUE(moved.ok());
  EXPECT_TRUE(SameRows(*baseline, *moved));
  EXPECT_EQ(db_.executor.stats().rows_moved, baseline->size());
}

// An exchange is built once per run and each destination buffer has one
// reader, so a plan whose Motion node has two parents is rejected up front
// with a typed error naming the node — and the executor stays usable.
TEST_F(ExecutorTest, PlanSharingAMotionNodeIsRejected) {
  PhysPtr redist = std::make_shared<MotionNode>(MotionKind::kRedistribute,
                                                std::vector<ColRefId>{1},
                                                OrdersDynamicScan());
  auto selector = std::make_shared<PartitionSelectorNode>(
      orders_->oid, /*scan_id=*/1, std::vector<ColRefId>{1},
      std::vector<ExprPtr>{nullptr}, /*child=*/nullptr);
  auto shared = std::make_shared<SequenceNode>(
      std::vector<PhysPtr>{selector, std::make_shared<AppendNode>(
                                         std::vector<PhysPtr>{redist, redist})});
  auto rejected = db_.executor.Execute(shared);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(rejected.status().message().find("RedistributeMotion([1])"),
            std::string::npos)
      << rejected.status().ToString();
  EXPECT_TRUE(db_.executor.stats() == ExecStats());

  // The same subtree under a single parent runs, on the same executor.
  auto tree = std::make_shared<SequenceNode>(std::vector<PhysPtr>{selector, redist});
  auto result = db_.executor.Execute(tree);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->size(), 24u);
  EXPECT_EQ(db_.executor.stats().rows_moved, 24u);
}

TEST_F(ExecutorTest, InsertThenDeleteWithRowids) {
  const TableDescriptor* t =
      db_.CreatePlainTable("dml_t", Schema({{"x", TypeId::kInt64}}), {0});
  // INSERT VALUES (1),(2),(3)
  auto values = std::make_shared<ValuesNode>(
      std::vector<Row>{{Datum::Int64(1)}, {Datum::Int64(2)}, {Datum::Int64(3)}},
      std::vector<ColRefId>{1});
  auto insert = std::make_shared<InsertNode>(t->oid, 50, values);
  auto ins_result = db_.executor.Execute(insert);
  ASSERT_TRUE(ins_result.ok());
  ASSERT_EQ(ins_result->size(), 1u);
  EXPECT_EQ((*ins_result)[0][0].int64_value(), 3);
  EXPECT_EQ(db_.storage.GetStore(t->oid)->TotalRows(), 3u);

  // DELETE WHERE x >= 2 using rowid-extended scan.
  auto scan = std::make_shared<TableScanNode>(t->oid, t->oid,
                                              std::vector<ColRefId>{1},
                                              std::vector<ColRefId>{60, 61, 62});
  PhysPtr plan = std::make_shared<FilterNode>(
      MakeComparison(CompareOp::kGe, MakeColumnRef(1, "x", TypeId::kInt64), Lit(2)),
      scan);
  plan = std::make_shared<MotionNode>(MotionKind::kGather, std::vector<ColRefId>{},
                                      plan);
  plan = std::make_shared<DeleteNode>(t->oid, std::vector<ColRefId>{60, 61, 62}, 51,
                                      plan);
  auto del_result = db_.executor.Execute(plan);
  ASSERT_TRUE(del_result.ok()) << del_result.status().ToString();
  EXPECT_EQ((*del_result)[0][0].int64_value(), 2);
  EXPECT_EQ(db_.storage.GetStore(t->oid)->TotalRows(), 1u);
}

TEST_F(ExecutorTest, UpdateMovesRowsAcrossPartitions) {
  const TableDescriptor* r = db_.CreateIntPartitionedTable("upd_r", 10);  // b in [0,100)
  db_.Insert(r, {{Datum::Int64(1), Datum::Int64(5)},
                 {Datum::Int64(2), Datum::Int64(15)}});
  Oid part0 = r->partition_scheme->RouteValues({Datum::Int64(5)});
  Oid part9 = r->partition_scheme->RouteValues({Datum::Int64(95)});
  EXPECT_EQ(db_.storage.GetStore(r->oid)->UnitTotalRows(part0), 1u);

  // UPDATE upd_r SET b = 95 WHERE a = 1  (moves the row to the last part).
  auto selector = std::make_shared<PartitionSelectorNode>(
      r->oid, 7, std::vector<ColRefId>{2}, std::vector<ExprPtr>{nullptr}, nullptr);
  auto scan = std::make_shared<DynamicScanNode>(r->oid, 7, std::vector<ColRefId>{1, 2},
                                                std::vector<ColRefId>{60, 61, 62});
  PhysPtr plan = std::make_shared<SequenceNode>(std::vector<PhysPtr>{selector, scan});
  plan = std::make_shared<FilterNode>(
      MakeComparison(CompareOp::kEq, MakeColumnRef(1, "a", TypeId::kInt64), Lit(1)),
      plan);
  plan = std::make_shared<MotionNode>(MotionKind::kGather, std::vector<ColRefId>{},
                                      plan);
  plan = std::make_shared<UpdateNode>(
      r->oid, std::vector<ColRefId>{1, 2}, std::vector<ColRefId>{60, 61, 62},
      std::vector<UpdateSetItem>{{1, Lit(95)}}, 51, plan);
  auto result = db_.executor.Execute(plan);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ((*result)[0][0].int64_value(), 1);
  EXPECT_EQ(db_.storage.GetStore(r->oid)->UnitTotalRows(part0), 0u);
  EXPECT_EQ(db_.storage.GetStore(r->oid)->UnitTotalRows(part9), 1u);
  // Untouched row intact.
  EXPECT_EQ(db_.storage.GetStore(r->oid)->TotalRows(), 2u);
}

TEST_F(ExecutorTest, SelectorPruningNeverChangesResults) {
  // Property: scanning with a static selector == scanning all partitions
  // then filtering, for a range predicate on the partition key.
  ExprPtr pred = Conj({MakeComparison(CompareOp::kGe, DateCol(),
                                      MakeConst(D("2012-03-01"))),
                       MakeComparison(CompareOp::kLt, DateCol(),
                                      MakeConst(D("2013-02-01")))});
  // Pruned plan.
  auto selector = std::make_shared<PartitionSelectorNode>(
      orders_->oid, 1, std::vector<ColRefId>{1}, std::vector<ExprPtr>{pred}, nullptr);
  PhysPtr pruned = std::make_shared<SequenceNode>(
      std::vector<PhysPtr>{selector, OrdersDynamicScan()});
  pruned = std::make_shared<FilterNode>(pred, pruned);
  auto pruned_result = db_.executor.Execute(pruned);
  ASSERT_TRUE(pruned_result.ok());
  size_t pruned_parts = db_.executor.stats().PartitionsScanned(orders_->oid);

  // Unpruned plan.
  std::vector<PhysPtr> scans;
  for (Oid leaf : orders_->partition_scheme->AllLeafOids()) {
    scans.push_back(std::make_shared<TableScanNode>(orders_->oid, leaf,
                                                    std::vector<ColRefId>{1, 2, 3}));
  }
  PhysPtr full = std::make_shared<AppendNode>(std::move(scans));
  full = std::make_shared<FilterNode>(pred, full);
  auto full_result = db_.executor.Execute(full);
  ASSERT_TRUE(full_result.ok());

  EXPECT_TRUE(SameRows(*pruned_result, *full_result));
  EXPECT_EQ(pruned_parts, 11u);
  EXPECT_EQ(db_.executor.stats().PartitionsScanned(orders_->oid), 24u);
}

}  // namespace
}  // namespace mppdb

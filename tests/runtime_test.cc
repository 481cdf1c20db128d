#include <gtest/gtest.h>

#include "runtime/propagation.h"
#include "test_util.h"

namespace mppdb {
namespace {

using testutil::D;
using testutil::TestDb;

// The paper's Table 1 built-ins are PartitionScheme methods
// (partition_expansion = AllLeafOids, partition_selection = RouteValues,
// partition_constraints = Leaves) and PartitionPropagationHub::Push
// (partition_propagation).
class PartitionFunctionsTest : public ::testing::Test {
 protected:
  PartitionFunctionsTest() { orders_ = db_.CreateOrdersTable(24); }
  const PartitionScheme& scheme() const { return *orders_->partition_scheme; }
  TestDb db_{2};
  const TableDescriptor* orders_ = nullptr;
};

TEST_F(PartitionFunctionsTest, PartitionExpansion) {
  // Table 1: partition_expansion(rootOid) returns all child partition OIDs.
  EXPECT_EQ(scheme().AllLeafOids().size(), 24u);
}

TEST_F(PartitionFunctionsTest, PartitionSelection) {
  // Table 1: partition_selection(rootOid, value) = OID of the child holding
  // the value; ⊥ (kInvalidOid) outside the domain.
  const Oid oid = scheme().RouteValues({D("2013-07-04")});
  EXPECT_NE(oid, kInvalidOid);
  EXPECT_EQ(oid, scheme().RouteValues({D("2013-07-01")}));
  EXPECT_EQ(scheme().RouteValues({D("2031-01-01")}), kInvalidOid);
}

TEST_F(PartitionFunctionsTest, PartitionConstraints) {
  // Table 1: partition_constraints(rootOid) returns (OID, interval) rows;
  // Fig. 15(b)'s range-based selection filters over these.
  const std::vector<LeafPartitionInfo>& leaves = scheme().Leaves();
  ASSERT_EQ(leaves.size(), 24u);
  // Count partitions whose range starts before 2012-04-01 — the Fig. 15(b)
  // pattern "range_start < constant": 3 partitions (Jan, Feb, Mar 2012).
  int selected = 0;
  for (const LeafPartitionInfo& leaf : leaves) {
    const Interval& range = leaf.level_constraints[0].intervals()[0];
    if (Datum::Compare(range.lo().value, D("2012-04-01")) < 0) ++selected;
  }
  EXPECT_EQ(selected, 3);
}

TEST(PropagationHubTest, PushFillsOnlyItsOwnChannel) {
  // Table 1: partition_propagation(scanId, oid) pushes into the channel the
  // DynamicScan with that id consumes.
  PartitionPropagationHub hub(2);
  hub.Push(0, 7, 101);
  hub.Push(0, 7, 102);
  hub.Push(0, 7, 101);  // duplicate
  ASSERT_TRUE(hub.HasChannel(0, 7));
  EXPECT_EQ(hub.Selected(0, 7), (std::vector<Oid>{101, 102}));
  // Other segments/scans unaffected.
  EXPECT_FALSE(hub.HasChannel(1, 7));
  EXPECT_FALSE(hub.HasChannel(0, 8));
}

TEST(PropagationHubTest, OpenChannelDistinguishesEmptyFromUnopened) {
  PartitionPropagationHub hub(1);
  EXPECT_FALSE(hub.HasChannel(0, 1));
  hub.OpenChannel(0, 1);
  EXPECT_TRUE(hub.HasChannel(0, 1));
  EXPECT_TRUE(hub.Selected(0, 1).empty());
}

TEST(PropagationHubTest, ResetClearsAllChannels) {
  PartitionPropagationHub hub(2);
  hub.Push(0, 1, 10);
  hub.Push(1, 2, 20);
  hub.Reset();
  EXPECT_FALSE(hub.HasChannel(0, 1));
  EXPECT_FALSE(hub.HasChannel(1, 2));
}

TEST(PropagationHubTest, PreservesFirstPushOrder) {
  PartitionPropagationHub hub(1);
  for (Oid oid : {5, 3, 9, 3, 5, 1}) hub.Push(0, 1, oid);
  EXPECT_EQ(hub.Selected(0, 1), (std::vector<Oid>{5, 3, 9, 1}));
}

}  // namespace
}  // namespace mppdb

#include <gtest/gtest.h>

#include <algorithm>

#include "catalog/catalog.h"
#include "catalog/partition_scheme.h"
#include "common/random.h"
#include "types/row.h"
#include "types/date.h"

namespace mppdb {
namespace {

// Builds the paper's running example: a table partitioned into 24 monthly
// partitions (Fig. 1), optionally subpartitioned by region (Fig. 9).
std::unique_ptr<PartitionScheme> MonthlyScheme(int months = 24, int key_column = 0) {
  Oid next_oid = 1;
  auto root = BuildUniformHierarchy({partition_bounds::Monthly(2012, 1, months)},
                                    &next_oid);
  return std::make_unique<PartitionScheme>(
      std::vector<PartitionLevelDesc>{{key_column, PartitionMethod::kRange}},
      std::move(root));
}

std::unique_ptr<PartitionScheme> MonthlyRegionScheme(int months, int regions) {
  Oid next_oid = 1;
  std::vector<Datum> region_values;
  for (int r = 1; r <= regions; ++r) {
    region_values.push_back(Datum::String("Region " + std::to_string(r)));
  }
  auto root = BuildUniformHierarchy({partition_bounds::Monthly(2012, 1, months),
                                     partition_bounds::ListValues(region_values)},
                                    &next_oid);
  return std::make_unique<PartitionScheme>(
      std::vector<PartitionLevelDesc>{{0, PartitionMethod::kRange},
                                      {1, PartitionMethod::kList}},
      std::move(root));
}

TEST(PartitionSchemeTest, LeafCount) {
  EXPECT_EQ(MonthlyScheme()->NumLeaves(), 24u);
  EXPECT_EQ(MonthlyRegionScheme(24, 3)->NumLeaves(), 72u);
}

TEST(PartitionSchemeTest, RouteTupleToMonth) {
  auto scheme = MonthlyScheme();
  Oid jan = scheme->RouteValues({Datum::DateFromString("2012-01-15")});
  Oid feb = scheme->RouteValues({Datum::DateFromString("2012-02-01")});
  Oid dec13 = scheme->RouteValues({Datum::DateFromString("2013-12-31")});
  EXPECT_NE(jan, kInvalidOid);
  EXPECT_NE(jan, feb);
  EXPECT_NE(dec13, kInvalidOid);
  // Out of the 2-year range: the invalid partition ⊥.
  EXPECT_EQ(scheme->RouteValues({Datum::DateFromString("2014-01-01")}), kInvalidOid);
  EXPECT_EQ(scheme->RouteValues({Datum::DateFromString("2011-12-31")}), kInvalidOid);
  // NULL key maps to ⊥ without a default partition.
  EXPECT_EQ(scheme->RouteValues({Datum::Null()}), kInvalidOid);
}

TEST(PartitionSchemeTest, DefaultPartitionCatchesStrays) {
  Oid next_oid = 1;
  std::vector<PartitionBound> bounds = partition_bounds::Monthly(2012, 1, 3);
  bounds.push_back(PartitionBound::Default("others"));
  auto root = BuildUniformHierarchy({bounds}, &next_oid);
  PartitionScheme scheme({{0, PartitionMethod::kRange}}, std::move(root));
  Oid stray = scheme.RouteValues({Datum::DateFromString("2020-06-01")});
  EXPECT_NE(stray, kInvalidOid);
  // Default partition is always selected conservatively.
  ConstraintSet jan_only = ConstraintSet::FromComparison(
      CompareOp::kEq, Datum::DateFromString("2012-01-10"));
  std::vector<Oid> selected = scheme.SelectPartitions({jan_only});
  EXPECT_EQ(selected.size(), 2u);  // january + default
  EXPECT_NE(std::find(selected.begin(), selected.end(), stray), selected.end());
}

TEST(PartitionSchemeTest, SelectByEquality) {
  auto scheme = MonthlyScheme();
  ConstraintSet eq = ConstraintSet::FromComparison(CompareOp::kEq,
                                                   Datum::DateFromString("2013-05-20"));
  std::vector<Oid> selected = scheme->SelectPartitions({eq});
  ASSERT_EQ(selected.size(), 1u);
  EXPECT_EQ(selected[0], scheme->RouteValues({Datum::DateFromString("2013-05-01")}));
}

TEST(PartitionSchemeTest, SelectByRangeLastQuarter) {
  // The paper's Fig. 2 query: last quarter of 2013 = 3 of 24 partitions.
  auto scheme = MonthlyScheme();
  ConstraintSet q4 = ConstraintSet::FromInterval(
      Interval::Closed(Datum::DateFromString("2013-10-01"),
                       Datum::DateFromString("2013-12-31")));
  EXPECT_EQ(scheme->SelectPartitions({q4}).size(), 3u);
}

TEST(PartitionSchemeTest, SelectAllWhenUnconstrained) {
  auto scheme = MonthlyScheme();
  EXPECT_EQ(scheme->SelectPartitions({}).size(), 24u);
  EXPECT_EQ(scheme->SelectPartitions({ConstraintSet::All()}).size(), 24u);
  EXPECT_TRUE(scheme->SelectPartitions({ConstraintSet::None()}).empty());
}

TEST(PartitionSchemeTest, MultiLevelSelection) {
  // Paper Fig. 10: date eq selects one month's region partitions; region eq
  // selects that region across all months; both select exactly one leaf.
  auto scheme = MonthlyRegionScheme(24, 4);
  ConstraintSet jan = ConstraintSet::FromComparison(
      CompareOp::kEq, Datum::DateFromString("2012-01-05"));
  ConstraintSet region1 =
      ConstraintSet::FromComparison(CompareOp::kEq, Datum::String("Region 1"));

  EXPECT_EQ(scheme->SelectPartitions({jan}).size(), 4u);
  EXPECT_EQ(scheme->SelectPartitions({ConstraintSet::All(), region1}).size(), 24u);
  EXPECT_EQ(scheme->SelectPartitions({jan, region1}).size(), 1u);
  EXPECT_EQ(scheme->SelectPartitions({}).size(), 96u);
}

TEST(PartitionSchemeTest, MultiLevelRouting) {
  auto scheme = MonthlyRegionScheme(2, 2);
  Oid a = scheme->RouteValues({Datum::DateFromString("2012-01-10"),
                               Datum::String("Region 1")});
  Oid b = scheme->RouteValues({Datum::DateFromString("2012-01-10"),
                               Datum::String("Region 2")});
  Oid c = scheme->RouteValues({Datum::DateFromString("2012-02-10"),
                               Datum::String("Region 1")});
  EXPECT_NE(a, kInvalidOid);
  EXPECT_NE(a, b);
  EXPECT_NE(a, c);
  EXPECT_EQ(scheme->RouteValues({Datum::DateFromString("2012-01-10"),
                                 Datum::String("Region 9")}),
            kInvalidOid);
}

TEST(PartitionSchemeTest, LeafInfoConstraints) {
  auto scheme = MonthlyScheme(3);
  const auto& leaves = scheme->Leaves();
  ASSERT_EQ(leaves.size(), 3u);
  EXPECT_TRUE(leaves[0].level_constraints[0].Contains(
      Datum::DateFromString("2012-01-31")));
  EXPECT_FALSE(leaves[0].level_constraints[0].Contains(
      Datum::DateFromString("2012-02-01")));
  EXPECT_TRUE(scheme->IsLeafOid(leaves[2].oid));
  EXPECT_FALSE(scheme->IsLeafOid(99999));
}

// Soundness property of f*_T (the core pruning invariant): any value routed
// to leaf L by f_T and satisfying constraint c implies L ∈ f*_T(c).
TEST(PartitionSchemePropertyTest, SelectionCoversRouting) {
  Random rng(99);
  auto scheme = MonthlyRegionScheme(12, 3);
  for (int trial = 0; trial < 500; ++trial) {
    int32_t day = date::FromYMD(2012, 1, 1) + static_cast<int32_t>(rng.Uniform(366));
    std::string region = "Region " + std::to_string(1 + rng.Uniform(3));
    Datum date_val = Datum::Date(day);
    Datum region_val = Datum::String(region);
    Oid routed = scheme->RouteValues({date_val, region_val});
    ASSERT_NE(routed, kInvalidOid);

    // Random range constraint on date; point constraint on region.
    int32_t lo = date::FromYMD(2012, 1, 1) + static_cast<int32_t>(rng.Uniform(366));
    int32_t hi = lo + static_cast<int32_t>(rng.Uniform(120));
    ConstraintSet date_c =
        ConstraintSet::FromInterval(Interval::Closed(Datum::Date(lo), Datum::Date(hi)));
    ConstraintSet region_c = ConstraintSet::FromComparison(CompareOp::kEq, region_val);

    bool satisfies = date_c.Contains(date_val);
    std::vector<Oid> selected = scheme->SelectPartitions({date_c, region_c});
    bool in_selected =
        std::find(selected.begin(), selected.end(), routed) != selected.end();
    if (satisfies) {
      EXPECT_TRUE(in_selected)
          << "leaf holding a qualifying tuple was pruned (unsound)";
    }
  }
}

TEST(CatalogTest, CreateAndLookup) {
  Catalog catalog;
  Schema schema({{"id", TypeId::kInt64}, {"amount", TypeId::kDouble}});
  auto oid = catalog.CreateTable("plain", schema, TableDistribution::kHashed, {0});
  ASSERT_TRUE(oid.ok());
  EXPECT_NE(catalog.FindTable("plain"), nullptr);
  EXPECT_EQ(catalog.FindTable(*oid)->name, "plain");
  EXPECT_EQ(catalog.FindTable("absent"), nullptr);
  // Duplicate name rejected.
  EXPECT_FALSE(catalog.CreateTable("plain", schema, TableDistribution::kRandom, {}).ok());
  // Hash distribution without columns rejected.
  EXPECT_FALSE(catalog.CreateTable("bad", schema, TableDistribution::kHashed, {}).ok());
  // Bad column index rejected.
  EXPECT_FALSE(catalog.CreateTable("bad2", schema, TableDistribution::kHashed, {7}).ok());
}

TEST(CatalogTest, CreatePartitionedTable) {
  Catalog catalog;
  Schema schema({{"date", TypeId::kDate}, {"amount", TypeId::kDouble}});
  auto oid = catalog.CreatePartitionedTable(
      "orders", schema, TableDistribution::kHashed, {1},
      {{0, PartitionMethod::kRange}}, {partition_bounds::Monthly(2012, 1, 24)});
  ASSERT_TRUE(oid.ok());
  const TableDescriptor* table = catalog.FindTable("orders");
  ASSERT_NE(table, nullptr);
  ASSERT_TRUE(table->IsPartitioned());
  EXPECT_EQ(table->partition_scheme->NumLeaves(), 24u);
  EXPECT_EQ(table->PartitionKeyColumns(), std::vector<int>{0});
  // Partition OIDs are distinct from the table OID.
  for (Oid leaf : table->partition_scheme->AllLeafOids()) {
    EXPECT_NE(leaf, table->oid);
  }
}

// --- The route index against a linear oracle -------------------------------

// The first-match walk f_T used before the route index: test every sibling
// in declaration order; a NULL key or no match falls to the default child.
Oid OracleRoute(const PartitionNode& node, size_t level,
                const std::vector<Datum>& keys) {
  const Datum& key = keys[level];
  const PartitionNode* match = nullptr;
  const PartitionNode* default_part = nullptr;
  for (const auto& child : node.children) {
    if (child->bound.is_default) {
      default_part = child.get();
    } else if (!key.is_null() && child->bound.constraint.Contains(key)) {
      match = child.get();
      break;
    }
  }
  if (match == nullptr) match = default_part;
  if (match == nullptr) return kInvalidOid;
  if (match->IsLeaf()) return match->oid;
  return OracleRoute(*match, level + 1, keys);
}

// The linear f*_T used before the route index: intersect every sibling.
void OracleSelect(const PartitionNode& node, size_t level,
                  const std::vector<ConstraintSet>& constraints, std::vector<Oid>* out) {
  const ConstraintSet* c = level < constraints.size() ? &constraints[level] : nullptr;
  for (const auto& child : node.children) {
    bool qualifies;
    if (c == nullptr || c->IsAll()) {
      qualifies = true;
    } else if (c->IsNone()) {
      qualifies = false;
    } else if (child->bound.is_default) {
      qualifies = true;
    } else {
      qualifies = false;
      for (const Interval& in : child->bound.constraint.intervals()) {
        if (c->Overlaps(in)) {
          qualifies = true;
          break;
        }
      }
    }
    if (!qualifies) continue;
    if (child->IsLeaf()) {
      out->push_back(child->oid);
    } else {
      OracleSelect(*child, level + 1, constraints, out);
    }
  }
}

std::unique_ptr<PartitionNode> Clone(const PartitionNode& node) {
  auto copy = std::make_unique<PartitionNode>();
  copy->oid = node.oid;
  copy->bound = node.bound;
  for (const auto& child : node.children) copy->children.push_back(Clone(*child));
  return copy;
}

// The numeric domains a level's bounds and keys are drawn from: an integral
// point v is Int32(v), Int64(v), Date(v) or Double(v) (doubles also take
// v + 0.5 between the integral points).
enum class Domain { kInt32, kInt64, kDate, kDouble };

Datum InDomain(Domain domain, double v) {
  switch (domain) {
    case Domain::kInt32:
      return Datum::Int32(static_cast<int32_t>(v));
    case Domain::kInt64:
      return Datum::Int64(static_cast<int64_t>(v));
    case Domain::kDate:
      return Datum::Date(static_cast<int32_t>(v));
    case Domain::kDouble:
      return Datum::Double(v);
  }
  return Datum::Null();
}

struct LevelSpec {
  PartitionMethod method;
  Domain bound_domain;
};

// Disjoint random sibling bounds in declaration order shuffled away from
// key order. Range levels cut [0, 60] at distinct points, keep each piece
// with probability 3/4 (the rest are gaps), give each cut point to its left
// or right piece (so every inclusive/exclusive edge pairing occurs), and may
// open either end. List levels draw 1-3 values per sibling without
// replacement, and may add a sibling whose bound is empty.
std::vector<PartitionBound> RandomSiblings(Random* rng, const LevelSpec& spec) {
  std::vector<PartitionBound> bounds;
  auto value = [&](int64_t v) { return InDomain(spec.bound_domain, static_cast<double>(v)); };
  if (spec.method == PartitionMethod::kRange) {
    std::vector<int64_t> cuts;
    for (int64_t v = 0; v <= 60; ++v) {
      if (rng->Uniform(6) == 0) cuts.push_back(v);
    }
    if (cuts.size() < 2) cuts = {10, 20};
    std::vector<bool> goes_left(cuts.size());
    for (size_t i = 0; i < cuts.size(); ++i) goes_left[i] = rng->Uniform(2) == 0;
    const bool open_lo = rng->Uniform(4) == 0;
    const bool open_hi = rng->Uniform(4) == 0;
    for (size_t i = 0; i + 1 < cuts.size(); ++i) {
      if (rng->Uniform(4) == 0) continue;  // a gap
      IntervalBound lo = goes_left[i] ? IntervalBound::Exclusive(value(cuts[i]))
                                      : IntervalBound::Inclusive(value(cuts[i]));
      IntervalBound hi = goes_left[i + 1] ? IntervalBound::Inclusive(value(cuts[i + 1]))
                                          : IntervalBound::Exclusive(value(cuts[i + 1]));
      if (i == 0 && open_lo) lo = IntervalBound::Unbounded();
      if (i + 2 == cuts.size() && open_hi) hi = IntervalBound::Unbounded();
      PartitionBound bound;
      bound.constraint = ConstraintSet::FromInterval(Interval(lo, hi));
      bound.name = "r" + std::to_string(i);
      bounds.push_back(std::move(bound));
    }
  } else {
    std::vector<int64_t> pool;
    for (int64_t v = 0; v <= 30; v += 1 + static_cast<int64_t>(rng->Uniform(3))) {
      pool.push_back(v);
    }
    for (size_t i = pool.size(); i > 1; --i) std::swap(pool[i - 1], pool[rng->Uniform(i)]);
    size_t next = 0;
    const size_t siblings = 1 + rng->Uniform(8);
    for (size_t s = 0; s < siblings && next < pool.size(); ++s) {
      std::vector<Datum> values;
      const size_t count = 1 + rng->Uniform(3);
      for (size_t k = 0; k < count && next < pool.size(); ++k) {
        values.push_back(value(pool[next++]));
      }
      bounds.push_back(PartitionBound::List(std::move(values), "l" + std::to_string(s)));
    }
    if (rng->Uniform(5) == 0) {
      bounds.push_back(PartitionBound::List({Datum::Null()}, "empty"));
    }
  }
  if (bounds.empty() || rng->Uniform(3) == 0) {
    bounds.push_back(PartitionBound::Default("other"));
  }
  for (size_t i = bounds.size(); i > 1; --i) std::swap(bounds[i - 1], bounds[rng->Uniform(i)]);
  return bounds;
}

// A non-uniform hierarchy: every interior node draws its own siblings.
void AddRandomChildren(Random* rng, const std::vector<LevelSpec>& specs, size_t level,
                       PartitionNode* node, Oid* next_oid) {
  if (level == specs.size()) return;
  for (PartitionBound& bound : RandomSiblings(rng, specs[level])) {
    auto child = std::make_unique<PartitionNode>();
    child->oid = (*next_oid)++;
    child->bound = std::move(bound);
    AddRandomChildren(rng, specs, level + 1, child.get(), next_oid);
    node->children.push_back(std::move(child));
  }
}

// A probe key for a level: often a cut-point candidate (every integral
// point in [-2, 62] is one), sometimes between points, sometimes NULL, and
// in a domain that may differ from the bounds' (an int32 key against int64
// bounds, a double key against integral bounds, integral keys against
// double bounds).
Datum RandomKey(Random* rng, Domain bound_domain) {
  if (rng->Uniform(12) == 0) return Datum::Null();
  const double v = static_cast<double>(rng->UniformRange(-2, 62));
  if (bound_domain == Domain::kDate) {
    return Datum::Date(static_cast<int32_t>(v));
  }
  switch (rng->Uniform(4)) {
    case 0:
      return Datum::Int32(static_cast<int32_t>(v));
    case 1:
      return Datum::Int64(static_cast<int64_t>(v));
    case 2:
      return Datum::Double(v);
    default:
      return Datum::Double(v + 0.5);
  }
}

Interval RandomInterval(Random* rng, Domain domain) {
  auto point = [&] { return RandomKey(rng, domain); };
  Datum a = point();
  Datum b = point();
  while (a.is_null()) a = point();
  while (b.is_null()) b = point();
  if (Datum::Compare(b, a) < 0) std::swap(a, b);
  switch (rng->Uniform(7)) {
    case 0:
      return Interval::Point(a);
    case 1:
      return Interval::LessThan(a);
    case 2:
      return Interval::AtMost(a);
    case 3:
      return Interval::GreaterThan(a);
    case 4:
      return Interval::AtLeast(a);
    case 5:
      return Interval::RightOpen(a, b);
    default:
      return Interval::Closed(a, b);
  }
}

ConstraintSet RandomConstraint(Random* rng, Domain domain) {
  switch (rng->Uniform(8)) {
    case 0:
      return ConstraintSet::All();
    case 1:
      return ConstraintSet::None();
    default: {
      ConstraintSet set = ConstraintSet::None();
      const size_t intervals = 1 + rng->Uniform(4);
      for (size_t i = 0; i < intervals; ++i) {
        set = set.Union(ConstraintSet::FromInterval(RandomInterval(rng, domain)));
      }
      return set;
    }
  }
}

TEST(PartitionSchemePropertyTest, RouteIndexMatchesLinearOracle) {
  Random rng(2014);
  const Domain domains[] = {Domain::kInt32, Domain::kInt64, Domain::kDate,
                            Domain::kDouble};
  for (int trial = 0; trial < 300; ++trial) {
    std::vector<LevelSpec> specs(1 + rng.Uniform(3));
    for (LevelSpec& spec : specs) {
      spec.method = rng.Uniform(2) == 0 ? PartitionMethod::kRange : PartitionMethod::kList;
      spec.bound_domain = domains[rng.Uniform(4)];
    }
    // Level i's key sits at column (i + shift) % width of a row with one
    // filler column, so RouteTuple must read the right positions.
    const size_t width = specs.size() + 1;
    const size_t shift = rng.Uniform(width);
    std::vector<PartitionLevelDesc> levels;
    for (size_t i = 0; i < specs.size(); ++i) {
      levels.push_back({static_cast<int>((i + shift) % width), specs[i].method});
    }
    Oid next_oid = 1;
    auto root = std::make_unique<PartitionNode>();
    root->oid = next_oid++;
    AddRandomChildren(&rng, specs, 0, root.get(), &next_oid);
    const std::unique_ptr<PartitionNode> oracle = Clone(*root);
    const PartitionScheme scheme(levels, std::move(root));
    SCOPED_TRACE("trial " + std::to_string(trial));

    for (int probe = 0; probe < 60; ++probe) {
      std::vector<Datum> keys;
      Row row(width, Datum::Int64(-7));
      for (size_t i = 0; i < specs.size(); ++i) {
        keys.push_back(RandomKey(&rng, specs[i].bound_domain));
        row[static_cast<size_t>(levels[i].key_column)] = keys.back();
      }
      const Oid expected = OracleRoute(*oracle, 0, keys);
      ASSERT_EQ(scheme.RouteValues(keys), expected) << RowToString(row);
      ASSERT_EQ(scheme.RouteTuple(row), expected) << RowToString(row);
      const size_t leaf = scheme.RouteTupleLeaf(row);
      if (expected == kInvalidOid) {
        ASSERT_EQ(leaf, PartitionScheme::kNoLeaf);
      } else {
        ASSERT_LT(leaf, scheme.NumLeaves());
        ASSERT_EQ(scheme.Leaves()[leaf].oid, expected);
      }
    }

    for (int query = 0; query < 30; ++query) {
      std::vector<ConstraintSet> constraints;
      const size_t given = rng.Uniform(specs.size() + 1);  // missing levels are All
      for (size_t i = 0; i < given; ++i) {
        constraints.push_back(RandomConstraint(&rng, specs[i].bound_domain));
      }
      std::vector<Oid> expected;
      OracleSelect(*oracle, 0, constraints, &expected);
      std::string shown;
      for (const ConstraintSet& c : constraints) shown += c.ToString() + " ";
      ASSERT_EQ(scheme.SelectPartitions(constraints), expected) << shown;
    }

    for (Oid oid = 0; oid <= next_oid; ++oid) {
      bool is_leaf = false;
      for (const LeafPartitionInfo& info : scheme.Leaves()) is_leaf |= info.oid == oid;
      ASSERT_EQ(scheme.IsLeafOid(oid), is_leaf) << oid;
    }
  }
}

// --- Typed DDL validation -----------------------------------------------------

TEST(CatalogTest, OverlappingSiblingBoundsRejectedBeforeCreating) {
  Catalog catalog;
  Schema schema({{"id", TypeId::kInt64}, {"k", TypeId::kInt64}});
  std::vector<PartitionBound> bounds = partition_bounds::IntRanges(0, 10, 3);
  bounds.push_back(PartitionBound::Range(Datum::Int64(25), Datum::Int64(40), "late"));
  const Oid before = catalog.NextOid();
  auto oid = catalog.CreatePartitionedTable("t", schema, TableDistribution::kHashed, {0},
                                            {{1, PartitionMethod::kRange}}, {bounds});
  ASSERT_FALSE(oid.ok());
  EXPECT_EQ(oid.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(oid.status().message().find("overlapping"), std::string::npos)
      << oid.status().ToString();
  EXPECT_EQ(catalog.FindTable("t"), nullptr);
  EXPECT_EQ(catalog.NextOid(), before + 1);  // the rejected table took no OIDs

  // Bounds that only touch ([20, 30) then [30, 40)) are disjoint.
  bounds.back() = PartitionBound::Range(Datum::Int64(30), Datum::Int64(40), "late");
  EXPECT_TRUE(catalog
                  .CreatePartitionedTable("t", schema, TableDistribution::kHashed, {0},
                                          {{1, PartitionMethod::kRange}}, {bounds})
                  .ok());
}

TEST(CatalogTest, OverlapAtASecondLevelRejected) {
  Catalog catalog;
  Schema schema({{"k", TypeId::kInt64}, {"r", TypeId::kInt32}});
  auto oid = catalog.CreatePartitionedTable(
      "t", schema, TableDistribution::kHashed, {0},
      {{0, PartitionMethod::kRange}, {1, PartitionMethod::kList}},
      {partition_bounds::IntRanges(0, 10, 2),
       {PartitionBound::List({Datum::Int32(1), Datum::Int32(2)}, "a"),
        PartitionBound::List({Datum::Int32(3), Datum::Int32(2)}, "b")}});
  ASSERT_FALSE(oid.ok());
  EXPECT_EQ(oid.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(catalog.FindTable("t"), nullptr);
}

TEST(CatalogTest, IncomparableBoundValueRejected) {
  Catalog catalog;
  Schema schema({{"id", TypeId::kInt64}, {"k", TypeId::kInt64}});
  auto oid = catalog.CreatePartitionedTable(
      "t", schema, TableDistribution::kHashed, {0}, {{1, PartitionMethod::kList}},
      {{PartitionBound::List({Datum::Int64(1)}, "one"),
        PartitionBound::List({Datum::String("two")}, "two")}});
  ASSERT_FALSE(oid.ok());
  EXPECT_EQ(oid.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(oid.status().message().find("not comparable"), std::string::npos)
      << oid.status().ToString();
  EXPECT_EQ(catalog.FindTable("t"), nullptr);

  // Numeric bounds of another numeric type compare fine: an int32 key
  // against int64 bounds, a double key against integral bounds.
  Schema mixed({{"i", TypeId::kInt32}, {"d", TypeId::kDouble}});
  EXPECT_TRUE(catalog
                  .CreatePartitionedTable(
                      "mixed", mixed, TableDistribution::kHashed, {0},
                      {{0, PartitionMethod::kRange}, {1, PartitionMethod::kRange}},
                      {partition_bounds::IntRanges(0, 10, 3),
                       partition_bounds::IntRanges(0, 5, 2)})
                  .ok());
}

TEST(CatalogTest, SecondDefaultPartitionRejected) {
  Catalog catalog;
  Schema schema({{"k", TypeId::kInt64}});
  std::vector<PartitionBound> bounds = partition_bounds::IntRanges(0, 10, 2);
  bounds.push_back(PartitionBound::Default("d1"));
  bounds.push_back(PartitionBound::Default("d2"));
  auto oid = catalog.CreatePartitionedTable("t", schema, TableDistribution::kRandom, {},
                                            {{0, PartitionMethod::kRange}}, {bounds});
  ASSERT_FALSE(oid.ok());
  EXPECT_EQ(oid.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace mppdb

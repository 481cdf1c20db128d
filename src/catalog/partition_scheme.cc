#include "catalog/partition_scheme.h"

#include <algorithm>

#include "common/macros.h"
#include "types/date.h"

namespace mppdb {

PartitionBound PartitionBound::Range(Datum lo_inclusive, Datum hi_exclusive,
                                     std::string name) {
  PartitionBound bound;
  bound.constraint = ConstraintSet::FromInterval(
      Interval::RightOpen(std::move(lo_inclusive), std::move(hi_exclusive)));
  bound.name = std::move(name);
  return bound;
}

PartitionBound PartitionBound::List(std::vector<Datum> values, std::string name) {
  PartitionBound bound;
  bound.constraint = ConstraintSet::FromPoints(std::move(values));
  bound.name = std::move(name);
  return bound;
}

PartitionBound PartitionBound::Default(std::string name) {
  PartitionBound bound;
  bound.is_default = true;
  bound.name = std::move(name);
  return bound;
}

namespace {

// True if lower bound `a` starts before lower bound `b`.
bool StartsBefore(const IntervalBound& a, const IntervalBound& b) {
  if (a.unbounded || b.unbounded) return a.unbounded && !b.unbounded;
  int cmp = Datum::Compare(a.value, b.value);
  return cmp < 0 || (cmp == 0 && a.inclusive && !b.inclusive);
}

// True if no value is both at or below upper bound `hi` and at or above
// lower bound `lo`: an interval ending at `hi` ends before one starting at
// `lo` begins.
bool EndsBefore(const IntervalBound& hi, const IntervalBound& lo) {
  if (hi.unbounded || lo.unbounded) return false;
  int cmp = Datum::Compare(hi.value, lo.value);
  return cmp < 0 || (cmp == 0 && !(hi.inclusive && lo.inclusive));
}

// True if the non-null `key` is at or above lower bound `lo`.
bool StartsAtOrBelow(const IntervalBound& lo, const Datum& key) {
  if (lo.unbounded) return true;
  int cmp = Datum::Compare(lo.value, key);
  return cmp < 0 || (cmp == 0 && lo.inclusive);
}

// Sorts sibling intervals by lower bound and returns the position of the
// first one that overlaps its predecessor, or entries->size() if they are
// pairwise disjoint (sorted by start, a non-overlapping neighbour ends
// before the next one starts).
template <typename Entry>
size_t SortAndFindOverlap(std::vector<Entry>* entries) {
  std::stable_sort(entries->begin(), entries->end(), [](const Entry& a, const Entry& b) {
    return StartsBefore(a.interval->lo(), b.interval->lo());
  });
  for (size_t i = 1; i < entries->size(); ++i) {
    if (!EndsBefore((*entries)[i - 1].interval->hi(), (*entries)[i].interval->lo())) {
      return i;
    }
  }
  return entries->size();
}

}  // namespace

PartitionScheme::PartitionScheme(std::vector<PartitionLevelDesc> levels,
                                 std::unique_ptr<PartitionNode> root)
    : levels_(std::move(levels)), root_(std::move(root)) {
  MPPDB_CHECK(!levels_.empty());
  MPPDB_CHECK(root_ != nullptr);
  std::vector<ConstraintSet> path;
  std::string name_path;
  Compile(*root_, 0, &path, &name_path);
  sorted_leaf_oids_ = AllLeafOids();
  std::sort(sorted_leaf_oids_.begin(), sorted_leaf_oids_.end());
}

uint32_t PartitionScheme::Compile(const PartitionNode& node, size_t depth,
                                  std::vector<ConstraintSet>* path,
                                  std::string* name_path) {
  const auto id = static_cast<uint32_t>(nodes_.size());
  nodes_.emplace_back();
  if (depth > 0 && node.IsLeaf()) {
    MPPDB_CHECK(depth == levels_.size());
    nodes_[id].leaf = leaves_.size();
    leaves_.push_back(LeafPartitionInfo{node.oid, *name_path, *path});
    return id;
  }
  std::vector<RouteEntry> entries;
  for (const auto& child : node.children) {
    path->push_back(child->bound.is_default ? ConstraintSet::All()
                                            : child->bound.constraint);
    size_t name_len = name_path->size();
    if (!name_path->empty()) *name_path += "/";
    *name_path += child->bound.name;
    const uint32_t child_id = Compile(*child, depth + 1, path, name_path);
    path->pop_back();
    name_path->resize(name_len);
    nodes_[id].children.push_back(child_id);
    if (child->bound.is_default) {
      MPPDB_CHECK(nodes_[id].default_child < 0);  // one default per node
      nodes_[id].default_child = child_id;
    } else {
      for (const Interval& in : child->bound.constraint.intervals()) {
        entries.push_back(RouteEntry{&in, child_id});
      }
    }
  }
  // f_T's binary search needs disjoint siblings (ValidateSiblingBounds).
  MPPDB_CHECK(SortAndFindOverlap(&entries) == entries.size());
  nodes_[id].entries = std::move(entries);
  return id;
}

int64_t PartitionScheme::RouteStep(uint32_t id, const Datum& key) const {
  const IndexNode& node = nodes_[id];
  if (!key.is_null()) {
    // The last sibling interval starting at or below the key is the only
    // one that can contain it.
    auto it = std::partition_point(
        node.entries.begin(), node.entries.end(),
        [&key](const RouteEntry& e) { return StartsAtOrBelow(e.interval->lo(), key); });
    if (it != node.entries.begin() && std::prev(it)->interval->Contains(key)) {
      return std::prev(it)->child;
    }
  }
  return node.default_child;  // -1 is the paper's ⊥
}

template <typename KeyAt>
size_t PartitionScheme::RouteLeaf(KeyAt key_at) const {
  uint32_t id = 0;
  for (size_t level = 0; level < levels_.size(); ++level) {
    const int64_t child = RouteStep(id, key_at(level));
    if (child < 0) return kNoLeaf;
    id = static_cast<uint32_t>(child);
  }
  return nodes_[id].leaf;
}

size_t PartitionScheme::RouteTupleLeaf(const Row& row) const {
  return RouteLeaf([&](size_t level) -> const Datum& {
    return row[static_cast<size_t>(levels_[level].key_column)];
  });
}

Oid PartitionScheme::RouteTuple(const Row& row) const {
  const size_t leaf = RouteTupleLeaf(row);
  return leaf == kNoLeaf ? kInvalidOid : leaves_[leaf].oid;
}

Oid PartitionScheme::RouteValues(const std::vector<Datum>& key_values) const {
  MPPDB_CHECK(key_values.size() == levels_.size());
  const size_t leaf =
      RouteLeaf([&](size_t level) -> const Datum& { return key_values[level]; });
  return leaf == kNoLeaf ? kInvalidOid : leaves_[leaf].oid;
}

std::vector<Oid> PartitionScheme::SelectPartitions(
    const std::vector<ConstraintSet>& constraints) const {
  std::vector<Oid> out;
  SelectFrom(0, 0, constraints, &out);
  return out;
}

void PartitionScheme::SelectFrom(uint32_t id, size_t level,
                                 const std::vector<ConstraintSet>& constraints,
                                 std::vector<Oid>* out) const {
  const IndexNode& node = nodes_[id];
  if (node.leaf != kNoLeaf) {
    out->push_back(leaves_[node.leaf].oid);
    return;
  }
  const ConstraintSet* level_constraint =
      level < constraints.size() ? &constraints[level] : nullptr;
  if (level_constraint == nullptr || level_constraint->IsAll()) {
    for (uint32_t child : node.children) SelectFrom(child, level + 1, constraints, out);
    return;
  }
  std::vector<uint32_t> picked;
  for (const Interval& in : level_constraint->intervals()) {
    // Siblings before the first one not ending before `in` starts cannot
    // overlap it; from there, every sibling that starts before `in` ends
    // does.
    auto it = std::partition_point(
        node.entries.begin(), node.entries.end(),
        [&in](const RouteEntry& e) { return EndsBefore(e.interval->hi(), in.lo()); });
    for (; it != node.entries.end() && !EndsBefore(in.hi(), it->interval->lo()); ++it) {
      picked.push_back(it->child);
    }
  }
  // A default partition may hold any value not claimed by siblings; proving
  // exclusion would need complement reasoning, so keep it unless the
  // constraint is None.
  if (!level_constraint->IsNone() && node.default_child >= 0) {
    picked.push_back(static_cast<uint32_t>(node.default_child));
  }
  // Child ids ascend in declaration order: emit in hierarchy order.
  std::sort(picked.begin(), picked.end());
  picked.erase(std::unique(picked.begin(), picked.end()), picked.end());
  for (uint32_t child : picked) SelectFrom(child, level + 1, constraints, out);
}

std::vector<Oid> PartitionScheme::AllLeafOids() const {
  std::vector<Oid> out;
  out.reserve(leaves_.size());
  for (const auto& leaf : leaves_) out.push_back(leaf.oid);
  return out;
}

bool PartitionScheme::IsLeafOid(Oid oid) const {
  return std::binary_search(sorted_leaf_oids_.begin(), sorted_leaf_oids_.end(), oid);
}

Status ValidateSiblingBounds(const std::vector<PartitionBound>& bounds, TypeId key_type) {
  struct Entry {
    const Interval* interval;
    const PartitionBound* bound;
  };
  std::vector<Entry> entries;
  const PartitionBound* default_bound = nullptr;
  for (const PartitionBound& bound : bounds) {
    if (bound.is_default) {
      if (default_bound != nullptr) {
        return Status::InvalidArgument("partitions '" + default_bound->name + "' and '" +
                                       bound.name + "' are both DEFAULT");
      }
      default_bound = &bound;
      continue;
    }
    for (const Interval& in : bound.constraint.intervals()) {
      for (const IntervalBound* end : {&in.lo(), &in.hi()}) {
        if (!end->unbounded && !end->value.is_null() &&
            !TypesComparable(end->value.type(), key_type)) {
          return Status::InvalidArgument(
              "partition '" + bound.name + "' bound " + end->value.ToString() + " (" +
              TypeIdToString(end->value.type()) + ") is not comparable with the " +
              TypeIdToString(key_type) + " partition key");
        }
      }
      entries.push_back(Entry{&in, &bound});
    }
  }
  const size_t overlap = SortAndFindOverlap(&entries);
  if (overlap < entries.size()) {
    return Status::InvalidArgument("partitions '" + entries[overlap - 1].bound->name +
                                   "' and '" + entries[overlap].bound->name +
                                   "' have overlapping bounds " +
                                   entries[overlap - 1].interval->ToString() + " and " +
                                   entries[overlap].interval->ToString());
  }
  return Status::OK();
}

namespace partition_bounds {

std::vector<PartitionBound> Monthly(int start_year, int start_month, int count) {
  std::vector<PartitionBound> bounds;
  bounds.reserve(static_cast<size_t>(count));
  int year = start_year, month = start_month;
  for (int i = 0; i < count; ++i) {
    int next_year = year, next_month = month + 1;
    if (next_month > 12) {
      next_month = 1;
      ++next_year;
    }
    char name[32];
    std::snprintf(name, sizeof(name), "m%04d_%02d", year, month);
    bounds.push_back(PartitionBound::Range(Datum::Date(date::FromYMD(year, month, 1)),
                                           Datum::Date(date::FromYMD(next_year, next_month, 1)),
                                           name));
    year = next_year;
    month = next_month;
  }
  return bounds;
}

std::vector<PartitionBound> DateRanges(int start_year, int start_month, int start_day,
                                       int count, int width_days) {
  std::vector<PartitionBound> bounds;
  bounds.reserve(static_cast<size_t>(count));
  int32_t lo = date::FromYMD(start_year, start_month, start_day);
  for (int i = 0; i < count; ++i) {
    int32_t hi = lo + width_days;
    bounds.push_back(PartitionBound::Range(Datum::Date(lo), Datum::Date(hi),
                                           "d" + std::to_string(i)));
    lo = hi;
  }
  return bounds;
}

std::vector<PartitionBound> IntRanges(int64_t lo, int64_t step, int count) {
  std::vector<PartitionBound> bounds;
  bounds.reserve(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) {
    int64_t start = lo + step * i;
    bounds.push_back(PartitionBound::Range(Datum::Int64(start), Datum::Int64(start + step),
                                           "r" + std::to_string(i)));
  }
  return bounds;
}

std::vector<PartitionBound> ListValues(const std::vector<Datum>& values) {
  std::vector<PartitionBound> bounds;
  bounds.reserve(values.size());
  for (size_t i = 0; i < values.size(); ++i) {
    bounds.push_back(PartitionBound::List({values[i]}, "v" + std::to_string(i)));
  }
  return bounds;
}

}  // namespace partition_bounds

namespace {

void AddLevel(PartitionNode* node, size_t level,
              const std::vector<std::vector<PartitionBound>>& bounds_per_level,
              Oid* next_oid) {
  if (level >= bounds_per_level.size()) return;
  for (const PartitionBound& bound : bounds_per_level[level]) {
    auto child = std::make_unique<PartitionNode>();
    child->oid = (*next_oid)++;
    child->bound = bound;
    AddLevel(child.get(), level + 1, bounds_per_level, next_oid);
    node->children.push_back(std::move(child));
  }
}

}  // namespace

std::unique_ptr<PartitionNode> BuildUniformHierarchy(
    const std::vector<std::vector<PartitionBound>>& bounds_per_level, Oid* next_oid) {
  auto root = std::make_unique<PartitionNode>();
  root->oid = (*next_oid)++;
  root->bound = PartitionBound::Default("root");
  root->bound.is_default = false;
  AddLevel(root.get(), 0, bounds_per_level, next_oid);
  return root;
}

}  // namespace mppdb

#ifndef MPPDB_CATALOG_PARTITION_SCHEME_H_
#define MPPDB_CATALOG_PARTITION_SCHEME_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "expr/interval.h"
#include "types/datum.h"
#include "types/row.h"
#include "types/schema.h"

namespace mppdb {

/// Object identifier for tables and partitions (GPDB-style OIDs).
using Oid = int32_t;
inline constexpr Oid kInvalidOid = -1;

/// How one level of the hierarchy splits its key domain.
enum class PartitionMethod { kRange, kList };

/// The check constraint of one partition at one level: a union of intervals
/// over the level's key (paper §3.2: every partition constraint can be
/// written as pk ∈ ∪(a_i, b_i); categorical partitioning uses point
/// intervals). A default partition accepts any value not claimed by a
/// sibling.
struct PartitionBound {
  ConstraintSet constraint = ConstraintSet::All();
  bool is_default = false;
  std::string name;

  static PartitionBound Range(Datum lo_inclusive, Datum hi_exclusive, std::string name);
  static PartitionBound List(std::vector<Datum> values, std::string name);
  static PartitionBound Default(std::string name);
};

/// Describes one level of a (possibly multi-level) partitioning scheme.
struct PartitionLevelDesc {
  int key_column;  ///< index into the table schema
  PartitionMethod method;
};

/// A node of the partition hierarchy. Interior nodes correspond to
/// partitions that are further subpartitioned; leaves carry the OIDs the
/// storage layer resolves to physical data.
struct PartitionNode {
  Oid oid = kInvalidOid;
  PartitionBound bound;
  std::vector<std::unique_ptr<PartitionNode>> children;

  bool IsLeaf() const { return children.empty(); }
};

/// Metadata snapshot of one leaf partition: its OID plus the effective
/// constraint at every level along its root-to-leaf path. This backs the
/// partition_constraints() built-in (paper Table 1).
struct LeafPartitionInfo {
  Oid oid = kInvalidOid;
  std::string qualified_name;
  std::vector<ConstraintSet> level_constraints;  ///< one per level
};

/// Logical partitioning of a table (paper §2.1): the partitioning function
/// f_T routing tuples to leaf partitions, and the partition-selection
/// function f*_T mapping per-level constraints to the set of leaf OIDs that
/// may contain qualifying tuples. The constructor compiles a route index:
/// each interior node's non-default child intervals sorted by lower bound.
/// Sibling bounds are disjoint, so f_T takes one binary search per level
/// (O(L log P) for L levels of at most P siblings) and f*_T one per
/// constraint interval plus a walk over the siblings that overlap it.
class PartitionScheme {
 public:
  PartitionScheme(std::vector<PartitionLevelDesc> levels,
                  std::unique_ptr<PartitionNode> root);

  PartitionScheme(PartitionScheme&&) = default;
  PartitionScheme& operator=(PartitionScheme&&) = default;

  const std::vector<PartitionLevelDesc>& levels() const { return levels_; }
  size_t num_levels() const { return levels_.size(); }

  /// f_T: leaf partition OID for the tuple, or kInvalidOid if no partition
  /// accepts it (the paper's ⊥). Reads the key columns in place.
  Oid RouteTuple(const Row& row) const;

  /// Leaf index meaning "no partition accepts the tuple" (⊥).
  static constexpr size_t kNoLeaf = static_cast<size_t>(-1);

  /// f_T as a dense leaf index: the routed leaf's position in Leaves(), or
  /// kNoLeaf.
  size_t RouteTupleLeaf(const Row& row) const;

  /// f_T over explicit per-level key values.
  Oid RouteValues(const std::vector<Datum>& key_values) const;

  /// f*_T: leaf OIDs whose constraints overlap the given per-level
  /// constraints, in hierarchy order. `constraints` may be shorter than
  /// num_levels(); missing levels are treated as All(). Sound: a leaf not
  /// returned cannot contain a tuple satisfying the constraints. Default
  /// partitions always qualify (conservatively) unless the constraint set is
  /// None.
  std::vector<Oid> SelectPartitions(const std::vector<ConstraintSet>& constraints) const;

  /// All leaf partition OIDs in hierarchy order (partition_expansion()).
  std::vector<Oid> AllLeafOids() const;

  size_t NumLeaves() const { return leaves_.size(); }

  /// Leaf metadata in hierarchy order (partition_constraints()).
  const std::vector<LeafPartitionInfo>& Leaves() const { return leaves_; }

  /// True if `oid` is one of this scheme's leaf partitions.
  bool IsLeafOid(Oid oid) const;

 private:
  /// One interval of a non-default child's bound (owned by the hierarchy,
  /// which root_ keeps in place across moves) and that child's node id.
  struct RouteEntry {
    const Interval* interval;
    uint32_t child;
  };

  /// The route index's view of one hierarchy node. Nodes are numbered in
  /// pre-order from the root (0), so a node's children have ascending ids in
  /// declaration order.
  struct IndexNode {
    size_t leaf = kNoLeaf;            ///< position in leaves_, for a leaf
    std::vector<uint32_t> children;   ///< child ids, in declaration order
    /// The non-default children's intervals, sorted by lower bound. Sibling
    /// bounds are disjoint, so the intervals are also sorted by upper bound.
    std::vector<RouteEntry> entries;
    int64_t default_child = -1;       ///< id of the default child, if any
  };

  /// Numbers `node` and its subtree into nodes_ and leaves_; returns its id.
  uint32_t Compile(const PartitionNode& node, size_t depth,
                   std::vector<ConstraintSet>* path, std::string* name_path);
  /// One f_T step: the child of node `id` that accepts `key`, or -1.
  int64_t RouteStep(uint32_t id, const Datum& key) const;
  /// f_T with the level-i key read by key_at(i).
  template <typename KeyAt>
  size_t RouteLeaf(KeyAt key_at) const;
  void SelectFrom(uint32_t id, size_t level,
                  const std::vector<ConstraintSet>& constraints,
                  std::vector<Oid>* out) const;

  std::vector<PartitionLevelDesc> levels_;
  std::unique_ptr<PartitionNode> root_;
  std::vector<LeafPartitionInfo> leaves_;
  std::vector<IndexNode> nodes_;
  /// Leaf OIDs, ascending (IsLeafOid).
  std::vector<Oid> sorted_leaf_oids_;
};

/// The DDL check behind f_T's binary search, for one level's sibling bounds
/// over a key column of type `key_type`: every bound value must be
/// comparable with the key type, no value may lie in two non-default bounds,
/// and at most one bound may be the default. kInvalidArgument otherwise.
Status ValidateSiblingBounds(const std::vector<PartitionBound>& bounds, TypeId key_type);

/// Convenience builders used by tests, examples, and workload generators.
namespace partition_bounds {

/// `count` consecutive monthly range bounds starting at year/month.
std::vector<PartitionBound> Monthly(int start_year, int start_month, int count);

/// `count` range bounds of `width_days` days starting at the given date.
std::vector<PartitionBound> DateRanges(int start_year, int start_month, int start_day,
                                       int count, int width_days);

/// Integer ranges [lo, lo+step), [lo+step, lo+2*step), ... (`count` bounds).
std::vector<PartitionBound> IntRanges(int64_t lo, int64_t step, int count);

/// One list bound per value.
std::vector<PartitionBound> ListValues(const std::vector<Datum>& values);

}  // namespace partition_bounds

/// Builds a uniform hierarchy: level 0 splits into bounds_per_level[0]
/// partitions, each of which splits into bounds_per_level[1], etc. OIDs are
/// assigned via `next_oid` (incremented per created node). This covers the
/// paper's multi-level example (Fig. 9: 24 monthly partitions × regions).
std::unique_ptr<PartitionNode> BuildUniformHierarchy(
    const std::vector<std::vector<PartitionBound>>& bounds_per_level, Oid* next_oid);

}  // namespace mppdb

#endif  // MPPDB_CATALOG_PARTITION_SCHEME_H_

#ifndef MPPDB_EXEC_PLAN_H_
#define MPPDB_EXEC_PLAN_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "expr/eval.h"
#include "expr/expr.h"
#include "expr/sargable.h"
#include "storage/storage.h"

namespace mppdb {

/// Physical operator kinds. The paper's three new operators are
/// kPartitionSelector, kDynamicScan, and kSequence (§2.2); kCheckedPartScan
/// models the legacy Planner's parameter-checked per-partition scans, whose
/// plans must enumerate every partition (§4.4.2).
enum class PhysNodeKind {
  kTableScan,
  kCheckedPartScan,
  kDynamicScan,
  kDynamicIndexScan,
  kPartitionSelector,
  kSequence,
  kAppend,
  kFilter,
  kProject,
  kHashJoin,
  kNestedLoopJoin,
  kIndexNLJoin,
  kHashAgg,
  kSort,
  kLimit,
  kTopN,
  kMotion,
  kValues,
  kInsert,
  kUpdate,
  kDelete,
};

const char* PhysNodeKindToString(PhysNodeKind kind);

/// kInner joins emit build++probe column concatenations for every match.
/// kSemi preserves each probe-side (children[1]) row with at least one match
/// on the build side — the shape produced for IN (subquery) predicates.
enum class JoinType { kInner, kSemi };

/// Motion flavors (paper §3.1): the boundaries between plan slices that run
/// in different processes in a real MPP system.
enum class MotionKind { kGather, kRedistribute, kBroadcast };

class PhysicalNode;
using PhysPtr = std::shared_ptr<const PhysicalNode>;

/// Producer half of a runtime join filter: attached by the optimizer to the
/// hash join whose build keys are summarized (publishing on the build
/// segment's local hub channel), or to the Motion feeding the join's build
/// side (publishing a cross-segment merged summary on the global channel —
/// required when the consumer sits below a probe-side Motion, see
/// PartitionPropagationHub::PublishGlobalJoinFilter).
struct JoinFilterSpec {
  int filter_id = -1;
  /// Build-key columns, resolved in the carrying node's input layout (the
  /// join's build child output, or the Motion child's output).
  std::vector<ColRefId> key_columns;
  /// Optimizer estimate of build rows (bloom sizing hint / cost-gate trace).
  double build_rows_est = 0;
  /// Publish on the global (cross-segment) channel instead of the local one.
  bool global = false;
};

/// Consumer half: attached to a probe-side Filter (applied after its full
/// predicate, so predicate errors and skip decisions are unchanged) or to a
/// bare probe-side scan. `key_columns` are the probe keys in the carrying
/// node's output layout.
struct JoinFilterProbe {
  int filter_id = -1;
  std::vector<ColRefId> key_columns;
  /// Consume the cross-segment summary (consumer is below a probe-side
  /// Motion, so local per-segment summaries would be unsound).
  bool global = false;
  /// Rows rejected here would otherwise have been exchanged over a Motion:
  /// the executor keeps rows_moved logical (counts them as moved) and
  /// reports the savings in joinfilter_motion_rows_saved instead.
  bool below_motion = false;
};

/// Join-filter annotations carried by any physical node. Orthogonal to the
/// node's identity: Describe()/SerializePlan output is unchanged, and clones
/// (CloneWithChildren, expression rewrites) preserve them.
struct JoinFilterAnnotations {
  std::vector<JoinFilterSpec> publishes;
  std::vector<JoinFilterProbe> probes;

  bool empty() const { return publishes.empty() && probes.empty(); }
};

/// Base class of immutable physical plan nodes. Execution-order convention
/// (paper §2.2/§2.3): children execute left to right — children[0] of a join
/// is the build/outer side and runs to completion first, which is what makes
/// PartitionSelector placement on children[0] able to feed a DynamicScan in
/// children[1].
class PhysicalNode {
 public:
  PhysicalNode(PhysNodeKind kind, std::vector<PhysPtr> children)
      : kind_(kind), children_(std::move(children)) {}
  virtual ~PhysicalNode() = default;

  PhysNodeKind kind() const { return kind_; }
  const std::vector<PhysPtr>& children() const { return children_; }
  const PhysPtr& child(size_t i) const { return children_[i]; }

  /// ColRefIds of this node's output columns, in row order.
  virtual std::vector<ColRefId> OutputIds() const = 0;

  ColumnLayout OutputLayout() const { return ColumnLayout(OutputIds()); }

  /// One-line description of this node (no children).
  virtual std::string Describe() const = 0;

  /// Runtime join-filter annotations (empty on almost every node). Set once
  /// by the optimizer's placement pass on freshly built copies; plan
  /// rewrites copy them through CopyJoinFiltersFrom.
  const JoinFilterAnnotations& join_filters() const { return join_filters_; }
  void set_join_filters(JoinFilterAnnotations annotations) {
    join_filters_ = std::move(annotations);
  }
  void CopyJoinFiltersFrom(const PhysicalNode& other) {
    join_filters_ = other.join_filters_;
  }

 private:
  PhysNodeKind kind_;
  std::vector<PhysPtr> children_;
  JoinFilterAnnotations join_filters_;
};

/// Scan of a single storage unit: an unpartitioned table (unit == table oid)
/// or one explicit leaf partition (legacy Planner plans reference leaves
/// directly, one scan node per partition).
class TableScanNode : public PhysicalNode {
 public:
  TableScanNode(Oid table_oid, Oid unit_oid, std::vector<ColRefId> column_ids,
                std::vector<ColRefId> rowid_ids = {})
      : PhysicalNode(PhysNodeKind::kTableScan, {}),
        table_oid_(table_oid),
        unit_oid_(unit_oid),
        column_ids_(std::move(column_ids)),
        rowid_ids_(std::move(rowid_ids)) {}

  Oid table_oid() const { return table_oid_; }
  Oid unit_oid() const { return unit_oid_; }
  const std::vector<ColRefId>& column_ids() const { return column_ids_; }
  const std::vector<ColRefId>& rowid_ids() const { return rowid_ids_; }

  std::vector<ColRefId> OutputIds() const override;
  std::string Describe() const override;

 private:
  Oid table_oid_;
  Oid unit_oid_;
  std::vector<ColRefId> column_ids_;
  /// If non-empty: 3 hidden columns (unit oid, segment, row index) for DML.
  std::vector<ColRefId> rowid_ids_;
};

/// Legacy Planner's dynamic elimination: the plan lists one such node per
/// leaf; at runtime the node consults the propagation channel `scan_id` and
/// scans its leaf only if the leaf was selected. Plan size stays linear in
/// the number of partitions (paper §4.4.2).
class CheckedPartScanNode : public PhysicalNode {
 public:
  CheckedPartScanNode(Oid table_oid, Oid leaf_oid, int scan_id,
                      std::vector<ColRefId> column_ids)
      : PhysicalNode(PhysNodeKind::kCheckedPartScan, {}),
        table_oid_(table_oid),
        leaf_oid_(leaf_oid),
        scan_id_(scan_id),
        column_ids_(std::move(column_ids)) {}

  Oid table_oid() const { return table_oid_; }
  Oid leaf_oid() const { return leaf_oid_; }
  int scan_id() const { return scan_id_; }
  const std::vector<ColRefId>& column_ids() const { return column_ids_; }

  std::vector<ColRefId> OutputIds() const override { return column_ids_; }
  std::string Describe() const override;

 private:
  Oid table_oid_;
  Oid leaf_oid_;
  int scan_id_;
  std::vector<ColRefId> column_ids_;
};

/// The paper's DynamicScan (§2.2): consumes partition OIDs pushed by the
/// PartitionSelector with the same scan_id and scans exactly those leaves.
/// Plan size is independent of the partition count.
class DynamicScanNode : public PhysicalNode {
 public:
  DynamicScanNode(Oid table_oid, int scan_id, std::vector<ColRefId> column_ids,
                  std::vector<ColRefId> rowid_ids = {})
      : PhysicalNode(PhysNodeKind::kDynamicScan, {}),
        table_oid_(table_oid),
        scan_id_(scan_id),
        column_ids_(std::move(column_ids)),
        rowid_ids_(std::move(rowid_ids)) {}

  Oid table_oid() const { return table_oid_; }
  int scan_id() const { return scan_id_; }
  const std::vector<ColRefId>& column_ids() const { return column_ids_; }
  const std::vector<ColRefId>& rowid_ids() const { return rowid_ids_; }

  std::vector<ColRefId> OutputIds() const override;
  std::string Describe() const override;

 private:
  Oid table_oid_;
  int scan_id_;
  std::vector<ColRefId> column_ids_;
  std::vector<ColRefId> rowid_ids_;
};

/// Access mode of a DynamicIndexScanNode.
enum class IndexScanMode : uint8_t {
  kRangeSeek,    ///< sargable key range, residual filter, storage-order output
  kOrderedWalk,  ///< key-ordered iteration with per-unit early stop
  kMinMax,       ///< first (min) or last (max) live non-null entry per unit
};

/// Partition-aware ordered index access (the gporca DynamicIndexGet family):
/// scans the leaves a PartitionSelector with the same scan_id selected — or
/// every unit when scan_id is -1 (unpartitioned table) — through each slice's
/// secondary index on `index_column` instead of reading the slice.
///
///  * kRangeSeek emits rows whose key falls in [lo, hi] in storage order and
///    then applies the full `residual` predicate, so output rows, order, and
///    error behavior are identical to Filter over the corresponding scan.
///  * kOrderedWalk emits each unit's first `per_unit_limit` rows in key order
///    (`ascending`; ties in storage order) — the per-unit input of a bounded
///    top-N merge; `residual` must be null.
///  * kMinMax emits at most one candidate row per unit: the one holding the
///    slice's minimum (`ascending`) or maximum (!`ascending`) non-null key.
///
/// Only the new index counters (ExecStats::index_seeks / index_rows_read) and
/// the work performed distinguish its execution from the scan it replaces;
/// partitions_scanned and tuples_scanned stay logical.
class DynamicIndexScanNode : public PhysicalNode {
 public:
  DynamicIndexScanNode(Oid table_oid, int scan_id, std::vector<ColRefId> column_ids,
                       int index_column, IndexScanMode mode, IndexBound lo,
                       IndexBound hi, ExprPtr residual, bool ascending,
                       size_t per_unit_limit)
      : PhysicalNode(PhysNodeKind::kDynamicIndexScan, {}),
        table_oid_(table_oid),
        scan_id_(scan_id),
        column_ids_(std::move(column_ids)),
        index_column_(index_column),
        mode_(mode),
        lo_(std::move(lo)),
        hi_(std::move(hi)),
        residual_(std::move(residual)),
        ascending_(ascending),
        per_unit_limit_(per_unit_limit) {}

  Oid table_oid() const { return table_oid_; }
  /// PartitionSelector pairing id, or -1 for an unpartitioned table (every
  /// unit — i.e. the single table-oid unit — is scanned, no hub channel).
  int scan_id() const { return scan_id_; }
  const std::vector<ColRefId>& column_ids() const { return column_ids_; }
  /// Schema position of the indexed column.
  int index_column() const { return index_column_; }
  IndexScanMode mode() const { return mode_; }
  const IndexBound& lo() const { return lo_; }
  const IndexBound& hi() const { return hi_; }
  /// Full original predicate re-applied to seek survivors (kRangeSeek only).
  const ExprPtr& residual() const { return residual_; }
  bool ascending() const { return ascending_; }
  /// Early-stop row cap per (unit, segment) walk; 0 = uncapped.
  size_t per_unit_limit() const { return per_unit_limit_; }

  std::vector<ColRefId> OutputIds() const override { return column_ids_; }
  std::string Describe() const override;

 private:
  Oid table_oid_;
  int scan_id_;
  std::vector<ColRefId> column_ids_;
  int index_column_;
  IndexScanMode mode_;
  IndexBound lo_;
  IndexBound hi_;
  ExprPtr residual_;
  bool ascending_;
  size_t per_unit_limit_;
};

/// The paper's PartitionSelector (§2.2, extended for multi-level in §2.4).
/// Side-effecting operator: evaluates its per-level predicates (with column
/// references bound from the current input row, if it has a child), computes
/// qualifying leaf OIDs via f*_T, and pushes them to the DynamicScan with the
/// same scan_id. Pass-through for tuples when it has a child; produces
/// nothing when standalone.
class PartitionSelectorNode : public PhysicalNode {
 public:
  PartitionSelectorNode(Oid table_oid, int scan_id, std::vector<ColRefId> level_keys,
                        std::vector<ExprPtr> level_predicates, PhysPtr child)
      : PhysicalNode(PhysNodeKind::kPartitionSelector,
                     child == nullptr ? std::vector<PhysPtr>{}
                                      : std::vector<PhysPtr>{std::move(child)}),
        table_oid_(table_oid),
        scan_id_(scan_id),
        level_keys_(std::move(level_keys)),
        level_predicates_(std::move(level_predicates)) {}

  Oid table_oid() const { return table_oid_; }
  int scan_id() const { return scan_id_; }
  /// ColRefIds of the paired DynamicScan's partition-key columns, one per
  /// partitioning level; the level predicates reference these ids.
  const std::vector<ColRefId>& level_keys() const { return level_keys_; }
  /// Per-level predicate or nullptr; an all-null list means "select all".
  const std::vector<ExprPtr>& level_predicates() const { return level_predicates_; }
  bool HasChild() const { return !children().empty(); }

  std::vector<ColRefId> OutputIds() const override;
  std::string Describe() const override;

 private:
  Oid table_oid_;
  int scan_id_;
  std::vector<ColRefId> level_keys_;
  std::vector<ExprPtr> level_predicates_;
};

/// The paper's Sequence (§2.2): executes children in order, returns the
/// output of the last child.
class SequenceNode : public PhysicalNode {
 public:
  explicit SequenceNode(std::vector<PhysPtr> children)
      : PhysicalNode(PhysNodeKind::kSequence, std::move(children)) {}

  std::vector<ColRefId> OutputIds() const override {
    return children().back()->OutputIds();
  }
  std::string Describe() const override { return "Sequence"; }
};

/// Concatenation of same-layout children (legacy Planner's partition scans).
class AppendNode : public PhysicalNode {
 public:
  explicit AppendNode(std::vector<PhysPtr> children)
      : PhysicalNode(PhysNodeKind::kAppend, std::move(children)) {}

  std::vector<ColRefId> OutputIds() const override {
    return children().front()->OutputIds();
  }
  std::string Describe() const override { return "Append"; }
};

class FilterNode : public PhysicalNode {
 public:
  FilterNode(ExprPtr predicate, PhysPtr child)
      : PhysicalNode(PhysNodeKind::kFilter, {std::move(child)}),
        predicate_(std::move(predicate)),
        sargable_(AnalyzeSargable(predicate_)) {}

  const ExprPtr& predicate() const { return predicate_; }
  /// Sargable analysis of the predicate, computed once at plan build (see
  /// expr/sargable.h). Plans rebuilt after parameter binding re-analyze, so
  /// bound constants become sargable automatically.
  const SargablePredicate& sargable() const { return sargable_; }
  std::vector<ColRefId> OutputIds() const override { return child(0)->OutputIds(); }
  std::string Describe() const override { return "Filter: " + predicate_->ToString(); }

 private:
  ExprPtr predicate_;
  SargablePredicate sargable_;
};

/// One computed output column of a Project.
struct ProjectItem {
  ExprPtr expr;
  ColRefId output_id;
  std::string name;
};

class ProjectNode : public PhysicalNode {
 public:
  ProjectNode(std::vector<ProjectItem> items, PhysPtr child)
      : PhysicalNode(PhysNodeKind::kProject, {std::move(child)}),
        items_(std::move(items)) {}

  const std::vector<ProjectItem>& items() const { return items_; }
  std::vector<ColRefId> OutputIds() const override;
  std::string Describe() const override;

 private:
  std::vector<ProjectItem> items_;
};

/// Hash join; children[0] is the build side (executes first), children[1]
/// the probe side. Equi-keys are column references into the respective
/// child outputs; `residual` (optional) filters joined rows.
class HashJoinNode : public PhysicalNode {
 public:
  HashJoinNode(JoinType join_type, std::vector<ColRefId> build_keys,
               std::vector<ColRefId> probe_keys, ExprPtr residual, PhysPtr build,
               PhysPtr probe)
      : PhysicalNode(PhysNodeKind::kHashJoin, {std::move(build), std::move(probe)}),
        join_type_(join_type),
        build_keys_(std::move(build_keys)),
        probe_keys_(std::move(probe_keys)),
        residual_(std::move(residual)) {}

  JoinType join_type() const { return join_type_; }
  const std::vector<ColRefId>& build_keys() const { return build_keys_; }
  const std::vector<ColRefId>& probe_keys() const { return probe_keys_; }
  const ExprPtr& residual() const { return residual_; }

  std::vector<ColRefId> OutputIds() const override;
  std::string Describe() const override;

 private:
  JoinType join_type_;
  std::vector<ColRefId> build_keys_;
  std::vector<ColRefId> probe_keys_;
  ExprPtr residual_;
};

/// Nested-loop join with an arbitrary predicate; children[0] executes first.
class NestedLoopJoinNode : public PhysicalNode {
 public:
  NestedLoopJoinNode(JoinType join_type, ExprPtr predicate, PhysPtr outer, PhysPtr inner)
      : PhysicalNode(PhysNodeKind::kNestedLoopJoin,
                     {std::move(outer), std::move(inner)}),
        join_type_(join_type),
        predicate_(std::move(predicate)) {}

  JoinType join_type() const { return join_type_; }
  const ExprPtr& predicate() const { return predicate_; }

  std::vector<ColRefId> OutputIds() const override;
  std::string Describe() const override;

 private:
  JoinType join_type_;
  ExprPtr predicate_;
};

/// The paper's Index-Join form of the partition-selection model (§2.2):
/// "partition selection by the outer child of the join which computes the
/// keys of partitions to be scanned, while the inner child performs
/// partition scanning by looking up an index defined on partition key".
/// children[0] (the outer) executes first and must be replicated across
/// segments; for each outer tuple the executor routes the key through f_T to
/// the single qualifying partition and seeks the inner table's index there.
/// Supports unpartitioned inner tables too (plain index lookup).
class IndexNLJoinNode : public PhysicalNode {
 public:
  IndexNLJoinNode(PhysPtr outer, Oid inner_table, std::vector<ColRefId> inner_column_ids,
                  int inner_key_column, ColRefId outer_key, ExprPtr residual)
      : PhysicalNode(PhysNodeKind::kIndexNLJoin, {std::move(outer)}),
        inner_table_(inner_table),
        inner_column_ids_(std::move(inner_column_ids)),
        inner_key_column_(inner_key_column),
        outer_key_(outer_key),
        residual_(std::move(residual)) {}

  Oid inner_table() const { return inner_table_; }
  const std::vector<ColRefId>& inner_column_ids() const { return inner_column_ids_; }
  /// Schema position of the indexed (and, if partitioned, partitioning)
  /// column of the inner table.
  int inner_key_column() const { return inner_key_column_; }
  /// Outer column whose values drive the per-tuple routing + index seek.
  ColRefId outer_key() const { return outer_key_; }
  const ExprPtr& residual() const { return residual_; }

  std::vector<ColRefId> OutputIds() const override;
  std::string Describe() const override;

 private:
  Oid inner_table_;
  std::vector<ColRefId> inner_column_ids_;
  int inner_key_column_;
  ColRefId outer_key_;
  ExprPtr residual_;
};

/// One aggregate of a HashAgg. `arg` is null for count(*).
struct AggItem {
  AggFunc func;
  ExprPtr arg;
  ColRefId output_id;
  std::string name;
};

/// Hash aggregation over group-by columns (scalar aggregate when empty).
/// Output layout: group columns followed by aggregate results.
class HashAggNode : public PhysicalNode {
 public:
  HashAggNode(std::vector<ColRefId> group_by, std::vector<AggItem> aggs, PhysPtr child)
      : PhysicalNode(PhysNodeKind::kHashAgg, {std::move(child)}),
        group_by_(std::move(group_by)),
        aggs_(std::move(aggs)) {}

  const std::vector<ColRefId>& group_by() const { return group_by_; }
  const std::vector<AggItem>& aggs() const { return aggs_; }

  std::vector<ColRefId> OutputIds() const override;
  std::string Describe() const override;

 private:
  std::vector<ColRefId> group_by_;
  std::vector<AggItem> aggs_;
};

struct SortKey {
  ColRefId column;
  bool ascending = true;
};

class SortNode : public PhysicalNode {
 public:
  SortNode(std::vector<SortKey> keys, PhysPtr child)
      : PhysicalNode(PhysNodeKind::kSort, {std::move(child)}), keys_(std::move(keys)) {}

  const std::vector<SortKey>& keys() const { return keys_; }
  std::vector<ColRefId> OutputIds() const override { return child(0)->OutputIds(); }
  std::string Describe() const override;

 private:
  std::vector<SortKey> keys_;
};

class LimitNode : public PhysicalNode {
 public:
  LimitNode(size_t limit, PhysPtr child)
      : PhysicalNode(PhysNodeKind::kLimit, {std::move(child)}), limit_(limit) {}

  size_t limit() const { return limit_; }
  std::vector<ColRefId> OutputIds() const override { return child(0)->OutputIds(); }
  std::string Describe() const override { return "Limit " + std::to_string(limit_); }

 private:
  size_t limit_;
};

/// Bounded top-N: exactly the first `limit` rows of the stable sort of its
/// input by `keys` — bit-identical to Limit over Sort — computed with an
/// O(limit)-row heap instead of materializing the full sorted input. Fused
/// from adjacent Sort+Limit by the optimizer, and the merge stage of the
/// Limit2DynamicIndexScan alternative. Only topn_rows_cut (and the memory
/// not spent) distinguishes its execution from Sort+Limit.
class TopNNode : public PhysicalNode {
 public:
  TopNNode(std::vector<SortKey> keys, size_t limit, PhysPtr child)
      : PhysicalNode(PhysNodeKind::kTopN, {std::move(child)}),
        keys_(std::move(keys)),
        limit_(limit) {}

  const std::vector<SortKey>& keys() const { return keys_; }
  size_t limit() const { return limit_; }
  std::vector<ColRefId> OutputIds() const override { return child(0)->OutputIds(); }
  std::string Describe() const override;

 private:
  std::vector<SortKey> keys_;
  size_t limit_;
};

/// Slice boundary: redistributes/broadcasts/gathers its child's output
/// across segments (paper §3.1).
class MotionNode : public PhysicalNode {
 public:
  MotionNode(MotionKind motion_kind, std::vector<ColRefId> hash_columns, PhysPtr child)
      : PhysicalNode(PhysNodeKind::kMotion, {std::move(child)}),
        motion_kind_(motion_kind),
        hash_columns_(std::move(hash_columns)) {}

  MotionKind motion_kind() const { return motion_kind_; }
  const std::vector<ColRefId>& hash_columns() const { return hash_columns_; }

  std::vector<ColRefId> OutputIds() const override { return child(0)->OutputIds(); }
  std::string Describe() const override;

 private:
  MotionKind motion_kind_;
  std::vector<ColRefId> hash_columns_;
};

/// Literal rows (INSERT ... VALUES and tests).
class ValuesNode : public PhysicalNode {
 public:
  ValuesNode(std::vector<Row> rows, std::vector<ColRefId> output_ids)
      : PhysicalNode(PhysNodeKind::kValues, {}),
        rows_(std::move(rows)),
        output_ids_(std::move(output_ids)) {}

  const std::vector<Row>& rows() const { return rows_; }
  std::vector<ColRefId> OutputIds() const override { return output_ids_; }
  std::string Describe() const override {
    return "Values (" + std::to_string(rows_.size()) + " rows)";
  }

 private:
  std::vector<Row> rows_;
  std::vector<ColRefId> output_ids_;
};

/// Inserts child rows (positionally matching the table schema) into the
/// table; outputs a single count row.
class InsertNode : public PhysicalNode {
 public:
  InsertNode(Oid table_oid, ColRefId count_output_id, PhysPtr child)
      : PhysicalNode(PhysNodeKind::kInsert, {std::move(child)}),
        table_oid_(table_oid),
        count_output_id_(count_output_id) {}

  Oid table_oid() const { return table_oid_; }
  std::vector<ColRefId> OutputIds() const override { return {count_output_id_}; }
  std::string Describe() const override;

 private:
  Oid table_oid_;
  ColRefId count_output_id_;
};

/// One SET clause of an UPDATE: target column position in the table schema
/// plus the new-value expression (over the child's layout).
struct UpdateSetItem {
  int column_index;
  ExprPtr value;
};

/// Updates rows located via hidden rowid columns in the child output. The
/// child must also carry the target table's current column values (ColRefIds
/// in `table_column_ids`, schema order). Partition-key changes move rows
/// across partitions (delete + reinsert through f_T).
class UpdateNode : public PhysicalNode {
 public:
  UpdateNode(Oid table_oid, std::vector<ColRefId> table_column_ids,
             std::vector<ColRefId> rowid_ids, std::vector<UpdateSetItem> set_items,
             ColRefId count_output_id, PhysPtr child)
      : PhysicalNode(PhysNodeKind::kUpdate, {std::move(child)}),
        table_oid_(table_oid),
        table_column_ids_(std::move(table_column_ids)),
        rowid_ids_(std::move(rowid_ids)),
        set_items_(std::move(set_items)),
        count_output_id_(count_output_id) {}

  Oid table_oid() const { return table_oid_; }
  const std::vector<ColRefId>& table_column_ids() const { return table_column_ids_; }
  const std::vector<ColRefId>& rowid_ids() const { return rowid_ids_; }
  const std::vector<UpdateSetItem>& set_items() const { return set_items_; }

  std::vector<ColRefId> OutputIds() const override { return {count_output_id_}; }
  std::string Describe() const override;

 private:
  Oid table_oid_;
  std::vector<ColRefId> table_column_ids_;
  std::vector<ColRefId> rowid_ids_;
  std::vector<UpdateSetItem> set_items_;
  ColRefId count_output_id_;
};

/// Deletes rows located via hidden rowid columns in the child output.
class DeleteNode : public PhysicalNode {
 public:
  DeleteNode(Oid table_oid, std::vector<ColRefId> rowid_ids, ColRefId count_output_id,
             PhysPtr child)
      : PhysicalNode(PhysNodeKind::kDelete, {std::move(child)}),
        table_oid_(table_oid),
        rowid_ids_(std::move(rowid_ids)),
        count_output_id_(count_output_id) {}

  Oid table_oid() const { return table_oid_; }
  const std::vector<ColRefId>& rowid_ids() const { return rowid_ids_; }

  std::vector<ColRefId> OutputIds() const override { return {count_output_id_}; }
  std::string Describe() const override;

 private:
  Oid table_oid_;
  std::vector<ColRefId> rowid_ids_;
  ColRefId count_output_id_;
};

/// Rebuilds `node` with the given children (which must match the node's
/// arity); shares the original node if the children are unchanged. Clones
/// keep the original's join-filter annotations.
PhysPtr CloneWithChildren(const PhysPtr& node, std::vector<PhysPtr> children);

/// Always-copying clone that replaces the node's join-filter annotations —
/// the placement pass's primitive for annotating nodes inside shared
/// (immutable) plan trees without mutating possibly shared originals.
PhysPtr WithJoinFilters(const PhysPtr& node, std::vector<PhysPtr> children,
                        JoinFilterAnnotations annotations);

/// Multi-line indented rendering of a plan tree (EXPLAIN-style): one line
/// per node, its Describe() followed by its join-filter publish and probe
/// annotations. SerializePlan leaves the annotations out.
std::string PlanToString(const PhysPtr& plan);

/// Deterministic serialization of the full plan; its byte length is the
/// "plan size" metric of the paper's §4.4 experiments.
std::string SerializePlan(const PhysPtr& plan);

}  // namespace mppdb

#endif  // MPPDB_EXEC_PLAN_H_

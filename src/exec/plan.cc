#include "exec/plan.h"

#include "common/macros.h"
#include "common/string_util.h"

namespace mppdb {

const char* PhysNodeKindToString(PhysNodeKind kind) {
  switch (kind) {
    case PhysNodeKind::kTableScan:
      return "TableScan";
    case PhysNodeKind::kCheckedPartScan:
      return "CheckedPartScan";
    case PhysNodeKind::kDynamicScan:
      return "DynamicScan";
    case PhysNodeKind::kDynamicIndexScan:
      return "DynamicIndexScan";
    case PhysNodeKind::kPartitionSelector:
      return "PartitionSelector";
    case PhysNodeKind::kSequence:
      return "Sequence";
    case PhysNodeKind::kAppend:
      return "Append";
    case PhysNodeKind::kFilter:
      return "Filter";
    case PhysNodeKind::kProject:
      return "Project";
    case PhysNodeKind::kHashJoin:
      return "HashJoin";
    case PhysNodeKind::kNestedLoopJoin:
      return "NestedLoopJoin";
    case PhysNodeKind::kIndexNLJoin:
      return "IndexNLJoin";
    case PhysNodeKind::kHashAgg:
      return "HashAgg";
    case PhysNodeKind::kSort:
      return "Sort";
    case PhysNodeKind::kLimit:
      return "Limit";
    case PhysNodeKind::kTopN:
      return "TopN";
    case PhysNodeKind::kMotion:
      return "Motion";
    case PhysNodeKind::kValues:
      return "Values";
    case PhysNodeKind::kInsert:
      return "Insert";
    case PhysNodeKind::kUpdate:
      return "Update";
    case PhysNodeKind::kDelete:
      return "Delete";
  }
  return "?";
}

namespace {

std::string IdsToString(const std::vector<ColRefId>& ids) {
  std::vector<std::string> parts;
  parts.reserve(ids.size());
  for (ColRefId id : ids) parts.push_back(std::to_string(id));
  return "[" + Join(parts, ",") + "]";
}

}  // namespace

std::vector<ColRefId> TableScanNode::OutputIds() const {
  std::vector<ColRefId> out = column_ids_;
  out.insert(out.end(), rowid_ids_.begin(), rowid_ids_.end());
  return out;
}

std::string TableScanNode::Describe() const {
  std::string out = "TableScan(table=" + std::to_string(table_oid_);
  if (unit_oid_ != table_oid_) out += ", part=" + std::to_string(unit_oid_);
  out += ", cols=" + IdsToString(column_ids_) + ")";
  return out;
}

std::string CheckedPartScanNode::Describe() const {
  return "CheckedPartScan(table=" + std::to_string(table_oid_) +
         ", part=" + std::to_string(leaf_oid_) + ", scanId=" + std::to_string(scan_id_) +
         ", cols=" + IdsToString(column_ids_) + ")";
}

std::vector<ColRefId> DynamicScanNode::OutputIds() const {
  std::vector<ColRefId> out = column_ids_;
  out.insert(out.end(), rowid_ids_.begin(), rowid_ids_.end());
  return out;
}

std::string DynamicScanNode::Describe() const {
  return "DynamicScan(table=" + std::to_string(table_oid_) +
         ", scanId=" + std::to_string(scan_id_) + ", cols=" + IdsToString(column_ids_) +
         ")";
}

namespace {

const char* IndexScanModeToString(IndexScanMode mode) {
  switch (mode) {
    case IndexScanMode::kRangeSeek:
      return "rangeSeek";
    case IndexScanMode::kOrderedWalk:
      return "orderedWalk";
    case IndexScanMode::kMinMax:
      return "minMax";
  }
  return "?";
}

std::string BoundToString(const IndexBound& bound) {
  if (bound.unbounded) return "*";
  return bound.value.ToString() + (bound.inclusive ? " incl" : " excl");
}

}  // namespace

std::string DynamicIndexScanNode::Describe() const {
  std::string out = "DynamicIndexScan(table=" + std::to_string(table_oid_);
  if (scan_id_ >= 0) out += ", scanId=" + std::to_string(scan_id_);
  out += ", cols=" + IdsToString(column_ids_) +
         ", keyCol=" + std::to_string(index_column_) +
         ", mode=" + IndexScanModeToString(mode_);
  switch (mode_) {
    case IndexScanMode::kRangeSeek:
      out += ", lo=" + BoundToString(lo_) + ", hi=" + BoundToString(hi_);
      if (residual_ != nullptr) out += ", residual=" + residual_->ToString();
      break;
    case IndexScanMode::kOrderedWalk:
      out += ascending_ ? ", asc" : ", desc";
      if (per_unit_limit_ > 0) out += ", limit=" + std::to_string(per_unit_limit_);
      break;
    case IndexScanMode::kMinMax:
      out += ascending_ ? ", min" : ", max";
      break;
  }
  out += ")";
  return out;
}

std::vector<ColRefId> PartitionSelectorNode::OutputIds() const {
  if (HasChild()) return child(0)->OutputIds();
  return {};
}

std::string PartitionSelectorNode::Describe() const {
  std::string out = "PartitionSelector(table=" + std::to_string(table_oid_) +
                    ", scanId=" + std::to_string(scan_id_);
  std::vector<std::string> preds;
  for (const auto& p : level_predicates_) {
    preds.push_back(p == nullptr ? "-" : p->ToString());
  }
  if (!preds.empty()) out += ", preds=" + Join(preds, "; ");
  out += ")";
  return out;
}

std::vector<ColRefId> ProjectNode::OutputIds() const {
  std::vector<ColRefId> out;
  out.reserve(items_.size());
  for (const auto& item : items_) out.push_back(item.output_id);
  return out;
}

std::string ProjectNode::Describe() const {
  std::vector<std::string> parts;
  for (const auto& item : items_) {
    parts.push_back(item.name + "#" + std::to_string(item.output_id) + "=" +
                    item.expr->ToString());
  }
  return "Project(" + Join(parts, ", ") + ")";
}

std::vector<ColRefId> HashJoinNode::OutputIds() const {
  std::vector<ColRefId> out = child(0)->OutputIds();
  std::vector<ColRefId> probe = child(1)->OutputIds();
  if (join_type_ == JoinType::kSemi) return probe;  // semi join keeps probe rows
  out.insert(out.end(), probe.begin(), probe.end());
  return out;
}

std::string HashJoinNode::Describe() const {
  std::string out = join_type_ == JoinType::kSemi ? "HashSemiJoin(" : "HashJoin(";
  out += "build" + IdsToString(build_keys_) + " = probe" + IdsToString(probe_keys_);
  if (residual_ != nullptr) out += ", residual=" + residual_->ToString();
  out += ")";
  return out;
}

std::vector<ColRefId> NestedLoopJoinNode::OutputIds() const {
  std::vector<ColRefId> out = child(0)->OutputIds();
  std::vector<ColRefId> inner = child(1)->OutputIds();
  if (join_type_ == JoinType::kSemi) return inner;
  out.insert(out.end(), inner.begin(), inner.end());
  return out;
}

std::string NestedLoopJoinNode::Describe() const {
  std::string out =
      join_type_ == JoinType::kSemi ? "NestedLoopSemiJoin(" : "NestedLoopJoin(";
  out += predicate_ == nullptr ? "true" : predicate_->ToString();
  out += ")";
  return out;
}

std::vector<ColRefId> IndexNLJoinNode::OutputIds() const {
  std::vector<ColRefId> out = child(0)->OutputIds();
  out.insert(out.end(), inner_column_ids_.begin(), inner_column_ids_.end());
  return out;
}

std::string IndexNLJoinNode::Describe() const {
  std::string out = "IndexNLJoin(inner=" + std::to_string(inner_table_) +
                    ", keyCol=" + std::to_string(inner_key_column_) +
                    ", outerKey=#" + std::to_string(outer_key_);
  if (residual_ != nullptr) out += ", residual=" + residual_->ToString();
  out += ")";
  return out;
}

std::vector<ColRefId> HashAggNode::OutputIds() const {
  std::vector<ColRefId> out = group_by_;
  for (const auto& agg : aggs_) out.push_back(agg.output_id);
  return out;
}

std::string HashAggNode::Describe() const {
  std::vector<std::string> parts;
  for (const auto& agg : aggs_) {
    std::string rendered = AggFuncToString(agg.func);
    if (agg.func != AggFunc::kCountStar) {
      rendered += "(" + (agg.arg ? agg.arg->ToString() : "*") + ")";
    }
    parts.push_back(rendered);
  }
  return "HashAgg(groupBy=" + IdsToString(group_by_) + ", aggs=" + Join(parts, ", ") +
         ")";
}

std::string SortNode::Describe() const {
  std::vector<std::string> parts;
  for (const auto& key : keys_) {
    parts.push_back(std::to_string(key.column) + (key.ascending ? " asc" : " desc"));
  }
  return "Sort(" + Join(parts, ", ") + ")";
}

std::string TopNNode::Describe() const {
  std::vector<std::string> parts;
  for (const auto& key : keys_) {
    parts.push_back(std::to_string(key.column) + (key.ascending ? " asc" : " desc"));
  }
  return "TopN(" + std::to_string(limit_) + " by " + Join(parts, ", ") + ")";
}

std::string MotionNode::Describe() const {
  switch (motion_kind_) {
    case MotionKind::kGather:
      return "GatherMotion";
    case MotionKind::kBroadcast:
      return "BroadcastMotion";
    case MotionKind::kRedistribute:
      return "RedistributeMotion(" + IdsToString(hash_columns_) + ")";
  }
  return "Motion";
}

std::string InsertNode::Describe() const {
  return "Insert(table=" + std::to_string(table_oid_) + ")";
}

std::string UpdateNode::Describe() const {
  std::vector<std::string> parts;
  for (const auto& item : set_items_) {
    parts.push_back("col" + std::to_string(item.column_index) + "=" +
                    item.value->ToString());
  }
  return "Update(table=" + std::to_string(table_oid_) + ", set=" + Join(parts, ", ") +
         ")";
}

std::string DeleteNode::Describe() const {
  return "Delete(table=" + std::to_string(table_oid_) + ")";
}

namespace {

/// Always-constructing node rebuild: a fresh mutable copy of `node` over
/// `children`, without annotations (callers decide whether to copy or
/// replace them).
std::shared_ptr<PhysicalNode> RebuildNode(const PhysPtr& node,
                                          std::vector<PhysPtr> children) {
  MPPDB_CHECK(children.size() == node->children().size());
  switch (node->kind()) {
    case PhysNodeKind::kTableScan: {
      const auto& scan = static_cast<const TableScanNode&>(*node);
      return std::make_shared<TableScanNode>(scan.table_oid(), scan.unit_oid(),
                                             scan.column_ids(), scan.rowid_ids());
    }
    case PhysNodeKind::kCheckedPartScan: {
      const auto& scan = static_cast<const CheckedPartScanNode&>(*node);
      return std::make_shared<CheckedPartScanNode>(scan.table_oid(), scan.leaf_oid(),
                                                   scan.scan_id(), scan.column_ids());
    }
    case PhysNodeKind::kDynamicScan: {
      const auto& scan = static_cast<const DynamicScanNode&>(*node);
      return std::make_shared<DynamicScanNode>(scan.table_oid(), scan.scan_id(),
                                               scan.column_ids(), scan.rowid_ids());
    }
    case PhysNodeKind::kDynamicIndexScan: {
      const auto& scan = static_cast<const DynamicIndexScanNode&>(*node);
      return std::make_shared<DynamicIndexScanNode>(
          scan.table_oid(), scan.scan_id(), scan.column_ids(), scan.index_column(),
          scan.mode(), scan.lo(), scan.hi(), scan.residual(), scan.ascending(),
          scan.per_unit_limit());
    }
    case PhysNodeKind::kValues: {
      const auto& values = static_cast<const ValuesNode&>(*node);
      return std::make_shared<ValuesNode>(values.rows(), values.OutputIds());
    }
    case PhysNodeKind::kPartitionSelector: {
      const auto& sel = static_cast<const PartitionSelectorNode&>(*node);
      return std::make_shared<PartitionSelectorNode>(
          sel.table_oid(), sel.scan_id(), sel.level_keys(), sel.level_predicates(),
          children.empty() ? nullptr : children[0]);
    }
    case PhysNodeKind::kSequence:
      return std::make_shared<SequenceNode>(std::move(children));
    case PhysNodeKind::kAppend:
      return std::make_shared<AppendNode>(std::move(children));
    case PhysNodeKind::kFilter: {
      const auto& filter = static_cast<const FilterNode&>(*node);
      return std::make_shared<FilterNode>(filter.predicate(), children[0]);
    }
    case PhysNodeKind::kProject: {
      const auto& project = static_cast<const ProjectNode&>(*node);
      return std::make_shared<ProjectNode>(project.items(), children[0]);
    }
    case PhysNodeKind::kHashJoin: {
      const auto& join = static_cast<const HashJoinNode&>(*node);
      return std::make_shared<HashJoinNode>(join.join_type(), join.build_keys(),
                                            join.probe_keys(), join.residual(),
                                            children[0], children[1]);
    }
    case PhysNodeKind::kNestedLoopJoin: {
      const auto& join = static_cast<const NestedLoopJoinNode&>(*node);
      return std::make_shared<NestedLoopJoinNode>(join.join_type(), join.predicate(),
                                                  children[0], children[1]);
    }
    case PhysNodeKind::kIndexNLJoin: {
      const auto& join = static_cast<const IndexNLJoinNode&>(*node);
      return std::make_shared<IndexNLJoinNode>(children[0], join.inner_table(),
                                               join.inner_column_ids(),
                                               join.inner_key_column(),
                                               join.outer_key(), join.residual());
    }
    case PhysNodeKind::kHashAgg: {
      const auto& agg = static_cast<const HashAggNode&>(*node);
      return std::make_shared<HashAggNode>(agg.group_by(), agg.aggs(), children[0]);
    }
    case PhysNodeKind::kSort: {
      const auto& sort = static_cast<const SortNode&>(*node);
      return std::make_shared<SortNode>(sort.keys(), children[0]);
    }
    case PhysNodeKind::kLimit: {
      const auto& limit = static_cast<const LimitNode&>(*node);
      return std::make_shared<LimitNode>(limit.limit(), children[0]);
    }
    case PhysNodeKind::kTopN: {
      const auto& topn = static_cast<const TopNNode&>(*node);
      return std::make_shared<TopNNode>(topn.keys(), topn.limit(), children[0]);
    }
    case PhysNodeKind::kMotion: {
      const auto& motion = static_cast<const MotionNode&>(*node);
      return std::make_shared<MotionNode>(motion.motion_kind(), motion.hash_columns(),
                                          children[0]);
    }
    case PhysNodeKind::kInsert: {
      const auto& insert = static_cast<const InsertNode&>(*node);
      return std::make_shared<InsertNode>(insert.table_oid(), insert.OutputIds()[0],
                                          children[0]);
    }
    case PhysNodeKind::kUpdate: {
      const auto& update = static_cast<const UpdateNode&>(*node);
      return std::make_shared<UpdateNode>(update.table_oid(), update.table_column_ids(),
                                          update.rowid_ids(), update.set_items(),
                                          update.OutputIds()[0], children[0]);
    }
    case PhysNodeKind::kDelete: {
      const auto& del = static_cast<const DeleteNode&>(*node);
      return std::make_shared<DeleteNode>(del.table_oid(), del.rowid_ids(),
                                          del.OutputIds()[0], children[0]);
    }
  }
  MPPDB_CHECK(false);
  return nullptr;
}

}  // namespace

PhysPtr CloneWithChildren(const PhysPtr& node, std::vector<PhysPtr> children) {
  MPPDB_CHECK(children.size() == node->children().size());
  bool same = true;
  for (size_t i = 0; i < children.size(); ++i) {
    if (children[i] != node->child(i)) {
      same = false;
      break;
    }
  }
  if (same) return node;
  std::shared_ptr<PhysicalNode> clone = RebuildNode(node, std::move(children));
  clone->CopyJoinFiltersFrom(*node);
  return clone;
}

PhysPtr WithJoinFilters(const PhysPtr& node, std::vector<PhysPtr> children,
                        JoinFilterAnnotations annotations) {
  std::shared_ptr<PhysicalNode> clone = RebuildNode(node, std::move(children));
  clone->set_join_filters(std::move(annotations));
  return clone;
}

namespace {

/// The node's join-filter annotations as EXPLAIN shows them, after its
/// Describe() on the same line; empty when it carries none.
std::string JoinFiltersToString(const JoinFilterAnnotations& filters) {
  if (filters.empty()) return "";
  std::vector<std::string> parts;
  for (const JoinFilterSpec& spec : filters.publishes) {
    parts.push_back("publish jf" + std::to_string(spec.filter_id) +
                    " keys=" + IdsToString(spec.key_columns) +
                    (spec.global ? " global" : " local"));
  }
  for (const JoinFilterProbe& probe : filters.probes) {
    parts.push_back("probe jf" + std::to_string(probe.filter_id) +
                    " keys=" + IdsToString(probe.key_columns) +
                    (probe.global ? " global" : " local") +
                    (probe.below_motion ? " below-motion" : ""));
  }
  return "  [join filters: " + Join(parts, "; ") + "]";
}

void PlanToStringRecursive(const PhysPtr& node, int depth, std::string* out) {
  out->append(static_cast<size_t>(depth) * 2, ' ');
  out->append(node->Describe());
  out->append(JoinFiltersToString(node->join_filters()));
  out->append("\n");
  for (const auto& child : node->children()) {
    PlanToStringRecursive(child, depth + 1, out);
  }
}

void SerializeRecursive(const PhysPtr& node, std::string* out) {
  // Deterministic pre-order rendering; Describe() includes every
  // partition-identifying annotation, so Planner plans that enumerate
  // partitions serialize proportionally larger.
  out->append(node->Describe());
  out->append("{");
  for (const auto& child : node->children()) {
    SerializeRecursive(child, out);
  }
  out->append("}");
}

}  // namespace

std::string PlanToString(const PhysPtr& plan) {
  std::string out;
  PlanToStringRecursive(plan, 0, &out);
  return out;
}

std::string SerializePlan(const PhysPtr& plan) {
  std::string out;
  SerializeRecursive(plan, &out);
  return out;
}

}  // namespace mppdb

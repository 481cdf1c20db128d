#include "db/database.h"

#include <algorithm>
#include <chrono>
#include <map>
#include <set>
#include <thread>

#include "common/macros.h"
#include "sql/parser.h"
#include "types/date.h"

namespace mppdb {

Result<Oid> Database::CreateTable(const std::string& name, Schema schema,
                                  TableDistribution distribution,
                                  std::vector<int> distribution_columns) {
  std::unique_lock<std::shared_mutex> lock(state_mu_);
  return CreateTableLocked(name, std::move(schema), distribution,
                           std::move(distribution_columns));
}

Result<Oid> Database::CreatePartitionedTable(
    const std::string& name, Schema schema, TableDistribution distribution,
    std::vector<int> distribution_columns, std::vector<PartitionLevelDesc> level_descs,
    const std::vector<std::vector<PartitionBound>>& bounds_per_level) {
  std::unique_lock<std::shared_mutex> lock(state_mu_);
  return CreatePartitionedTableLocked(name, std::move(schema), distribution,
                                      std::move(distribution_columns),
                                      std::move(level_descs), bounds_per_level);
}

Result<Oid> Database::CreateTableLocked(const std::string& name, Schema schema,
                                        TableDistribution distribution,
                                        std::vector<int> distribution_columns) {
  MPPDB_ASSIGN_OR_RETURN(Oid oid,
                         catalog_.CreateTable(name, std::move(schema), distribution,
                                              std::move(distribution_columns)));
  MPPDB_RETURN_IF_ERROR(storage_.CreateStorage(catalog_.FindTable(oid)));
  // A name reused after DROP must not resurrect plans against the old oid.
  plan_cache_.InvalidateTable(name);
  return oid;
}

Result<Oid> Database::CreatePartitionedTableLocked(
    const std::string& name, Schema schema, TableDistribution distribution,
    std::vector<int> distribution_columns, std::vector<PartitionLevelDesc> level_descs,
    const std::vector<std::vector<PartitionBound>>& bounds_per_level) {
  MPPDB_ASSIGN_OR_RETURN(
      Oid oid, catalog_.CreatePartitionedTable(name, std::move(schema), distribution,
                                               std::move(distribution_columns),
                                               std::move(level_descs),
                                               bounds_per_level));
  MPPDB_RETURN_IF_ERROR(storage_.CreateStorage(catalog_.FindTable(oid)));
  plan_cache_.InvalidateTable(name);
  return oid;
}

Status Database::Load(const std::string& table, const std::vector<Row>& rows) {
  std::unique_lock<std::shared_mutex> lock(state_mu_);
  const TableDescriptor* desc = catalog_.FindTable(table);
  if (desc == nullptr) return Status::NotFound("table '" + table + "' does not exist");
  return storage_.GetStore(desc->oid)->InsertBatch(rows);
}

namespace {

// Rebuilt nodes must keep the original's join-filter annotations (the
// placement pass runs before parameter binding).
PhysPtr KeepJoinFilters(const PhysicalNode& original,
                        std::shared_ptr<PhysicalNode> rebuilt) {
  rebuilt->CopyJoinFiltersFrom(original);
  return rebuilt;
}

// Rewrites every scalar expression embedded in a plan with `fn`.
PhysPtr RewritePlanExprs(const PhysPtr& node,
                         const std::function<ExprPtr(const ExprPtr&)>& fn) {
  std::vector<PhysPtr> children;
  children.reserve(node->children().size());
  for (const auto& child : node->children()) {
    children.push_back(RewritePlanExprs(child, fn));
  }
  switch (node->kind()) {
    case PhysNodeKind::kFilter: {
      const auto& filter = static_cast<const FilterNode&>(*node);
      return KeepJoinFilters(*node, std::make_shared<FilterNode>(
                                        fn(filter.predicate()), children[0]));
    }
    case PhysNodeKind::kProject: {
      const auto& project = static_cast<const ProjectNode&>(*node);
      std::vector<ProjectItem> items = project.items();
      for (auto& item : items) item.expr = fn(item.expr);
      return KeepJoinFilters(*node, std::make_shared<ProjectNode>(
                                        std::move(items), children[0]));
    }
    case PhysNodeKind::kHashJoin: {
      const auto& join = static_cast<const HashJoinNode&>(*node);
      return KeepJoinFilters(
          *node, std::make_shared<HashJoinNode>(
                     join.join_type(), join.build_keys(), join.probe_keys(),
                     join.residual() ? fn(join.residual()) : nullptr,
                     children[0], children[1]));
    }
    case PhysNodeKind::kNestedLoopJoin: {
      const auto& join = static_cast<const NestedLoopJoinNode&>(*node);
      return KeepJoinFilters(
          *node, std::make_shared<NestedLoopJoinNode>(
                     join.join_type(),
                     join.predicate() ? fn(join.predicate()) : nullptr,
                     children[0], children[1]));
    }
    case PhysNodeKind::kIndexNLJoin: {
      const auto& join = static_cast<const IndexNLJoinNode&>(*node);
      return KeepJoinFilters(
          *node, std::make_shared<IndexNLJoinNode>(
                     children[0], join.inner_table(), join.inner_column_ids(),
                     join.inner_key_column(), join.outer_key(),
                     join.residual() ? fn(join.residual()) : nullptr));
    }
    case PhysNodeKind::kHashAgg: {
      const auto& agg = static_cast<const HashAggNode&>(*node);
      std::vector<AggItem> aggs = agg.aggs();
      for (auto& item : aggs) {
        if (item.arg != nullptr) item.arg = fn(item.arg);
      }
      return KeepJoinFilters(*node, std::make_shared<HashAggNode>(
                                        agg.group_by(), std::move(aggs),
                                        children[0]));
    }
    case PhysNodeKind::kDynamicIndexScan: {
      const auto& scan = static_cast<const DynamicIndexScanNode&>(*node);
      return KeepJoinFilters(
          *node, std::make_shared<DynamicIndexScanNode>(
                     scan.table_oid(), scan.scan_id(), scan.column_ids(),
                     scan.index_column(), scan.mode(), scan.lo(), scan.hi(),
                     scan.residual() ? fn(scan.residual()) : nullptr,
                     scan.ascending(), scan.per_unit_limit()));
    }
    case PhysNodeKind::kPartitionSelector: {
      const auto& sel = static_cast<const PartitionSelectorNode&>(*node);
      std::vector<ExprPtr> preds = sel.level_predicates();
      for (auto& pred : preds) {
        if (pred != nullptr) pred = fn(pred);
      }
      return KeepJoinFilters(
          *node, std::make_shared<PartitionSelectorNode>(
                     sel.table_oid(), sel.scan_id(), sel.level_keys(),
                     std::move(preds), children.empty() ? nullptr : children[0]));
    }
    case PhysNodeKind::kUpdate: {
      const auto& update = static_cast<const UpdateNode&>(*node);
      std::vector<UpdateSetItem> items = update.set_items();
      for (auto& item : items) item.value = fn(item.value);
      return KeepJoinFilters(
          *node, std::make_shared<UpdateNode>(
                     update.table_oid(), update.table_column_ids(),
                     update.rowid_ids(), std::move(items),
                     update.OutputIds()[0], children[0]));
    }
    default:
      return CloneWithChildren(node, std::move(children));
  }
}

// Collects the distinct catalog (root) table oids a plan touches, for plan-
// cache invalidation. Partition-level oids resolve to no catalog root and are
// skipped; every scan over a partitioned table also carries the root oid
// through its DynamicScan/CheckedPartScan/PartitionSelector nodes.
void CollectPlanOids(const PhysPtr& node, std::vector<Oid>* out) {
  Oid oid = kInvalidOid;
  switch (node->kind()) {
    case PhysNodeKind::kTableScan:
      oid = static_cast<const TableScanNode&>(*node).table_oid();
      break;
    case PhysNodeKind::kCheckedPartScan:
      oid = static_cast<const CheckedPartScanNode&>(*node).table_oid();
      break;
    case PhysNodeKind::kDynamicScan:
      oid = static_cast<const DynamicScanNode&>(*node).table_oid();
      break;
    case PhysNodeKind::kDynamicIndexScan:
      oid = static_cast<const DynamicIndexScanNode&>(*node).table_oid();
      break;
    case PhysNodeKind::kPartitionSelector:
      oid = static_cast<const PartitionSelectorNode&>(*node).table_oid();
      break;
    case PhysNodeKind::kIndexNLJoin:
      oid = static_cast<const IndexNLJoinNode&>(*node).inner_table();
      break;
    case PhysNodeKind::kInsert:
      oid = static_cast<const InsertNode&>(*node).table_oid();
      break;
    case PhysNodeKind::kUpdate:
      oid = static_cast<const UpdateNode&>(*node).table_oid();
      break;
    case PhysNodeKind::kDelete:
      oid = static_cast<const DeleteNode&>(*node).table_oid();
      break;
    default:
      break;
  }
  if (oid != kInvalidOid) out->push_back(oid);
  for (const PhysPtr& child : node->children()) CollectPlanOids(child, out);
}

std::vector<std::string> CollectPlanTables(const PhysPtr& plan, const Catalog& catalog) {
  std::vector<Oid> oids;
  if (plan != nullptr) CollectPlanOids(plan, &oids);
  std::vector<std::string> names;
  for (Oid oid : oids) {
    const TableDescriptor* desc = catalog.FindTable(oid);
    if (desc == nullptr) continue;
    if (std::find(names.begin(), names.end(), desc->name) == names.end()) {
      names.push_back(desc->name);
    }
  }
  return names;
}

// Planning-relevant option fingerprint appended to the plan-cache key: the
// same normalized text planned under a different optimizer or alternative
// toggles is a different plan.
std::string CacheKeySuffix(const QueryOptions& options) {
  std::string suffix = "\n|opt=";
  suffix += options.optimizer == OptimizerKind::kCascades ? 'C' : 'L';
  suffix += options.enable_partition_selection ? '1' : '0';
  suffix += options.enable_dynamic_elimination ? '1' : '0';
  suffix += options.enable_two_phase_agg ? '1' : '0';
  suffix += options.enable_index_join ? '1' : '0';
  suffix += options.enable_join_filters ? '1' : '0';
  suffix += options.enable_index_paths ? '1' : '0';
  return suffix;
}

}  // namespace

Result<PhysPtr> BindPlanParams(const PhysPtr& plan, const std::vector<Datum>& params) {
  return RewritePlanExprs(
      plan, [&params](const ExprPtr& expr) { return SubstituteParams(expr, params); });
}

Result<PhysPtr> Database::PlanStatement(const BoundStatement& stmt,
                                        const QueryOptions& options) {
  if (options.optimizer == OptimizerKind::kCascades) {
    CascadesOptimizer::Options opt;
    opt.enable_partition_selection = options.enable_partition_selection;
    opt.enable_dynamic_elimination = options.enable_dynamic_elimination;
    opt.enable_two_phase_agg = options.enable_two_phase_agg;
    opt.enable_index_join = options.enable_index_join;
    opt.enable_join_filters = options.enable_join_filters;
    opt.enable_index_paths = options.enable_index_paths;
    CascadesOptimizer optimizer(&catalog_, &storage_, opt);
    return optimizer.Plan(stmt);
  }
  LegacyPlanner::Options opt;
  opt.enable_static_elimination = options.enable_partition_selection;
  opt.enable_dynamic_elimination =
      options.enable_partition_selection && options.enable_dynamic_elimination;
  LegacyPlanner planner(&catalog_, &storage_, opt);
  // The legacy planner expects a normalized tree (selections pushed down).
  BoundStatement normalized = stmt;
  normalized.root = NormalizeLogical(stmt.root);
  return planner.Plan(normalized);
}

Result<PhysPtr> Database::PlanSql(const std::string& sql, const QueryOptions& options) {
  std::shared_lock<std::shared_mutex> lock(state_mu_);
  Binder binder(&catalog_);
  MPPDB_ASSIGN_OR_RETURN(BoundStatement stmt, binder.BindSql(sql));
  return PlanStatement(stmt, options);
}

namespace {

Result<TypeId> ParseTypeName(const std::string& name) {
  if (name == "int" || name == "integer") return TypeId::kInt32;
  if (name == "bigint") return TypeId::kInt64;
  if (name == "double" || name == "float") return TypeId::kDouble;
  if (name == "varchar" || name == "text" || name == "string") return TypeId::kString;
  if (name == "date") return TypeId::kDate;
  if (name == "bool" || name == "boolean") return TypeId::kBool;
  return Status::BindError("unknown type '" + name + "'");
}

// Evaluates a DDL literal (bound against an empty scope) to a Datum, with
// date coercion for date-typed partition columns.
Result<Datum> DdlLiteral(const sql_ast::ParseExpr& expr, TypeId column_type) {
  using K = sql_ast::ParseExpr::Kind;
  switch (expr.kind) {
    case K::kIntLit:
      return Datum::Int64(expr.int_value);
    case K::kDoubleLit:
      return Datum::Double(expr.double_value);
    case K::kDateLit:
    case K::kStringLit: {
      if (column_type == TypeId::kDate || expr.kind == K::kDateLit) {
        int32_t days = 0;
        if (!date::Parse(expr.text, &days)) {
          return Status::BindError("malformed date literal '" + expr.text + "'");
        }
        return Datum::Date(days);
      }
      return Datum::String(expr.text);
    }
    case K::kBoolLit:
      return Datum::Bool(expr.int_value != 0);
    default:
      return Status::BindError("partition bounds must be literals");
  }
}

/// Applies a WITH (key = value, ...) option list to a table (empty
/// `partition`) or to matching leaf partitions. The only option today is
/// orientation = row | column.
Status ApplyStorageOptions(
    Catalog* catalog, const std::string& table, const std::string& partition,
    const std::vector<std::pair<std::string, std::string>>& options) {
  for (const auto& [key, value] : options) {
    if (key != "orientation") {
      return Status::BindError("unknown storage option '" + key + "'");
    }
    StorageOrientation orientation;
    if (value == "column") {
      orientation = StorageOrientation::kColumn;
    } else if (value == "row") {
      orientation = StorageOrientation::kRow;
    } else {
      return Status::BindError("orientation must be 'row' or 'column', got '" +
                               value + "'");
    }
    if (partition.empty()) {
      MPPDB_RETURN_IF_ERROR(catalog->SetTableOrientation(table, orientation));
    } else {
      MPPDB_RETURN_IF_ERROR(
          catalog->SetPartitionOrientation(table, partition, orientation));
    }
  }
  return Status::OK();
}

}  // namespace

Result<QueryResult> Database::RunDdl(const sql_ast::Statement& parsed) {
  QueryResult result;
  result.columns = {"status"};
  if (parsed.kind == sql_ast::Statement::Kind::kAlterTable) {
    const sql_ast::AlterTableStmt& alter = *parsed.alter_table;
    MPPDB_RETURN_IF_ERROR(ApplyStorageOptions(&catalog_, alter.table,
                                              alter.partition, alter.options));
    // Orientation does not change plans, but cached entries may pin stale
    // EXPLAIN artifacts; invalidation is cheap and safe.
    plan_cache_.InvalidateTable(alter.table);
    result.rows = {{Datum::String("ALTER TABLE")}};
    return result;
  }
  if (parsed.kind == sql_ast::Statement::Kind::kCreateIndex) {
    const sql_ast::CreateIndexStmt& index = *parsed.create_index;
    MPPDB_RETURN_IF_ERROR(catalog_.CreateIndex(index.table, index.column));
    const TableDescriptor* table = catalog_.FindTable(index.table);
    MPPDB_RETURN_IF_ERROR(storage_.GetStore(table->oid)->CreateIndex(
        table->schema.FindColumn(index.column)));
    // A new index changes which plan is optimal for the table's statements.
    plan_cache_.InvalidateTable(index.table);
    result.rows = {{Datum::String("CREATE INDEX")}};
    return result;
  }
  if (parsed.kind == sql_ast::Statement::Kind::kDropTable) {
    const TableDescriptor* table = catalog_.FindTable(parsed.drop_table->table);
    if (table == nullptr) {
      return Status::NotFound("table '" + parsed.drop_table->table +
                              "' does not exist");
    }
    Oid oid = table->oid;
    MPPDB_RETURN_IF_ERROR(catalog_.DropTable(parsed.drop_table->table));
    MPPDB_RETURN_IF_ERROR(storage_.DropStorage(oid));
    plan_cache_.InvalidateTable(parsed.drop_table->table);
    result.rows = {{Datum::String("DROP TABLE")}};
    return result;
  }

  const sql_ast::CreateTableStmt& create = *parsed.create_table;
  std::vector<Column> columns;
  for (const sql_ast::ColumnDef& def : create.columns) {
    MPPDB_ASSIGN_OR_RETURN(TypeId type, ParseTypeName(def.type));
    columns.push_back({def.name, type});
  }
  Schema schema(std::move(columns));

  TableDistribution distribution = TableDistribution::kRandom;
  std::vector<int> distribution_columns;
  switch (create.distribution) {
    case sql_ast::CreateTableStmt::Distribution::kRandom:
      break;
    case sql_ast::CreateTableStmt::Distribution::kReplicated:
      distribution = TableDistribution::kReplicated;
      break;
    case sql_ast::CreateTableStmt::Distribution::kHash:
      distribution = TableDistribution::kHashed;
      for (const std::string& name : create.distribution_columns) {
        int index = schema.FindColumn(name);
        if (index < 0) {
          return Status::BindError("distribution column '" + name + "' not found");
        }
        distribution_columns.push_back(index);
      }
      break;
  }

  if (create.partition_levels.empty()) {
    MPPDB_RETURN_IF_ERROR(
        CreateTableLocked(create.table, std::move(schema), distribution,
                          std::move(distribution_columns))
            .status());
    MPPDB_RETURN_IF_ERROR(
        ApplyStorageOptions(&catalog_, create.table, "", create.with_options));
    result.rows = {{Datum::String("CREATE TABLE")}};
    return result;
  }

  std::vector<PartitionLevelDesc> level_descs;
  std::vector<std::vector<PartitionBound>> bounds_per_level;
  for (const sql_ast::PartitionLevelSpec& level : create.partition_levels) {
    int key = schema.FindColumn(level.column);
    if (key < 0) {
      return Status::BindError("partition column '" + level.column + "' not found");
    }
    TypeId key_type = schema.column(static_cast<size_t>(key)).type;
    std::vector<PartitionBound> bounds;
    if (level.is_range) {
      MPPDB_ASSIGN_OR_RETURN(Datum start, DdlLiteral(*level.start, key_type));
      MPPDB_ASSIGN_OR_RETURN(Datum end, DdlLiteral(*level.end, key_type));
      if (level.every <= 0 || !IsIntegral(start.type()) ||
          Datum::Compare(start, end) >= 0) {
        return Status::BindError(
            "range partitioning needs integral bounds with START < END and a "
            "positive EVERY step");
      }
      int64_t lo = start.AsInt64();
      int64_t hi = end.AsInt64();
      int part = 0;
      for (int64_t v = lo; v < hi; v += level.every, ++part) {
        int64_t upper = std::min(v + level.every, hi);
        Datum lo_datum = start.type() == TypeId::kDate
                             ? Datum::Date(static_cast<int32_t>(v))
                             : Datum::Int64(v);
        Datum hi_datum = start.type() == TypeId::kDate
                             ? Datum::Date(static_cast<int32_t>(upper))
                             : Datum::Int64(upper);
        bounds.push_back(PartitionBound::Range(std::move(lo_datum),
                                               std::move(hi_datum),
                                               "p" + std::to_string(part)));
      }
      level_descs.push_back({key, PartitionMethod::kRange});
    } else {
      std::vector<Datum> values;
      for (const auto& value_expr : level.values) {
        MPPDB_ASSIGN_OR_RETURN(Datum v, DdlLiteral(*value_expr, key_type));
        values.push_back(std::move(v));
      }
      bounds = partition_bounds::ListValues(values);
      level_descs.push_back({key, PartitionMethod::kList});
    }
    bounds_per_level.push_back(std::move(bounds));
  }
  MPPDB_RETURN_IF_ERROR(CreatePartitionedTableLocked(create.table, std::move(schema),
                                                     distribution,
                                                     std::move(distribution_columns),
                                                     std::move(level_descs),
                                                     bounds_per_level)
                            .status());
  MPPDB_RETURN_IF_ERROR(
      ApplyStorageOptions(&catalog_, create.table, "", create.with_options));
  result.rows = {{Datum::String("CREATE TABLE")}};
  return result;
}

namespace {

bool PlanHasDml(const PhysPtr& node) {
  if (node->kind() == PhysNodeKind::kInsert ||
      node->kind() == PhysNodeKind::kUpdate ||
      node->kind() == PhysNodeKind::kDelete) {
    return true;
  }
  for (const auto& child : node->children()) {
    if (PlanHasDml(child)) return true;
  }
  return false;
}

}  // namespace

Result<QueryResult> Database::ExecuteWithContext(const PhysPtr& plan,
                                                 const QueryOptions& options) {
  // Per-call executor: Run/Execute stay safe under concurrent callers because
  // nothing per-run is shared — only the scheduler pool (when workers > 1),
  // which is built for concurrent task groups.
  Executor executor(&catalog_, &storage_, exec_options_);
  if (scheduler_ != nullptr) executor.SetScheduler(scheduler_.get());

  auto ctx = std::make_shared<QueryContext>();
  if (options.timeout_ms > 0) {
    ctx->SetTimeout(std::chrono::milliseconds(options.timeout_ms));
  }
  ctx->budget().set_limit(options.memory_limit_bytes);
  ctx->set_fault_injector(options.fault_injector);
  ctx->set_spill_dir(options.spill_dir);
  if (options.query_id != 0) {
    std::lock_guard<std::mutex> lock(query_mu_);
    active_queries_[options.query_id] = ctx;
  }
  // Transient failures (kTransientIO) retry at query level: Execute's
  // start-and-end teardown is idempotent (hub channels, exchanges, join
  // filters, budget usage all reset), so re-running the same plan on the
  // same context is safe. DML plans are excluded — a transient fault after
  // the apply phase must not apply the writes twice. Cancellation, deadline
  // expiry, and budget exhaustion are deliberate verdicts, never retried.
  const bool retriable_plan = !PlanHasDml(plan);
  Result<std::vector<Row>> rows = executor.Execute(plan, ctx.get());
  for (int attempt = 0; !rows.ok() && rows.status().IsRetriable() &&
                        retriable_plan && attempt < options.max_transient_retries;
       ++attempt) {
    if (options.retry_backoff_ms > 0) {
      std::this_thread::sleep_for(
          std::chrono::milliseconds(options.retry_backoff_ms << attempt));
    }
    rows = executor.Execute(plan, ctx.get());
  }
  if (options.query_id != 0) {
    std::lock_guard<std::mutex> lock(query_mu_);
    auto it = active_queries_.find(options.query_id);
    // Guard against a reused id registered by a newer statement.
    if (it != active_queries_.end() && it->second == ctx) active_queries_.erase(it);
  }
  MPPDB_RETURN_IF_ERROR(rows.status());
  QueryResult result;
  result.rows = std::move(rows).value();
  result.stats = executor.stats();
  return result;
}

bool Database::Cancel(uint64_t query_id) {
  std::shared_ptr<QueryContext> ctx;
  {
    std::lock_guard<std::mutex> lock(query_mu_);
    auto it = active_queries_.find(query_id);
    if (it == active_queries_.end()) return false;
    ctx = it->second;
  }
  // Outside query_mu_: Cancel runs the executor's abort callback, which may
  // take its own locks — never while holding the registry lock.
  ctx->Cancel();
  return true;
}

Result<QueryResult> Database::Execute(const std::string& sql,
                                      const QueryOptions& options) {
  if (options.use_plan_cache) {
    Result<NormalizedSql> normalized = NormalizeSql(sql);
    if (normalized.ok() && normalized->cacheable) {
      return ExecuteCacheable(*normalized, options);
    }
    // Normalization failures fall through: the fresh parser owns the error
    // message for malformed SQL.
  }
  return ExecuteFresh(sql, options);
}

Result<QueryResult> Database::ExecuteCacheable(const NormalizedSql& normalized,
                                               const QueryOptions& options) {
  // When the normalizer lifted the literals itself, its extracted values are
  // the parameters; otherwise the statement already used $n and the caller's
  // QueryOptions::params apply.
  const std::vector<Datum>& values =
      normalized.auto_params ? normalized.params : options.params;
  const std::string key = normalized.text + CacheKeySuffix(options);

  // Shared lock before the cache lookup: DDL invalidates under the exclusive
  // lock, so an entry observed here stays consistent with the catalog for
  // the whole execution.
  std::shared_lock<std::shared_mutex> lock(state_mu_);
  // Concurrent misses on one statement compile it once (the claim); the
  // others wait for the published plan.
  std::unique_ptr<PlanCache::CompileClaim> claim;
  std::shared_ptr<const CachedPlan> entry = plan_cache_.Lookup(key, &claim);
  const bool hit = entry != nullptr;
  if (!hit) {
    // Miss: plan the *normalized* text once, with $n placeholders intact, so
    // the published plan is value-independent (the paper's prepared-statement
    // contract — PartitionSelectors evaluate the parameters at run time).
    MPPDB_ASSIGN_OR_RETURN(sql_ast::Statement parsed,
                           ParseStatement(normalized.text));
    Binder binder(&catalog_);
    MPPDB_ASSIGN_OR_RETURN(BoundStatement stmt, binder.Bind(parsed));
    MPPDB_ASSIGN_OR_RETURN(PhysPtr plan, PlanStatement(stmt, options));
    auto cached = std::make_shared<CachedPlan>();
    cached->plan = std::move(plan);
    cached->columns = stmt.output_names;
    cached->params = AnalyzePlanParams(cached->plan);
    cached->table_names = CollectPlanTables(cached->plan, catalog_);
    if (cached->params.invariant && !stmt.explain) {
      plan_cache_.Insert(key, cached);
    }
    claim.reset();
    entry = std::move(cached);
  }

  // Rebind this call's values into a private copy of the plan (validating
  // arity and coercing strings where the plan expects dates), then execute.
  MPPDB_ASSIGN_OR_RETURN(std::vector<Datum> coerced,
                         CoerceParamValues(entry->params, values));
  PhysPtr bound = entry->plan;
  if (!coerced.empty()) {
    MPPDB_ASSIGN_OR_RETURN(bound, BindPlanParams(entry->plan, coerced));
  }
  MPPDB_ASSIGN_OR_RETURN(QueryResult result, ExecuteWithContext(bound, options));
  result.columns = entry->columns;
  result.plan = std::move(bound);
  result.plan_cache_hit = hit;
  return result;
}

namespace {

void CollectScanTables(const PhysicalNode& node, std::set<Oid>* oids) {
  switch (node.kind()) {
    case PhysNodeKind::kTableScan:
      oids->insert(static_cast<const TableScanNode&>(node).table_oid());
      break;
    case PhysNodeKind::kCheckedPartScan:
      oids->insert(static_cast<const CheckedPartScanNode&>(node).table_oid());
      break;
    case PhysNodeKind::kDynamicScan:
      oids->insert(static_cast<const DynamicScanNode&>(node).table_oid());
      break;
    case PhysNodeKind::kDynamicIndexScan:
      oids->insert(static_cast<const DynamicIndexScanNode&>(node).table_oid());
      break;
    default:
      break;
  }
  for (const PhysPtr& child : node.children()) {
    if (child != nullptr) CollectScanTables(*child, oids);
  }
}

/// Per-column encoding summary of one column-oriented storage unit, e.g.
/// "id: bit-packed, state: dictionary, note: plain". Chunks whose encodings
/// disagree report "mixed"; units with no rows report "empty".
std::string UnitEncodingSummary(const TableStore& store, Oid unit_oid,
                                const Schema& schema) {
  std::vector<std::map<ColumnEncoding, size_t>> counts(schema.size());
  size_t total_chunks = 0;
  for (int seg = 0; seg < store.num_segments(); ++seg) {
    const SliceColumns* cols = store.UnitColumns(unit_oid, seg);
    if (cols == nullptr || cols->row_count == 0) continue;
    total_chunks += cols->num_chunks();
    for (size_t c = 0; c < cols->columns.size() && c < counts.size(); ++c) {
      for (const EncodedColumnChunk& chunk : cols->columns[c]) {
        ++counts[c][chunk.encoding];
      }
    }
  }
  if (total_chunks == 0) return "empty";
  std::string out;
  for (size_t c = 0; c < schema.size(); ++c) {
    if (!out.empty()) out += ", ";
    out += schema.column(c).name;
    out += ": ";
    if (counts[c].size() == 1) {
      out += ColumnEncodingName(counts[c].begin()->first);
    } else {
      out += "mixed";
    }
  }
  return out;
}

/// EXPLAIN footer (appended after the plan tree): storage orientation of
/// every scanned table that has column-oriented units, with each unit's
/// per-column encodings. Tables that are entirely row-oriented print
/// nothing, keeping pre-existing EXPLAIN output byte-identical.
std::string StorageExplainFooter(const Catalog& catalog, StorageEngine& storage,
                                 const PhysPtr& plan) {
  if (plan == nullptr) return "";
  std::set<Oid> oids;
  CollectScanTables(*plan, &oids);
  std::string out;
  for (Oid oid : oids) {
    const TableDescriptor* desc = catalog.FindTable(oid);
    TableStore* store = storage.GetStore(oid);
    if (desc == nullptr || store == nullptr) continue;
    const std::vector<Oid> units = store->UnitOids();
    bool any_column = false;
    for (Oid unit : units) {
      any_column |=
          store->UnitOrientation(unit) == StorageOrientation::kColumn;
    }
    if (!any_column) continue;
    out += "Storage: " + desc->name + " (default " +
           StorageOrientationName(desc->default_orientation) + ")\n";
    for (Oid unit : units) {
      std::string label = desc->name;
      if (desc->IsPartitioned()) {
        for (const LeafPartitionInfo& leaf : desc->partition_scheme->Leaves()) {
          if (leaf.oid == unit) {
            label = leaf.qualified_name;
            break;
          }
        }
      }
      const StorageOrientation orientation = store->UnitOrientation(unit);
      out += "  " + label + ": " + StorageOrientationName(orientation);
      if (orientation == StorageOrientation::kColumn) {
        out += " (" + UnitEncodingSummary(*store, unit, desc->schema) + ")";
      }
      out += "\n";
    }
  }
  return out;
}

void CollectIndexScans(const PhysicalNode& node,
                       std::vector<const DynamicIndexScanNode*>* out) {
  if (node.kind() == PhysNodeKind::kDynamicIndexScan) {
    out->push_back(static_cast<const DynamicIndexScanNode*>(&node));
  }
  for (const PhysPtr& child : node.children()) {
    if (child != nullptr) CollectIndexScans(*child, out);
  }
}

std::string IndexBoundLabel(const IndexBound& bound, bool low) {
  if (bound.unbounded) return "*";
  return (low ? (bound.inclusive ? "[" : "(") : "") + bound.value.ToString() +
         (low ? "" : (bound.inclusive ? "]" : ")"));
}

/// EXPLAIN footer: the index access path chosen for each DynamicIndexScan,
/// spelled out per partition (leaves a PartitionSelector rules out at run
/// time are simply not probed). Plans without index scans print nothing,
/// keeping pre-existing EXPLAIN output byte-identical.
std::string IndexPathExplainFooter(const Catalog& catalog, const PhysPtr& plan) {
  if (plan == nullptr) return "";
  std::vector<const DynamicIndexScanNode*> scans;
  CollectIndexScans(*plan, &scans);
  std::string out;
  for (const DynamicIndexScanNode* scan : scans) {
    const TableDescriptor* desc = catalog.FindTable(scan->table_oid());
    if (desc == nullptr) continue;
    const std::string column = desc->schema.column(
        static_cast<size_t>(scan->index_column())).name;
    std::string path;
    switch (scan->mode()) {
      case IndexScanMode::kRangeSeek:
        path = "index range seek on " + column + " " +
               IndexBoundLabel(scan->lo(), true) + ".." +
               IndexBoundLabel(scan->hi(), false);
        break;
      case IndexScanMode::kOrderedWalk:
        path = "index ordered walk on " + column +
               (scan->ascending() ? " asc" : " desc");
        if (scan->per_unit_limit() > 0) {
          path += " limit " + std::to_string(scan->per_unit_limit());
        }
        break;
      case IndexScanMode::kMinMax:
        path = std::string("index ") + (scan->ascending() ? "min" : "max") +
               " probe on " + column;
        break;
    }
    out += "Access paths: " + desc->name + "\n";
    if (desc->IsPartitioned()) {
      for (const LeafPartitionInfo& leaf : desc->partition_scheme->Leaves()) {
        out += "  " + leaf.qualified_name + ": " + path + "\n";
      }
    } else {
      out += "  " + desc->name + ": " + path + "\n";
    }
  }
  return out;
}

/// EXPLAIN ANALYZE footer: execution counters from the completed run. The
/// out-of-core counters (DESIGN.md §14) and the join-filter counters (§8)
/// make spilling and filtering observable here and in ExecStats without
/// perturbing result rows — the stats-only-visibility invariant.
std::string ExecStatsExplainFooter(const QueryResult& result) {
  const ExecStats& s = result.stats;
  std::string out = "Execution: " + std::to_string(result.rows.size()) +
                    " result rows, " + std::to_string(s.tuples_scanned) +
                    " tuples scanned\n";
  out += "Spill: partitions=" + std::to_string(s.spill_partitions) +
         " bytes_written=" + std::to_string(s.spill_bytes_written) +
         " bytes_read=" + std::to_string(s.spill_bytes_read) +
         " passes=" + std::to_string(s.spill_passes) +
         " sort_runs=" + std::to_string(s.sort_runs) + "\n";
  out += "Join filters: built=" + std::to_string(s.joinfilter_built) +
         " probed=" + std::to_string(s.joinfilter_probed) +
         " rejected=" + std::to_string(s.joinfilter_rows_rejected) +
         " chunks_skipped=" + std::to_string(s.joinfilter_chunks_skipped) +
         " motion_rows_saved=" + std::to_string(s.joinfilter_motion_rows_saved) +
         " probes_stopped=" + std::to_string(s.joinfilter_probes_stopped) + "\n";
  return out;
}

}  // namespace

Result<QueryResult> Database::ExecuteFresh(const std::string& sql,
                                           const QueryOptions& options) {
  MPPDB_ASSIGN_OR_RETURN(sql_ast::Statement parsed, ParseStatement(sql));
  if (parsed.kind == sql_ast::Statement::Kind::kCreateTable ||
      parsed.kind == sql_ast::Statement::Kind::kDropTable ||
      parsed.kind == sql_ast::Statement::Kind::kCreateIndex ||
      parsed.kind == sql_ast::Statement::Kind::kAlterTable) {
    std::unique_lock<std::shared_mutex> lock(state_mu_);
    return RunDdl(parsed);
  }
  // Writers (DML) take the state lock exclusively: the executor's
  // single-writer rule, upheld across concurrent statements. Reads (SELECT,
  // EXPLAIN) share it.
  const bool dml = parsed.kind == sql_ast::Statement::Kind::kInsert ||
                   parsed.kind == sql_ast::Statement::Kind::kUpdate ||
                   parsed.kind == sql_ast::Statement::Kind::kDelete;
  // Plain EXPLAIN never executes, so DML under it only reads catalog state;
  // EXPLAIN ANALYZE runs the statement and needs the writer lock for DML.
  const bool writes = dml && !(parsed.explain && !parsed.explain_analyze);
  std::shared_lock<std::shared_mutex> read_lock(state_mu_, std::defer_lock);
  std::unique_lock<std::shared_mutex> write_lock(state_mu_, std::defer_lock);
  if (writes) {
    write_lock.lock();
  } else {
    read_lock.lock();
  }

  Binder binder(&catalog_);
  MPPDB_ASSIGN_OR_RETURN(BoundStatement stmt, binder.Bind(parsed));
  PhysPtr plan;
  MPPDB_ASSIGN_OR_RETURN(plan, PlanStatement(stmt, options));
  if (!options.params.empty()) {
    MPPDB_ASSIGN_OR_RETURN(plan, BindPlanParams(plan, options.params));
  }
  if (stmt.explain) {
    std::string text = PlanToString(plan) +
                       StorageExplainFooter(catalog_, storage_, plan) +
                       IndexPathExplainFooter(catalog_, plan);
    QueryResult explained;
    if (stmt.explain_analyze) {
      // Execute the statement, then append execution counters (including
      // the spill counters) to the rendered plan.
      MPPDB_ASSIGN_OR_RETURN(QueryResult run, ExecuteWithContext(plan, options));
      text += ExecStatsExplainFooter(run);
      explained.stats = run.stats;
    }
    explained.rows = {{Datum::String(std::move(text))}};
    explained.columns = {"QUERY PLAN"};
    explained.plan = plan;
    return explained;
  }
  MPPDB_ASSIGN_OR_RETURN(QueryResult result, ExecuteWithContext(plan, options));
  result.columns = stmt.output_names;
  result.plan = plan;
  return result;
}

Result<QueryResult> Database::ExecutePlan(const PhysPtr& plan) {
  std::shared_lock<std::shared_mutex> lock(state_mu_);
  Executor executor(&catalog_, &storage_, exec_options_);
  if (scheduler_ != nullptr) executor.SetScheduler(scheduler_.get());
  MPPDB_ASSIGN_OR_RETURN(std::vector<Row> rows, executor.Execute(plan));
  QueryResult result;
  result.rows = std::move(rows);
  result.plan = plan;
  result.stats = executor.stats();
  return result;
}

Result<QueryResult> Database::ExecutePlan(const PhysPtr& plan,
                                          const QueryOptions& options) {
  std::shared_lock<std::shared_mutex> lock(state_mu_);
  MPPDB_ASSIGN_OR_RETURN(QueryResult result, ExecuteWithContext(plan, options));
  result.plan = plan;
  return result;
}

Result<std::string> Database::Explain(const std::string& sql,
                                      const QueryOptions& options) {
  MPPDB_ASSIGN_OR_RETURN(PhysPtr plan, PlanSql(sql, options));
  // The footer reads storage (and may lazily build encoded images), so it
  // shares the state lock like any read.
  std::shared_lock<std::shared_mutex> lock(state_mu_);
  return PlanToString(plan) + StorageExplainFooter(catalog_, storage_, plan) +
         IndexPathExplainFooter(catalog_, plan);
}

}  // namespace mppdb

#include "sql/binder.h"

#include <cctype>
#include <functional>
#include <unordered_set>

#include "common/macros.h"
#include "expr/eval.h"
#include "sql/parser.h"
#include "types/date.h"

namespace mppdb {

namespace {

using sql_ast::ParseExpr;

// Splits a parse-tree predicate into top-level AND conjuncts.
void SplitParseConjuncts(const ParseExpr* expr, std::vector<const ParseExpr*>* out) {
  if (expr == nullptr) return;
  if (expr->kind == ParseExpr::Kind::kBinary && expr->text == "AND") {
    SplitParseConjuncts(expr->args[0].get(), out);
    SplitParseConjuncts(expr->args[1].get(), out);
    return;
  }
  out->push_back(expr);
}

// Coerces a string literal to a date constant when compared against a DATE
// expression; returns the (possibly unchanged) expression.
Result<ExprPtr> CoerceToDate(ExprPtr expr) {
  if (expr->kind() != ExprKind::kConst) return expr;
  const Datum& v = static_cast<const ConstExpr&>(*expr).value();
  if (v.is_null() || v.type() != TypeId::kString) return expr;
  int32_t days = 0;
  if (!date::Parse(v.string_value(), &days)) {
    return Status::BindError("expected a date literal, got '" + v.string_value() + "'");
  }
  return MakeConst(Datum::Date(days));
}

// Applies date coercion between two comparison sides.
Status CoercePair(ExprPtr* a, ExprPtr* b) {
  TypeId ta = InferExprType(*a);
  TypeId tb = InferExprType(*b);
  if (ta == TypeId::kDate && tb == TypeId::kString) {
    MPPDB_ASSIGN_OR_RETURN(*b, CoerceToDate(*b));
  } else if (tb == TypeId::kDate && ta == TypeId::kString) {
    MPPDB_ASSIGN_OR_RETURN(*a, CoerceToDate(*a));
  }
  return Status::OK();
}

Result<CompareOp> ParseCompareOp(const std::string& op) {
  if (op == "=") return CompareOp::kEq;
  if (op == "<>") return CompareOp::kNe;
  if (op == "<") return CompareOp::kLt;
  if (op == "<=") return CompareOp::kLe;
  if (op == ">") return CompareOp::kGt;
  if (op == ">=") return CompareOp::kGe;
  return Status::BindError("unknown comparison operator " + op);
}

Result<AggFunc> ParseAggFunc(const std::string& name, bool star) {
  if (name == "COUNT") return star ? AggFunc::kCountStar : AggFunc::kCount;
  if (name == "SUM") return AggFunc::kSum;
  if (name == "AVG") return AggFunc::kAvg;
  if (name == "MIN") return AggFunc::kMin;
  if (name == "MAX") return AggFunc::kMax;
  return Status::BindError("unknown aggregate function " + name);
}

// Derives a display name for an expression-valued select item.
std::string DeriveName(const ParseExpr& expr) {
  switch (expr.kind) {
    case ParseExpr::Kind::kColumn:
      return expr.text;
    case ParseExpr::Kind::kFuncCall: {
      std::string name = expr.text;
      for (char& c : name) c = static_cast<char>(std::tolower(c));
      return name;
    }
    default:
      return "?column?";
  }
}

// Comparison family of a static type (string / bool / numeric-and-date).
int TypeFamily(TypeId t) {
  if (t == TypeId::kString) return 0;
  if (t == TypeId::kBool) return 1;
  return 2;
}

// Comparisons require both sides in one family; params are exempt (their
// type is known only at execution).
Status RequireComparable(const ExprPtr& a, const ExprPtr& b) {
  if (a->kind() == ExprKind::kParam || b->kind() == ExprKind::kParam) {
    return Status::OK();
  }
  if (TypeFamily(InferExprType(a)) != TypeFamily(InferExprType(b))) {
    return Status::BindError("cannot compare " + a->ToString() + " with " +
                             b->ToString());
  }
  return Status::OK();
}

Status RequireNumeric(const ExprPtr& expr) {
  if (expr->kind() == ExprKind::kParam) return Status::OK();
  TypeId type = InferExprType(expr);
  if (!IsNumeric(type)) {
    return Status::BindError("arithmetic requires numeric operands, got " +
                             expr->ToString());
  }
  return Status::OK();
}

// A written value must be of its column's type family (TypesComparable), so
// routing and later comparisons never meet a mixed-family column. Numeric
// values keep their own type in a numeric column. NULL and parameters (typed
// only at execution) are always accepted here; a parameter value of another
// family is rejected when storage routes the row (TableStore::RouteUnits).
Status RequireWritable(const ExprPtr& value, const Column& column) {
  if (value->kind() == ExprKind::kParam) return Status::OK();
  if (value->kind() == ExprKind::kConst &&
      static_cast<const ConstExpr&>(*value).value().is_null()) {
    return Status::OK();
  }
  const TypeId type = InferExprType(value);
  if (!TypesComparable(type, column.type)) {
    return Status::BindError("cannot write " + std::string(TypeIdToString(type)) +
                             " value " + value->ToString() + " into " +
                             TypeIdToString(column.type) + " column " + column.name);
  }
  return Status::OK();
}

// Predicates must be boolean-typed; a bare non-boolean expression in
// WHERE/ON/HAVING is a bind error (caught here rather than at run time).
Status RequireBoolean(const ExprPtr& expr, const char* context) {
  if (expr != nullptr && InferExprType(expr) != TypeId::kBool) {
    return Status::BindError(std::string(context) +
                             " condition must be a boolean expression, got: " +
                             expr->ToString());
  }
  return Status::OK();
}

}  // namespace

TypeId InferExprType(const ExprPtr& expr) {
  switch (expr->kind()) {
    case ExprKind::kConst: {
      const Datum& v = static_cast<const ConstExpr&>(*expr).value();
      return v.is_null() ? TypeId::kInt64 : v.type();
    }
    case ExprKind::kColumnRef:
      return static_cast<const ColumnRefExpr&>(*expr).type();
    case ExprKind::kParam:
      return static_cast<const ParamExpr&>(*expr).type();
    case ExprKind::kArith: {
      TypeId left = InferExprType(expr->child(0));
      TypeId right = InferExprType(expr->child(1));
      if (left == TypeId::kDouble || right == TypeId::kDouble) return TypeId::kDouble;
      return TypeId::kInt64;
    }
    case ExprKind::kAggCall: {
      const auto& agg = static_cast<const AggCallExpr&>(*expr);
      switch (agg.func()) {
        case AggFunc::kCount:
        case AggFunc::kCountStar:
          return TypeId::kInt64;
        case AggFunc::kAvg:
          return TypeId::kDouble;
        default:
          return agg.children().empty() ? TypeId::kInt64
                                        : InferExprType(agg.child(0));
      }
    }
    default:
      return TypeId::kBool;
  }
}

Result<Binder::ScopeColumn> Binder::Scope::Resolve(const std::string& qualifier,
                                                   const std::string& name) const {
  const ScopeColumn* found = nullptr;
  for (const ScopeColumn& col : columns) {
    if (col.name != name) continue;
    if (!qualifier.empty() && col.qualifier != qualifier) continue;
    if (found != nullptr) {
      return Status::BindError("ambiguous column reference '" + name + "'");
    }
    found = &col;
  }
  if (found == nullptr) {
    return Status::BindError("column '" + (qualifier.empty() ? name
                                                             : qualifier + "." + name) +
                             "' not found");
  }
  return *found;
}

Result<LogicalPtr> Binder::BindTable(const sql_ast::TableRef& ref, bool with_rowids,
                                     Scope* scope, const LogicalGet** get_out) {
  const TableDescriptor* table = catalog_->FindTable(ref.table);
  if (table == nullptr) {
    return Status::BindError("table '" + ref.table + "' does not exist");
  }
  std::vector<ColRefId> column_ids;
  for (const Column& col : table->schema.columns()) {
    ColRefId id = alloc_.Next();
    column_ids.push_back(id);
    scope->columns.push_back({id, col.type, col.name, ref.alias});
  }
  std::vector<ColRefId> rowid_ids;
  if (with_rowids) {
    for (int i = 0; i < 3; ++i) rowid_ids.push_back(alloc_.Next());
  }
  auto get = std::make_shared<LogicalGet>(table, ref.alias, std::move(column_ids),
                                          std::move(rowid_ids));
  if (get_out != nullptr) *get_out = get.get();
  return LogicalPtr(get);
}

Result<ExprPtr> Binder::BindScalar(const ParseExpr& expr, const Scope& scope,
                                   std::vector<AggItem>* agg_items) {
  switch (expr.kind) {
    case ParseExpr::Kind::kIntLit:
      return MakeConst(Datum::Int64(expr.int_value));
    case ParseExpr::Kind::kDoubleLit:
      return MakeConst(Datum::Double(expr.double_value));
    case ParseExpr::Kind::kStringLit:
      return MakeConst(Datum::String(expr.text));
    case ParseExpr::Kind::kDateLit: {
      int32_t days = 0;
      if (!date::Parse(expr.text, &days)) {
        return Status::BindError("malformed date literal '" + expr.text + "'");
      }
      return MakeConst(Datum::Date(days));
    }
    case ParseExpr::Kind::kBoolLit:
      return MakeConst(Datum::Bool(expr.int_value != 0));
    case ParseExpr::Kind::kNullLit:
      return MakeConst(Datum::Null());
    case ParseExpr::Kind::kParam:
      return MakeParam(expr.param_index, TypeId::kInt64);
    case ParseExpr::Kind::kColumn: {
      MPPDB_ASSIGN_OR_RETURN(ScopeColumn col, scope.Resolve(expr.qualifier, expr.text));
      return MakeColumnRef(col.id, col.name, col.type);
    }
    case ParseExpr::Kind::kBinary: {
      if (expr.text == "AND" || expr.text == "OR") {
        MPPDB_ASSIGN_OR_RETURN(ExprPtr left, BindScalar(*expr.args[0], scope, agg_items));
        MPPDB_ASSIGN_OR_RETURN(ExprPtr right,
                               BindScalar(*expr.args[1], scope, agg_items));
        if (expr.text == "AND") return Conj({std::move(left), std::move(right)});
        return MakeOr({std::move(left), std::move(right)});
      }
      MPPDB_ASSIGN_OR_RETURN(ExprPtr left, BindScalar(*expr.args[0], scope, agg_items));
      MPPDB_ASSIGN_OR_RETURN(ExprPtr right, BindScalar(*expr.args[1], scope, agg_items));
      if (expr.text == "+" || expr.text == "-" || expr.text == "*" ||
          expr.text == "/" || expr.text == "%") {
        ArithOp op = expr.text == "+"   ? ArithOp::kAdd
                     : expr.text == "-" ? ArithOp::kSub
                     : expr.text == "*" ? ArithOp::kMul
                     : expr.text == "/" ? ArithOp::kDiv
                                        : ArithOp::kMod;
        MPPDB_RETURN_IF_ERROR(RequireNumeric(left));
        MPPDB_RETURN_IF_ERROR(RequireNumeric(right));
        return MakeArith(op, std::move(left), std::move(right));
      }
      MPPDB_ASSIGN_OR_RETURN(CompareOp op, ParseCompareOp(expr.text));
      MPPDB_RETURN_IF_ERROR(CoercePair(&left, &right));
      MPPDB_RETURN_IF_ERROR(RequireComparable(left, right));
      return MakeComparison(op, std::move(left), std::move(right));
    }
    case ParseExpr::Kind::kNot: {
      MPPDB_ASSIGN_OR_RETURN(ExprPtr inner, BindScalar(*expr.args[0], scope, agg_items));
      return MakeNot(std::move(inner));
    }
    case ParseExpr::Kind::kIsNull: {
      MPPDB_ASSIGN_OR_RETURN(ExprPtr inner, BindScalar(*expr.args[0], scope, agg_items));
      return ExprPtr(std::make_shared<IsNullExpr>(std::move(inner)));
    }
    case ParseExpr::Kind::kBetween: {
      MPPDB_ASSIGN_OR_RETURN(ExprPtr probe, BindScalar(*expr.args[0], scope, agg_items));
      MPPDB_ASSIGN_OR_RETURN(ExprPtr lo, BindScalar(*expr.args[1], scope, agg_items));
      MPPDB_ASSIGN_OR_RETURN(ExprPtr hi, BindScalar(*expr.args[2], scope, agg_items));
      MPPDB_RETURN_IF_ERROR(CoercePair(&probe, &lo));
      MPPDB_RETURN_IF_ERROR(CoercePair(&probe, &hi));
      return Conj({MakeComparison(CompareOp::kGe, probe, std::move(lo)),
                   MakeComparison(CompareOp::kLe, probe, std::move(hi))});
    }
    case ParseExpr::Kind::kInList: {
      MPPDB_ASSIGN_OR_RETURN(ExprPtr probe, BindScalar(*expr.args[0], scope, agg_items));
      std::vector<ExprPtr> children;
      children.push_back(probe);
      for (size_t i = 1; i < expr.args.size(); ++i) {
        MPPDB_ASSIGN_OR_RETURN(ExprPtr item, BindScalar(*expr.args[i], scope, agg_items));
        MPPDB_RETURN_IF_ERROR(CoercePair(&children[0], &item));
        MPPDB_RETURN_IF_ERROR(RequireComparable(children[0], item));
        children.push_back(std::move(item));
      }
      return MakeInList(std::move(children));
    }
    case ParseExpr::Kind::kInSubquery:
      return Status::BindError(
          "IN (SELECT ...) is only supported as a top-level WHERE conjunct");
    case ParseExpr::Kind::kStar:
      return Status::BindError("'*' is only valid inside count(*)");
    case ParseExpr::Kind::kFuncCall: {
      if (agg_items == nullptr) {
        return Status::BindError("aggregate function not allowed here");
      }
      bool star = expr.args.size() == 1 && expr.args[0]->kind == ParseExpr::Kind::kStar;
      MPPDB_ASSIGN_OR_RETURN(AggFunc func, ParseAggFunc(expr.text, star));
      ExprPtr arg;
      if (!star) {
        MPPDB_ASSIGN_OR_RETURN(arg, BindScalar(*expr.args[0], scope, nullptr));
        if ((func == AggFunc::kSum || func == AggFunc::kAvg) &&
            arg->kind() != ExprKind::kParam && !IsNumeric(InferExprType(arg))) {
          return Status::BindError("sum/avg require a numeric argument");
        }
      }
      // Reuse an existing identical aggregate.
      for (const AggItem& item : *agg_items) {
        if (item.func == func && Expr::Equals(item.arg, arg)) {
          TypeId type = func == AggFunc::kAvg ? TypeId::kDouble
                        : (func == AggFunc::kCount || func == AggFunc::kCountStar)
                            ? TypeId::kInt64
                            : (arg ? InferExprType(arg) : TypeId::kInt64);
          return MakeColumnRef(item.output_id, item.name, type);
        }
      }
      AggItem item;
      item.func = func;
      item.arg = arg;
      item.output_id = alloc_.Next();
      item.name = DeriveName(expr);
      agg_items->push_back(item);
      TypeId type = func == AggFunc::kAvg ? TypeId::kDouble
                    : (func == AggFunc::kCount || func == AggFunc::kCountStar)
                        ? TypeId::kInt64
                        : (arg ? InferExprType(arg) : TypeId::kInt64);
      return MakeColumnRef(item.output_id, item.name, type);
    }
  }
  return Status::BindError("unsupported expression");
}

Result<LogicalPtr> Binder::BindFromWhere(const std::vector<sql_ast::TableRef>& from,
                                         const std::vector<sql_ast::ExplicitJoin>& joins,
                                         const ParseExpr* where, Scope* scope,
                                         LogicalPtr initial_plan) {
  LogicalPtr plan = std::move(initial_plan);
  for (const sql_ast::TableRef& ref : from) {
    MPPDB_ASSIGN_OR_RETURN(LogicalPtr get, BindTable(ref, false, scope, nullptr));
    plan = plan == nullptr
               ? std::move(get)
               : LogicalPtr(std::make_shared<LogicalJoin>(JoinType::kInner, nullptr,
                                                          plan, std::move(get)));
  }
  if (plan == nullptr) return Status::BindError("FROM clause is empty");
  for (const sql_ast::ExplicitJoin& join : joins) {
    MPPDB_ASSIGN_OR_RETURN(LogicalPtr get, BindTable(join.table, false, scope, nullptr));
    MPPDB_ASSIGN_OR_RETURN(ExprPtr on, BindScalar(*join.on, *scope, nullptr));
    MPPDB_RETURN_IF_ERROR(RequireBoolean(on, "JOIN ... ON"));
    plan = std::make_shared<LogicalJoin>(JoinType::kInner, std::move(on), plan,
                                         std::move(get));
  }
  if (where != nullptr) {
    std::vector<const ParseExpr*> conjuncts;
    SplitParseConjuncts(where, &conjuncts);
    std::vector<ExprPtr> bound;
    for (const ParseExpr* conjunct : conjuncts) {
      if (conjunct->kind == ParseExpr::Kind::kInSubquery) {
        // Rewrite into a (left-preserving) semi join.
        MPPDB_ASSIGN_OR_RETURN(ExprPtr probe,
                               BindScalar(*conjunct->args[0], *scope, nullptr));
        MPPDB_ASSIGN_OR_RETURN(BoundSelect sub, BindSelect(*conjunct->subquery));
        std::vector<ColRefId> sub_ids = sub.plan->OutputIds();
        if (sub_ids.size() != 1) {
          return Status::BindError("IN subquery must produce exactly one column");
        }
        if (probe->kind() != ExprKind::kColumnRef) {
          return Status::BindError("IN subquery probe must be a column");
        }
        ExprPtr pred = MakeComparison(CompareOp::kEq, probe,
                                      MakeColumnRef(sub_ids[0], "subq", TypeId::kInt64));
        plan = std::make_shared<LogicalJoin>(JoinType::kSemi, std::move(pred), plan,
                                             sub.plan);
        continue;
      }
      MPPDB_ASSIGN_OR_RETURN(ExprPtr e, BindScalar(*conjunct, *scope, nullptr));
      MPPDB_RETURN_IF_ERROR(RequireBoolean(e, "WHERE"));
      bound.push_back(std::move(e));
    }
    ExprPtr pred = Conj(std::move(bound));
    if (pred != nullptr) {
      plan = std::make_shared<LogicalSelect>(std::move(pred), plan);
    }
  }
  return plan;
}

Result<Binder::BoundSelect> Binder::BindSelect(const sql_ast::SelectStmt& select) {
  Scope scope;
  MPPDB_ASSIGN_OR_RETURN(
      LogicalPtr plan,
      BindFromWhere(select.from, select.joins, select.where.get(), &scope, nullptr));

  BoundSelect out;
  // The select list's aggregates, kept for ORDER BY to match against.
  std::vector<AggItem> select_aggs;

  bool has_aggregates = !select.group_by.empty() || select.having != nullptr;
  std::function<bool(const ParseExpr&)> contains_agg = [&](const ParseExpr& e) {
    if (e.kind == ParseExpr::Kind::kFuncCall) return true;
    for (const auto& arg : e.args) {
      if (contains_agg(*arg)) return true;
    }
    return false;
  };
  for (const auto& item : select.items) {
    if (contains_agg(*item.expr)) has_aggregates = true;
  }

  if (has_aggregates) {
    if (select.select_star) {
      return Status::BindError("SELECT * cannot be combined with aggregates");
    }
    // Bind GROUP BY columns.
    std::vector<ColRefId> group_ids;
    for (const auto& group_expr : select.group_by) {
      MPPDB_ASSIGN_OR_RETURN(ExprPtr bound, BindScalar(*group_expr, scope, nullptr));
      if (bound->kind() != ExprKind::kColumnRef) {
        return Status::BindError("GROUP BY must reference plain columns");
      }
      group_ids.push_back(static_cast<const ColumnRefExpr&>(*bound).id());
    }
    // Bind select items, collecting aggregates.
    std::vector<AggItem> agg_items;
    std::vector<ProjectItem> project_items;
    for (const auto& item : select.items) {
      MPPDB_ASSIGN_OR_RETURN(ExprPtr bound, BindScalar(*item.expr, scope, &agg_items));
      std::string name = item.alias.empty() ? DeriveName(*item.expr) : item.alias;
      ColRefId output_id = bound->kind() == ExprKind::kColumnRef
                               ? static_cast<const ColumnRefExpr&>(*bound).id()
                               : alloc_.Next();
      out.exprs.push_back(bound);
      project_items.push_back({std::move(bound), output_id, name});
      out.names.push_back(name);
    }
    // Validate: non-aggregate refs must be grouping columns or agg outputs.
    std::unordered_set<ColRefId> allowed(group_ids.begin(), group_ids.end());
    for (const AggItem& agg : agg_items) allowed.insert(agg.output_id);
    for (const auto& item : project_items) {
      std::unordered_set<ColRefId> refs;
      CollectColumnRefs(item.expr, &refs);
      for (ColRefId id : refs) {
        if (allowed.count(id) == 0) {
          return Status::BindError(
              "column #" + std::to_string(id) +
              " must appear in GROUP BY or inside an aggregate");
        }
      }
    }
    // HAVING: a selection over the aggregate's output, below the final
    // projection. Its aggregate calls share the same AggItem list.
    ExprPtr having;
    if (select.having != nullptr) {
      MPPDB_ASSIGN_OR_RETURN(having, BindScalar(*select.having, scope, &agg_items));
      MPPDB_RETURN_IF_ERROR(RequireBoolean(having, "HAVING"));
    }
    std::unordered_set<ColRefId> allowed_in_having(group_ids.begin(),
                                                   group_ids.end());
    for (const AggItem& agg : agg_items) allowed_in_having.insert(agg.output_id);
    if (having != nullptr) {
      std::unordered_set<ColRefId> refs;
      CollectColumnRefs(having, &refs);
      for (ColRefId id : refs) {
        if (allowed_in_having.count(id) == 0) {
          return Status::BindError(
              "HAVING may only reference grouping columns and aggregates");
        }
      }
    }
    select_aggs = agg_items;
    plan = std::make_shared<LogicalAgg>(std::move(group_ids), std::move(agg_items),
                                        plan);
    if (having != nullptr) {
      plan = std::make_shared<LogicalSelect>(std::move(having), plan);
    }
    plan = std::make_shared<LogicalProject>(std::move(project_items), plan);
  } else if (select.select_star) {
    for (const ScopeColumn& col : scope.columns) {
      out.exprs.push_back(MakeColumnRef(col.id, col.name, col.type));
      out.names.push_back(col.name);
    }
  } else {
    std::vector<ProjectItem> project_items;
    for (const auto& item : select.items) {
      MPPDB_ASSIGN_OR_RETURN(ExprPtr bound, BindScalar(*item.expr, scope, nullptr));
      std::string name = item.alias.empty() ? DeriveName(*item.expr) : item.alias;
      ColRefId output_id = bound->kind() == ExprKind::kColumnRef
                               ? static_cast<const ColumnRefExpr&>(*bound).id()
                               : alloc_.Next();
      out.exprs.push_back(bound);
      project_items.push_back({std::move(bound), output_id, name});
      out.names.push_back(name);
    }
    plan = std::make_shared<LogicalProject>(std::move(project_items), plan);
  }

  if (!select.order_by.empty()) {
    // An order-by item is a 1-based ordinal into the select list, an output
    // alias, or an expression over the scope that is a column of the output
    // row or equal to a select item (an aggregate matches the select list's
    // aggregate).
    std::vector<ColRefId> output_ids = plan->OutputIds();
    std::unordered_set<ColRefId> output_set(output_ids.begin(), output_ids.end());
    std::vector<SortKey> keys;
    for (const auto& order : select.order_by) {
      ColRefId id = -1;
      if (order.expr->kind == ParseExpr::Kind::kIntLit) {
        const int64_t ordinal = order.expr->int_value;
        if (ordinal < 1 || ordinal > static_cast<int64_t>(output_ids.size())) {
          return Status::BindError("ORDER BY position " + std::to_string(ordinal) +
                                   " is not in the select list (1.." +
                                   std::to_string(output_ids.size()) + ")");
        }
        id = output_ids[static_cast<size_t>(ordinal - 1)];
      }
      if (id < 0 && order.expr->kind == ParseExpr::Kind::kColumn &&
          order.expr->qualifier.empty()) {
        for (size_t i = 0; i < out.names.size() && i < output_ids.size(); ++i) {
          if (out.names[i] == order.expr->text) {
            id = output_ids[i];
            break;
          }
        }
      }
      if (id < 0) {
        // Binding against a copy of the select list's aggregates turns an
        // aggregate the list already computes into its output column.
        std::vector<AggItem> aggs = select_aggs;
        MPPDB_ASSIGN_OR_RETURN(
            ExprPtr bound,
            BindScalar(*order.expr, scope, has_aggregates ? &aggs : nullptr));
        for (size_t i = 0; i < out.exprs.size() && i < output_ids.size(); ++i) {
          if (Expr::Equals(bound, out.exprs[i])) {
            id = output_ids[i];
            break;
          }
        }
        if (id < 0 && bound->kind() != ExprKind::kColumnRef) {
          return Status::BindError("ORDER BY must reference a column");
        }
        if (id < 0) id = static_cast<const ColumnRefExpr&>(*bound).id();
      }
      if (output_set.count(id) == 0) {
        return Status::BindError("ORDER BY column must appear in the select list");
      }
      keys.push_back({id, order.ascending});
    }
    plan = std::make_shared<LogicalSort>(std::move(keys), plan);
  }
  if (select.limit.has_value()) {
    plan = std::make_shared<LogicalLimit>(*select.limit, plan);
  }
  out.plan = std::move(plan);
  return out;
}

Result<BoundStatement> Binder::BindInsert(const sql_ast::InsertStmt& insert) {
  const TableDescriptor* table = catalog_->FindTable(insert.table);
  if (table == nullptr) {
    return Status::BindError("table '" + insert.table + "' does not exist");
  }
  BoundStatement stmt;
  stmt.kind = BoundStatement::Kind::kInsert;
  stmt.target_table = table;
  stmt.count_output_id = alloc_.Next();
  stmt.output_names = {"count"};

  if (insert.select != nullptr) {
    MPPDB_ASSIGN_OR_RETURN(BoundSelect select, BindSelect(*insert.select));
    if (select.plan->OutputIds().size() != table->schema.size()) {
      return Status::BindError("INSERT SELECT column count mismatch");
    }
    for (size_t i = 0; i < select.exprs.size(); ++i) {
      MPPDB_RETURN_IF_ERROR(RequireWritable(select.exprs[i], table->schema.column(i)));
    }
    stmt.root = select.plan;
    return stmt;
  }

  std::vector<Row> rows;
  Scope empty_scope;
  for (const auto& value_row : insert.values) {
    if (value_row.size() != table->schema.size()) {
      return Status::BindError("INSERT VALUES arity mismatch for table " + table->name);
    }
    Row row;
    for (size_t i = 0; i < value_row.size(); ++i) {
      MPPDB_ASSIGN_OR_RETURN(ExprPtr bound, BindScalar(*value_row[i], empty_scope,
                                                       nullptr));
      if (table->schema.column(i).type == TypeId::kDate) {
        MPPDB_ASSIGN_OR_RETURN(bound, CoerceToDate(bound));
      }
      MPPDB_RETURN_IF_ERROR(RequireWritable(bound, table->schema.column(i)));
      std::optional<Datum> value = TryFoldConst(bound);
      if (!value.has_value()) {
        return Status::BindError("INSERT VALUES entries must be constants");
      }
      row.push_back(std::move(*value));
    }
    rows.push_back(std::move(row));
  }
  std::vector<ColRefId> ids;
  for (size_t i = 0; i < table->schema.size(); ++i) ids.push_back(alloc_.Next());
  stmt.root = std::make_shared<LogicalValues>(std::move(rows), std::move(ids));
  return stmt;
}

Result<BoundStatement> Binder::BindUpdate(const sql_ast::UpdateStmt& update) {
  Scope scope;
  const LogicalGet* target_get = nullptr;
  sql_ast::TableRef target_ref{update.table, update.table};
  MPPDB_ASSIGN_OR_RETURN(LogicalPtr target, BindTable(target_ref, true, &scope,
                                                      &target_get));
  MPPDB_ASSIGN_OR_RETURN(
      LogicalPtr plan,
      BindFromWhere(update.from, {}, update.where.get(), &scope, target));

  BoundStatement stmt;
  stmt.kind = BoundStatement::Kind::kUpdate;
  stmt.root = plan;
  stmt.target_table = target_get->table();
  stmt.target_column_ids = target_get->column_ids();
  stmt.target_rowid_ids = target_get->rowid_ids();
  stmt.count_output_id = alloc_.Next();
  stmt.output_names = {"count"};

  for (const auto& [column, value_expr] : update.set_items) {
    int index = stmt.target_table->schema.FindColumn(column);
    if (index < 0) {
      return Status::BindError("column '" + column + "' not in table " +
                               stmt.target_table->name);
    }
    const Column& target = stmt.target_table->schema.column(static_cast<size_t>(index));
    MPPDB_ASSIGN_OR_RETURN(ExprPtr value, BindScalar(*value_expr, scope, nullptr));
    if (target.type == TypeId::kDate) {
      MPPDB_ASSIGN_OR_RETURN(value, CoerceToDate(value));
    }
    MPPDB_RETURN_IF_ERROR(RequireWritable(value, target));
    stmt.set_items.push_back({index, std::move(value)});
  }
  return stmt;
}

Result<BoundStatement> Binder::BindDelete(const sql_ast::DeleteStmt& del) {
  Scope scope;
  const LogicalGet* target_get = nullptr;
  sql_ast::TableRef target_ref{del.table, del.table};
  MPPDB_ASSIGN_OR_RETURN(LogicalPtr target, BindTable(target_ref, true, &scope,
                                                      &target_get));
  MPPDB_ASSIGN_OR_RETURN(LogicalPtr plan,
                         BindFromWhere({}, {}, del.where.get(), &scope, target));
  BoundStatement stmt;
  stmt.kind = BoundStatement::Kind::kDelete;
  stmt.root = plan;
  stmt.target_table = target_get->table();
  stmt.target_column_ids = target_get->column_ids();
  stmt.target_rowid_ids = target_get->rowid_ids();
  stmt.count_output_id = alloc_.Next();
  stmt.output_names = {"count"};
  return stmt;
}

Result<BoundStatement> Binder::Bind(const sql_ast::Statement& stmt) {
  switch (stmt.kind) {
    case sql_ast::Statement::Kind::kSelect: {
      MPPDB_ASSIGN_OR_RETURN(BoundSelect select, BindSelect(*stmt.select));
      BoundStatement bound;
      bound.kind = BoundStatement::Kind::kSelect;
      bound.explain = stmt.explain;
      bound.explain_analyze = stmt.explain_analyze;
      bound.root = select.plan;
      bound.output_names = select.names;
      return bound;
    }
    case sql_ast::Statement::Kind::kInsert: {
      MPPDB_ASSIGN_OR_RETURN(BoundStatement bound, BindInsert(*stmt.insert));
      bound.explain = stmt.explain;
      bound.explain_analyze = stmt.explain_analyze;
      return bound;
    }
    case sql_ast::Statement::Kind::kUpdate: {
      MPPDB_ASSIGN_OR_RETURN(BoundStatement bound, BindUpdate(*stmt.update));
      bound.explain = stmt.explain;
      bound.explain_analyze = stmt.explain_analyze;
      return bound;
    }
    case sql_ast::Statement::Kind::kDelete: {
      MPPDB_ASSIGN_OR_RETURN(BoundStatement bound, BindDelete(*stmt.del));
      bound.explain = stmt.explain;
      bound.explain_analyze = stmt.explain_analyze;
      return bound;
    }
    case sql_ast::Statement::Kind::kCreateTable:
    case sql_ast::Statement::Kind::kDropTable:
    case sql_ast::Statement::Kind::kCreateIndex:
      // DDL does not bind against the catalog the way DML does; the Database
      // facade executes it directly (Database::RunDdl).
      return Status::BindError("DDL statements are executed, not bound");
  }
  return Status::BindError("unknown statement kind");
}

Result<BoundStatement> Binder::BindSql(const std::string& sql) {
  MPPDB_ASSIGN_OR_RETURN(sql_ast::Statement parsed, ParseStatement(sql));
  return Bind(parsed);
}

}  // namespace mppdb

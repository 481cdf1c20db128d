#include "expr/eval.h"

#include "common/macros.h"

namespace mppdb {

ColumnLayout::ColumnLayout(std::vector<ColRefId> ids) : ids_(std::move(ids)) {
  for (size_t i = 0; i < ids_.size(); ++i) {
    positions_.emplace(ids_[i], static_cast<int>(i));
  }
}

int ColumnLayout::PositionOf(ColRefId id) const {
  auto it = positions_.find(id);
  return it == positions_.end() ? -1 : it->second;
}

ColumnLayout ColumnLayout::Concat(const ColumnLayout& left, const ColumnLayout& right) {
  std::vector<ColRefId> ids = left.ids_;
  ids.insert(ids.end(), right.ids_.begin(), right.ids_.end());
  return ColumnLayout(std::move(ids));
}

bool DatumsComparable(const Datum& a, const Datum& b) {
  return TypesComparable(a.type(), b.type());
}

namespace {

bool Comparable(const Datum& a, const Datum& b) { return DatumsComparable(a, b); }

Result<Datum> EvalComparison(const ComparisonExpr& cmp, const ColumnLayout& layout,
                             const Row& row) {
  MPPDB_ASSIGN_OR_RETURN(Datum left, EvalExpr(cmp.child(0), layout, row));
  MPPDB_ASSIGN_OR_RETURN(Datum right, EvalExpr(cmp.child(1), layout, row));
  if (left.is_null() || right.is_null()) return Datum::Null();
  if (!Comparable(left, right)) {
    return Status::ExecutionError("cannot compare " +
                                  std::string(TypeIdToString(left.type())) + " with " +
                                  TypeIdToString(right.type()));
  }
  int c = Datum::Compare(left, right);
  bool result = false;
  switch (cmp.op()) {
    case CompareOp::kEq:
      result = c == 0;
      break;
    case CompareOp::kNe:
      result = c != 0;
      break;
    case CompareOp::kLt:
      result = c < 0;
      break;
    case CompareOp::kLe:
      result = c <= 0;
      break;
    case CompareOp::kGt:
      result = c > 0;
      break;
    case CompareOp::kGe:
      result = c >= 0;
      break;
  }
  return Datum::Bool(result);
}

Result<Datum> EvalArith(const ArithExpr& arith, const ColumnLayout& layout,
                        const Row& row) {
  MPPDB_ASSIGN_OR_RETURN(Datum left, EvalExpr(arith.child(0), layout, row));
  MPPDB_ASSIGN_OR_RETURN(Datum right, EvalExpr(arith.child(1), layout, row));
  if (left.is_null() || right.is_null()) return Datum::Null();
  if (!IsNumeric(left.type()) || !IsNumeric(right.type())) {
    return Status::ExecutionError("arithmetic requires numeric operands");
  }
  bool use_double = left.type() == TypeId::kDouble || right.type() == TypeId::kDouble;
  if (use_double) {
    double a = left.AsDouble(), b = right.AsDouble();
    switch (arith.op()) {
      case ArithOp::kAdd:
        return Datum::Double(a + b);
      case ArithOp::kSub:
        return Datum::Double(a - b);
      case ArithOp::kMul:
        return Datum::Double(a * b);
      case ArithOp::kDiv:
        if (b == 0) return Status::ExecutionError("division by zero");
        return Datum::Double(a / b);
      case ArithOp::kMod:
        return Status::ExecutionError("modulo on double");
    }
  }
  int64_t a = left.AsInt64(), b = right.AsInt64();
  switch (arith.op()) {
    case ArithOp::kAdd:
      return Datum::Int64(a + b);
    case ArithOp::kSub:
      return Datum::Int64(a - b);
    case ArithOp::kMul:
      return Datum::Int64(a * b);
    case ArithOp::kDiv:
      if (b == 0) return Status::ExecutionError("division by zero");
      return Datum::Int64(a / b);
    case ArithOp::kMod:
      if (b == 0) return Status::ExecutionError("modulo by zero");
      return Datum::Int64(a % b);
  }
  return Status::Internal("unreachable arithmetic op");
}

}  // namespace

Result<Datum> EvalExpr(const ExprPtr& expr, const ColumnLayout& layout, const Row& row) {
  MPPDB_CHECK(expr != nullptr);
  switch (expr->kind()) {
    case ExprKind::kConst:
      return static_cast<const ConstExpr&>(*expr).value();
    case ExprKind::kColumnRef: {
      const auto& ref = static_cast<const ColumnRefExpr&>(*expr);
      int pos = layout.PositionOf(ref.id());
      if (pos < 0) {
        return Status::ExecutionError("column " + ref.ToString() +
                                      " not found in row layout");
      }
      return row[static_cast<size_t>(pos)];
    }
    case ExprKind::kParam:
      return Status::ExecutionError("unbound parameter " + expr->ToString());
    case ExprKind::kComparison:
      return EvalComparison(static_cast<const ComparisonExpr&>(*expr), layout, row);
    case ExprKind::kAnd: {
      bool saw_null = false;
      for (const auto& child : expr->children()) {
        MPPDB_ASSIGN_OR_RETURN(Datum v, EvalExpr(child, layout, row));
        if (v.is_null()) {
          saw_null = true;
          continue;
        }
        if (v.type() != TypeId::kBool) {
          return Status::ExecutionError("AND operand is not a boolean");
        }
        if (!v.bool_value()) return Datum::Bool(false);
      }
      if (saw_null) return Datum::Null();
      return Datum::Bool(true);
    }
    case ExprKind::kOr: {
      bool saw_null = false;
      for (const auto& child : expr->children()) {
        MPPDB_ASSIGN_OR_RETURN(Datum v, EvalExpr(child, layout, row));
        if (v.is_null()) {
          saw_null = true;
          continue;
        }
        if (v.type() != TypeId::kBool) {
          return Status::ExecutionError("OR operand is not a boolean");
        }
        if (v.bool_value()) return Datum::Bool(true);
      }
      if (saw_null) return Datum::Null();
      return Datum::Bool(false);
    }
    case ExprKind::kNot: {
      MPPDB_ASSIGN_OR_RETURN(Datum v, EvalExpr(expr->child(0), layout, row));
      if (v.is_null()) return Datum::Null();
      if (v.type() != TypeId::kBool) {
        return Status::ExecutionError("NOT operand is not a boolean");
      }
      return Datum::Bool(!v.bool_value());
    }
    case ExprKind::kIsNull: {
      MPPDB_ASSIGN_OR_RETURN(Datum v, EvalExpr(expr->child(0), layout, row));
      return Datum::Bool(v.is_null());
    }
    case ExprKind::kArith:
      return EvalArith(static_cast<const ArithExpr&>(*expr), layout, row);
    case ExprKind::kInList: {
      MPPDB_ASSIGN_OR_RETURN(Datum probe, EvalExpr(expr->child(0), layout, row));
      if (probe.is_null()) return Datum::Null();
      bool saw_null = false;
      for (size_t i = 1; i < expr->children().size(); ++i) {
        MPPDB_ASSIGN_OR_RETURN(Datum item, EvalExpr(expr->child(i), layout, row));
        if (item.is_null()) {
          saw_null = true;
          continue;
        }
        if (!Comparable(probe, item)) {
          return Status::ExecutionError("IN list item type mismatch");
        }
        if (probe.Equals(item)) return Datum::Bool(true);
      }
      if (saw_null) return Datum::Null();
      return Datum::Bool(false);
    }
    case ExprKind::kAggCall:
      return Status::ExecutionError(
          "aggregate call evaluated outside an aggregation operator");
  }
  return Status::Internal("unreachable expression kind");
}

Result<bool> EvalPredicate(const ExprPtr& expr, const ColumnLayout& layout,
                           const Row& row) {
  MPPDB_ASSIGN_OR_RETURN(Datum v, EvalExpr(expr, layout, row));
  if (v.is_null()) return false;
  if (v.type() != TypeId::kBool) {
    return Status::ExecutionError("predicate did not evaluate to a boolean");
  }
  return v.bool_value();
}

std::optional<Datum> TryFoldConst(const ExprPtr& expr) {
  if (expr == nullptr || !IsConstantExpr(expr)) return std::nullopt;
  static const ColumnLayout kEmptyLayout;
  static const Row kEmptyRow;
  Result<Datum> result = EvalExpr(expr, kEmptyLayout, kEmptyRow);
  if (!result.ok()) return std::nullopt;
  return std::move(result).value();
}

}  // namespace mppdb

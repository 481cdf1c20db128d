#ifndef MPPDB_SQL_BINDER_H_
#define MPPDB_SQL_BINDER_H_

#include "catalog/catalog.h"
#include "common/status.h"
#include "optimizer/logical.h"
#include "sql/ast.h"

namespace mppdb {

/// Resolves a parse tree against the catalog into a BoundStatement: logical
/// plan plus DML metadata. Performs name resolution (with table aliases),
/// star expansion, aggregate extraction (GROUP BY), rewriting of
/// `IN (SELECT ...)` predicates into semi joins, BETWEEN desugaring, and
/// date-literal coercion (string literals compared to DATE columns).
class Binder {
 public:
  explicit Binder(const Catalog* catalog) : catalog_(catalog) {}

  Result<BoundStatement> Bind(const sql_ast::Statement& stmt);

  /// Parses and binds in one step.
  Result<BoundStatement> BindSql(const std::string& sql);

 private:
  struct ScopeColumn {
    ColRefId id;
    TypeId type;
    std::string name;
    std::string qualifier;
  };

  struct Scope {
    std::vector<ScopeColumn> columns;
    Result<ScopeColumn> Resolve(const std::string& qualifier,
                                const std::string& name) const;
  };

  struct BoundSelect {
    LogicalPtr plan;
    std::vector<std::string> names;
    /// Bound output expressions, aligned with `names` (INSERT ... SELECT
    /// checks their types against the target columns).
    std::vector<ExprPtr> exprs;
  };

  Result<BoundSelect> BindSelect(const sql_ast::SelectStmt& select);
  Result<BoundStatement> BindInsert(const sql_ast::InsertStmt& insert);
  Result<BoundStatement> BindUpdate(const sql_ast::UpdateStmt& update);
  Result<BoundStatement> BindDelete(const sql_ast::DeleteStmt& del);

  /// Creates the LogicalGet for a table reference and appends its columns to
  /// the scope. `with_rowids` adds the hidden locator columns (DML targets).
  Result<LogicalPtr> BindTable(const sql_ast::TableRef& ref, bool with_rowids,
                               Scope* scope, const LogicalGet** get_out);

  /// Binds a scalar parse expression. When `agg_items` is non-null,
  /// aggregate calls are collected there and replaced by their output
  /// column references.
  Result<ExprPtr> BindScalar(const sql_ast::ParseExpr& expr, const Scope& scope,
                             std::vector<AggItem>* agg_items);

  /// Builds the FROM/JOIN/WHERE part of a select; shared with UPDATE/DELETE.
  Result<LogicalPtr> BindFromWhere(const std::vector<sql_ast::TableRef>& from,
                                   const std::vector<sql_ast::ExplicitJoin>& joins,
                                   const sql_ast::ParseExpr* where, Scope* scope,
                                   LogicalPtr initial_plan);

  const Catalog* catalog_;
  ColRefAllocator alloc_;
};

/// Static type of a bound expression (numeric promotion for arithmetic).
TypeId InferExprType(const ExprPtr& expr);

}  // namespace mppdb

#endif  // MPPDB_SQL_BINDER_H_

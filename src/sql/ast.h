#ifndef MPPDB_SQL_AST_H_
#define MPPDB_SQL_AST_H_

#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace mppdb {
namespace sql_ast {

struct SelectStmt;

/// Untyped parse-tree expression. One struct with a kind tag keeps the
/// parser compact; the binder turns these into typed ExprPtr trees.
struct ParseExpr {
  enum class Kind {
    kIntLit,
    kDoubleLit,
    kStringLit,
    kDateLit,
    kBoolLit,
    kNullLit,
    kColumn,     // [qualifier.]name
    kStar,       // only inside count(*)
    kBinary,     // op in {=, <>, <, <=, >, >=, +, -, *, /, %, AND, OR}
    kNot,
    kIsNull,     // expr IS [NOT] NULL (negated => wrapped kNot by parser)
    kInList,     // probe IN (item, ...)
    kInSubquery, // probe IN (SELECT ...)
    kBetween,    // probe BETWEEN lo AND hi
    kFuncCall,   // count/sum/avg/min/max
    kParam,      // $N
  };

  Kind kind;
  int64_t int_value = 0;
  double double_value = 0;
  std::string text;           // string literal / column name / operator / func
  std::string qualifier;      // table alias for kColumn
  std::vector<std::unique_ptr<ParseExpr>> args;  // children (kind-specific)
  std::unique_ptr<SelectStmt> subquery;          // kInSubquery
  int param_index = -1;
  /// Levels in this subtree (1 for a leaf). The parser bounds it, so later
  /// recursive passes over the tree cannot overflow the stack.
  int height = 1;
};

using ParseExprPtr = std::unique_ptr<ParseExpr>;

struct SelectItem {
  ParseExprPtr expr;
  std::string alias;  // empty: derive from expression
};

struct TableRef {
  std::string table;
  std::string alias;  // empty: table name
};

struct ExplicitJoin {
  TableRef table;
  ParseExprPtr on;
};

struct OrderItem {
  ParseExprPtr expr;
  bool ascending = true;
};

struct SelectStmt {
  bool select_star = false;
  std::vector<SelectItem> items;
  std::vector<TableRef> from;
  std::vector<ExplicitJoin> joins;
  ParseExprPtr where;
  std::vector<ParseExprPtr> group_by;
  ParseExprPtr having;
  std::vector<OrderItem> order_by;
  std::optional<size_t> limit;
};

struct InsertStmt {
  std::string table;
  std::vector<std::vector<ParseExprPtr>> values;  // VALUES form
  std::unique_ptr<SelectStmt> select;             // INSERT ... SELECT form
};

struct UpdateStmt {
  std::string table;
  std::vector<std::pair<std::string, ParseExprPtr>> set_items;
  std::vector<TableRef> from;
  ParseExprPtr where;
};

struct DeleteStmt {
  std::string table;
  ParseExprPtr where;
};

struct ColumnDef {
  std::string name;
  std::string type;  // int/bigint/double/varchar/text/date/bool(ean)
};

/// One level of a PARTITION BY clause (GPDB-style):
///   PARTITION BY RANGE (col) START <lit> END <lit> EVERY <int>
///   PARTITION BY LIST  (col) VALUES (<lit>, ...)
struct PartitionLevelSpec {
  bool is_range = true;
  std::string column;
  ParseExprPtr start;   // range
  ParseExprPtr end;     // range (exclusive)
  int64_t every = 0;    // range step, in value units (days for dates)
  std::vector<ParseExprPtr> values;  // list
};

struct CreateTableStmt {
  std::string table;
  std::vector<ColumnDef> columns;
  enum class Distribution { kRandom, kHash, kReplicated };
  Distribution distribution = Distribution::kRandom;
  std::vector<std::string> distribution_columns;
  std::vector<PartitionLevelSpec> partition_levels;
  /// WITH (key = value, ...) storage options (GPDB-style); currently
  /// orientation = row | column.
  std::vector<std::pair<std::string, std::string>> with_options;
};

/// ALTER TABLE <t> SET [PARTITION <name>] WITH (key = value, ...).
/// An empty partition name targets the whole table (and resets per-partition
/// overrides); a partition name matches a leaf's qualified name or any path
/// component ("p3" covers every subpartition under p3).
struct AlterTableStmt {
  std::string table;
  std::string partition;
  std::vector<std::pair<std::string, std::string>> options;
};

struct DropTableStmt {
  std::string table;
};

struct CreateIndexStmt {
  std::string table;
  std::string column;
};

struct Statement {
  enum class Kind {
    kSelect,
    kInsert,
    kUpdate,
    kDelete,
    kCreateTable,
    kDropTable,
    kCreateIndex,
    kAlterTable,
  };
  Kind kind = Kind::kSelect;
  /// EXPLAIN prefix: plan the statement but return the plan text.
  bool explain = false;
  /// EXPLAIN ANALYZE: execute the statement too, and append execution
  /// statistics (rows, spill counters) to the rendered plan.
  bool explain_analyze = false;
  std::unique_ptr<SelectStmt> select;
  std::unique_ptr<InsertStmt> insert;
  std::unique_ptr<UpdateStmt> update;
  std::unique_ptr<DeleteStmt> del;
  std::unique_ptr<CreateTableStmt> create_table;
  std::unique_ptr<DropTableStmt> drop_table;
  std::unique_ptr<CreateIndexStmt> create_index;
  std::unique_ptr<AlterTableStmt> alter_table;
};

}  // namespace sql_ast
}  // namespace mppdb

#endif  // MPPDB_SQL_AST_H_

#include "sql/parser.h"

#include <algorithm>

#include "common/macros.h"
#include "sql/lexer.h"

namespace mppdb {

namespace {

using sql_ast::ParseExpr;
using sql_ast::ParseExprPtr;

/// Deepest expression nesting a statement may have: parentheses, function
/// arguments, subqueries, and NOT / unary-minus chains each add a level, and
/// so does every operator of a binary chain (`a + b + c` is a tree of height
/// 3). Every level costs several recursive-descent frames here and more in
/// the binder and optimizer, so an unbounded depth would overflow the stack;
/// past this bound the statement fails with kInvalidArgument instead.
constexpr int kMaxExprNesting = 500;

class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  Result<sql_ast::Statement> ParseStatement() {
    sql_ast::Statement stmt;
    if (AcceptKeyword("EXPLAIN")) {
      stmt.explain = true;
      if (AcceptKeyword("ANALYZE")) stmt.explain_analyze = true;
    }
    if (AcceptKeyword("SELECT")) {
      --pos_;  // ParseSelect expects to consume SELECT
      MPPDB_ASSIGN_OR_RETURN(auto select, ParseSelect());
      stmt.kind = sql_ast::Statement::Kind::kSelect;
      stmt.select = std::move(select);
    } else if (AcceptKeyword("INSERT")) {
      MPPDB_ASSIGN_OR_RETURN(auto insert, ParseInsert());
      stmt.kind = sql_ast::Statement::Kind::kInsert;
      stmt.insert = std::move(insert);
    } else if (AcceptKeyword("UPDATE")) {
      MPPDB_ASSIGN_OR_RETURN(auto update, ParseUpdate());
      stmt.kind = sql_ast::Statement::Kind::kUpdate;
      stmt.update = std::move(update);
    } else if (AcceptKeyword("DELETE")) {
      MPPDB_ASSIGN_OR_RETURN(auto del, ParseDelete());
      stmt.kind = sql_ast::Statement::Kind::kDelete;
      stmt.del = std::move(del);
    } else if (AcceptKeyword("CREATE")) {
      if (AcceptWord("index", "INDEX")) {
        // CREATE INDEX ON <table> (<column>)
        auto index = std::make_unique<sql_ast::CreateIndexStmt>();
        MPPDB_RETURN_IF_ERROR(ExpectKeyword("ON"));
        MPPDB_ASSIGN_OR_RETURN(index->table, ExpectIdentifier());
        MPPDB_RETURN_IF_ERROR(ExpectSymbol("("));
        MPPDB_ASSIGN_OR_RETURN(index->column, ExpectIdentifier());
        MPPDB_RETURN_IF_ERROR(ExpectSymbol(")"));
        stmt.kind = sql_ast::Statement::Kind::kCreateIndex;
        stmt.create_index = std::move(index);
      } else {
        MPPDB_ASSIGN_OR_RETURN(auto create, ParseCreateTable());
        stmt.kind = sql_ast::Statement::Kind::kCreateTable;
        stmt.create_table = std::move(create);
      }
    } else if (AcceptKeyword("DROP")) {
      MPPDB_RETURN_IF_ERROR(ExpectKeyword("TABLE"));
      auto drop = std::make_unique<sql_ast::DropTableStmt>();
      MPPDB_ASSIGN_OR_RETURN(drop->table, ExpectIdentifier());
      stmt.kind = sql_ast::Statement::Kind::kDropTable;
      stmt.drop_table = std::move(drop);
    } else if (AcceptWord("alter", "ALTER")) {
      // ALTER TABLE <t> SET [PARTITION <name>] WITH (key = value, ...)
      MPPDB_RETURN_IF_ERROR(ExpectKeyword("TABLE"));
      auto alter = std::make_unique<sql_ast::AlterTableStmt>();
      MPPDB_ASSIGN_OR_RETURN(alter->table, ExpectIdentifier());
      MPPDB_RETURN_IF_ERROR(ExpectKeyword("SET"));
      if (AcceptWord("partition", "PARTITION")) {
        // Qualified leaf names contain '/', so string literals are accepted
        // alongside bare identifiers.
        if (Peek().type == TokenType::kStringLiteral) {
          alter->partition = Advance().text;
        } else {
          MPPDB_ASSIGN_OR_RETURN(alter->partition, ExpectIdentifier());
        }
      }
      MPPDB_RETURN_IF_ERROR(ExpectWord("with", "WITH"));
      MPPDB_RETURN_IF_ERROR(ParseWithOptions(&alter->options));
      stmt.kind = sql_ast::Statement::Kind::kAlterTable;
      stmt.alter_table = std::move(alter);
    } else {
      return Error("expected SELECT, INSERT, UPDATE or DELETE");
    }
    AcceptSymbol(";");
    if (Peek().type != TokenType::kEnd) {
      return Error("unexpected trailing input");
    }
    return stmt;
  }

 private:
  const Token& Peek(size_t ahead = 0) const {
    size_t index = pos_ + ahead;
    if (index >= tokens_.size()) index = tokens_.size() - 1;
    return tokens_[index];
  }

  const Token& Advance() { return tokens_[pos_++]; }

  bool AcceptKeyword(const std::string& keyword) {
    if (Peek().type == TokenType::kKeyword && Peek().text == keyword) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool PeekKeyword(const std::string& keyword) const {
    return Peek().type == TokenType::kKeyword && Peek().text == keyword;
  }

  bool AcceptSymbol(const std::string& symbol) {
    if (Peek().type == TokenType::kSymbol && Peek().text == symbol) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool PeekSymbol(const std::string& symbol) const {
    return Peek().type == TokenType::kSymbol && Peek().text == symbol;
  }

  Status Error(const std::string& message) const {
    return Status::ParseError(message + " near offset " +
                              std::to_string(Peek().position));
  }

  Status ExpectKeyword(const std::string& keyword) {
    if (!AcceptKeyword(keyword)) return Error("expected " + keyword);
    return Status::OK();
  }

  Status ExpectSymbol(const std::string& symbol) {
    if (!AcceptSymbol(symbol)) return Error("expected '" + symbol + "'");
    return Status::OK();
  }

  Result<std::string> ExpectIdentifier() {
    if (Peek().type != TokenType::kIdentifier) return Error("expected identifier");
    return Advance().text;
  }

  static ParseExprPtr MakeNode(ParseExpr::Kind kind) {
    auto node = std::make_unique<ParseExpr>();
    node->kind = kind;
    return node;
  }

  /// Appends a child, keeping the parent's height current.
  static void AddArg(ParseExpr* node, ParseExprPtr arg) {
    node->height = std::max(node->height, arg->height + 1);
    node->args.push_back(std::move(arg));
  }

  /// Binary operator node. Fails once the tree outgrows kMaxExprNesting, so
  /// long left-deep chains (`a + a + ...`) are bounded like nesting is.
  Result<ParseExprPtr> MakeBinary(std::string op, ParseExprPtr left,
                                  ParseExprPtr right) const {
    auto node = MakeNode(ParseExpr::Kind::kBinary);
    node->text = std::move(op);
    AddArg(node.get(), std::move(left));
    AddArg(node.get(), std::move(right));
    if (node->height > kMaxExprNesting) return NestingError();
    return Result<ParseExprPtr>(std::move(node));
  }

  // --- Statements ----------------------------------------------------------

  Result<std::unique_ptr<sql_ast::SelectStmt>> ParseSelect() {
    MPPDB_RETURN_IF_ERROR(ExpectKeyword("SELECT"));
    auto select = std::make_unique<sql_ast::SelectStmt>();
    if (AcceptSymbol("*")) {
      select->select_star = true;
    } else {
      while (true) {
        sql_ast::SelectItem item;
        MPPDB_ASSIGN_OR_RETURN(item.expr, ParseExprTop());
        if (AcceptKeyword("AS")) {
          MPPDB_ASSIGN_OR_RETURN(item.alias, ExpectIdentifier());
        } else if (Peek().type == TokenType::kIdentifier) {
          item.alias = Advance().text;
        }
        select->items.push_back(std::move(item));
        if (!AcceptSymbol(",")) break;
      }
    }
    MPPDB_RETURN_IF_ERROR(ExpectKeyword("FROM"));
    while (true) {
      MPPDB_ASSIGN_OR_RETURN(sql_ast::TableRef ref, ParseTableRef());
      select->from.push_back(std::move(ref));
      if (!AcceptSymbol(",")) break;
    }
    while (true) {
      if (PeekKeyword("INNER") && Peek(1).type == TokenType::kKeyword &&
          Peek(1).text == "JOIN") {
        Advance();
      }
      if (!AcceptKeyword("JOIN")) break;
      sql_ast::ExplicitJoin join;
      MPPDB_ASSIGN_OR_RETURN(join.table, ParseTableRef());
      MPPDB_RETURN_IF_ERROR(ExpectKeyword("ON"));
      MPPDB_ASSIGN_OR_RETURN(join.on, ParseExprTop());
      select->joins.push_back(std::move(join));
    }
    if (AcceptKeyword("WHERE")) {
      MPPDB_ASSIGN_OR_RETURN(select->where, ParseExprTop());
    }
    if (AcceptKeyword("GROUP")) {
      MPPDB_RETURN_IF_ERROR(ExpectKeyword("BY"));
      while (true) {
        MPPDB_ASSIGN_OR_RETURN(ParseExprPtr expr, ParseExprTop());
        select->group_by.push_back(std::move(expr));
        if (!AcceptSymbol(",")) break;
      }
    }
    if (AcceptKeyword("HAVING")) {
      MPPDB_ASSIGN_OR_RETURN(select->having, ParseExprTop());
    }
    if (AcceptKeyword("ORDER")) {
      MPPDB_RETURN_IF_ERROR(ExpectKeyword("BY"));
      while (true) {
        sql_ast::OrderItem item;
        MPPDB_ASSIGN_OR_RETURN(item.expr, ParseExprTop());
        if (AcceptKeyword("DESC")) {
          item.ascending = false;
        } else {
          AcceptKeyword("ASC");
        }
        select->order_by.push_back(std::move(item));
        if (!AcceptSymbol(",")) break;
      }
    }
    if (AcceptKeyword("LIMIT")) {
      if (Peek().type != TokenType::kIntLiteral) return Error("expected LIMIT count");
      select->limit = static_cast<size_t>(Advance().int_value);
    }
    return select;
  }

  Result<sql_ast::TableRef> ParseTableRef() {
    sql_ast::TableRef ref;
    MPPDB_ASSIGN_OR_RETURN(ref.table, ExpectIdentifier());
    if (AcceptKeyword("AS")) {
      MPPDB_ASSIGN_OR_RETURN(ref.alias, ExpectIdentifier());
    } else if (Peek().type == TokenType::kIdentifier) {
      ref.alias = Advance().text;
    } else {
      ref.alias = ref.table;
    }
    return ref;
  }

  Result<std::unique_ptr<sql_ast::InsertStmt>> ParseInsert() {
    MPPDB_RETURN_IF_ERROR(ExpectKeyword("INTO"));
    auto insert = std::make_unique<sql_ast::InsertStmt>();
    MPPDB_ASSIGN_OR_RETURN(insert->table, ExpectIdentifier());
    if (AcceptKeyword("VALUES")) {
      while (true) {
        MPPDB_RETURN_IF_ERROR(ExpectSymbol("("));
        std::vector<ParseExprPtr> row;
        while (true) {
          MPPDB_ASSIGN_OR_RETURN(ParseExprPtr expr, ParseExprTop());
          row.push_back(std::move(expr));
          if (!AcceptSymbol(",")) break;
        }
        MPPDB_RETURN_IF_ERROR(ExpectSymbol(")"));
        insert->values.push_back(std::move(row));
        if (!AcceptSymbol(",")) break;
      }
      return insert;
    }
    if (PeekKeyword("SELECT")) {
      MPPDB_ASSIGN_OR_RETURN(insert->select, ParseSelect());
      return insert;
    }
    return Error("expected VALUES or SELECT in INSERT");
  }

  Result<std::unique_ptr<sql_ast::UpdateStmt>> ParseUpdate() {
    auto update = std::make_unique<sql_ast::UpdateStmt>();
    MPPDB_ASSIGN_OR_RETURN(update->table, ExpectIdentifier());
    MPPDB_RETURN_IF_ERROR(ExpectKeyword("SET"));
    while (true) {
      MPPDB_ASSIGN_OR_RETURN(std::string column, ExpectIdentifier());
      MPPDB_RETURN_IF_ERROR(ExpectSymbol("="));
      MPPDB_ASSIGN_OR_RETURN(ParseExprPtr value, ParseExprTop());
      update->set_items.emplace_back(std::move(column), std::move(value));
      if (!AcceptSymbol(",")) break;
    }
    if (AcceptKeyword("FROM")) {
      while (true) {
        MPPDB_ASSIGN_OR_RETURN(sql_ast::TableRef ref, ParseTableRef());
        update->from.push_back(std::move(ref));
        if (!AcceptSymbol(",")) break;
      }
    }
    if (AcceptKeyword("WHERE")) {
      MPPDB_ASSIGN_OR_RETURN(update->where, ParseExprTop());
    }
    return update;
  }

  Result<std::unique_ptr<sql_ast::DeleteStmt>> ParseDelete() {
    MPPDB_RETURN_IF_ERROR(ExpectKeyword("FROM"));
    auto del = std::make_unique<sql_ast::DeleteStmt>();
    MPPDB_ASSIGN_OR_RETURN(del->table, ExpectIdentifier());
    if (AcceptKeyword("WHERE")) {
      MPPDB_ASSIGN_OR_RETURN(del->where, ParseExprTop());
    }
    return del;
  }

  // Matches a contextual (non-reserved) word: an identifier with the given
  // lowercase text, or the equivalent reserved keyword.
  bool AcceptWord(const std::string& lower, const std::string& upper) {
    if (Peek().type == TokenType::kIdentifier && Peek().text == lower) {
      ++pos_;
      return true;
    }
    if (Peek().type == TokenType::kKeyword && Peek().text == upper) {
      ++pos_;
      return true;
    }
    return false;
  }

  Status ExpectWord(const std::string& lower, const std::string& upper) {
    if (!AcceptWord(lower, upper)) return Error("expected " + upper);
    return Status::OK();
  }

  /// Parses the parenthesized option list of a WITH clause (the WITH word
  /// itself was already consumed): ( key = value [, ...] ). Values are bare
  /// words, string literals, or integers.
  Status ParseWithOptions(
      std::vector<std::pair<std::string, std::string>>* options) {
    MPPDB_RETURN_IF_ERROR(ExpectSymbol("("));
    while (true) {
      MPPDB_ASSIGN_OR_RETURN(std::string key, ExpectIdentifier());
      MPPDB_RETURN_IF_ERROR(ExpectSymbol("="));
      std::string value;
      if (Peek().type == TokenType::kIdentifier ||
          Peek().type == TokenType::kStringLiteral) {
        value = Advance().text;
      } else if (Peek().type == TokenType::kIntLiteral) {
        value = std::to_string(Advance().int_value);
      } else {
        return Error("expected storage option value");
      }
      options->emplace_back(std::move(key), std::move(value));
      if (!AcceptSymbol(",")) break;
    }
    return ExpectSymbol(")");
  }

  Result<std::unique_ptr<sql_ast::CreateTableStmt>> ParseCreateTable() {
    MPPDB_RETURN_IF_ERROR(ExpectKeyword("TABLE"));
    auto create = std::make_unique<sql_ast::CreateTableStmt>();
    MPPDB_ASSIGN_OR_RETURN(create->table, ExpectIdentifier());
    MPPDB_RETURN_IF_ERROR(ExpectSymbol("("));
    while (true) {
      sql_ast::ColumnDef column;
      MPPDB_ASSIGN_OR_RETURN(column.name, ExpectIdentifier());
      // Type names are contextual identifiers (a column may be named "date").
      if (Peek().type == TokenType::kIdentifier) {
        column.type = Advance().text;
      } else {
        return Error("expected column type");
      }
      create->columns.push_back(std::move(column));
      if (!AcceptSymbol(",")) break;
    }
    MPPDB_RETURN_IF_ERROR(ExpectSymbol(")"));

    // GPDB puts storage options right after the column list; a trailing WITH
    // after the partition clauses is accepted too (below).
    if (AcceptWord("with", "WITH")) {
      MPPDB_RETURN_IF_ERROR(ParseWithOptions(&create->with_options));
    }

    if (AcceptWord("distributed", "DISTRIBUTED")) {
      if (AcceptWord("randomly", "RANDOMLY")) {
        create->distribution = sql_ast::CreateTableStmt::Distribution::kRandom;
      } else if (AcceptWord("replicated", "REPLICATED")) {
        create->distribution = sql_ast::CreateTableStmt::Distribution::kReplicated;
      } else {
        MPPDB_RETURN_IF_ERROR(ExpectKeyword("BY"));
        MPPDB_RETURN_IF_ERROR(ExpectSymbol("("));
        create->distribution = sql_ast::CreateTableStmt::Distribution::kHash;
        while (true) {
          MPPDB_ASSIGN_OR_RETURN(std::string column, ExpectIdentifier());
          create->distribution_columns.push_back(std::move(column));
          if (!AcceptSymbol(",")) break;
        }
        MPPDB_RETURN_IF_ERROR(ExpectSymbol(")"));
      }
    }

    // PARTITION BY ... [SUBPARTITION BY ...]*
    bool first_level = true;
    while (true) {
      if (first_level) {
        if (!AcceptWord("partition", "PARTITION")) break;
      } else {
        if (!AcceptWord("subpartition", "SUBPARTITION")) break;
      }
      first_level = false;
      MPPDB_RETURN_IF_ERROR(ExpectKeyword("BY"));
      sql_ast::PartitionLevelSpec level;
      if (AcceptWord("range", "RANGE")) {
        level.is_range = true;
      } else if (AcceptWord("list", "LIST")) {
        level.is_range = false;
      } else {
        return Error("expected RANGE or LIST");
      }
      MPPDB_RETURN_IF_ERROR(ExpectSymbol("("));
      MPPDB_ASSIGN_OR_RETURN(level.column, ExpectIdentifier());
      MPPDB_RETURN_IF_ERROR(ExpectSymbol(")"));
      if (level.is_range) {
        MPPDB_RETURN_IF_ERROR(ExpectWord("start", "START"));
        MPPDB_ASSIGN_OR_RETURN(level.start, ParsePrimary());
        MPPDB_RETURN_IF_ERROR(ExpectWord("end", "END"));
        MPPDB_ASSIGN_OR_RETURN(level.end, ParsePrimary());
        MPPDB_RETURN_IF_ERROR(ExpectWord("every", "EVERY"));
        if (Peek().type != TokenType::kIntLiteral) {
          return Error("expected integer EVERY step");
        }
        level.every = Advance().int_value;
      } else {
        MPPDB_RETURN_IF_ERROR(ExpectKeyword("VALUES"));
        MPPDB_RETURN_IF_ERROR(ExpectSymbol("("));
        while (true) {
          MPPDB_ASSIGN_OR_RETURN(sql_ast::ParseExprPtr value, ParsePrimary());
          level.values.push_back(std::move(value));
          if (!AcceptSymbol(",")) break;
        }
        MPPDB_RETURN_IF_ERROR(ExpectSymbol(")"));
      }
      create->partition_levels.push_back(std::move(level));
    }
    if (AcceptWord("with", "WITH")) {
      MPPDB_RETURN_IF_ERROR(ParseWithOptions(&create->with_options));
    }
    return create;
  }

  // --- Expressions ---------------------------------------------------------

  /// Holds one level of expression nesting for its lifetime.
  class NestingGuard {
   public:
    explicit NestingGuard(int* depth) : depth_(depth) { ++*depth_; }
    ~NestingGuard() { --*depth_; }
    NestingGuard(const NestingGuard&) = delete;
    NestingGuard& operator=(const NestingGuard&) = delete;
    bool exceeded() const { return *depth_ > kMaxExprNesting; }

   private:
    int* depth_;
  };

  Status NestingError() const {
    return Status::InvalidArgument(
        "expression nesting exceeds " + std::to_string(kMaxExprNesting) +
        " levels near offset " + std::to_string(Peek().position));
  }

  Result<ParseExprPtr> ParseExprTop() {
    NestingGuard guard(&depth_);
    if (guard.exceeded()) return NestingError();
    return ParseOr();
  }

  Result<ParseExprPtr> ParseOr() {
    MPPDB_ASSIGN_OR_RETURN(ParseExprPtr left, ParseAnd());
    while (AcceptKeyword("OR")) {
      MPPDB_ASSIGN_OR_RETURN(ParseExprPtr right, ParseAnd());
      MPPDB_ASSIGN_OR_RETURN(left, MakeBinary("OR", std::move(left), std::move(right)));
    }
    return left;
  }

  Result<ParseExprPtr> ParseAnd() {
    MPPDB_ASSIGN_OR_RETURN(ParseExprPtr left, ParseNot());
    while (AcceptKeyword("AND")) {
      MPPDB_ASSIGN_OR_RETURN(ParseExprPtr right, ParseNot());
      MPPDB_ASSIGN_OR_RETURN(left, MakeBinary("AND", std::move(left), std::move(right)));
    }
    return left;
  }

  Result<ParseExprPtr> ParseNot() {
    if (AcceptKeyword("NOT")) {
      NestingGuard guard(&depth_);
      if (guard.exceeded()) return NestingError();
      MPPDB_ASSIGN_OR_RETURN(ParseExprPtr inner, ParseNot());
      auto node = MakeNode(ParseExpr::Kind::kNot);
      AddArg(node.get(), std::move(inner));
      return node;
    }
    return ParsePredicate();
  }

  Result<ParseExprPtr> ParsePredicate() {
    MPPDB_ASSIGN_OR_RETURN(ParseExprPtr left, ParseAdditive());
    // Comparison.
    for (const char* op : {"=", "<>", "<=", ">=", "<", ">"}) {
      if (AcceptSymbol(op)) {
        MPPDB_ASSIGN_OR_RETURN(ParseExprPtr right, ParseAdditive());
        return MakeBinary(op, std::move(left), std::move(right));
      }
    }
    bool negated = false;
    if (PeekKeyword("NOT") &&
        (Peek(1).text == "BETWEEN" || Peek(1).text == "IN")) {
      Advance();
      negated = true;
    }
    if (AcceptKeyword("BETWEEN")) {
      auto node = MakeNode(ParseExpr::Kind::kBetween);
      AddArg(node.get(), std::move(left));
      MPPDB_ASSIGN_OR_RETURN(ParseExprPtr lo, ParseAdditive());
      MPPDB_RETURN_IF_ERROR(ExpectKeyword("AND"));
      MPPDB_ASSIGN_OR_RETURN(ParseExprPtr hi, ParseAdditive());
      AddArg(node.get(), std::move(lo));
      AddArg(node.get(), std::move(hi));
      return Negate(std::move(node), negated);
    }
    if (AcceptKeyword("IN")) {
      MPPDB_RETURN_IF_ERROR(ExpectSymbol("("));
      if (PeekKeyword("SELECT")) {
        auto node = MakeNode(ParseExpr::Kind::kInSubquery);
        AddArg(node.get(), std::move(left));
        MPPDB_ASSIGN_OR_RETURN(node->subquery, ParseSelect());
        MPPDB_RETURN_IF_ERROR(ExpectSymbol(")"));
        return Negate(std::move(node), negated);
      }
      auto node = MakeNode(ParseExpr::Kind::kInList);
      AddArg(node.get(), std::move(left));
      while (true) {
        MPPDB_ASSIGN_OR_RETURN(ParseExprPtr item, ParseExprTop());
        AddArg(node.get(), std::move(item));
        if (!AcceptSymbol(",")) break;
      }
      MPPDB_RETURN_IF_ERROR(ExpectSymbol(")"));
      return Negate(std::move(node), negated);
    }
    if (AcceptKeyword("IS")) {
      bool is_not = AcceptKeyword("NOT");
      MPPDB_RETURN_IF_ERROR(ExpectKeyword("NULL"));
      auto node = MakeNode(ParseExpr::Kind::kIsNull);
      AddArg(node.get(), std::move(left));
      return Negate(std::move(node), is_not);
    }
    return left;
  }

  static Result<ParseExprPtr> Negate(ParseExprPtr node, bool negated) {
    if (!negated) return node;
    auto wrapper = MakeNode(ParseExpr::Kind::kNot);
    AddArg(wrapper.get(), std::move(node));
    return Result<ParseExprPtr>(std::move(wrapper));
  }

  Result<ParseExprPtr> ParseAdditive() {
    MPPDB_ASSIGN_OR_RETURN(ParseExprPtr left, ParseMultiplicative());
    while (true) {
      if (AcceptSymbol("+")) {
        MPPDB_ASSIGN_OR_RETURN(ParseExprPtr right, ParseMultiplicative());
        MPPDB_ASSIGN_OR_RETURN(left, MakeBinary("+", std::move(left), std::move(right)));
      } else if (AcceptSymbol("-")) {
        MPPDB_ASSIGN_OR_RETURN(ParseExprPtr right, ParseMultiplicative());
        MPPDB_ASSIGN_OR_RETURN(left, MakeBinary("-", std::move(left), std::move(right)));
      } else {
        return left;
      }
    }
  }

  Result<ParseExprPtr> ParseMultiplicative() {
    MPPDB_ASSIGN_OR_RETURN(ParseExprPtr left, ParsePrimary());
    while (true) {
      if (AcceptSymbol("*")) {
        MPPDB_ASSIGN_OR_RETURN(ParseExprPtr right, ParsePrimary());
        MPPDB_ASSIGN_OR_RETURN(left, MakeBinary("*", std::move(left), std::move(right)));
      } else if (AcceptSymbol("/")) {
        MPPDB_ASSIGN_OR_RETURN(ParseExprPtr right, ParsePrimary());
        MPPDB_ASSIGN_OR_RETURN(left, MakeBinary("/", std::move(left), std::move(right)));
      } else if (AcceptSymbol("%")) {
        MPPDB_ASSIGN_OR_RETURN(ParseExprPtr right, ParsePrimary());
        MPPDB_ASSIGN_OR_RETURN(left, MakeBinary("%", std::move(left), std::move(right)));
      } else {
        return left;
      }
    }
  }

  Result<ParseExprPtr> ParsePrimary() {
    const Token& token = Peek();
    switch (token.type) {
      case TokenType::kIntLiteral: {
        auto node = MakeNode(ParseExpr::Kind::kIntLit);
        node->int_value = Advance().int_value;
        return node;
      }
      case TokenType::kDoubleLiteral: {
        auto node = MakeNode(ParseExpr::Kind::kDoubleLit);
        node->double_value = Advance().double_value;
        return node;
      }
      case TokenType::kStringLiteral: {
        auto node = MakeNode(ParseExpr::Kind::kStringLit);
        node->text = Advance().text;
        return node;
      }
      case TokenType::kParam: {
        auto node = MakeNode(ParseExpr::Kind::kParam);
        node->param_index = static_cast<int>(Advance().int_value) - 1;
        if (node->param_index < 0) return Error("parameters are numbered from $1");
        return Result<ParseExprPtr>(std::move(node));
      }
      default:
        break;
    }
    if (AcceptKeyword("DATE")) {
      if (Peek().type != TokenType::kStringLiteral) {
        return Error("expected string after DATE");
      }
      auto node = MakeNode(ParseExpr::Kind::kDateLit);
      node->text = Advance().text;
      return Result<ParseExprPtr>(std::move(node));
    }
    if (AcceptKeyword("TRUE") || AcceptKeyword("FALSE")) {
      auto node = MakeNode(ParseExpr::Kind::kBoolLit);
      node->int_value = tokens_[pos_ - 1].text == "TRUE" ? 1 : 0;
      return Result<ParseExprPtr>(std::move(node));
    }
    if (AcceptKeyword("NULL")) {
      return Result<ParseExprPtr>(MakeNode(ParseExpr::Kind::kNullLit));
    }
    for (const char* func : {"COUNT", "SUM", "AVG", "MIN", "MAX"}) {
      if (PeekKeyword(func)) {
        Advance();
        MPPDB_RETURN_IF_ERROR(ExpectSymbol("("));
        auto node = MakeNode(ParseExpr::Kind::kFuncCall);
        node->text = func;
        if (node->text == "COUNT" && AcceptSymbol("*")) {
          AddArg(node.get(), MakeNode(ParseExpr::Kind::kStar));
        } else {
          MPPDB_ASSIGN_OR_RETURN(ParseExprPtr arg, ParseExprTop());
          AddArg(node.get(), std::move(arg));
        }
        MPPDB_RETURN_IF_ERROR(ExpectSymbol(")"));
        return Result<ParseExprPtr>(std::move(node));
      }
    }
    if (AcceptSymbol("(")) {
      MPPDB_ASSIGN_OR_RETURN(ParseExprPtr inner, ParseExprTop());
      MPPDB_RETURN_IF_ERROR(ExpectSymbol(")"));
      return inner;
    }
    if (AcceptSymbol("-")) {
      NestingGuard guard(&depth_);
      if (guard.exceeded()) return NestingError();
      MPPDB_ASSIGN_OR_RETURN(ParseExprPtr inner, ParsePrimary());
      auto zero = MakeNode(ParseExpr::Kind::kIntLit);
      zero->int_value = 0;
      return MakeBinary("-", std::move(zero), std::move(inner));
    }
    if (token.type == TokenType::kIdentifier) {
      auto node = MakeNode(ParseExpr::Kind::kColumn);
      node->text = Advance().text;
      if (AcceptSymbol(".")) {
        node->qualifier = node->text;
        MPPDB_ASSIGN_OR_RETURN(node->text, ExpectIdentifier());
      }
      return Result<ParseExprPtr>(std::move(node));
    }
    return Error("unexpected token in expression");
  }

  std::vector<Token> tokens_;
  size_t pos_ = 0;
  /// Current expression nesting (see kMaxExprNesting).
  int depth_ = 0;
};

}  // namespace

Result<sql_ast::Statement> ParseStatement(const std::string& sql) {
  MPPDB_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(sql));
  Parser parser(std::move(tokens));
  return parser.ParseStatement();
}

}  // namespace mppdb

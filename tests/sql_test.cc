#include <gtest/gtest.h>

#include "db/database.h"
#include "sql/binder.h"
#include "sql/lexer.h"
#include "sql/parser.h"
#include "test_util.h"

namespace mppdb {
namespace {

TEST(LexerTest, BasicTokens) {
  auto tokens = Tokenize("SELECT a, b2 FROM t WHERE x <= 10.5 AND y = 'it''s'");
  ASSERT_TRUE(tokens.ok());
  ASSERT_GE(tokens->size(), 10u);
  EXPECT_EQ((*tokens)[0].type, TokenType::kKeyword);
  EXPECT_EQ((*tokens)[0].text, "SELECT");
  EXPECT_EQ((*tokens)[1].type, TokenType::kIdentifier);
  EXPECT_EQ((*tokens)[1].text, "a");
  // The escaped string literal.
  bool found_string = false;
  for (const Token& token : *tokens) {
    if (token.type == TokenType::kStringLiteral) {
      EXPECT_EQ(token.text, "it's");
      found_string = true;
    }
  }
  EXPECT_TRUE(found_string);
}

TEST(LexerTest, CaseInsensitiveKeywordsLowercaseIdentifiers) {
  auto tokens = Tokenize("select FOO from BaR");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[0].text, "SELECT");
  EXPECT_EQ((*tokens)[1].text, "foo");
  EXPECT_EQ((*tokens)[3].text, "bar");
}

TEST(LexerTest, Params) {
  auto tokens = Tokenize("WHERE x = $1");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[3].type, TokenType::kParam);
  EXPECT_EQ((*tokens)[3].int_value, 1);
}

TEST(LexerTest, Errors) {
  EXPECT_FALSE(Tokenize("SELECT 'unterminated").ok());
  EXPECT_FALSE(Tokenize("SELECT #").ok());
  EXPECT_FALSE(Tokenize("SELECT $x").ok());
}

TEST(ParserTest, SelectShape) {
  auto stmt = ParseStatement(
      "SELECT avg(amount) AS a, region FROM orders "
      "WHERE date BETWEEN DATE '2013-10-01' AND DATE '2013-12-31' "
      "GROUP BY region ORDER BY region DESC LIMIT 5");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  ASSERT_EQ(stmt->kind, sql_ast::Statement::Kind::kSelect);
  const auto& select = *stmt->select;
  EXPECT_EQ(select.items.size(), 2u);
  EXPECT_EQ(select.items[0].alias, "a");
  EXPECT_EQ(select.from.size(), 1u);
  ASSERT_NE(select.where, nullptr);
  EXPECT_EQ(select.where->kind, sql_ast::ParseExpr::Kind::kBetween);
  EXPECT_EQ(select.group_by.size(), 1u);
  ASSERT_EQ(select.order_by.size(), 1u);
  EXPECT_FALSE(select.order_by[0].ascending);
  EXPECT_EQ(select.limit, 5u);
}

TEST(ParserTest, JoinsAndSubquery) {
  auto stmt = ParseStatement(
      "SELECT * FROM orders o JOIN customer c ON o.cust_id = c.id "
      "WHERE o.date_id IN (SELECT id FROM date_dim WHERE year = 2013)");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  const auto& select = *stmt->select;
  EXPECT_TRUE(select.select_star);
  ASSERT_EQ(select.joins.size(), 1u);
  EXPECT_EQ(select.joins[0].table.alias, "c");
  ASSERT_NE(select.where, nullptr);
  EXPECT_EQ(select.where->kind, sql_ast::ParseExpr::Kind::kInSubquery);
}

TEST(ParserTest, OperatorPrecedence) {
  auto stmt = ParseStatement("SELECT a + b * 2 FROM t WHERE x = 1 OR y = 2 AND z = 3");
  ASSERT_TRUE(stmt.ok());
  // a + (b * 2)
  const auto& item = *stmt->select->items[0].expr;
  EXPECT_EQ(item.text, "+");
  EXPECT_EQ(item.args[1]->text, "*");
  // x=1 OR (y=2 AND z=3)
  const auto& where = *stmt->select->where;
  EXPECT_EQ(where.text, "OR");
  EXPECT_EQ(where.args[1]->text, "AND");
}

TEST(ParserTest, DmlStatements) {
  auto insert = ParseStatement("INSERT INTO t VALUES (1, 'x'), (2, 'y')");
  ASSERT_TRUE(insert.ok());
  EXPECT_EQ(insert->insert->values.size(), 2u);

  auto insert_select = ParseStatement("INSERT INTO t SELECT a, b FROM s");
  ASSERT_TRUE(insert_select.ok());
  EXPECT_NE(insert_select->insert->select, nullptr);

  auto update = ParseStatement("UPDATE r SET b = s.b FROM s WHERE r.a = s.a");
  ASSERT_TRUE(update.ok());
  EXPECT_EQ(update->update->set_items.size(), 1u);
  EXPECT_EQ(update->update->from.size(), 1u);

  auto del = ParseStatement("DELETE FROM t WHERE x < 5");
  ASSERT_TRUE(del.ok());
  EXPECT_NE(del->del->where, nullptr);
}

TEST(ParserTest, Errors) {
  EXPECT_FALSE(ParseStatement("SELECT FROM t").ok());
  EXPECT_FALSE(ParseStatement("SELECT a").ok());
  EXPECT_FALSE(ParseStatement("FOO BAR").ok());
  EXPECT_FALSE(ParseStatement("SELECT a FROM t WHERE").ok());
  EXPECT_FALSE(ParseStatement("SELECT a FROM t extra garbage here").ok());
  EXPECT_FALSE(ParseStatement("INSERT INTO t").ok());
}

class BinderTest : public ::testing::Test {
 protected:
  BinderTest() : db_(2) {
    MPPDB_CHECK(db_.CreatePartitionedTable(
                       "orders",
                       Schema({{"date", TypeId::kDate},
                               {"amount", TypeId::kDouble},
                               {"cust_id", TypeId::kInt64}}),
                       TableDistribution::kHashed, {2},
                       {{0, PartitionMethod::kRange}},
                       {partition_bounds::Monthly(2013, 1, 12)})
                    .ok());
    MPPDB_CHECK(db_.CreateTable("customer",
                                Schema({{"id", TypeId::kInt64},
                                        {"state", TypeId::kString}}),
                                TableDistribution::kHashed, {0})
                    .ok());
  }

  Result<BoundStatement> Bind(const std::string& sql) {
    Binder binder(&db_.catalog());
    return binder.BindSql(sql);
  }

  Database db_;
};

TEST_F(BinderTest, ResolvesColumnsAndStar) {
  auto stmt = Bind("SELECT * FROM orders");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  EXPECT_EQ(stmt->root->OutputIds().size(), 3u);
  EXPECT_EQ(stmt->output_names, (std::vector<std::string>{"date", "amount",
                                                          "cust_id"}));
}

TEST_F(BinderTest, UnknownTableAndColumn) {
  EXPECT_FALSE(Bind("SELECT * FROM nope").ok());
  EXPECT_FALSE(Bind("SELECT nope FROM orders").ok());
  EXPECT_FALSE(Bind("SELECT o.nope FROM orders o").ok());
}

TEST_F(BinderTest, AmbiguousColumn) {
  auto stmt = Bind("SELECT id FROM customer c1, customer c2");
  EXPECT_FALSE(stmt.ok());
  // Qualified reference resolves.
  EXPECT_TRUE(Bind("SELECT c1.id FROM customer c1, customer c2").ok());
}

TEST_F(BinderTest, DateCoercionInComparison) {
  auto stmt = Bind("SELECT amount FROM orders WHERE date >= '2013-05-01'");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  // The select predicate must contain a date constant, not a string.
  ASSERT_EQ(stmt->root->kind(), LogicalKind::kProject);
  const auto& select = static_cast<const LogicalSelect&>(*stmt->root->child(0));
  EXPECT_NE(select.predicate()->ToString().find("2013-05-01"), std::string::npos);
  // Malformed date string against a date column is a bind error.
  EXPECT_FALSE(Bind("SELECT amount FROM orders WHERE date >= 'tomorrow'").ok());
}

TEST_F(BinderTest, InSubqueryBecomesSemiJoin) {
  auto stmt = Bind(
      "SELECT amount FROM orders WHERE cust_id IN "
      "(SELECT id FROM customer WHERE state = 'CA')");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  // Project(SemiJoin(orders, Project(Select(customer))))
  const LogicalNode* node = stmt->root.get();
  ASSERT_EQ(node->kind(), LogicalKind::kProject);
  node = node->child(0).get();
  ASSERT_EQ(node->kind(), LogicalKind::kJoin);
  EXPECT_EQ(static_cast<const LogicalJoin*>(node)->join_type(), JoinType::kSemi);
}

TEST_F(BinderTest, AggregatesRequireGrouping) {
  EXPECT_TRUE(Bind("SELECT cust_id, sum(amount) FROM orders GROUP BY cust_id").ok());
  // Non-grouped column outside an aggregate is rejected.
  EXPECT_FALSE(Bind("SELECT date, sum(amount) FROM orders GROUP BY cust_id").ok());
  // Scalar aggregate without GROUP BY is fine.
  EXPECT_TRUE(Bind("SELECT count(*), avg(amount) FROM orders").ok());
}

TEST_F(BinderTest, SharedAggregateReused) {
  auto stmt = Bind("SELECT sum(amount), sum(amount) + 1 FROM orders");
  ASSERT_TRUE(stmt.ok());
  const auto& project = static_cast<const LogicalProject&>(*stmt->root);
  const auto& agg = static_cast<const LogicalAgg&>(*project.child(0));
  EXPECT_EQ(agg.aggs().size(), 1u);  // sum(amount) bound once
}

TEST_F(BinderTest, UpdateBinding) {
  auto stmt = Bind("UPDATE orders SET amount = amount * 2 WHERE cust_id = 7");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  EXPECT_EQ(stmt->kind, BoundStatement::Kind::kUpdate);
  EXPECT_EQ(stmt->target_table->name, "orders");
  ASSERT_EQ(stmt->set_items.size(), 1u);
  EXPECT_EQ(stmt->set_items[0].column_index, 1);
  EXPECT_EQ(stmt->target_rowid_ids.size(), 3u);
  EXPECT_FALSE(Bind("UPDATE orders SET nope = 1").ok());
}

TEST_F(BinderTest, InsertBinding) {
  auto stmt = Bind("INSERT INTO customer VALUES (1, 'CA'), (2, 'WA')");
  ASSERT_TRUE(stmt.ok());
  EXPECT_EQ(stmt->kind, BoundStatement::Kind::kInsert);
  ASSERT_EQ(stmt->root->kind(), LogicalKind::kValues);
  EXPECT_EQ(static_cast<const LogicalValues&>(*stmt->root).rows().size(), 2u);
  // Date strings coerce on insert into date columns.
  EXPECT_TRUE(Bind("INSERT INTO orders VALUES ('2013-04-01', 9.5, 1)").ok());
  EXPECT_FALSE(Bind("INSERT INTO customer VALUES (1)").ok());  // arity
}

TEST_F(BinderTest, HavingBindsOverAggregates) {
  auto stmt = Bind(
      "SELECT cust_id, sum(amount) FROM orders GROUP BY cust_id "
      "HAVING sum(amount) > 100 AND cust_id < 10");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  // Project(Select(Agg(...))): the HAVING filter sits between Agg and the
  // final projection.
  ASSERT_EQ(stmt->root->kind(), LogicalKind::kProject);
  ASSERT_EQ(stmt->root->child(0)->kind(), LogicalKind::kSelect);
  EXPECT_EQ(stmt->root->child(0)->child(0)->kind(), LogicalKind::kAgg);
  // HAVING may not reference non-grouped columns.
  EXPECT_FALSE(
      Bind("SELECT cust_id, sum(amount) FROM orders GROUP BY cust_id "
           "HAVING date > '2013-01-01'")
          .ok());
}

TEST_F(BinderTest, ExplainFlagSurvivesBinding) {
  auto stmt = Bind("EXPLAIN SELECT * FROM orders");
  ASSERT_TRUE(stmt.ok());
  EXPECT_TRUE(stmt->explain);
  auto plain = Bind("SELECT * FROM orders");
  ASSERT_TRUE(plain.ok());
  EXPECT_FALSE(plain->explain);
}

TEST_F(BinderTest, OrderByResolvesAliasesAndValidates) {
  EXPECT_TRUE(Bind("SELECT amount AS a FROM orders ORDER BY a").ok());
  EXPECT_TRUE(Bind("SELECT amount, date FROM orders ORDER BY date DESC").ok());
  // ORDER BY a column not in the output is rejected.
  EXPECT_FALSE(Bind("SELECT amount FROM orders ORDER BY date").ok());
}

TEST_F(BinderTest, OrderByOrdinalOutOfRangeIsTypedBindError) {
  EXPECT_TRUE(Bind("SELECT amount, date FROM orders ORDER BY 2 DESC, 1").ok());
  EXPECT_TRUE(Bind("SELECT * FROM orders ORDER BY 3").ok());
  for (const char* sql : {"SELECT amount, date FROM orders ORDER BY 0",
                          "SELECT amount, date FROM orders ORDER BY 3",
                          "SELECT * FROM orders ORDER BY 4",
                          "SELECT cust_id, count(*) FROM orders GROUP BY cust_id "
                          "ORDER BY 3 DESC"}) {
    auto stmt = Bind(sql);
    ASSERT_FALSE(stmt.ok()) << sql;
    EXPECT_EQ(stmt.status().code(), StatusCode::kBindError) << sql;
    EXPECT_NE(stmt.status().message().find("ORDER BY position"), std::string::npos)
        << stmt.status().ToString();
  }
}

TEST_F(BinderTest, OrderByAggregateMustBeInTheSelectList) {
  EXPECT_TRUE(Bind("SELECT cust_id, count(*) FROM orders GROUP BY cust_id "
                   "ORDER BY count(*) DESC")
                  .ok());
  EXPECT_TRUE(Bind("SELECT cust_id, sum(amount) FROM orders GROUP BY cust_id "
                   "ORDER BY sum(amount), cust_id")
                  .ok());
  // An aggregate the select list does not compute, and an aggregate in a
  // query without aggregation, stay typed errors.
  for (const char* sql : {"SELECT cust_id, count(*) FROM orders GROUP BY cust_id "
                          "ORDER BY sum(amount)",
                          "SELECT cust_id FROM orders ORDER BY count(*)"}) {
    auto stmt = Bind(sql);
    ASSERT_FALSE(stmt.ok()) << sql;
    EXPECT_EQ(stmt.status().code(), StatusCode::kBindError) << sql;
  }
}

/// ORDER BY ordinals and aggregates, executed: b takes the value v in v rows,
/// so count(*) per b is b and every order below is total.
class OrderByTest : public ::testing::Test {
 protected:
  OrderByTest() : db_(3) {
    MPPDB_CHECK(db_.CreateTable("t",
                                Schema({{"a", TypeId::kInt64}, {"b", TypeId::kInt64}}),
                                TableDistribution::kHashed, {0})
                    .ok());
    std::vector<Row> rows;
    int64_t a = 0;
    for (int64_t b = 1; b <= 4; ++b) {
      for (int64_t i = 0; i < b; ++i) {
        rows.push_back({Datum::Int64(a++), Datum::Int64(b)});
      }
    }
    MPPDB_CHECK(db_.Load("t", rows).ok());
  }

  /// The statement's rows as (col0, col1) pairs, in order.
  std::vector<std::pair<int64_t, int64_t>> Pairs(const std::string& sql) {
    auto result = db_.Run(sql);
    MPPDB_CHECK(result.ok());
    std::vector<std::pair<int64_t, int64_t>> out;
    for (const Row& row : result->rows) {
      out.emplace_back(row[0].int64_value(), row[1].int64_value());
    }
    return out;
  }

  Database db_;
};

TEST_F(OrderByTest, OrdinalAndAggregateOrderTheGroups) {
  const std::vector<std::pair<int64_t, int64_t>> desc = {{4, 4}, {3, 3}, {2, 2}, {1, 1}};
  const std::vector<std::pair<int64_t, int64_t>> asc = {{1, 1}, {2, 2}, {3, 3}, {4, 4}};
  EXPECT_EQ(Pairs("SELECT b, count(*) FROM t GROUP BY b ORDER BY 2 DESC"), desc);
  EXPECT_EQ(Pairs("SELECT b, count(*) FROM t GROUP BY b ORDER BY count(*) DESC"), desc);
  EXPECT_EQ(Pairs("SELECT b, count(*) FROM t GROUP BY b ORDER BY count(*)"), asc);
  EXPECT_EQ(Pairs("SELECT b, count(*) AS c FROM t GROUP BY b ORDER BY c DESC"), desc);
  EXPECT_EQ(Pairs("SELECT b, count(*) FROM t GROUP BY b ORDER BY 1 DESC LIMIT 2"),
            (std::vector<std::pair<int64_t, int64_t>>{{4, 4}, {3, 3}}));
}

TEST_F(OrderByTest, OrdinalOverPlainColumnsAndStar) {
  // b descending, then a descending: a runs 0..9 with b's blocks in order.
  const std::vector<std::pair<int64_t, int64_t>> expected = {
      {9, 4}, {8, 4}, {7, 4}, {6, 4}, {5, 3}, {4, 3}, {3, 3}, {2, 2}, {1, 2}, {0, 1}};
  EXPECT_EQ(Pairs("SELECT a, b FROM t ORDER BY 2 DESC, 1 DESC"), expected);
  EXPECT_EQ(Pairs("SELECT * FROM t ORDER BY 2 DESC, 1 DESC"), expected);
  EXPECT_EQ(Pairs("SELECT a, b FROM t ORDER BY b DESC, a DESC"), expected);
  auto bad = db_.Run("SELECT a, b FROM t ORDER BY 5");
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kBindError);
  // The database serves the next statement.
  EXPECT_EQ(Pairs("SELECT a, b FROM t ORDER BY 1 LIMIT 1"),
            (std::vector<std::pair<int64_t, int64_t>>{{0, 1}}));
}

}  // namespace
}  // namespace mppdb

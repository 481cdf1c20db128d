// Robustness fuzzing of the SQL front end: no input — however malformed —
// may crash the lexer, parser, or binder; everything must surface as a
// Status. Uses deterministic random token soup plus mutations of valid
// statements.

#include <gtest/gtest.h>

#include <string>

#include "common/random.h"
#include "db/database.h"
#include "test_util.h"

namespace mppdb {
namespace {

class SqlFuzzTest : public ::testing::Test {
 protected:
  SqlFuzzTest() : db_(2) {
    MPPDB_CHECK(db_.Run("CREATE TABLE t (a bigint, b varchar, d date) "
                        "DISTRIBUTED BY (a) "
                        "PARTITION BY RANGE (a) START 0 END 100 EVERY 10")
                    .ok());
    MPPDB_CHECK(db_.Run("INSERT INTO t VALUES (1, 'x', '2020-01-05')").ok());
  }

  Database db_;
};

TEST_F(SqlFuzzTest, RandomTokenSoupNeverCrashes) {
  static const char* kTokens[] = {
      "SELECT", "FROM",  "WHERE", "GROUP", "BY",    "ORDER",  "LIMIT", "AND",
      "OR",     "NOT",   "IN",    "BETWEEN", "t",   "a",      "b",     "d",
      "(",      ")",     ",",     "*",     "=",     "<",      ">",     "<=",
      ">=",     "<>",    "+",     "-",     "/",     "%",      "1",     "42",
      "3.14",   "'s'",   "$1",    "count", "sum",   "avg",    "JOIN",  "ON",
      "INSERT", "INTO",  "VALUES", "UPDATE", "SET", "DELETE", "NULL",  "IS",
      "AS",     "HAVING", "DATE", "'2020-01-01'",   ".",      ";",     "EXPLAIN",
      "CREATE", "TABLE", "DROP",  "x",     "nope",
  };
  Random rng(20140622);
  for (int trial = 0; trial < 3000; ++trial) {
    std::string sql;
    int length = 1 + static_cast<int>(rng.Uniform(24));
    for (int i = 0; i < length; ++i) {
      sql += kTokens[rng.Uniform(sizeof(kTokens) / sizeof(kTokens[0]))];
      sql += " ";
    }
    // Must never crash; success or a clean Status are both acceptable.
    auto result = db_.Run(sql);
    if (!result.ok()) {
      StatusCode code = result.status().code();
      EXPECT_TRUE(code == StatusCode::kParseError || code == StatusCode::kBindError ||
                  code == StatusCode::kPlanError ||
                  code == StatusCode::kExecutionError ||
                  code == StatusCode::kNotFound ||
                  code == StatusCode::kInvalidArgument ||
                  code == StatusCode::kAlreadyExists ||
                  code == StatusCode::kOutOfRange)
          << sql << " -> " << result.status().ToString();
    }
  }
}

TEST_F(SqlFuzzTest, MutatedValidStatementsNeverCrash) {
  const std::string base =
      "SELECT a, count(*) FROM t WHERE a BETWEEN 1 AND 50 AND b = 'x' "
      "GROUP BY a ORDER BY a LIMIT 5";
  Random rng(7);
  for (int trial = 0; trial < 2000; ++trial) {
    std::string mutated = base;
    int edits = 1 + static_cast<int>(rng.Uniform(4));
    for (int e = 0; e < edits; ++e) {
      size_t pos = rng.Uniform(mutated.size());
      switch (rng.Uniform(3)) {
        case 0:
          mutated.erase(pos, 1 + rng.Uniform(3));
          break;
        case 1:
          mutated.insert(pos, 1, static_cast<char>(32 + rng.Uniform(95)));
          break;
        default:
          if (!mutated.empty()) {
            mutated[pos % mutated.size()] =
                static_cast<char>(32 + rng.Uniform(95));
          }
          break;
      }
    }
    auto result = db_.Run(mutated);  // outcome irrelevant; must not crash
    (void)result;
  }
}

TEST_F(SqlFuzzTest, DeepNestingDoesNotOverflow) {
  // Heavily parenthesized expressions stress the recursive-descent parser.
  auto nested = [](int depth) {
    return "SELECT a FROM t WHERE " + std::string(depth, '(') + "a = 1" +
           std::string(depth, ')');
  };
  auto result = db_.Run(nested(200));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->rows.size(), 1u);

  // Past the parser's nesting bound every form of deep nesting — parentheses,
  // NOT chains, unary-minus chains, and left-deep operator chains — fails
  // with a typed error instead of overflowing the stack, and the database
  // stays usable.
  for (int depth : {10000, 100000}) {
    std::string nots, sum = "a";
    for (int i = 0; i < depth; ++i) {
      nots += "NOT ";
      sum += " + 1";
    }
    for (const std::string& sql :
         {nested(depth), "SELECT a FROM t WHERE " + nots + "a = 1",
          "SELECT a FROM t WHERE a = " + std::string(depth, '-') + "1",
          "SELECT a FROM t WHERE a = " + sum}) {
      auto deep = db_.Run(sql);
      ASSERT_FALSE(deep.ok()) << "depth " << depth;
      EXPECT_EQ(deep.status().code(), StatusCode::kInvalidArgument)
          << deep.status().ToString();
      EXPECT_NE(deep.status().message().find("nesting"), std::string::npos)
          << deep.status().ToString();
    }
  }
  EXPECT_TRUE(db_.Run(nested(200)).ok());
}

TEST_F(SqlFuzzTest, OutOfRangeNumericLiteralsAreParseErrors) {
  // Literals past int64 / double range once escaped the lexer as
  // std::out_of_range and aborted the process.
  const std::string huge_double = "1" + std::string(400, '0') + ".5";
  for (const std::string& sql :
       {std::string("SELECT 9223372036854775808 + 1 FROM t"),
        std::string("SELECT -9223372036854775808 FROM t"),
        "SELECT " + huge_double + " FROM t",
        std::string("SELECT a FROM t WHERE a = $99999999999999999999")}) {
    auto result = db_.Run(sql);
    ASSERT_FALSE(result.ok()) << sql;
    EXPECT_NE(result.status().message().find("out of range"), std::string::npos)
        << result.status().ToString();
    auto after = db_.Run("SELECT a FROM t WHERE a = 1");
    ASSERT_TRUE(after.ok()) << after.status().ToString();
    EXPECT_EQ(after->rows.size(), 1u);
  }
  // The largest int64 still lexes.
  EXPECT_TRUE(db_.Run("SELECT 9223372036854775807 FROM t").ok());
}

}  // namespace
}  // namespace mppdb

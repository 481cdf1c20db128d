#include "sql/lexer.h"

#include <cctype>
#include <charconv>
#include <unordered_set>

#include "common/string_util.h"

namespace mppdb {

namespace {

const std::unordered_set<std::string>& Keywords() {
  static const auto* kKeywords = new std::unordered_set<std::string>{
      "SELECT", "FROM",   "WHERE",  "GROUP",  "BY",     "ORDER",  "LIMIT",
      "AS",     "AND",    "OR",     "NOT",    "IN",     "BETWEEN", "IS",
      "NULL",   "JOIN",   "INNER",  "ON",     "INSERT", "INTO",   "VALUES",
      "UPDATE", "SET",    "DELETE", "ASC",    "DESC",   "DATE",   "TRUE",
      "FALSE",  "COUNT",  "SUM",    "AVG",    "MIN",    "MAX",    "DISTINCT",
      "HAVING", "EXISTS", "LIKE",   "CASE",   "WHEN",   "THEN",   "ELSE",
      "END",    "EXPLAIN", "ANALYZE", "CREATE", "TABLE",  "DROP",
  };
  return *kKeywords;
}

bool IsIdentStart(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}

bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

/// Parses all of `text` as a T; false when it does not fit (std::stoll and
/// std::stod would throw std::out_of_range there).
template <typename T>
bool ParseNumber(const std::string& text, T* out) {
  const char* end = text.data() + text.size();
  auto [ptr, ec] = std::from_chars(text.data(), end, *out);
  return ec == std::errc() && ptr == end;
}

Status OutOfRange(const std::string& what, size_t offset) {
  return Status::ParseError(what + " out of range at offset " + std::to_string(offset));
}

}  // namespace

Result<std::vector<Token>> Tokenize(const std::string& sql) {
  std::vector<Token> tokens;
  size_t i = 0;
  const size_t n = sql.size();
  while (i < n) {
    char c = sql[i];
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    Token token;
    token.position = i;
    if (IsIdentStart(c)) {
      size_t start = i;
      while (i < n && IsIdentChar(sql[i])) ++i;
      std::string word = sql.substr(start, i - start);
      std::string upper = word;
      for (char& ch : upper) ch = static_cast<char>(std::toupper(static_cast<unsigned char>(ch)));
      if (Keywords().count(upper) > 0) {
        token.type = TokenType::kKeyword;
        token.text = upper;
      } else {
        token.type = TokenType::kIdentifier;
        token.text = ToLower(word);
      }
      tokens.push_back(std::move(token));
      continue;
    }
    if (std::isdigit(static_cast<unsigned char>(c))) {
      size_t start = i;
      bool is_double = false;
      while (i < n && std::isdigit(static_cast<unsigned char>(sql[i]))) ++i;
      if (i < n && sql[i] == '.' && i + 1 < n &&
          std::isdigit(static_cast<unsigned char>(sql[i + 1]))) {
        is_double = true;
        ++i;
        while (i < n && std::isdigit(static_cast<unsigned char>(sql[i]))) ++i;
      }
      std::string number = sql.substr(start, i - start);
      if (is_double) {
        token.type = TokenType::kDoubleLiteral;
        if (!ParseNumber(number, &token.double_value)) {
          return OutOfRange("numeric literal", start);
        }
      } else {
        token.type = TokenType::kIntLiteral;
        if (!ParseNumber(number, &token.int_value)) {
          return OutOfRange("integer literal", start);
        }
      }
      token.text = number;
      tokens.push_back(std::move(token));
      continue;
    }
    if (c == '\'') {
      size_t start = ++i;
      std::string contents;
      bool closed = false;
      while (i < n) {
        if (sql[i] == '\'') {
          if (i + 1 < n && sql[i + 1] == '\'') {  // escaped quote
            contents += '\'';
            i += 2;
            continue;
          }
          closed = true;
          ++i;
          break;
        }
        contents += sql[i++];
      }
      if (!closed) {
        return Status::ParseError("unterminated string literal at offset " +
                                  std::to_string(start - 1));
      }
      token.type = TokenType::kStringLiteral;
      token.text = std::move(contents);
      tokens.push_back(std::move(token));
      continue;
    }
    if (c == '$') {
      size_t start = ++i;
      while (i < n && std::isdigit(static_cast<unsigned char>(sql[i]))) ++i;
      if (i == start) {
        return Status::ParseError("malformed parameter at offset " +
                                  std::to_string(start - 1));
      }
      token.type = TokenType::kParam;
      if (!ParseNumber(sql.substr(start, i - start), &token.int_value)) {
        return OutOfRange("parameter number", start - 1);
      }
      tokens.push_back(std::move(token));
      continue;
    }
    // Multi-char operators.
    auto two = sql.substr(i, 2);
    if (two == "<>" || two == "<=" || two == ">=" || two == "!=") {
      token.type = TokenType::kSymbol;
      token.text = two == "!=" ? "<>" : two;
      i += 2;
      tokens.push_back(std::move(token));
      continue;
    }
    static const std::string kSingles = "(),*=<>+-/%.;";
    if (kSingles.find(c) != std::string::npos) {
      token.type = TokenType::kSymbol;
      token.text = std::string(1, c);
      ++i;
      tokens.push_back(std::move(token));
      continue;
    }
    return Status::ParseError("unexpected character '" + std::string(1, c) +
                              "' at offset " + std::to_string(i));
  }
  Token end;
  end.type = TokenType::kEnd;
  end.position = n;
  tokens.push_back(std::move(end));

  // DATE is a soft keyword: it introduces a literal only when directly
  // followed by a string ('DATE ''2013-10-01'''); otherwise it is an
  // ordinary identifier (a column named "date").
  for (size_t t = 0; t + 1 < tokens.size(); ++t) {
    if (tokens[t].type == TokenType::kKeyword && tokens[t].text == "DATE" &&
        tokens[t + 1].type != TokenType::kStringLiteral) {
      tokens[t].type = TokenType::kIdentifier;
      tokens[t].text = "date";
    }
  }
  return tokens;
}

}  // namespace mppdb

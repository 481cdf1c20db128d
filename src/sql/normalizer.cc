#include "sql/normalizer.h"

#include "common/macros.h"
#include "sql/lexer.h"
#include "types/date.h"

namespace mppdb {

namespace {

// Renders a string literal back into quoted SQL form ('' escaping).
void AppendQuoted(const std::string& contents, std::string* out) {
  out->push_back('\'');
  for (char c : contents) {
    if (c == '\'') out->push_back('\'');
    out->push_back(c);
  }
  out->push_back('\'');
}

void AppendToken(const Token& token, std::string* out) {
  if (!out->empty()) out->push_back(' ');
  switch (token.type) {
    case TokenType::kStringLiteral:
      AppendQuoted(token.text, out);
      break;
    case TokenType::kParam:
      out->push_back('$');
      out->append(std::to_string(token.int_value));
      break;
    default:
      out->append(token.text);
      break;
  }
}

void AppendParamSlot(size_t index, std::string* out) {
  if (!out->empty()) out->push_back(' ');
  out->push_back('$');
  out->append(std::to_string(index));
}

bool IsKeyword(const Token& token, const char* text) {
  return token.type == TokenType::kKeyword && token.text == text;
}

bool IsSymbol(const Token& token, const char* text) {
  return token.type == TokenType::kSymbol && token.text == text;
}

/// An ORDER BY ordinal: an integer literal that is a whole item of an
/// ORDER BY list (`in_order_by`), between BY or a comma and a comma,
/// ASC/DESC, LIMIT, a closing parenthesis or the end.
bool IsOrderByOrdinal(const std::vector<Token>& tokens, size_t i, bool in_order_by) {
  if (!in_order_by || i == 0 || tokens[i].type != TokenType::kIntLiteral) return false;
  const Token& prev = tokens[i - 1];
  if (!IsKeyword(prev, "BY") && !IsSymbol(prev, ",")) return false;
  if (i + 1 >= tokens.size()) return true;
  const Token& next = tokens[i + 1];
  return next.type == TokenType::kEnd || IsSymbol(next, ",") || IsSymbol(next, ")") ||
         IsSymbol(next, ";") || IsKeyword(next, "ASC") || IsKeyword(next, "DESC") ||
         IsKeyword(next, "LIMIT");
}

bool IsLiteral(const Token& token) {
  return token.type == TokenType::kIntLiteral ||
         token.type == TokenType::kDoubleLiteral ||
         token.type == TokenType::kStringLiteral;
}

}  // namespace

Result<NormalizedSql> NormalizeSql(const std::string& sql) {
  MPPDB_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(sql));
  NormalizedSql out;

  // Statement classification from the leading keyword: only SELECT is
  // cacheable (EXPLAIN results are plan strings, DML must re-apply writes
  // through the fresh path, DDL mutates the catalog the cache is keyed on).
  size_t first = 0;
  bool is_select = first < tokens.size() &&
                   tokens[first].type == TokenType::kKeyword &&
                   tokens[first].text == "SELECT";
  bool has_params = false;
  for (const Token& token : tokens) {
    if (token.type == TokenType::kParam) has_params = true;
  }
  out.cacheable = is_select;
  out.auto_params = is_select && !has_params;

  // Inside an ORDER BY list: from ORDER BY up to LIMIT or a closing
  // parenthesis (the list of a subquery).
  bool in_order_by = false;
  for (size_t i = 0; i < tokens.size(); ++i) {
    const Token& token = tokens[i];
    if (token.type == TokenType::kEnd) break;
    if (IsKeyword(token, "BY") && i > 0 && IsKeyword(tokens[i - 1], "ORDER")) {
      in_order_by = true;
    } else if (IsKeyword(token, "LIMIT") || IsSymbol(token, ")")) {
      in_order_by = false;
    }
    if (!out.auto_params) {
      AppendToken(token, &out.text);
      continue;
    }
    // DATE 'x' folds into a single Date-typed slot (the lexer guarantees a
    // string literal follows a DATE keyword). Malformed dates stay inline so
    // the fresh bind path reports its usual error.
    if (token.type == TokenType::kKeyword && token.text == "DATE" &&
        i + 1 < tokens.size() &&
        tokens[i + 1].type == TokenType::kStringLiteral) {
      int32_t days = 0;
      if (date::Parse(tokens[i + 1].text, &days)) {
        out.params.push_back(Datum::Date(days));
        AppendParamSlot(out.params.size(), &out.text);
        ++i;  // consume the string literal too
        continue;
      }
      AppendToken(token, &out.text);
      AppendToken(tokens[++i], &out.text);
      continue;
    }
    // LIMIT requires a plain integer literal in the grammar; keep it inline
    // (it shapes the plan anyway, so caching per-limit is correct).
    if (token.type == TokenType::kKeyword && token.text == "LIMIT" &&
        i + 1 < tokens.size() && tokens[i + 1].type == TokenType::kIntLiteral) {
      AppendToken(token, &out.text);
      AppendToken(tokens[++i], &out.text);
      continue;
    }
    // An ORDER BY ordinal names an output column, not a value: it shapes the
    // plan, so it stays inline like LIMIT's count.
    if (IsOrderByOrdinal(tokens, i, in_order_by)) {
      AppendToken(token, &out.text);
      continue;
    }
    if (IsLiteral(token)) {
      switch (token.type) {
        case TokenType::kIntLiteral:
          out.params.push_back(Datum::Int64(token.int_value));
          break;
        case TokenType::kDoubleLiteral:
          out.params.push_back(Datum::Double(token.double_value));
          break;
        default:
          out.params.push_back(Datum::String(token.text));
          break;
      }
      AppendParamSlot(out.params.size(), &out.text);
      continue;
    }
    AppendToken(token, &out.text);
  }
  return out;
}

}  // namespace mppdb

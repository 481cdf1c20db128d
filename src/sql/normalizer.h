#ifndef MPPDB_SQL_NORMALIZER_H_
#define MPPDB_SQL_NORMALIZER_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "types/datum.h"

namespace mppdb {

/// A statement reduced to its plan-cache key: canonical token text with
/// literal constants auto-parameterized into $n slots (paper §4: a plan
/// compiled against $n placeholders stays valid across parameter values
/// because partition elimination is deferred to the PartitionSelector
/// runtime). Two statements that differ only in literal values — or in
/// whitespace, keyword case, or identifier case — normalize to the same
/// `text` and share one cached plan.
struct NormalizedSql {
  /// Canonical rendering of the token stream: keywords upper-cased,
  /// identifiers lower-cased, single-space separated, literals replaced by
  /// $1..$n (in token order) when `auto_params` is true. Re-parses to the
  /// same statement shape as the input.
  std::string text;
  /// Values extracted for $1..$n, aligned with the slots in `text`. Empty
  /// when `auto_params` is false (the caller supplies params explicitly).
  std::vector<Datum> params;
  /// True when literals were extracted into `params`. False for statements
  /// that already carry $n placeholders: their text is still canonicalized,
  /// but parameter values come from QueryOptions::params as before.
  bool auto_params = false;
  /// True when the statement is eligible for the plan cache: a SELECT
  /// (non-EXPLAIN) that tokenized cleanly. DDL, DML, and EXPLAIN always
  /// take the fresh parse+bind+optimize path.
  bool cacheable = false;
};

/// Lexer-level normalization — no parse, no catalog access, O(tokens).
///
/// Parameterization rules (anything not parameterized is rendered inline,
/// so the normalized text still distinguishes it):
///  * int / double / string literals become $n slots, except the literal
///    after LIMIT (the grammar requires a plain integer there) and an
///    integer that is a whole ORDER BY item (an ordinal into the select
///    list, which the binder resolves to a column).
///  * DATE 'x' folds into one $n slot holding a Date datum when 'x' parses
///    as a date; a malformed date literal stays inline so the fresh bind
///    reports the same error it always did.
///  * TRUE/FALSE/NULL are keywords, not literal tokens; they stay inline.
///  * Statements that already contain $n parameters are never
///    re-parameterized (indices would clash); only the text is canonicalized.
///
/// Returns ParseError only for input the lexer itself rejects — callers
/// should then fall through to the ordinary path, which reports the error.
Result<NormalizedSql> NormalizeSql(const std::string& sql);

}  // namespace mppdb

#endif  // MPPDB_SQL_NORMALIZER_H_

#ifndef MPPDB_EXEC_AGG_STATE_H_
#define MPPDB_EXEC_AGG_STATE_H_

#include "common/status.h"
#include "expr/expr.h"
#include "types/datum.h"

namespace mppdb {

/// Running state of one aggregate within one group. Shared by the in-memory
/// and the spilling HashAgg so accumulation (including double summation
/// order) is the same code in both — a prerequisite for spilled results
/// being bit-identical to in-memory ones.
struct AggState {
  int64_t count = 0;          // non-null inputs (or all rows for count(*))
  double sum_double = 0;
  int64_t sum_int = 0;
  bool saw_double = false;
  bool saw_value = false;
  Datum min;
  Datum max;
};

/// Folds one non-null input value into the state. Not used for count(*)
/// (which has no argument; callers bump `count` directly).
inline Status AccumulateAgg(AggState& state, AggFunc func, const Datum& v) {
  ++state.count;
  switch (func) {
    case AggFunc::kSum:
    case AggFunc::kAvg:
      if (!IsNumeric(v.type())) {
        return Status::ExecutionError("sum/avg over a non-numeric value");
      }
      if (v.type() == TypeId::kDouble) {
        state.saw_double = true;
        state.sum_double += v.double_value();
      } else {
        state.sum_int += v.AsInt64();
        state.sum_double += static_cast<double>(v.AsInt64());
      }
      break;
    case AggFunc::kMin:
      if (!state.saw_value || Datum::Compare(v, state.min) < 0) state.min = v;
      break;
    case AggFunc::kMax:
      if (!state.saw_value || Datum::Compare(v, state.max) > 0) state.max = v;
      break;
    default:
      break;
  }
  state.saw_value = true;
  return Status::OK();
}

/// Final output value of one aggregate.
inline Datum FinalizeAgg(const AggState& state, AggFunc func) {
  switch (func) {
    case AggFunc::kCount:
    case AggFunc::kCountStar:
      return Datum::Int64(state.count);
    case AggFunc::kSum:
      if (state.count == 0) return Datum::Null();
      if (state.saw_double) return Datum::Double(state.sum_double);
      return Datum::Int64(state.sum_int);
    case AggFunc::kAvg:
      if (state.count == 0) return Datum::Null();
      return Datum::Double(state.sum_double / static_cast<double>(state.count));
    case AggFunc::kMin:
      return state.saw_value ? state.min : Datum::Null();
    case AggFunc::kMax:
      return state.saw_value ? state.max : Datum::Null();
  }
  return Datum::Null();
}

}  // namespace mppdb

#endif  // MPPDB_EXEC_AGG_STATE_H_

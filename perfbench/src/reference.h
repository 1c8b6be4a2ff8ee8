#ifndef PERFBENCH_REFERENCE_H_
#define PERFBENCH_REFERENCE_H_

// The independent reference every emitted result is checked against.
//
// Window instances are enumerated from the window parameters alone, with
// the semantics the differential fuzzer's brute-force oracle fixes
// (src/testing/oracle.h): a time window [s, e) aggregates the data tuples
// with s <= ts < e; instances without tuples are reported with an empty
// value; windows ending before the first tuple of their (key's) stream are
// never reported; every instance ending at or before the final watermark
// is. Aggregates whose fold order cannot change the result on
// integer-valued streams (sum, m4) are recomputed exactly per instance;
// holistic aggregates and sessions come from a fuzzer-validated baseline
// operator's final result map.

#include <compare>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/time.h"
#include "common/value.h"
#include "core/window_operator.h"

namespace perfbench {

using scotty::Time;
using scotty::Value;
using scotty::WindowResult;

struct InstanceKey {
  int64_t key = 0;
  int32_t window = 0;
  int32_t agg = 0;
  Time start = 0;
  Time end = 0;

  auto operator<=>(const InstanceKey&) const = default;
};

inline InstanceKey KeyOf(const WindowResult& r) {
  return InstanceKey{r.key, r.window_id, r.agg_id, r.start, r.end};
}

/// Expected final value of every window instance, sorted by key.
using Reference = std::vector<std::pair<InstanceKey, Value>>;

void SortReference(Reference* ref);

struct CheckReport {
  uint64_t attempted = 0;  // reference instances checked
  uint64_t wrong = 0;      // emitted with another value
  uint64_t missing = 0;    // never emitted
  uint64_t extra = 0;      // emitted but not expected, or emitted twice

  uint64_t failed() const { return wrong + missing + extra; }
  void Add(const CheckReport& o) {
    attempted += o.attempted;
    wrong += o.wrong;
    missing += o.missing;
    extra += o.extra;
  }
};

/// Compares `emitted` with `ref`. With `final_map`, a later result for the
/// same instance (a late update) replaces the earlier one; without it every
/// instance must be emitted exactly once.
CheckReport Check(const Reference& ref, const std::vector<WindowResult>& emitted,
                  bool final_map);

/// Changes the value of the last emitted result, which is the final value
/// of its instance under either check mode. The benchmark's self-test runs
/// Check on the corrupted copy and requires exactly one wrong result.
void CorruptLast(std::vector<WindowResult>* emitted);

/// Calls fn(start, end) for every instance of a tumbling (slide == length)
/// or sliding time window that the reference semantics report.
template <typename F>
void ForEachInstance(Time length, Time slide, Time first_ts, Time final_wm,
                     F&& fn) {
  // Ends lie at length + k * slide; the first reported end is >= first_ts.
  Time end = length;
  if (end < first_ts) end += (first_ts - length + slide - 1) / slide * slide;
  for (; end <= final_wm; end += slide) fn(end - length, end);
}

/// Exact sums over event-time ranges of one integer-valued stream.
class RangeSums {
 public:
  /// `points` are (ts, value) pairs in any order.
  explicit RangeSums(std::vector<std::pair<Time, double>> points);
  /// Sum of the values with start <= ts < end; empty when there are none.
  Value Sum(Time start, Time end) const;

 private:
  std::vector<Time> ts_;
  std::vector<double> prefix_;  // prefix_[i] = sum of the first i values
};

}  // namespace perfbench

#endif  // PERFBENCH_REFERENCE_H_

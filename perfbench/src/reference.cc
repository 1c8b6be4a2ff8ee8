#include "reference.h"

#include <algorithm>

namespace perfbench {

void SortReference(Reference* ref) {
  std::sort(ref->begin(), ref->end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
}

CheckReport Check(const Reference& ref, const std::vector<WindowResult>& emitted,
                  bool final_map) {
  // Emission order is kept among equal instances (stable sort), so the last
  // entry of a run is the instance's final value.
  std::vector<std::pair<InstanceKey, const Value*>> got;
  got.reserve(emitted.size());
  for (const WindowResult& r : emitted) got.emplace_back(KeyOf(r), &r.value);
  std::stable_sort(got.begin(), got.end(), [](const auto& a, const auto& b) {
    return a.first < b.first;
  });

  CheckReport rep;
  rep.attempted = ref.size();
  size_t i = 0;
  size_t j = 0;
  while (i < ref.size() || j < got.size()) {
    if (j == got.size() || (i < ref.size() && ref[i].first < got[j].first)) {
      ++rep.missing;
      ++i;
      continue;
    }
    size_t run_end = j + 1;
    while (run_end < got.size() && got[run_end].first == got[j].first) {
      ++run_end;
    }
    if (!final_map) rep.extra += run_end - j - 1;
    if (i < ref.size() && ref[i].first == got[j].first) {
      if (!(*got[run_end - 1].second == ref[i].second)) ++rep.wrong;
      ++i;
    } else {
      ++rep.extra;
    }
    j = run_end;
  }
  return rep;
}

void CorruptLast(std::vector<WindowResult>* emitted) {
  if (emitted->empty()) return;
  Value& v = emitted->back().value;
  if (v.IsDouble()) {
    v = Value{v.AsDouble() + 1.0};
  } else if (v.IsM4()) {
    scotty::M4Result m = v.AsM4();
    m.min -= 1.0;
    v = Value{m};
  } else {
    v = Value{-1.0};
  }
}

RangeSums::RangeSums(std::vector<std::pair<Time, double>> points) {
  std::sort(points.begin(), points.end());
  ts_.reserve(points.size());
  prefix_.reserve(points.size() + 1);
  prefix_.push_back(0.0);
  for (const auto& [ts, value] : points) {
    ts_.push_back(ts);
    prefix_.push_back(prefix_.back() + value);
  }
}

Value RangeSums::Sum(Time start, Time end) const {
  const size_t lo = static_cast<size_t>(
      std::lower_bound(ts_.begin(), ts_.end(), start) - ts_.begin());
  const size_t hi = static_cast<size_t>(
      std::lower_bound(ts_.begin(), ts_.end(), end) - ts_.begin());
  if (lo == hi) return Value{};
  return Value{prefix_[hi] - prefix_[lo]};
}

}  // namespace perfbench

#ifndef SCOTTY_CORE_EDGE_HEAP_H_
#define SCOTTY_CORE_EDGE_HEAP_H_

#include <algorithm>
#include <cstddef>
#include <functional>
#include <utility>
#include <vector>

#include "common/time.h"

namespace scotty {

/// Min-heap of (edge, window id) entries, one per context-free window. The
/// operator's trigger heap and the stream slicer's edge heap both use it so
/// that the work per passed edge touches only the windows whose edge was
/// passed, independent of the number of idle concurrent windows.
///
/// Entries order by (edge, window id), a strict total order when ids are
/// unique, so the order in which passed entries reach the top is
/// deterministic (emission order depends on it).
class EdgeHeap {
 public:
  using Entry = std::pair<Time, int>;

  bool Empty() const { return heap_.empty(); }
  /// Smallest edge, kMaxTime when empty.
  Time TopEdge() const { return heap_.empty() ? kMaxTime : heap_[0].first; }
  int TopId() const { return heap_[0].second; }

  void Clear() { heap_.clear(); }
  /// Adds an entry without restoring the heap order; call Heapify() after
  /// the last one (O(n) bulk build).
  void Append(Time edge, int window_id) { heap_.push_back({edge, window_id}); }
  void Heapify() { std::make_heap(heap_.begin(), heap_.end(), Later{}); }

  /// Moves the top entry to `edge` (a pop plus push in one sift-down).
  void ReplaceTopEdge(Time edge) {
    const Entry moved{edge, heap_[0].second};
    const size_t n = heap_.size();
    size_t i = 0;
    for (size_t child = 1; child < n; child = 2 * i + 1) {
      if (child + 1 < n && Later{}(heap_[child], heap_[child + 1])) ++child;
      if (!Later{}(moved, heap_[child])) break;
      heap_[i] = heap_[child];
      i = child;
    }
    heap_[i] = moved;
  }

 private:
  // std:: heap algorithms build max-heaps; ordering by "later" puts the
  // earliest entry on top.
  using Later = std::greater<Entry>;

  std::vector<Entry> heap_;
};

}  // namespace scotty

#endif  // SCOTTY_CORE_EDGE_HEAP_H_

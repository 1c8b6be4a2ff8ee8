#ifndef SCOTTY_CORE_STREAM_SLICER_H_
#define SCOTTY_CORE_STREAM_SLICER_H_

#include <algorithm>
#include <vector>

#include "common/time.h"
#include "core/aggregate_store.h"
#include "core/edge_heap.h"
#include "core/query_set.h"

namespace scotty {

/// Step 1 of the slicing pipeline (paper Section 5.3): initializes slices
/// on the fly as in-order tuples arrive. The slicer caches the timestamp of
/// the next upcoming window edge; the common case is a single comparison
/// per tuple. When the cached edge is passed, the open slice is closed at
/// that edge and a new slice opens at the latest window edge at or before
/// the new tuple (empty stream regions produce no slices, keeping the slice
/// count minimal).
///
/// On streams declared in-order it suffices to start slices at window
/// *starts* (the Cutty optimization [10]); on out-of-order streams slices
/// must also begin at window ends so late tuples can update the last slice
/// of a window.
class StreamSlicer {
 public:
  StreamSlicer(AggregateStore* store, const QuerySet* queries)
      : store_(store), queries_(queries) {
    Refresh(kNoTime);
  }

  /// Re-reads the window set after a query change and rebuilds the edge
  /// heap at `max_ts`, the largest in-order timestamp seen (kNoTime before
  /// the stream: the first tuple builds the heap). Leaves the cached edge
  /// alone; Recache(max_ts) re-derives it.
  void Refresh(Time max_ts) {
    starts_only_ =
        queries_->stream_in_order && !queries_->slice_at_window_ends;
    ca_windows_.clear();
    for (const WindowPtr& w : queries_->windows) {
      if (QuerySet::OnTimeLane(w) && QuerySet::IsContextAware(w)) {
        ca_windows_.push_back(w.get());
      }
    }
    RebuildHeap(max_ts);
  }

  /// Ensures the open slice exists and covers `ts`; cuts at passed window
  /// edges. Must be called for every in-order tuple before context
  /// processing and before the tuple is added to its slice.
  void OnInOrderTuple(Time ts) {
    if (store_->Empty()) {
      const Time start = ClampedLastEdge(ts);
      RebuildHeap(ts);
      next_edge_ = NextEdge(ts);
      store_->Append(start, next_edge_);
      return;
    }
    if (ts >= next_edge_) {
      // The cached edge was passed: the open slice is complete. Close it at
      // the passed edge — context modifications (session extensions) may
      // have stretched its provisional end further out.
      Slice* cur = store_->Current();
      if (cur->end() > next_edge_) cur->set_end(next_edge_);
      // Open the next slice at the latest edge <= ts (skipping empty
      // regions). Only windows whose heap edge ts passed can have an edge
      // in [next_edge_, ts]: every other context-free window's latest edge
      // lies at or before the previous position, below next_edge_ (a
      // window's slicer edges include every edge LastEdgeAtOrBefore
      // reports; start and end edges coincide where only starts cut).
      Time start = kNoTime;
      while (!heap_.Empty() && heap_.TopEdge() <= ts) {
        const Window& w = *queries_->windows[heap_.TopId()];
        start = std::max(start, w.LastEdgeAtOrBefore(ts));
        heap_.ReplaceTopEdge(SlicerEdge(w, ts));
      }
      for (const Window* w : ca_windows_) {
        start = std::max(start, w->LastEdgeAtOrBefore(ts));
      }
      // No passed window announced an edge at or before ts (a window that
      // is inconsistent with its own next edge): fall back to the full
      // scan, which also covers the unpassed windows.
      if (start == kNoTime) start = ClampedLastEdge(ts);
      if (start < next_edge_) start = next_edge_;
      next_edge_ = NextEdge(ts);
      store_->Append(start, next_edge_);
    }
  }

  /// Recomputes the cached edge after the current tuple was processed.
  /// Needed whenever context-aware windows are present (their edges move
  /// with the stream, e.g., a session timeout extends with every tuple);
  /// context-free edges are already cached correctly. Costs O(number of
  /// context-aware windows): the heap top is still the context-free minimum.
  void Recache(Time ts) {
    next_edge_ = NextEdge(ts);
    if (Slice* cur = store_->Current()) {
      // The open slice's provisional end follows the next edge.
      if (next_edge_ > cur->start()) cur->set_end(next_edge_);
    }
  }

  Time next_edge() const { return next_edge_; }

  /// Snapshot support: the slicer's only serialized state is the cached
  /// edge. The edge heap is a pure function of the largest in-order
  /// timestamp and is rebuilt by Refresh on restore.
  void Serialize(state::Writer& w) const { w.I64(next_edge_); }
  void Deserialize(state::Reader& r) { next_edge_ = r.I64(); }

 private:
  /// The next edge after t at which `w` requires a slice to start.
  Time SlicerEdge(const Window& w, Time t) const {
    return starts_only_ ? w.GetNextStartEdge(t) : w.GetNextEdge(t);
  }

  /// min over time-lane windows of the next slicer edge after ts; the heap
  /// must hold every context-free window's edge after ts.
  Time NextEdge(Time ts) const {
    Time edge = heap_.TopEdge();
    for (const Window* w : ca_windows_) {
      edge = std::min(edge, SlicerEdge(*w, ts));
    }
    return edge;
  }

  /// Fills the heap with every context-free time-lane window's next slicer
  /// edge after ts (empty when ts is kNoTime).
  void RebuildHeap(Time ts) {
    heap_.Clear();
    if (ts == kNoTime) return;
    for (size_t i = 0; i < queries_->windows.size(); ++i) {
      const WindowPtr& w = queries_->windows[i];
      if (!QuerySet::OnTimeLane(w) || QuerySet::IsContextAware(w)) continue;
      heap_.Append(SlicerEdge(*w, ts), static_cast<int>(i));
    }
    heap_.Heapify();
  }

  /// max over time-lane windows of the latest edge at or before ts
  /// (falls back to ts itself when no window announces an edge).
  Time ClampedLastEdge(Time ts) const {
    Time start = kNoTime;
    for (const WindowPtr& w : queries_->windows) {
      if (!QuerySet::OnTimeLane(w)) continue;
      const Time e = w->LastEdgeAtOrBefore(ts);
      if (e != kNoTime && e > start) start = e;
    }
    return start == kNoTime ? ts : start;
  }

  AggregateStore* store_;
  const QuerySet* queries_;
  bool starts_only_ = false;
  std::vector<const Window*> ca_windows_;  // time-lane, context-aware
  EdgeHeap heap_;  // (next slicer edge, window id), context-free time lane
  Time next_edge_ = kMaxTime;
};

}  // namespace scotty

#endif  // SCOTTY_CORE_STREAM_SLICER_H_

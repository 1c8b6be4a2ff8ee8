#ifndef SCOTTY_TESTING_HARNESS_H_
#define SCOTTY_TESTING_HARNESS_H_

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include "common/time.h"
#include "common/tuple.h"
#include "common/tuple_batch.h"
#include "common/value.h"
#include "core/window_operator.h"
#include "state/snapshot.h"

namespace scotty {
namespace testing {

/// Shorthand tuple constructor used throughout the test suites.
inline Tuple T(Time ts, double value, uint64_t seq = 0, int64_t key = 0) {
  Tuple t;
  t.ts = ts;
  t.value = value;
  t.seq = seq;
  t.key = key;
  return t;
}

/// Key identifying a window instance in the result stream.
using ResultKey = std::tuple<int, int, Time, Time>;  // window, agg, start, end

/// Final value per window instance: later emissions (allowed-lateness
/// updates) override earlier ones — the consumer-visible end state.
inline std::map<ResultKey, Value> FinalResults(
    const std::vector<WindowResult>& results) {
  std::map<ResultKey, Value> out;
  for (const WindowResult& r : results) {
    out[{r.window_id, r.agg_id, r.start, r.end}] = r.value;
  }
  return out;
}

/// Feeds tuples in vector order, assigning arrival sequence numbers, then a
/// final watermark; returns all emitted results.
inline std::vector<WindowResult> RunStream(WindowOperator& op,
                                           std::vector<Tuple> tuples,
                                           Time final_wm) {
  uint64_t seq = 0;
  for (Tuple& t : tuples) {
    t.seq = seq++;
    op.ProcessTuple(t);
  }
  op.ProcessWatermark(final_wm);
  return op.TakeResults();
}

/// One step of a replay's watermark sequence: a watermark sent after
/// `index` tuples were admitted, or (`resumed` set) a restart before tuple
/// `index` from a barrier whose last watermark was `wm`.
struct WatermarkEvent {
  size_t index = 0;
  Time wm = kNoTime;
  bool resumed = false;

  friend bool operator==(const WatermarkEvent&,
                         const WatermarkEvent&) = default;
};
using WatermarkLog = std::vector<WatermarkEvent>;

/// Folds a log into the watermark sequence downstream saw, the way a
/// restored run's results override what was emitted after its barrier:
/// each resume drops the watermarks sent after its index. Returns false if
/// a resume does not restart from the watermark last sent before it.
inline bool MergeWatermarkLog(const WatermarkLog& log, WatermarkLog* merged) {
  merged->clear();
  for (const WatermarkEvent& e : log) {
    if (!e.resumed) {
      merged->push_back(e);
      continue;
    }
    while (!merged->empty() && merged->back().index > e.index) {
      merged->pop_back();
    }
    if (e.wm != (merged->empty() ? kNoTime : merged->back().wm)) return false;
  }
  return true;
}

/// The harness's delivery cadence over a replayed tuple vector: arrival
/// stamping, the watermark rule and barrier metadata live here once, so
/// every replay loop (plain, columnar, checkpointed, crash-recovered,
/// keyed, overloaded, shared-query) feeds its operators the same
/// tuple/watermark sequence. After every `wm_every`-th admitted tuple
/// (0 disables) the watermark max_ts - wm_lag is due, unless it does not
/// advance past the last one sent. The runtime drivers differ on purpose:
/// they resend a repeated watermark, which a KeyedWindowOperator still
/// forwards to the per-key operators created since the previous one.
class ReplayCursor {
 public:
  ReplayCursor(int wm_every, Time wm_lag)
      : wm_every_(wm_every > 0 ? static_cast<uint64_t>(wm_every) : 0),
        wm_lag_(wm_lag) {}

  /// Appends every watermark sent and every resume to `log` from now on
  /// (nullptr stops recording).
  void Record(WatermarkLog* log) { log_ = log; }

  /// Index of the next tuple to admit.
  size_t next() const { return next_; }
  /// Maximum event time admitted so far (kNoTime before the first tuple).
  Time max_ts() const { return max_ts_; }

  /// Admits tuples[next()]: returns a copy stamped with its arrival seq and
  /// advances max_ts. A tuple that is then shed must still be admitted, so
  /// the cadence (and every trigger edge) does not depend on the shed set.
  Tuple Admit(const std::vector<Tuple>& tuples) {
    Tuple t = tuples[next_++];
    t.seq = seq_++;
    max_ts_ = std::max(max_ts_, t.ts);
    return t;
  }

  /// Size of the next block of at most `batch_size` tuples before index
  /// `end`: it stops at the next watermark point, so no block straddles one.
  size_t BlockLimit(size_t end, size_t batch_size) const {
    size_t limit = std::min(end - next_, batch_size);
    if (wm_every_ > 0) {
      limit = std::min<size_t>(limit, wm_every_ - seq_ % wm_every_);
    }
    return limit;
  }

  /// The watermark due after the last admitted tuple, if any. A returned
  /// watermark counts as sent.
  std::optional<Time> DueWatermark() {
    if (wm_every_ == 0 || seq_ % wm_every_ != 0) return std::nullopt;
    const Time wm = max_ts_ - wm_lag_;
    if (!Advances(wm, last_wm_)) return std::nullopt;
    last_wm_ = wm;
    if (log_ != nullptr) log_->push_back({next_, wm, false});
    return wm;
  }

  /// Metadata for a barrier taken before tuples[next()].
  state::CheckpointMetadata Barrier() const {
    state::CheckpointMetadata meta;
    meta.source_offset = next_;
    meta.next_seq = seq_;
    meta.max_ts = max_ts_;
    meta.last_wm = last_wm_;
    return meta;
  }

  /// Continues from a barrier's metadata, as if the run had reached it.
  void Resume(const state::CheckpointMetadata& meta) {
    next_ = static_cast<size_t>(meta.source_offset);
    seq_ = meta.next_seq;
    max_ts_ = meta.max_ts;
    last_wm_ = meta.last_wm;
    if (log_ != nullptr) log_->push_back({next_, last_wm_, true});
  }

 private:
  /// The monotone filter.
  static bool Advances(Time wm, Time last_wm) {
    return wm > last_wm || last_wm == kNoTime;
  }

  uint64_t wm_every_;
  Time wm_lag_;
  size_t next_ = 0;
  uint64_t seq_ = 0;
  Time max_ts_ = kNoTime;
  Time last_wm_ = kNoTime;
  WatermarkLog* log_ = nullptr;
};

/// Replays `tuples` through `op` with the ReplayCursor cadence, then a final
/// watermark; returns the final value per window instance. `batch_size` 0
/// delivers each tuple through ProcessTuple; otherwise tuples go through
/// ProcessTupleColumns in blocks of up to `batch_size`. A non-null `wm_log`
/// receives the cadence's watermark sequence.
inline std::map<ResultKey, Value> ReplayToFinalResults(
    WindowOperator& op, const std::vector<Tuple>& tuples, Time final_wm,
    int wm_every, Time wm_lag, size_t batch_size,
    WatermarkLog* wm_log = nullptr) {
  std::map<ResultKey, Value> out;
  std::vector<WindowResult> drained;
  auto drain = [&] {
    drained.clear();
    op.TakeResultsInto(&drained);
    for (const WindowResult& r : drained) {
      out[{r.window_id, r.agg_id, r.start, r.end}] = r.value;
    }
  };
  ReplayCursor cur(wm_every, wm_lag);
  cur.Record(wm_log);
  TupleBatchSoA buf(batch_size);
  while (cur.next() < tuples.size()) {
    if (batch_size == 0) {
      op.ProcessTuple(cur.Admit(tuples));
    } else {
      buf.Clear();
      for (size_t k = cur.BlockLimit(tuples.size(), batch_size); k > 0; --k) {
        buf.PushBack(cur.Admit(tuples));
      }
      op.ProcessTupleColumns(buf.View());
    }
    if (const std::optional<Time> wm = cur.DueWatermark()) {
      op.ProcessWatermark(*wm);
      drain();
    }
  }
  op.ProcessWatermark(final_wm);
  drain();
  return out;
}

/// Like RunStream, but additionally issues a lagging watermark every
/// `wm_every` tuples (wm = max event time seen − wm_lag). Exercises the
/// trigger/update/eviction machinery mid-stream instead of only at the end.
/// With wm_lag ≥ StreamSpec::MaxLateness() no tuple is ever dropped, so the
/// final per-instance results must equal the single-watermark run.
inline std::map<ResultKey, Value> RunToFinalResults(
    WindowOperator& op, const std::vector<Tuple>& tuples, Time final_wm,
    int wm_every = 0, Time wm_lag = 0, WatermarkLog* wm_log = nullptr) {
  return ReplayToFinalResults(op, tuples, final_wm, wm_every, wm_lag, 0,
                              wm_log);
}

/// Batched twin of RunToFinalResults: the identical tuple and watermark
/// sequence, but tuples are transposed into SoA column batches of
/// `batch_size` (blocks never straddle a watermark injection point) and
/// delivered through ProcessTupleColumns — punctuation markers ride inside
/// the blocks, so the columnar run-splitting must handle them inline. Any
/// difference in the final results against RunToFinalResults is a bug in
/// an operator's batched path (or in a column kernel).
inline std::map<ResultKey, Value> RunToFinalResultsColumns(
    WindowOperator& op, const std::vector<Tuple>& tuples, Time final_wm,
    int wm_every, Time wm_lag, size_t batch_size,
    WatermarkLog* wm_log = nullptr) {
  return ReplayToFinalResults(op, tuples, final_wm, wm_every, wm_lag,
                              std::max<size_t>(batch_size, 1), wm_log);
}

/// Checkpointed twin of RunToFinalResults: runs a fresh operator from
/// `factory` over the first `checkpoint_at` tuples with the identical
/// tuple/watermark cadence, serializes its full state through the versioned
/// snapshot container (state/snapshot.h), destroys it, restores a second
/// fresh instance from the snapshot bytes, and replays the remainder. The
/// returned final results must be bit-identical to RunToFinalResults over
/// the whole stream — any difference is a snapshot/restore bug. Returns
/// false (with *error set) if serialization or container validation fails.
/// A non-null `wm_log` receives the watermarks and the resume.
inline bool RunToFinalResultsCheckpointed(
    const std::function<std::unique_ptr<WindowOperator>()>& factory,
    const std::vector<Tuple>& tuples, Time final_wm, int wm_every, Time wm_lag,
    size_t checkpoint_at, std::map<ResultKey, Value>* out,
    std::string* error, WatermarkLog* wm_log = nullptr) {
  out->clear();
  std::unique_ptr<WindowOperator> op = factory();
  auto drain = [&] {
    for (const WindowResult& r : op->TakeResults()) {
      (*out)[{r.window_id, r.agg_id, r.start, r.end}] = r.value;
    }
  };
  ReplayCursor cur(wm_every, wm_lag);
  cur.Record(wm_log);
  const size_t n = tuples.size();
  checkpoint_at = std::min(checkpoint_at, n);
  while (cur.next() < n) {
    if (cur.next() == checkpoint_at) {
      // Snapshot, tear down, restore onto a fresh instance. The cursor
      // resumes from the metadata that went through the container; the
      // operator's own state must survive through the snapshot bytes.
      if (!op->SupportsSnapshot()) {
        *error = "operator does not support snapshots";
        return false;
      }
      state::Writer w;
      op->SerializeState(w);
      const state::CheckpointMetadata meta = cur.Barrier();
      const std::vector<uint8_t> blob =
          state::BuildSnapshot(meta, op->Name(), w.Take());
      op.reset();
      state::CheckpointMetadata meta2;
      std::string name;
      std::vector<uint8_t> st;
      if (!state::ParseSnapshot(blob, &meta2, &name, &st)) {
        *error = "snapshot container failed validation";
        return false;
      }
      if (meta2.source_offset != meta.source_offset ||
          meta2.next_seq != meta.next_seq) {
        *error = "snapshot metadata did not round-trip";
        return false;
      }
      cur.Resume(meta2);
      op = factory();
      state::Reader r(st);
      op->DeserializeState(r);
      if (!r.ok() || !r.AtEnd()) {
        *error = "operator state did not decode cleanly (ok=" +
                 std::string(r.ok() ? "true" : "false") +
                 ", leftover=" + std::to_string(r.remaining()) + " bytes)";
        return false;
      }
    }
    op->ProcessTuple(cur.Admit(tuples));
    if (const std::optional<Time> wm = cur.DueWatermark()) {
      op->ProcessWatermark(*wm);
      drain();
    }
  }
  op->ProcessWatermark(final_wm);
  drain();
  return true;
}

}  // namespace testing
}  // namespace scotty

#endif  // SCOTTY_TESTING_HARNESS_H_

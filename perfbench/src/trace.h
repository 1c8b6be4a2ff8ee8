#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

// Spans around the benchmark's own calls into each layer's public
// functions. A disabled log reads no clock and records nothing, so the
// untraced passes that produce the end-to-end metrics pay only for the
// branch. Each thread owns its log (no locks on the hot path); logs are
// merged after the pass, once every thread has been joined.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// The layer boundaries the benchmark times. Names follow the metric
/// prefixes in BENCHMARK.json.
enum class Stage : uint8_t {
  kPass,            // one whole replay, parent of every other span
  kIngest,          // core: WindowOperator::ProcessTupleColumns
  kTrigger,         // core: WindowOperator::ProcessWatermark
  kDrain,           // core: WindowOperator::TakeResultsInto
  kRegister,        // query: QueryRegistry::Register
  kPush,            // runtime: ParallelExecutor::PushColumns
  kPushWatermark,   // runtime: ParallelExecutor::PushWatermark
  kFinish,          // runtime: ParallelExecutor::Finish
  kBarrier,         // runtime: CheckpointCoordinator::OnBarrier
  kFlush,           // runtime: CheckpointCoordinator::Flush
};

const char* StageName(Stage s);

struct Span {
  Stage stage = Stage::kPass;
  uint32_t thread = 0;  // 0 = producer, 1.. = executor workers
  uint64_t id = 0;
  uint64_t parent = 0;  // 0 = none
  /// Watermark epoch: how many watermarks (or, on self-triggering in-order
  /// operators, ingest calls) preceded the span on its thread. Spans of one
  /// epoch share the id across threads.
  uint64_t epoch = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;

  double Seconds() const { return static_cast<double>(end_ns - start_ns) * 1e-9; }
};

class SpanLog {
 public:
  SpanLog(bool enabled, uint32_t thread) : enabled_(enabled), thread_(thread) {}

  void set_parent(uint64_t parent) { parent_ = parent; }

  /// Runs `fn`, recording it as a span of `stage` when enabled.
  template <typename F>
  void Time(Stage stage, uint64_t epoch, F&& fn) {
    if (!enabled_) {
      fn();
      return;
    }
    const int64_t start = NowNs();
    fn();
    Record(stage, epoch, start, NowNs());
  }

  /// Records an already timed interval as a child of the current parent.
  void Record(Stage stage, uint64_t epoch, int64_t start, int64_t end) {
    if (enabled_) {
      spans_.push_back(Span{stage, thread_, NextId(), parent_, epoch, start, end});
    }
  }

  /// Reserves the id of a root span whose children are recorded before it
  /// closes (the pass span) and makes it the parent of later spans.
  uint64_t OpenRoot() {
    parent_ = NextId();
    return parent_;
  }
  void CloseRoot(uint64_t id, int64_t start, int64_t end) {
    if (enabled_) spans_.push_back(Span{Stage::kPass, thread_, id, 0, 0, start, end});
  }

  std::vector<Span>& spans() { return spans_; }

 private:
  uint64_t NextId() { return (static_cast<uint64_t>(thread_) << 40) | ++next_id_; }

  bool enabled_;
  uint32_t thread_;
  uint64_t parent_ = 0;
  uint64_t next_id_ = 0;
  std::vector<Span> spans_;
};

/// Nearest-rank percentile (q in [0, 1]) of an unsorted sample; sorts it.
inline double Percentile(std::vector<double>& v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(q * static_cast<double>(v.size()));
  if (rank >= v.size()) rank = v.size() - 1;
  return v[rank];
}

inline double Median(std::vector<double> v) { return Percentile(v, 0.5); }

/// `n` results that reached the benchmark `us` microseconds after the call
/// that closed their windows.
struct Latency {
  double us = 0.0;
  uint64_t n = 0;
};

/// Appends, merging into the last entry when the latency is the same (all
/// results of one drain share it).
inline void AddLatency(std::vector<Latency>* v, double us, uint64_t n) {
  if (n == 0) return;
  if (!v->empty() && v->back().us == us) {
    v->back().n += n;
  } else {
    v->push_back({us, n});
  }
}

/// Nearest-rank percentile over every result counted in `v`; sorts it.
inline double Percentile(std::vector<Latency>& v, double q) {
  uint64_t total = 0;
  for (const Latency& l : v) total += l.n;
  if (total == 0) return 0.0;
  std::sort(v.begin(), v.end(), [](const Latency& a, const Latency& b) { return a.us < b.us; });
  uint64_t rank = static_cast<uint64_t>(q * static_cast<double>(total));
  if (rank >= total) rank = total - 1;
  for (const Latency& l : v) {
    if (rank < l.n) return l.us;
    rank -= l.n;
  }
  return v.back().us;
}

/// Writes every span as one JSON object per line.
bool WriteSpans(const std::string& path, const std::vector<Span>& spans);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_

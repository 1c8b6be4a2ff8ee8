#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/window_operator.h"
#include "reference.h"
#include "trace.h"

namespace perfbench {

struct PassConfig {
  /// Record spans around every call into the system.
  bool traced = false;
  /// Untimed warm-up pass that also samples state size at every watermark
  /// or batch boundary (sampling is kept out of the timed passes).
  bool probe = false;
  /// Worker count override for the scaling passes (0 = the workload's own).
  size_t workers = 0;
};

struct PassOutput {
  uint64_t tuples = 0;
  /// First ingest call to last result drained.
  double wall_s = 0.0;
  std::vector<WindowResult> results;
  /// Results carry late updates: check the final value per instance.
  bool final_map = false;
  /// Closing call to result reaching the benchmark, for every result that
  /// closes its window (late updates are not counted).
  std::vector<Latency> latencies;
  /// Checkpoint barriers attempted, and those that failed or were dropped.
  uint64_t barriers = 0;
  uint64_t barrier_failures = 0;
  /// Probe passes: largest MemoryUsageBytes() / slice count seen.
  double peak_state_bytes = 0.0;
  double slices_peak = 0.0;
  /// Traced passes: spans of every thread, and the executor's queue fill
  /// sampled after every push.
  std::vector<Span> spans;
  std::vector<double> queue_fill;
  /// Tuples each executor worker ingested (keyed-parallel).
  std::vector<uint64_t> worker_tuples;
  /// Per-layer counters read from the system's public accessors after the
  /// pass, keyed by metric name.
  std::map<std::string, double> counters;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Generates the input stream from `seed` and computes the reference.
  virtual void Prepare(uint64_t seed) = 0;
  /// Runs the system's set-up calls once, tears the system down, and
  /// returns the seconds the set-up calls took.
  virtual double SetupSeconds() = 0;
  /// Replays the whole stream through a freshly set-up system.
  virtual PassOutput RunPass(const PassConfig& cfg) = 0;

  /// Traced runs also time the same job with this many workers (0: none),
  /// to compare it with the timed passes' single worker.
  virtual size_t scaling_workers() const { return 0; }
  const Reference& reference() const { return reference_; }

 protected:
  Reference reference_;
};

/// Names accepted by MakeWorkload, in BENCHMARK.json order.
const std::vector<std::string>& WorkloadNames();

/// `ckpt_root` is the directory, inside the checkout, for checkpoint files.
std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       const std::string& ckpt_root);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_

#ifndef SCOTTY_RUNTIME_PIPELINE_H_
#define SCOTTY_RUNTIME_PIPELINE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/window_operator.h"
#include "datagen/generators.h"
#include "runtime/checkpoint_health.h"
#include "runtime/parallel_executor.h"

namespace scotty {

/// Single-threaded tuple-at-a-time driver: pulls tuples from a source into
/// a window operator, injecting periodic low-watermarks (paper Section 2).
/// This is our stand-in for the Flink task the paper deploys operators in.
/// Results are drained after every watermark, which keeps memory flat.
struct PipelineOptions {
  /// Inject a watermark after every N tuples (0 disables watermarks —
  /// correct for streams declared in-order, which self-trigger).
  uint64_t watermark_every = 1024;
  /// Watermark = max event-time seen minus this delay (covers the maximum
  /// out-of-order delay of the stream).
  Time watermark_delay = 2000;
  /// Feed the operator through ProcessTupleColumns in blocks of this many
  /// tuples (0 or 1 keeps the tuple-at-a-time loop). Blocks never straddle
  /// a watermark boundary, so the item sequence the operator observes is
  /// identical to unbatched execution.
  uint64_t batch_size = 0;
};

/// Outcome of every pipeline driver: the sequential, checkpointed, resumed
/// and parallel ones.
struct PipelineReport {
  uint64_t tuples = 0;
  uint64_t results = 0;
  uint64_t updates = 0;
  double seconds = 0.0;
  uint64_t checkpoints = 0;  ///< barriers accepted by the coordinator
  std::string last_checkpoint;  ///< file of the newest accepted barrier
  /// Coordinator persistence health at return, sampled after the final
  /// flush, so callers observe degradation (retried or dropped persists, a
  /// terminal kFailed, the auto-fallback ladder position) without keeping
  /// the coordinator around. Default-healthy when no coordinator was used.
  CheckpointHealthReport health;
  /// Feed-side failures (a throwing source in the parallel driver, a failed
  /// restore of a resumed pipeline). The parallel driver reports them only
  /// after its workers were drained and joined.
  bool ok = true;
  std::string error;

  double TuplesPerSecond() const {
    return seconds > 0 ? static_cast<double>(tuples) / seconds : 0.0;
  }
};

/// Runs up to `max_tuples` tuples through `op` and returns throughput and
/// result counts. Sends one final watermark at the maximum event time.
/// Its loop is the checkpointed driver's (checkpoint.cc) without barriers.
PipelineReport RunPipeline(TupleSource& src, WindowOperator& op,
                           uint64_t max_tuples, const PipelineOptions& opts);

class CheckpointCoordinator;

/// Parallel twin of RunPipeline: feeds the source through a key-partitioned
/// ParallelExecutor (not yet started; this function starts it) with the
/// same tuple/watermark cadence, then drains and joins the workers. To
/// resume from a snapshot, restore the workers with
/// ParallelExecutor::RestoreOperators before the call. If `coord` is
/// non-null, a snapshot barrier is taken after every injected watermark and
/// handed to the coordinator (full combined blob via OnBarrierBytes). If the
/// source throws mid-stream, the workers are still stopped and joined
/// before the error is returned — an abandoned executor with live threads
/// would otherwise block forever in its destructor. Shutdown ordering is
/// fixed on every path, including errors: workers are joined first, then
/// the coordinator is flushed, so no async persist is left in flight and
/// every scheduled checkpoint file is either durable or accounted as
/// dropped/failed when this returns.
PipelineReport RunPipelineParallel(TupleSource& src, ParallelExecutor& exec,
                                   uint64_t max_tuples,
                                   const PipelineOptions& opts,
                                   CheckpointCoordinator* coord = nullptr);

}  // namespace scotty

#endif  // SCOTTY_RUNTIME_PIPELINE_H_

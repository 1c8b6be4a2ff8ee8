#include "runtime/pipeline.h"

#include <algorithm>
#include <chrono>

#include "runtime/checkpoint.h"

namespace scotty {

namespace {

void DrainInto(WindowOperator& op, std::vector<WindowResult>* scratch,
               PipelineReport* report) {
  scratch->clear();
  op.TakeResultsInto(scratch);
  for (const WindowResult& r : *scratch) {
    ++report->results;
    if (r.is_update) ++report->updates;
  }
}

}  // namespace

PipelineReport RunPipeline(TupleSource& src, WindowOperator& op,
                           uint64_t max_tuples, const PipelineOptions& opts) {
  PipelineReport report;
  Time max_ts = kNoTime;
  const auto start = std::chrono::steady_clock::now();
  Tuple t;
  if (opts.batch_size <= 1) {
    // Tuple-at-a-time driver.
    for (uint64_t i = 0; i < max_tuples && src.Next(&t); ++i) {
      op.ProcessTuple(t);
      max_ts = std::max(max_ts, t.ts);
      ++report.tuples;
      if (opts.watermark_every > 0 && (i + 1) % opts.watermark_every == 0) {
        op.ProcessWatermark(max_ts - opts.watermark_delay);
        if (opts.drain_results) {
          for (const WindowResult& r : op.TakeResults()) {
            ++report.results;
            if (r.is_update) ++report.updates;
          }
        }
      }
    }
  } else {
    // Batched driver: same tuple/watermark sequence, delivered in blocks.
    // Row-major source tuples transpose once into SoA columns here.
    TupleBatchSoA buf(opts.batch_size);
    std::vector<WindowResult> drained;
    bool more = true;
    uint64_t i = 0;
    while (more && i < max_tuples) {
      // A block stops at the next watermark injection point so watermark
      // cadence matches the per-tuple driver exactly.
      uint64_t limit = std::min(opts.batch_size, max_tuples - i);
      if (opts.watermark_every > 0) {
        limit = std::min(limit, opts.watermark_every - i % opts.watermark_every);
      }
      buf.Clear();
      while (buf.size() < limit && (more = src.Next(&t))) {
        buf.PushBack(t);
        max_ts = std::max(max_ts, t.ts);
      }
      if (buf.empty()) break;
      op.ProcessTupleColumns(buf.View());
      i += buf.size();
      report.tuples += buf.size();
      if (opts.watermark_every > 0 && i % opts.watermark_every == 0) {
        op.ProcessWatermark(max_ts - opts.watermark_delay);
        if (opts.drain_results) DrainInto(op, &drained, &report);
      }
    }
  }
  if (max_ts != kNoTime) op.ProcessWatermark(max_ts);
  for (const WindowResult& r : op.TakeResults()) {
    ++report.results;
    if (r.is_update) ++report.updates;
  }
  const auto end = std::chrono::steady_clock::now();
  report.seconds = std::chrono::duration<double>(end - start).count();
  return report;
}

ParallelPipelineReport RunPipelineParallel(
    TupleSource& src, ParallelExecutor& exec, uint64_t max_tuples,
    const PipelineOptions& opts,
    const std::vector<uint8_t>* restore_snapshot,
    CheckpointCoordinator* coord) {
  ParallelPipelineReport out;
  if (restore_snapshot != nullptr) {
    std::string err;
    if (!exec.RestoreOperators(*restore_snapshot, &err)) {
      // Failed before Start(): no worker threads exist, nothing to join.
      out.ok = false;
      out.error = "restore failed: " + err;
      return out;
    }
  }
  const auto start = std::chrono::steady_clock::now();
  exec.Start();
  try {
    Tuple t;
    Time max_ts = kNoTime;
    uint64_t i = 0;
    for (; i < max_tuples && src.Next(&t); ++i) {
      exec.Push(t);
      max_ts = std::max(max_ts, t.ts);
      ++out.report.tuples;
      if (opts.watermark_every > 0 && (i + 1) % opts.watermark_every == 0) {
        const Time wm = max_ts - opts.watermark_delay;
        exec.PushWatermark(wm);
        if (coord != nullptr) {
          // Barrier right after the watermark, like the single-threaded
          // checkpointed driver: the combined blob captures every worker
          // between two items of its own stream.
          const std::vector<uint8_t> blob = exec.SnapshotAtBarrier();
          if (!blob.empty()) {
            state::CheckpointMetadata meta;
            meta.source_offset = i + 1;
            meta.next_seq = i + 1;
            meta.max_ts = max_ts;
            meta.last_wm = wm;
            if (!coord->OnBarrierBytes("parallel", blob, meta).empty()) {
              ++out.checkpoints;
            }
          }
        }
      }
    }
    if (max_ts != kNoTime) exec.PushWatermark(max_ts);
  } catch (const std::exception& e) {
    out.ok = false;
    out.error = e.what();
  } catch (...) {
    out.ok = false;
    out.error = "unknown exception while feeding the pipeline";
  }
  // Unconditional: stop markers + join, also on the exception path. The
  // workers drain whatever was queued before the failure, so no thread is
  // left spinning on a queue nobody feeds.
  exec.Finish();
  // Only after the workers are down: settle the coordinator, so an
  // in-flight async persist is completed (or was explicitly abandoned by
  // the caller) before control returns and the executor can be destroyed.
  // Health is sampled post-flush so it covers background persist failures.
  if (coord != nullptr) {
    coord->Flush();
    out.checkpoint_health = coord->HealthReport();
  }
  out.report.results = exec.TotalResults();
  const auto end = std::chrono::steady_clock::now();
  out.report.seconds = std::chrono::duration<double>(end - start).count();
  return out;
}

}  // namespace scotty

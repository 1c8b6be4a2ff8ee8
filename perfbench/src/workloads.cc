#include "workloads.h"

#include <algorithm>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <utility>

#include "aggregates/registry.h"
#include "baselines/tuple_buffer.h"
#include "common/tuple_batch.h"
#include "core/general_slicing_operator.h"
#include "datagen/generators.h"
#include "datagen/ooo_injector.h"
#include "datagen/workloads.h"
#include "query/query_def.h"
#include "query/query_registry.h"
#include "runtime/checkpoint.h"
#include "runtime/keyed_operator.h"
#include "runtime/parallel_executor.h"
#include "windows/session.h"
#include "windows/sliding.h"
#include "windows/tumbling.h"

namespace perfbench {
namespace {

using namespace scotty;

constexpr Time kWatermarkLag = 2000;

/// SplitMix64 step: independent per-component seeds from the one workload
/// seed.
uint64_t DeriveSeed(uint64_t seed, uint64_t salt) {
  uint64_t z = seed + salt * 0x9E3779B97F4A7C15ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// Pulls `n` tuples from `src` into SoA columns.
TupleBatchSoA Materialize(TupleSource& src, size_t n) {
  TupleBatchSoA out(n);
  Tuple t;
  for (size_t i = 0; i < n && src.Next(&t); ++i) out.PushBack(t);
  return out;
}

SensorConfig Football(uint64_t seed, int64_t num_keys) {
  SensorConfig c = SensorStream::Football();
  c.seed = DeriveSeed(seed, 1);
  c.num_keys = num_keys;
  return c;
}

/// Watermark sent after chunk c: the largest timestamp of chunks 0..c
/// minus the lag.
std::vector<Time> LaggingWatermarks(const TupleBatchSoA& s, size_t chunk) {
  std::vector<Time> wms;
  Time max_ts = kNoTime;
  for (size_t i = 0; i < s.size(); ++i) {
    max_ts = std::max(max_ts, s.ts()[i]);
    if ((i + 1) % chunk == 0 || i + 1 == s.size()) {
      wms.push_back(max_ts - kWatermarkLag);
    }
  }
  return wms;
}

Time MaxTs(const TupleBatchSoA& s) {
  return *std::max_element(s.ts(), s.ts() + s.size());
}

double Seconds(int64_t start_ns, int64_t end_ns) {
  return static_cast<double>(end_ns - start_ns) * 1e-9;
}

/// Records `latency_ns` for every result from index `from` on that closes
/// its window; late updates of an already emitted window are not counted.
void AddLatencies(const std::vector<WindowResult>& results, size_t from,
                  int64_t latency_ns, std::vector<Latency>* out) {
  uint64_t closing = 0;
  for (size_t k = from; k < results.size(); ++k) closing += results[k].is_update ? 0 : 1;
  AddLatency(out, static_cast<double>(latency_ns) * 1e-3, closing);
}

/// Latency of results that a watermark closes: from the push of the first
/// watermark at or past the window end until the last worker has delivered
/// its part of that watermark's output. The output of a watermark is
/// complete only then, and the per-result view would mix the saturated
/// worker's queue wait with the idle workers' into a bimodal distribution.
void WatermarkLatencies(const std::vector<std::pair<Time, int64_t>>& pushes,
                        const std::vector<std::pair<Time, int64_t>>& arrivals,
                        std::vector<Latency>* out) {
  std::vector<int64_t> complete_ns(pushes.size(), 0);
  std::vector<uint64_t> closed(pushes.size(), 0);
  for (const auto& [end, arrived_ns] : arrivals) {
    auto it = std::lower_bound(
        pushes.begin(), pushes.end(), end,
        [](const std::pair<Time, int64_t>& p, Time e) { return p.first < e; });
    if (it == pushes.end()) continue;  // unreachable: the last push is max ts
    const size_t k = static_cast<size_t>(it - pushes.begin());
    complete_ns[k] = std::max(complete_ns[k], arrived_ns);
    ++closed[k];
  }
  for (size_t k = 0; k < pushes.size(); ++k) {
    AddLatency(out, static_cast<double>(complete_ns[k] - pushes[k].second) * 1e-3, closed[k]);
  }
}

void ReadCoreStats(const OperatorStats& s, std::map<std::string, double>* c) {
  (*c)["core.windows_emitted"] += static_cast<double>(s.windows_emitted);
  (*c)["core.window_updates"] += static_cast<double>(s.window_updates_emitted);
  (*c)["core.slice_splits"] += static_cast<double>(s.slice_splits);
  (*c)["core.slice_merges"] += static_cast<double>(s.slice_merges);
  (*c)["core.slice_recomputes"] += static_cast<double>(s.slice_recomputes);
  (*c)["core.ooo_tuples"] += static_cast<double>(s.out_of_order_tuples);
  (*c)["core.late_tuples"] += static_cast<double>(s.late_tuples);
  (*c)["core.dropped_tuples"] += static_cast<double>(s.dropped_tuples);
}

double NumSlices(const GeneralSlicingOperator& op) {
  return op.time_store() == nullptr
             ? 0.0
             : static_cast<double>(op.time_store()->NumSlices());
}

// ---------------------------------------------------------------------------
// dashboard-1000w: one self-triggering in-order operator, 1000 windows.

class Dashboard1000w : public Workload {
 public:
  static constexpr size_t kTuples = 300'000;
  static constexpr size_t kBatch = 1024;
  static constexpr int kWindows = 1000;

  void Prepare(uint64_t seed) override {
    SensorStream src(Football(seed, 16));
    stream_ = Materialize(src, kTuples);
    std::vector<std::pair<Time, double>> points;
    points.reserve(stream_.size());
    for (size_t i = 0; i < stream_.size(); ++i) {
      points.emplace_back(stream_.ts()[i], stream_.value()[i]);
    }
    const RangeSums sums(std::move(points));
    // An in-order operator triggers on its own tuples: the last tuple is
    // the final watermark.
    const Time first_ts = stream_.ts()[0];
    const Time final_wm = stream_.ts()[stream_.size() - 1];
    const std::vector<WindowPtr> windows = DashboardTumblingWindows(kWindows);
    for (int w = 0; w < kWindows; ++w) {
      const Time len = static_cast<const TumblingWindow&>(*windows[w]).length();
      ForEachInstance(len, len, first_ts, final_wm, [&](Time s, Time e) {
        reference_.push_back({InstanceKey{0, w, 0, s, e}, sums.Sum(s, e)});
      });
    }
    SortReference(&reference_);
  }

  double SetupSeconds() override {
    const int64_t start = NowNs();
    auto op = MakeOperator();
    return Seconds(start, NowNs());
  }

  PassOutput RunPass(const PassConfig& cfg) override {
    PassOutput out;
    SpanLog log(cfg.traced, 0);
    const uint64_t pass_id = log.OpenRoot();
    auto op = MakeOperator();
    out.results.reserve(reference_.size());
    const size_t n = stream_.size();
    const int64_t pass_start = NowNs();
    uint64_t epoch = 0;
    for (size_t i = 0; i < n; i += kBatch, ++epoch) {
      const TupleColumnsView chunk = stream_.Subview(i, std::min(kBatch, n - i));
      const size_t before = out.results.size();
      const int64_t call_start = NowNs();
      log.Time(Stage::kIngest, epoch, [&] { op->ProcessTupleColumns(chunk); });
      log.Time(Stage::kDrain, epoch, [&] { op->TakeResultsInto(&out.results); });
      const int64_t drained = NowNs();
      AddLatencies(out.results, before, drained - call_start, &out.latencies);
      if (cfg.probe) {
        out.peak_state_bytes = std::max(
            out.peak_state_bytes, static_cast<double>(op->MemoryUsageBytes()));
        out.slices_peak = std::max(out.slices_peak, NumSlices(*op));
      }
    }
    const int64_t pass_end = NowNs();
    log.CloseRoot(pass_id, pass_start, pass_end);
    out.tuples = n;
    out.wall_s = Seconds(pass_start, pass_end);
    out.spans = std::move(log.spans());
    ReadCoreStats(op->stats(), &out.counters);
    return out;
  }

 private:
  static std::unique_ptr<GeneralSlicingOperator> MakeOperator() {
    GeneralSlicingOperator::Options o;
    o.stream_in_order = true;
    o.store_mode = StoreMode::kLazy;
    auto op = std::make_unique<GeneralSlicingOperator>(o);
    op->AddAggregation(MakeAggregation("sum"));
    AddWindows(*op, DashboardTumblingWindows(kWindows));
    return op;
  }

  TupleBatchSoA stream_;
};

// ---------------------------------------------------------------------------
// ooo-sessions-ckpt: out-of-order stream, sessions and a holistic
// aggregate, asynchronous incremental checkpoints.

class OooSessionsCkpt : public Workload {
 public:
  static constexpr size_t kTuples = 1'000'000;
  static constexpr size_t kBatch = 1024;
  static constexpr Time kLateness = 2000;
  static constexpr uint64_t kBarrierEvery = 64;  // watermarks per barrier

  explicit OooSessionsCkpt(std::string ckpt_root)
      : ckpt_root_(std::move(ckpt_root)) {}

  void Prepare(uint64_t seed) override {
    SensorStream inner(Football(seed, 16));
    OutOfOrderInjector::Options ooo;
    ooo.fraction = 0.2;
    ooo.min_delay = 0;
    ooo.max_delay = 2000;
    ooo.seed = DeriveSeed(seed, 2);
    OutOfOrderInjector src(&inner, ooo);
    stream_ = Materialize(src, kTuples);
    watermarks_ = LaggingWatermarks(stream_, kBatch);
    max_ts_ = MaxTs(stream_);
    BuildReference();
  }

  double SetupSeconds() override {
    const std::string dir = FreshDir();
    const int64_t start = NowNs();
    auto op = MakeOperator();
    auto coord = MakeCoordinator(dir);
    const double s = Seconds(start, NowNs());
    coord.reset();
    std::filesystem::remove_all(dir);
    return s;
  }

  PassOutput RunPass(const PassConfig& cfg) override {
    PassOutput out;
    out.final_map = true;
    SpanLog log(cfg.traced, 0);
    const uint64_t pass_id = log.OpenRoot();
    const std::string dir = FreshDir();
    auto op = MakeOperator();
    auto coord = MakeCoordinator(dir);
    out.results.reserve(reference_.size() * 2);

    // Every call is followed by a drain; its results were closed by it.
    auto call = [&](Stage stage, uint64_t epoch, auto&& fn) {
      const size_t before = out.results.size();
      const int64_t call_start = NowNs();
      log.Time(stage, epoch, fn);
      log.Time(Stage::kDrain, epoch, [&] { op->TakeResultsInto(&out.results); });
      AddLatencies(out.results, before, NowNs() - call_start, &out.latencies);
    };
    double queue_max = 0.0;
    const size_t n = stream_.size();
    const int64_t pass_start = NowNs();
    uint64_t epoch = 0;
    for (size_t i = 0; i < n; i += kBatch, ++epoch) {
      const size_t len = std::min(kBatch, n - i);
      const TupleColumnsView chunk = stream_.Subview(i, len);
      const Time wm = watermarks_[epoch];
      call(Stage::kIngest, epoch, [&] { op->ProcessTupleColumns(chunk); });
      call(Stage::kTrigger, epoch, [&] { op->ProcessWatermark(wm); });
      if ((epoch + 1) % kBarrierEvery == 0) {
        state::CheckpointMetadata meta;
        meta.source_offset = i + len;
        meta.next_seq = i + len;
        meta.max_ts = op->max_event_time();
        meta.last_wm = wm;
        ++out.barriers;
        log.Time(Stage::kBarrier, epoch, [&] { coord->OnBarrier(*op, meta); });
        queue_max = std::max(queue_max, static_cast<double>(coord->PersistQueueDepth()));
      }
      if (cfg.probe) {
        out.peak_state_bytes = std::max(
            out.peak_state_bytes, static_cast<double>(op->MemoryUsageBytes()));
        out.slices_peak = std::max(out.slices_peak, NumSlices(*op));
      }
    }
    call(Stage::kTrigger, epoch, [&] { op->ProcessWatermark(max_ts_); });
    const int64_t pass_end = NowNs();
    log.Time(Stage::kFlush, epoch, [&] { coord->Flush(); });
    log.CloseRoot(pass_id, pass_start, pass_end);

    const uint64_t durable = coord->bases_persisted() + coord->deltas_persisted();
    out.barrier_failures = out.barriers > durable ? out.barriers - durable : 0;
    out.counters["runtime.ckpt.bases"] = static_cast<double>(coord->bases_persisted());
    out.counters["runtime.ckpt.deltas"] = static_cast<double>(coord->deltas_persisted());
    out.counters["runtime.ckpt.persist_failures"] =
        static_cast<double>(coord->persist_failures());
    out.counters["runtime.ckpt.barriers_dropped"] =
        static_cast<double>(coord->barriers_dropped());
    out.counters["runtime.ckpt.persist_queue_max"] = queue_max;
    coord.reset();
    double retained = 0.0;
    for (const auto& f : std::filesystem::directory_iterator(dir)) {
      if (f.is_regular_file()) retained += static_cast<double>(f.file_size());
    }
    out.counters["state.retained_bytes"] = retained;
    std::filesystem::remove_all(dir);

    out.tuples = n;
    out.wall_s = Seconds(pass_start, pass_end);
    out.spans = std::move(log.spans());
    ReadCoreStats(op->stats(), &out.counters);
    return out;
  }

 private:
  static std::vector<WindowPtr> Windows() {
    return {std::make_shared<TumblingWindow>(500),
            std::make_shared<SlidingWindow>(1000, 250),
            std::make_shared<SessionWindow>(300)};
  }
  static constexpr const char* kAggs[] = {"sum", "median"};

  static std::unique_ptr<GeneralSlicingOperator> MakeOperator() {
    GeneralSlicingOperator::Options o;
    o.stream_in_order = false;
    o.allowed_lateness = kLateness;
    o.store_mode = StoreMode::kLazy;
    auto op = std::make_unique<GeneralSlicingOperator>(o);
    for (const char* a : kAggs) op->AddAggregation(MakeAggregation(a));
    AddWindows(*op, Windows());
    return op;
  }

  static std::unique_ptr<CheckpointCoordinator> MakeCoordinator(
      const std::string& dir) {
    CheckpointOptions c;
    c.directory = dir;
    c.async = true;
    c.incremental = true;
    c.full_snapshot_every = 8;
    return std::make_unique<CheckpointCoordinator>(c);
  }

  std::string FreshDir() {
    const std::string dir =
        ckpt_root_ + "/ckpt-" + std::to_string(++dirs_made_);
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir;
  }

  /// The tuple-buffer baseline, run with `sum` alone, fixes which window
  /// instances are emitted and when (sessions included, with their
  /// late-update and merge behaviour). Both aggregates of every emission are
  /// then recomputed exactly from the tuples the baseline had admitted (not
  /// later than the allowed lateness behind the last watermark) when it
  /// emitted; the recomputed sums must equal the baseline's. The median is
  /// the nearest-rank one: the ceil(n/2)-th smallest value.
  void BuildReference() {
    TupleBufferOperator baseline(/*stream_in_order=*/false, kLateness);
    baseline.AddAggregation(MakeAggregation("sum"));
    AddWindows(baseline, Windows());
    struct Emission {
      WindowResult result;
      size_t arrived;  // tuples the baseline had processed
    };
    struct Point {
      Time ts;
      size_t index;
      double value;
    };
    std::vector<Emission> emissions;
    std::vector<Point> admitted;
    auto drain = [&](size_t arrived) {
      for (WindowResult& r : baseline.TakeResults()) {
        emissions.push_back({std::move(r), arrived});
      }
    };
    Time last_wm = kNoTime;
    for (size_t i = 0; i < stream_.size(); ++i) {
      const Tuple t = stream_.Get(i);
      if (last_wm == kNoTime || t.ts >= last_wm - kLateness) {
        admitted.push_back({t.ts, i, t.value});
      }
      baseline.ProcessTuple(t);
      drain(i + 1);
      if ((i + 1) % kBatch == 0 || i + 1 == stream_.size()) {
        last_wm = watermarks_[i / kBatch];
        baseline.ProcessWatermark(last_wm);
        drain(i + 1);
      }
    }
    baseline.ProcessWatermark(max_ts_);
    drain(stream_.size());
    std::sort(admitted.begin(), admitted.end(),
              [](const Point& a, const Point& b) { return a.ts < b.ts; });

    // Final value per instance: a later emission replaces an earlier one.
    std::map<InstanceKey, Value> finals;
    uint64_t disagreements = 0;
    std::vector<double> values;
    for (const Emission& e : emissions) {
      const WindowResult& r = e.result;
      auto lo = std::lower_bound(admitted.begin(), admitted.end(), r.start,
                                 [](const Point& p, Time t) { return p.ts < t; });
      values.clear();
      double sum = 0.0;
      for (; lo != admitted.end() && lo->ts < r.end; ++lo) {
        if (lo->index >= e.arrived) continue;
        values.push_back(lo->value);
        sum += lo->value;
      }
      Value sum_v;
      Value median_v;
      if (!values.empty()) {
        auto mid = values.begin() + static_cast<std::ptrdiff_t>((values.size() + 1) / 2 - 1);
        std::nth_element(values.begin(), mid, values.end());
        sum_v = Value{sum};
        median_v = Value{*mid};
      }
      if (!(sum_v == r.value)) ++disagreements;
      finals[{0, r.window_id, 0, r.start, r.end}] = sum_v;
      finals[{0, r.window_id, 1, r.start, r.end}] = median_v;
    }
    if (disagreements != 0) {
      throw std::runtime_error("ooo-sessions-ckpt: recomputed sums disagree with the baseline on " +
                               std::to_string(disagreements) + " emissions");
    }
    reference_.assign(finals.begin(), finals.end());
  }

  std::string ckpt_root_;
  uint64_t dirs_made_ = 0;
  TupleBatchSoA stream_;
  std::vector<Time> watermarks_;
  Time max_ts_ = kNoTime;
};

// ---------------------------------------------------------------------------
// keyed-parallel: key-partitioned executor, one keyed operator per worker.

/// What the executor's factory returns on keyed-parallel: forwards every
/// call to a KeyedWindowOperator and, on the worker's own thread, times the
/// calls (traced passes) and samples state size (probe passes).
class WorkerOperator final : public WindowOperator {
 public:
  static constexpr int64_t kKeys = 64;

  WorkerOperator(std::unique_ptr<KeyedWindowOperator> inner, bool traced,
                 bool probe, uint32_t thread, uint64_t parent)
      : inner_(std::move(inner)), log_(traced, thread), probe_(probe) {
    log_.set_parent(parent);
  }

  void ProcessTuple(const Tuple& t) override {
    inner_->ProcessTuple(t);
    ++tuples_;
  }
  void ProcessTupleColumns(const TupleColumnsView& cols) override {
    log_.Time(Stage::kIngest, epoch_, [&] { inner_->ProcessTupleColumns(cols); });
    tuples_ += cols.size;
  }
  void ProcessWatermark(Time wm) override {
    log_.Time(Stage::kTrigger, epoch_, [&] { inner_->ProcessWatermark(wm); });
    after_watermark_ = true;
    if (probe_) Sample();
  }
  std::vector<WindowResult> TakeResults() override { return inner_->TakeResults(); }
  void TakeResultsInto(std::vector<WindowResult>* out) override {
    log_.Time(Stage::kDrain, epoch_, [&] { inner_->TakeResultsInto(out); });
    if (after_watermark_) ++epoch_;
    after_watermark_ = false;
  }
  size_t MemoryUsageBytes() const override { return inner_->MemoryUsageBytes(); }
  std::string Name() const override { return inner_->Name(); }

  template <typename F>
  void ForEachKeyOperator(F&& fn) const {
    for (int64_t key = 0; key < kKeys; ++key) {
      const auto* op = dynamic_cast<const GeneralSlicingOperator*>(inner_->ForKey(key));
      if (op != nullptr) fn(*op);
    }
  }
  std::vector<Span>& spans() { return log_.spans(); }
  uint64_t tuples() const { return tuples_; }
  double peak_bytes() const { return peak_bytes_; }
  double peak_slices() const { return peak_slices_; }

 private:
  void Sample() {
    peak_bytes_ = std::max(peak_bytes_, static_cast<double>(inner_->MemoryUsageBytes()));
    double slices = 0.0;
    ForEachKeyOperator([&](const GeneralSlicingOperator& op) { slices += NumSlices(op); });
    peak_slices_ = std::max(peak_slices_, slices);
  }

  std::unique_ptr<KeyedWindowOperator> inner_;
  SpanLog log_;
  bool probe_;
  bool after_watermark_ = false;
  uint64_t epoch_ = 0;
  uint64_t tuples_ = 0;
  double peak_bytes_ = 0.0;
  double peak_slices_ = 0.0;
};

class KeyedParallel : public Workload {
 public:
  static constexpr size_t kTuples = 2'000'000;
  static constexpr size_t kChunk = 4096;
  // Timed passes run one worker. With three (or two) the tail of the
  // watermark latency followed bursts of host preemption: the p99 spread
  // over a run's seeds reached 0.26-0.70. Traced runs add three-worker
  // passes for the scaling figure.
  static constexpr size_t kWorkers = 1;
  static constexpr size_t kScalingWorkers = 3;
  static constexpr int kWindows = 80;
  static constexpr Time kLateness = 2000;

  size_t scaling_workers() const override { return kScalingWorkers; }

  void Prepare(uint64_t seed) override {
    SensorStream src(Football(seed, WorkerOperator::kKeys));
    stream_ = Materialize(src, kTuples);
    watermarks_ = LaggingWatermarks(stream_, kChunk);
    max_ts_ = MaxTs(stream_);
    BuildReference();
  }

  double SetupSeconds() override {
    const int64_t start = NowNs();
    std::vector<WorkerOperator*> workers;
    ParallelExecutor exec(kWorkers, Factory(false, false, 0, &workers), Options(nullptr));
    exec.Start();
    const double s = Seconds(start, NowNs());
    exec.Finish();
    return s;
  }

  PassOutput RunPass(const PassConfig& cfg) override {
    PassOutput out;
    SpanLog log(cfg.traced, 0);
    const uint64_t pass_id = log.OpenRoot();

    std::mutex sink_mu;
    std::vector<std::pair<Time, int64_t>> arrivals;
    arrivals.reserve(reference_.size());
    out.results.reserve(reference_.size());
    auto sink = [&](const std::vector<WindowResult>& rs) {
      const int64_t now = NowNs();
      std::lock_guard<std::mutex> lk(sink_mu);
      for (const WindowResult& r : rs) {
        out.results.push_back(r);
        arrivals.emplace_back(r.end, now);
      }
    };
    std::vector<WorkerOperator*> workers;
    ParallelExecutor exec(cfg.workers == 0 ? kWorkers : cfg.workers,
                          Factory(cfg.traced, cfg.probe, pass_id, &workers), Options(sink));
    exec.Start();

    std::vector<std::pair<Time, int64_t>> pushes;
    pushes.reserve(watermarks_.size() + 1);
    auto push_watermark = [&](Time wm, uint64_t epoch) {
      const int64_t start = NowNs();
      exec.PushWatermark(wm);
      log.Record(Stage::kPushWatermark, epoch, start, NowNs());
      pushes.emplace_back(wm, start);
    };
    const size_t n = stream_.size();
    const int64_t pass_start = NowNs();
    uint64_t epoch = 0;
    for (size_t i = 0; i < n; i += kChunk, ++epoch) {
      const TupleColumnsView chunk = stream_.Subview(i, std::min(kChunk, n - i));
      log.Time(Stage::kPush, epoch, [&] { exec.PushColumns(chunk); });
      if (cfg.traced) out.queue_fill.push_back(exec.ApproxMaxQueueFraction());
      push_watermark(watermarks_[epoch], epoch);
    }
    push_watermark(max_ts_, epoch);
    log.Time(Stage::kFinish, epoch, [&] { exec.Finish(); });
    const int64_t pass_end = NowNs();
    log.CloseRoot(pass_id, pass_start, pass_end);

    WatermarkLatencies(pushes, arrivals, &out.latencies);
    out.tuples = n;
    out.wall_s = Seconds(pass_start, pass_end);
    out.spans = std::move(log.spans());
    for (WorkerOperator* w : workers) {
      out.spans.insert(out.spans.end(), w->spans().begin(), w->spans().end());
      out.worker_tuples.push_back(w->tuples());
      out.peak_state_bytes += w->peak_bytes();
      out.slices_peak += w->peak_slices();
      w->ForEachKeyOperator(
          [&](const GeneralSlicingOperator& op) { ReadCoreStats(op.stats(), &out.counters); });
    }
    return out;
  }

 private:
  /// The executor calls the factory once per worker, in worker order, on
  /// the constructing thread; `made` collects the workers for reading
  /// after Finish (the executor owns them until it is destroyed).
  static std::function<std::unique_ptr<WindowOperator>()> Factory(
      bool traced, bool probe, uint64_t parent, std::vector<WorkerOperator*>* made) {
    return [=] {
      auto keyed = std::make_unique<KeyedWindowOperator>([] {
        GeneralSlicingOperator::Options o;
        o.stream_in_order = false;
        o.allowed_lateness = kLateness;
        o.store_mode = StoreMode::kLazy;
        auto op = std::make_unique<GeneralSlicingOperator>(o);
        op->AddAggregation(MakeAggregation("m4"));
        AddWindows(*op, DashboardTumblingWindows(kWindows));
        return std::unique_ptr<WindowOperator>(std::move(op));
      });
      auto w = std::make_unique<WorkerOperator>(
          std::move(keyed), traced, probe, static_cast<uint32_t>(made->size() + 1), parent);
      made->push_back(w.get());
      return std::unique_ptr<WindowOperator>(std::move(w));
    };
  }

  static ParallelExecutor::Options Options(
      std::function<void(const std::vector<WindowResult>&)> sink) {
    ParallelExecutor::Options o;
    o.batch_size = 1024;
    // Rings of two staging batches bound the queue wait a watermark sees
    // behind a saturated worker; with the default 16K-tuple rings the
    // latency median flips between the saturated and the idle workers' waits.
    o.queue_capacity = 2048;
    o.result_sink = std::move(sink);
    return o;
  }

  /// Exact m4 per key and window instance. Each key's sub-stream arrives
  /// in (ts, seq) order, so first and last are the range's ends.
  void BuildReference() {
    std::map<int64_t, std::vector<std::pair<Time, double>>> per_key;
    for (size_t i = 0; i < stream_.size(); ++i) {
      per_key[stream_.key()[i]].emplace_back(stream_.ts()[i], stream_.value()[i]);
    }
    const std::vector<WindowPtr> windows = DashboardTumblingWindows(kWindows);
    for (const auto& [key, pts] : per_key) {
      for (int w = 0; w < kWindows; ++w) {
        const Time len = static_cast<const TumblingWindow&>(*windows[w]).length();
        size_t lo = 0;
        ForEachInstance(len, len, pts.front().first, max_ts_, [&](Time s, Time e) {
          while (lo < pts.size() && pts[lo].first < s) ++lo;
          size_t hi = lo;
          while (hi < pts.size() && pts[hi].first < e) ++hi;
          Value v;
          if (hi > lo) {
            M4Result m{pts[lo].second, pts[lo].second, pts[lo].second, pts[hi - 1].second};
            for (size_t k = lo + 1; k < hi; ++k) {
              m.min = std::min(m.min, pts[k].second);
              m.max = std::max(m.max, pts[k].second);
            }
            v = Value{m};
          }
          reference_.push_back({InstanceKey{key, w, 0, s, e}, v});
          lo = hi;
        });
      }
    }
    SortReference(&reference_);
  }

  TupleBatchSoA stream_;
  std::vector<Time> watermarks_;
  Time max_ts_ = kNoTime;
};

// ---------------------------------------------------------------------------
// shared-dashboard-parallel: shared pre-aggregation under a query registry.

/// The registry the shared executor's factory returns. The executor calls
/// ProcessWatermark and TakeResultsInto on it only under its merge mutex,
/// from whichever worker completes a watermark barrier, so these members
/// are written by one thread at a time and read after Finish.
class SinkRegistry final : public QueryRegistry {
 public:
  SinkRegistry(Options opts, bool traced, bool probe, uint64_t parent)
      : QueryRegistry(opts), log_(traced, 1), probe_(probe) {
    log_.set_parent(parent);
  }

  void ProcessWatermark(Time wm) override {
    log_.Time(Stage::kTrigger, epoch_, [&] { QueryRegistry::ProcessWatermark(wm); });
  }
  void TakeResultsInto(std::vector<WindowResult>* out) override {
    log_.Time(Stage::kDrain, epoch_, [&] { QueryRegistry::TakeResultsInto(out); });
    if (probe_) {
      peak_bytes_ = std::max(peak_bytes_, static_cast<double>(MemoryUsageBytes()));
      peak_slices_ = std::max(peak_slices_, NumSlices(*engine()));
    }
    ++epoch_;
  }

  std::vector<Span>& spans() { return log_.spans(); }
  double peak_bytes() const { return peak_bytes_; }
  double peak_slices() const { return peak_slices_; }

 private:
  SpanLog log_;
  bool probe_;
  uint64_t epoch_ = 0;
  double peak_bytes_ = 0.0;
  double peak_slices_ = 0.0;
};

class SharedDashboardParallel : public Workload {
 public:
  static constexpr size_t kTuples = 4'000'000;
  static constexpr size_t kChunk = 4096;
  static constexpr size_t kWatermarkEvery = 16;  // chunks
  // Two workers, not three: with the producer and three spinning workers on
  // a 4-core host, any other runnable thread preempts one of them and the
  // latency p99 spread across runs exceeded 100%.
  static constexpr size_t kWorkers = 2;
  static constexpr int kQueries = 16;

  void Prepare(uint64_t seed) override {
    SensorStream src(Football(seed, 16));
    stream_ = Materialize(src, kTuples);
    std::vector<Time> per_chunk = LaggingWatermarks(stream_, kChunk);
    watermarks_.clear();
    for (size_t c = kWatermarkEvery - 1; c < per_chunk.size(); c += kWatermarkEvery) {
      watermarks_.push_back(per_chunk[c]);
    }
    max_ts_ = MaxTs(stream_);
    BuildReference();
  }

  double SetupSeconds() override {
    const int64_t start = NowNs();
    SinkRegistry* reg = nullptr;
    ParallelExecutor exec(kWorkers, Factory(nullptr, false, false, 0, &reg), Options());
    exec.Start();
    const double s = Seconds(start, NowNs());
    exec.Finish();
    return s;
  }

  PassOutput RunPass(const PassConfig& cfg) override {
    PassOutput out;
    SpanLog log(cfg.traced, 0);
    const uint64_t pass_id = log.OpenRoot();
    SinkRegistry* reg = nullptr;
    ParallelExecutor exec(kWorkers, Factory(&log, cfg.traced, cfg.probe, pass_id, &reg),
                          Options());
    exec.Start();

    std::vector<std::pair<Time, int64_t>> pushes;
    pushes.reserve(watermarks_.size() + 2);
    uint64_t epoch = 0;
    auto push_watermark = [&](Time wm) {
      const int64_t start = NowNs();
      exec.PushWatermark(wm);
      log.Record(Stage::kPushWatermark, epoch++, start, NowNs());
      pushes.emplace_back(wm, start);
    };
    const size_t n = stream_.size();
    const int64_t pass_start = NowNs();
    // Pins the engine's watermark floor just below the first tuple, as the
    // reference semantics assume; workers merge only completed buckets, so
    // the floor would otherwise depend on merge timing.
    push_watermark(stream_.ts()[0] - 1);
    size_t chunks = 0;
    for (size_t i = 0; i < n; i += kChunk) {
      const TupleColumnsView chunk = stream_.Subview(i, std::min(kChunk, n - i));
      log.Time(Stage::kPush, epoch, [&] { exec.PushColumns(chunk); });
      if (cfg.traced) out.queue_fill.push_back(exec.ApproxMaxQueueFraction());
      if (++chunks % kWatermarkEvery == 0) push_watermark(watermarks_[chunks / kWatermarkEvery - 1]);
    }
    push_watermark(max_ts_);
    log.Time(Stage::kFinish, epoch, [&] { exec.Finish(); });
    out.results = exec.TakeSharedResults();
    const int64_t pass_end = NowNs();
    log.CloseRoot(pass_id, pass_start, pass_end);

    // The executor hands shared results out only after Finish, so every
    // result reaches the benchmark when TakeSharedResults returns.
    std::vector<std::pair<Time, int64_t>> arrivals;
    arrivals.reserve(out.results.size());
    for (const WindowResult& r : out.results) arrivals.emplace_back(r.end, pass_end);
    WatermarkLatencies(pushes, arrivals, &out.latencies);
    out.tuples = n;
    out.wall_s = Seconds(pass_start, pass_end);
    out.spans = std::move(log.spans());
    out.spans.insert(out.spans.end(), reg->spans().begin(), reg->spans().end());
    out.peak_state_bytes = reg->peak_bytes();
    out.slices_peak = reg->peak_slices();
    ReadCoreStats(reg->engine()->stats(), &out.counters);
    out.counters["query.engine_windows"] = static_cast<double>(reg->EngineWindows());
    out.counters["query.engine_window_ratio"] =
        static_cast<double>(reg->EngineWindows()) / kQueries;
    return out;
  }

 private:
  struct Query {
    Time length;
    Time slide;
  };

  /// The dashboard queries of the multi-query benchmark: query 0 is the 1 s
  /// tumbling base granule; the others are tumbling or sliding windows
  /// whose lengths and slides are multiples of it.
  static Query QuerySpec(int i) {
    if (i == 0) return {1000, 1000};
    if (i % 2 == 1) return {1000 * (1 + i % 8), 1000 * (1 + i % 8)};
    return {1000 * (2 + i % 8), 1000 * (1 + i % 4)};
  }

  static QueryDef Def(int i) {
    const Query q = QuerySpec(i);
    QueryDef def;
    def.windows.push_back(q.length == q.slide
                              ? "tumbling:" + std::to_string(q.length)
                              : "sliding:" + std::to_string(q.length) + ":" +
                                    std::to_string(q.slide));
    def.aggs.push_back("sum");
    return def;
  }

  /// Registers every query; with `log`, each Register call is a span.
  static std::function<std::unique_ptr<WindowOperator>()> Factory(
      SpanLog* log, bool traced, bool probe, uint64_t parent, SinkRegistry** made) {
    return [=] {
      QueryRegistry::Options o;
      o.engine.stream_in_order = false;
      o.engine.store_mode = StoreMode::kLazy;
      auto reg = std::make_unique<SinkRegistry>(o, traced, probe, parent);
      for (int i = 0; i < kQueries; ++i) {
        const QueryDef def = Def(i);
        const int64_t start = NowNs();
        const auto id = reg->Register(def);
        if (log != nullptr) log->Record(Stage::kRegister, 0, start, NowNs());
        if (id == QueryRegistry::kInvalidQuery) {
          throw std::runtime_error("shared-dashboard-parallel: query rejected");
        }
      }
      *made = reg.get();
      return std::unique_ptr<WindowOperator>(std::move(reg));
    };
  }

  static ParallelExecutor::Options Options() {
    ParallelExecutor::Options o;
    o.shared_preagg = true;
    o.preagg_slice_len = 1000;
    o.batch_size = 1024;
    return o;
  }

  void BuildReference() {
    std::vector<std::pair<Time, double>> points;
    points.reserve(stream_.size());
    for (size_t i = 0; i < stream_.size(); ++i) {
      points.emplace_back(stream_.ts()[i], stream_.value()[i]);
    }
    const RangeSums sums(std::move(points));
    QueryRegistry ids;  // the dense window id each query's results carry
    for (int i = 0; i < kQueries; ++i) {
      const QueryRegistry::QueryId id = ids.Register(Def(i));
      const int window = ids.GlobalWindowId(id, 0);
      const Query q = QuerySpec(i);
      ForEachInstance(q.length, q.slide, stream_.ts()[0], max_ts_, [&](Time s, Time e) {
        reference_.push_back({InstanceKey{0, window, 0, s, e}, sums.Sum(s, e)});
      });
    }
    SortReference(&reference_);
  }

  TupleBatchSoA stream_;
  std::vector<Time> watermarks_;
  Time max_ts_ = kNoTime;
};

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {
      "dashboard-1000w", "ooo-sessions-ckpt", "keyed-parallel",
      "shared-dashboard-parallel"};
  return names;
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       const std::string& ckpt_root) {
  if (name == "dashboard-1000w") return std::make_unique<Dashboard1000w>();
  if (name == "ooo-sessions-ckpt") return std::make_unique<OooSessionsCkpt>(ckpt_root);
  if (name == "keyed-parallel") return std::make_unique<KeyedParallel>();
  if (name == "shared-dashboard-parallel") {
    return std::make_unique<SharedDashboardParallel>();
  }
  return nullptr;
}

}  // namespace perfbench

// Many concurrent windows through one slicing operator. The slicer and the
// trigger path keep the context-free windows' next edges in heaps and fold
// their eviction bounds into one number, so a tuple only visits the windows
// whose edge it passed. These tests drive 300+ windows of every kind the
// heaps treat differently and check, after every tuple, the slicer against
// brute-force loops over all windows, and at the end the results against
// the brute-force oracle. The differential fuzzer draws 1-3 windows per run
// and barely reaches the heaps.

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <queue>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "aggregates/registry.h"
#include "common/rng.h"
#include "core/edge_heap.h"
#include "core/general_slicing_operator.h"
#include "datagen/workloads.h"
#include "query/query_registry.h"
#include "state/serde.h"
#include "tests/test_util.h"
#include "windows/custom.h"
#include "windows/tumbling.h"

namespace scotty {
namespace {

using testing::ResultKey;
using ResultMap = std::map<ResultKey, Value>;

const std::vector<std::string> kAggs = {"sum", "max"};

Time FloorDiv(Time a, Time b) { return a / b - ((a % b != 0) && (a < 0)); }

/// A context-free window with irregular edges: `offsets` (sorted, within
/// [0, period)) repeat every `period`.
struct CustomDef {
  Time period = 0;
  std::vector<Time> offsets;

  Time NextEdge(Time t) const {
    for (Time base = FloorDiv(t, period) * period;; base += period) {
      for (Time o : offsets) {
        if (base + o > t) return base + o;
      }
    }
  }

  Time MaxExtent() const {
    Time extent = period - offsets.back() + offsets.front();
    for (size_t i = 1; i < offsets.size(); ++i) {
      extent = std::max(extent, offsets[i] - offsets[i - 1]);
    }
    return extent;
  }
};

/// One window of the mix: an oracle-described kind or a custom one.
struct WinDef {
  std::optional<WindowDesc> desc;
  CustomDef custom;
  std::string name;

  WindowPtr Make() const {
    if (desc) return desc->Instantiate();
    const CustomDef c = custom;
    return std::make_shared<CustomContextFreeWindow>(
        name, [c](Time t) { return c.NextEdge(t); }, c.MaxExtent());
  }
};

struct Scenario {
  std::vector<WinDef> defs;  // defs[i] becomes window id i
  size_t initial = 0;        // defs [0, initial) are added before the stream
  size_t add_at = 0;         // defs [initial, end) join before tuple add_at
  size_t remove_at = 0;      // `removed` are removed before tuple remove_at
  std::vector<int> removed;
  std::vector<Tuple> tuples;  // seq = arrival index
  bool in_order = true;
  Time wm_lag = 0;  // out-of-order streams: watermark every 16 tuples
  Time final_wm = 0;
};

WindowDesc Desc(WindowDesc::Kind kind, Time length, Time slide = 0) {
  WindowDesc d;
  d.kind = kind;
  d.length = length;
  d.slide = slide;
  return d;
}

WinDef RandomCfDef(Rng& rng, int serial) {
  WinDef def;
  switch (rng.NextBounded(4)) {
    case 0:
      def.desc = Desc(WindowDesc::Kind::kTumbling, rng.NextInRange(20, 400));
      break;
    case 1: {  // length a multiple of the slide: start-only slicing
      const Time slide = rng.NextInRange(15, 120);
      def.desc = Desc(WindowDesc::Kind::kSliding,
                      slide * rng.NextInRange(2, 4), slide);
      break;
    }
    case 2: {  // length not a multiple: ends must cut too
      const Time slide = rng.NextInRange(15, 120);
      def.desc = Desc(WindowDesc::Kind::kSliding,
                      slide * rng.NextInRange(1, 3) + rng.NextInRange(1, 14),
                      slide);
      break;
    }
    default: {
      def.custom.period = rng.NextInRange(40, 240);
      const size_t n = static_cast<size_t>(rng.NextInRange(2, 4));
      while (def.custom.offsets.size() < n) {
        const Time o = rng.NextInRange(0, def.custom.period - 1);
        if (std::find(def.custom.offsets.begin(), def.custom.offsets.end(),
                      o) == def.custom.offsets.end()) {
          def.custom.offsets.push_back(o);
        }
      }
      std::sort(def.custom.offsets.begin(), def.custom.offsets.end());
      def.name = "irregular-" + std::to_string(serial);
      break;
    }
  }
  return def;
}

/// 300+ windows (CF kinds plus one session and one punctuation window), a
/// mid-stream add of six CF windows and a mid-stream removal of six.
Scenario MakeScenario(uint64_t seed, bool in_order, int num_tuples) {
  Scenario sc;
  sc.in_order = in_order;
  Rng rng(seed);
  constexpr int kCf = 300;
  for (int i = 0; i < kCf; ++i) sc.defs.push_back(RandomCfDef(rng, i));
  WinDef session;
  session.desc = Desc(WindowDesc::Kind::kSession, 25);
  sc.defs.push_back(session);
  WinDef punct;
  punct.desc = Desc(WindowDesc::Kind::kPunctuation, 0);
  sc.defs.push_back(punct);
  sc.initial = sc.defs.size();
  for (int i = 0; i < 6; ++i) sc.defs.push_back(RandomCfDef(rng, kCf + i));
  for (int i = 0; i < 6; ++i) sc.removed.push_back(i * 37);

  testing::StreamSpec spec;
  spec.seed = seed;
  spec.num_tuples = num_tuples;
  spec.step_lo = 0;  // same-timestamp tuples hit the watermark exactly
  spec.step_hi = 3;
  spec.gap_probability = 0.01;
  spec.gap_length = 60;
  spec.value_range = 50;
  if (!in_order) {
    spec.ooo_fraction = 0.2;
    spec.max_delay = 40;
  }
  std::vector<Tuple> data = testing::GenerateStream(spec);
  // Punctuation markers between data timestamps (never sharing one with a
  // data tuple, which in-order FCF slicing without stored tuples cannot
  // split exactly).
  for (size_t i = 0; i < data.size(); ++i) {
    sc.tuples.push_back(data[i]);
    if (i + 1 < data.size() && data[i + 1].ts > data[i].ts + 1 &&
        rng.NextDouble() < 0.03) {
      Tuple p;
      p.ts = data[i].ts + 1;
      p.is_punctuation = true;
      sc.tuples.push_back(p);
    }
  }
  for (size_t i = 0; i < sc.tuples.size(); ++i) sc.tuples[i].seq = i;
  sc.add_at = sc.tuples.size() / 3;
  sc.remove_at = 2 * sc.tuples.size() / 3;
  Time max_ts = 0;
  for (const Tuple& t : sc.tuples) max_ts = std::max(max_ts, t.ts);
  sc.wm_lag = spec.MaxLateness() / 2;
  sc.final_wm = max_ts + 300;
  return sc;
}

/// Brute-force slicer oracle: the min/max loops over every time-lane window
/// that the edge heap replaces.
Time BruteNextEdge(const QuerySet& q, Time ts) {
  const bool starts_only = q.stream_in_order && !q.slice_at_window_ends;
  Time edge = kMaxTime;
  for (const WindowPtr& w : q.windows) {
    if (!QuerySet::OnTimeLane(w)) continue;
    edge = std::min(edge,
                    starts_only ? w->GetNextStartEdge(ts) : w->GetNextEdge(ts));
  }
  return edge;
}

Time BruteLastEdge(const QuerySet& q, Time ts) {
  Time start = kNoTime;
  for (const WindowPtr& w : q.windows) {
    if (!QuerySet::OnTimeLane(w)) continue;
    const Time e = w->LastEdgeAtOrBefore(ts);
    if (e != kNoTime && e > start) start = e;
  }
  return start == kNoTime ? ts : start;
}

std::unique_ptr<GeneralSlicingOperator> MakeOperator(const Scenario& sc,
                                                     StoreMode mode,
                                                     size_t next_tuple) {
  GeneralSlicingOperator::Options o;
  o.stream_in_order = sc.in_order;
  o.allowed_lateness = sc.in_order ? 0 : 1000000;
  o.store_mode = mode;
  auto op = std::make_unique<GeneralSlicingOperator>(o);
  for (const std::string& a : kAggs) op->AddAggregation(MakeAggregation(a));
  for (size_t i = 0; i < sc.initial; ++i) op->AddWindow(sc.defs[i].Make());
  // Restore targets replay the query changes the source saw.
  if (next_tuple > sc.add_at) {
    for (size_t i = sc.initial; i < sc.defs.size(); ++i) {
      op->AddWindow(sc.defs[i].Make());
    }
  }
  if (next_tuple > sc.remove_at) {
    for (int id : sc.removed) op->RemoveWindow(id);
  }
  return op;
}

/// Runs one operator through a scenario tuple by tuple.
class Runner {
 public:
  Runner(const Scenario& sc, StoreMode mode, bool check_slicer)
      : sc_(sc), op_(MakeOperator(sc, mode, 0)), check_(check_slicer) {}

  /// Processes tuples [next_, end).
  void RunTo(size_t end) {
    for (; next_ < end; ++next_) Step(sc_.tuples[next_]);
  }

  void Finish() {
    RunTo(sc_.tuples.size());
    op_->ProcessWatermark(sc_.final_wm);
    Drain();
  }

  /// Swaps in a fresh operator restored from this one's snapshot; returns
  /// the snapshot bytes.
  std::vector<uint8_t> RestoreIntoFresh(StoreMode mode) {
    state::Writer w;
    op_->SerializeState(w);
    op_ = MakeOperator(sc_, mode, next_);
    state::Reader r(w.bytes());
    op_->DeserializeState(r);
    EXPECT_TRUE(r.ok());
    return w.bytes();
  }

  std::vector<uint8_t> Serialize() const {
    state::Writer w;
    op_->SerializeState(w);
    return w.bytes();
  }

  const std::vector<WindowResult>& results() const { return results_; }
  Time added_max_ts() const { return added_max_ts_; }
  Time removed_wm() const { return removed_wm_; }
  GeneralSlicingOperator& op() { return *op_; }

 private:
  void Step(const Tuple& t) {
    if (next_ == sc_.add_at) {
      added_max_ts_ = op_->max_event_time();
      for (size_t i = sc_.initial; i < sc_.defs.size(); ++i) {
        op_->AddWindow(sc_.defs[i].Make());
      }
    }
    if (next_ == sc_.remove_at) {
      removed_wm_ = op_->last_watermark();
      for (int id : sc_.removed) op_->RemoveWindow(id);
    }

    const QuerySet& q = op_->queries();
    const AggregateStore* store = op_->time_store();
    const bool in_order =
        op_->max_event_time() == kNoTime || t.ts >= op_->max_event_time();
    const bool was_empty = store == nullptr || store->Empty();
    const Time prev_edge = was_empty ? kNoTime : op_->slicer()->next_edge();
    const bool cut = in_order && (was_empty || t.ts >= prev_edge);
    Time want_start = kNoTime;
    if (check_ && cut) {
      want_start = BruteLastEdge(q, t.ts);
      if (!was_empty) want_start = std::max(want_start, prev_edge);
    }
    const uint64_t merges = op_->stats().slice_merges;

    op_->ProcessTuple(t);

    if (check_ && in_order) {
      ASSERT_EQ(op_->slicer()->next_edge(), BruteNextEdge(q, t.ts))
          << "tuple " << next_ << " ts " << t.ts;
    }
    // The slice the slicer opened is the first one at or after the passed
    // edge (context-aware splits may cut it further, merges may remove
    // its start edge).
    if (check_ && cut && op_->stats().slice_merges == merges) {
      store = op_->time_store();
      size_t i = 0;
      if (!was_empty) {
        i = store->NumSlices();
        while (i > 0 && store->At(i - 1).start() >= prev_edge) --i;
      }
      ASSERT_LT(i, store->NumSlices());
      ASSERT_EQ(store->At(i).start(), want_start)
          << "tuple " << next_ << " ts " << t.ts;
    }

    max_ts_ = std::max(max_ts_, t.ts);
    if (!sc_.in_order && (next_ + 1) % 16 == 0) {
      const Time wm = max_ts_ - sc_.wm_lag;
      if (wm > last_wm_) {
        op_->ProcessWatermark(wm);
        last_wm_ = wm;
      }
    }
    Drain();
  }

  void Drain() { op_->TakeResultsInto(&results_); }

  const Scenario& sc_;
  std::unique_ptr<GeneralSlicingOperator> op_;
  bool check_;
  size_t next_ = 0;
  Time max_ts_ = kNoTime;
  Time last_wm_ = kNoTime;
  Time added_max_ts_ = kNoTime;
  Time removed_wm_ = kNoTime;
  std::vector<WindowResult> results_;
};

/// Expected results of window `def` (reported under `wid`) over the arrived
/// `tuples`, for windows ending in [first arrival, final_wm].
ResultMap Expected(const WinDef& def, int wid, const std::vector<Tuple>& tuples,
                   Time final_wm) {
  ResultMap out;
  if (def.desc) {
    for (const auto& [key, v] :
         testing::OracleResults({*def.desc}, kAggs, tuples, final_wm)) {
      out[{wid, std::get<1>(key), std::get<2>(key), std::get<3>(key)}] = v;
    }
    return out;
  }
  std::vector<Tuple> data;
  for (const Tuple& t : tuples) {
    if (!t.is_punctuation) data.push_back(t);
  }
  std::sort(data.begin(), data.end(), [](const Tuple& a, const Tuple& b) {
    return std::tie(a.ts, a.seq) < std::tie(b.ts, b.seq);
  });
  const Time first_cut = tuples.front().ts;
  Time start = def.custom.NextEdge(first_cut - 1 - def.custom.period);
  while (def.custom.NextEdge(start) < first_cut) {
    start = def.custom.NextEdge(start);
  }
  auto lower = [&](Time t) {
    return std::lower_bound(data.begin(), data.end(), t,
                            [](const Tuple& x, Time v) { return x.ts < v; });
  };
  for (Time end = def.custom.NextEdge(start); end <= final_wm;
       start = end, end = def.custom.NextEdge(end)) {
    for (size_t a = 0; a < kAggs.size(); ++a) {
      auto fn = MakeAggregation(kAggs[a]);
      Partial acc;
      for (auto it = lower(start); it != lower(end); ++it) {
        fn->Combine(acc, fn->Lift(*it));
      }
      out[{wid, static_cast<int>(a), start, end}] = fn->Lower(acc);
    }
  }
  return out;
}

ResultMap Final(const std::vector<WindowResult>& results, int wid) {
  ResultMap out;
  for (const WindowResult& r : results) {
    if (r.window_id == wid) out[{wid, r.agg_id, r.start, r.end}] = r.value;
  }
  return out;
}

/// Compares every window's final results with the oracle. Windows added
/// mid-stream are exact from the first start after the add; removed windows
/// are compared over what they emitted before removal.
void ExpectMatchesOracle(const Scenario& sc, const Runner& d) {
  for (size_t id = 0; id < sc.defs.size(); ++id) {
    const int wid = static_cast<int>(id);
    ResultMap got = Final(d.results(), wid);
    const bool removed = std::find(sc.removed.begin(), sc.removed.end(),
                                   wid) != sc.removed.end();
    ResultMap want;
    if (removed) {
      const std::vector<Tuple> prefix(
          sc.tuples.begin(),
          sc.tuples.begin() + static_cast<ptrdiff_t>(sc.remove_at));
      want = Expected(sc.defs[id], wid, prefix, d.removed_wm());
    } else {
      want = Expected(sc.defs[id], wid, sc.tuples, sc.final_wm);
    }
    if (id >= sc.initial) {
      std::erase_if(want, [&](const auto& kv) {
        return std::get<2>(kv.first) <= d.added_max_ts();
      });
      std::erase_if(got, [&](const auto& kv) {
        return std::get<2>(kv.first) <= d.added_max_ts();
      });
    }
    ASSERT_FALSE(want.empty()) << "window " << id;
    EXPECT_EQ(got, want) << "window " << id << " "
                         << (sc.defs[id].desc ? sc.defs[id].desc->ToString()
                                              : sc.defs[id].name);
  }
}

struct Config {
  bool in_order;
  StoreMode mode;
};

class ManyWindowsTest : public ::testing::TestWithParam<Config> {};

TEST_P(ManyWindowsTest, SlicerMatchesBruteForceAndResultsMatchOracle) {
  const Config c = GetParam();
  const Scenario sc = MakeScenario(7, c.in_order, 1500);
  Runner d(sc, c.mode, /*check_slicer=*/true);
  d.Finish();
  if (HasFatalFailure()) return;
  ExpectMatchesOracle(sc, d);
  if (c.in_order) {
    // Same-timestamp tuples after a self-trigger are late by definition.
    EXPECT_GT(d.op().stats().late_tuples, 0u);
    EXPECT_EQ(d.op().stats().window_updates_emitted, 0u);
  }
}

TEST_P(ManyWindowsTest, MidStreamRestoreIsBitIdentical) {
  const Config c = GetParam();
  const Scenario sc = MakeScenario(11, c.in_order, 1200);
  Runner straight(sc, c.mode, /*check_slicer=*/false);
  straight.Finish();

  // Restore between the mid-stream add and the removal, then continue.
  Runner resumed(sc, c.mode, /*check_slicer=*/false);
  const size_t at = (sc.add_at + sc.remove_at) / 2;
  resumed.RunTo(at);
  const std::vector<uint8_t> snapshot = resumed.RestoreIntoFresh(c.mode);
  EXPECT_EQ(resumed.Serialize(), snapshot);
  resumed.Finish();

  ASSERT_EQ(resumed.results().size(), straight.results().size());
  auto fields = [](const WindowResult& r) {
    return std::tie(r.window_id, r.agg_id, r.start, r.end, r.value, r.key,
                    r.is_update);
  };
  for (size_t i = 0; i < straight.results().size(); ++i) {
    ASSERT_EQ(fields(resumed.results()[i]), fields(straight.results()[i]))
        << "result " << i;
  }
  EXPECT_EQ(resumed.Serialize(), straight.Serialize());
}

INSTANTIATE_TEST_SUITE_P(
    AllModes, ManyWindowsTest,
    ::testing::Values(Config{true, StoreMode::kLazy},
                      Config{true, StoreMode::kEager},
                      Config{false, StoreMode::kLazy},
                      Config{false, StoreMode::kEager}),
    [](const ::testing::TestParamInfo<Config>& info) {
      return std::string(info.param.in_order ? "InOrder" : "OutOfOrder") +
             (info.param.mode == StoreMode::kLazy ? "Lazy" : "Eager");
    });

/// The dashboard query (DashboardTumblingWindows or DashboardCountWindows:
/// 1000 tumbling windows of 1000..20000 time units or tuples) on an
/// out-of-order stream with allowed lateness, the time variant with a
/// session window too. Windows span hundreds of slices, so lazy emission
/// folds cached blocks while late tuples, session inserts and merges (or
/// count-lane shifts) land inside them. A snapshot taken mid-stream is
/// restored into a fresh operator that finishes the run.
struct DashboardCase {
  Measure measure;
  StoreMode mode;
};

class DashboardBlocksTest : public ::testing::TestWithParam<DashboardCase> {};

TEST_P(DashboardBlocksTest, RestoredRunMatchesOracle) {
  const DashboardCase c = GetParam();
  const bool time = c.measure == Measure::kEventTime;
  std::vector<WindowPtr> windows =
      time ? DashboardTumblingWindows(1000) : DashboardCountWindows(1000);
  std::vector<testing::WindowSpec> specs;
  for (const WindowPtr& w : windows) {
    testing::WindowSpec spec;
    spec.kind = testing::WindowSpec::Kind::kTumbling;
    spec.measure = c.measure;
    spec.length = static_cast<const TumblingWindow&>(*w).length();
    specs.push_back(spec);
  }
  if (time) {
    testing::WindowSpec session;
    session.kind = testing::WindowSpec::Kind::kSession;
    session.length = 25;
    specs.push_back(session);
    windows.push_back(session.Instantiate());
  }
  auto make = [&] {
    GeneralSlicingOperator::Options o;
    o.stream_in_order = false;
    o.allowed_lateness = 1000000;
    o.store_mode = c.mode;
    auto op = std::make_unique<GeneralSlicingOperator>(o);
    for (const std::string& a : kAggs) op->AddAggregation(MakeAggregation(a));
    for (const WindowPtr& w : windows) op->AddWindow(w);
    return op;
  };

  testing::StreamSpec spec;
  spec.seed = 42;
  spec.num_tuples = time ? 12000 : 6000;
  // Gaps a little wider than the session gap, so late tuples open new
  // session slices between the existing ones. (Session merges stay rare:
  // the dashboard puts a tumbling edge into almost every gap, and slices
  // never merge across one. Store-level tests cover merges in blocks.)
  spec.gap_probability = 0.02;
  spec.gap_length = 40;
  spec.value_range = 50;
  spec.ooo_fraction = time ? 0.1 : 0.02;
  spec.max_delay = 60;
  const std::vector<Tuple> stream = testing::GenerateStream(spec);
  Time max_ts = 0;
  for (const Tuple& t : stream) max_ts = std::max(max_ts, t.ts);
  const Time final_wm = max_ts + 100;

  std::unique_ptr<GeneralSlicingOperator> op = make();
  std::vector<WindowResult> emitted;
  // A lag below the maximum delay: some tuples arrive after the windows
  // holding them were emitted and update them.
  testing::ReplayCursor cur(64, spec.max_delay / 3);
  while (cur.next() < stream.size()) {
    if (cur.next() == stream.size() / 2) {
      state::Writer w;
      op->SerializeState(w);
      op = make();
      state::Reader r(w.bytes());
      op->DeserializeState(r);
      ASSERT_TRUE(r.ok() && r.AtEnd());
    }
    op->ProcessTuple(cur.Admit(stream));
    if (const std::optional<Time> wm = cur.DueWatermark()) {
      op->ProcessWatermark(*wm);
      op->TakeResultsInto(&emitted);
    }
  }
  op->ProcessWatermark(final_wm);
  op->TakeResultsInto(&emitted);

  std::vector<Tuple> seqd = stream;
  for (size_t i = 0; i < seqd.size(); ++i) seqd[i].seq = i;
  const ResultMap want = testing::OracleResults(specs, kAggs, seqd, final_wm);
  const ResultMap got = testing::FinalResults(emitted);
  EXPECT_GT(want.size(), 500u);
  EXPECT_EQ(got.size(), want.size());
  for (const auto& [key, value] : want) {
    const auto it = got.find(key);
    ASSERT_TRUE(it != got.end())
        << "missing window " << std::get<0>(key) << " [" << std::get<2>(key)
        << "," << std::get<3>(key) << ")";
    ASSERT_EQ(it->second, value)
        << "window " << std::get<0>(key) << " agg " << std::get<1>(key)
        << " [" << std::get<2>(key) << "," << std::get<3>(key) << ")";
  }
  EXPECT_GT(op->stats().window_updates_emitted, 0u);
  const AggregateStore& store =
      time ? *op->time_store() : op->count_lane()->store();
  if (c.mode == StoreMode::kLazy) {
    EXPECT_GT(store.CachedBlocks(), 0u);
  } else {
    EXPECT_EQ(store.CachedBlocks(), 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    TimeAndCount, DashboardBlocksTest,
    ::testing::Values(DashboardCase{Measure::kEventTime, StoreMode::kLazy},
                      DashboardCase{Measure::kEventTime, StoreMode::kEager},
                      DashboardCase{Measure::kCount, StoreMode::kLazy},
                      DashboardCase{Measure::kCount, StoreMode::kEager}),
    [](const ::testing::TestParamInfo<DashboardCase>& info) {
      return std::string(info.param.measure == Measure::kEventTime ? "Time"
                                                                   : "Count") +
             (info.param.mode == StoreMode::kLazy ? "Lazy" : "Eager");
    });

TEST(ManyWindows, SameTimestampAsWatermarkIsLateWithoutUpdates) {
  GeneralSlicingOperator::Options o;
  o.stream_in_order = true;
  GeneralSlicingOperator op(o);
  op.AddAggregation(MakeAggregation("sum"));
  for (Time len = 5; len < 400; len += 3) {
    op.AddWindow(std::make_shared<TumblingWindow>(len));
  }
  for (Time ts = 1; ts <= 60; ++ts) op.ProcessTuple(testing::T(ts, 1.0, ts));
  ASSERT_EQ(op.last_watermark(), 60);  // tumbling(5) self-triggers at 60
  const OperatorStats before = op.stats();
  op.ProcessTuple(testing::T(60, 1.0, 61));
  EXPECT_EQ(op.stats().late_tuples, before.late_tuples + 1);
  EXPECT_EQ(op.stats().window_updates_emitted, before.window_updates_emitted);
  EXPECT_EQ(op.stats().windows_emitted, before.windows_emitted);
}

TEST(ManyWindows, RetentionGuardKeepsSlicesAcrossWatermarkJump) {
  QueryRegistry::Options o;
  o.engine.stream_in_order = false;
  o.engine.allowed_lateness = 0;
  QueryRegistry reg(o);
  std::string err;
  ASSERT_NE(reg.Register({{"tumbling:10"}, {"sum"}}, &err),
            QueryRegistry::kInvalidQuery)
      << err;
  // Many native windows with short constant lookbacks next to the guard.
  for (Time len = 11; len < 200; len += 7) {
    if (len % 10 == 0) continue;
    ASSERT_NE(reg.Register({{"tumbling:" + std::to_string(len)}, {"sum"}},
                           &err),
              QueryRegistry::kInvalidQuery)
        << err;
  }
  const auto derived = reg.Register({{"sliding:400:20"}, {"sum"}}, &err);
  ASSERT_NE(derived, QueryRegistry::kInvalidQuery) << err;
  ASSERT_EQ(reg.Plan(derived).windows[0], QueryRegistry::PlanKind::kDerived);

  std::vector<Tuple> tuples;
  for (Time ts = 0; ts < 1000; ts += 2) {
    tuples.push_back(testing::T(ts, static_cast<double>(ts % 7),
                                tuples.size()));
  }
  for (const Tuple& t : tuples) reg.ProcessTuple(t);
  reg.ProcessWatermark(200);
  // One jump past every window: the base window alone would let the engine
  // evict all slices before 4990.
  reg.ProcessWatermark(5000);

  ResultMap got;
  for (const WindowResult& r : reg.TakeQueryResults(derived)) {
    got[{0, r.agg_id, r.start, r.end}] = r.value;
  }
  EXPECT_EQ(got,
            testing::OracleResults({Desc(WindowDesc::Kind::kSliding, 400, 20)},
                                   {"sum"}, tuples, 5000));
}

TEST(EdgeHeap, TopFollowsEdgeThenIdOrderLikeAPriorityQueue) {
  Rng rng(3);
  EdgeHeap heap;
  std::priority_queue<EdgeHeap::Entry, std::vector<EdgeHeap::Entry>,
                      std::greater<EdgeHeap::Entry>>
      ref;
  for (int id = 0; id < 200; ++id) {
    const Time e = rng.NextInRange(0, 50);  // many equal edges
    heap.Append(e, id);
    ref.push({e, id});
  }
  heap.Heapify();
  for (int step = 0; step < 5000; ++step) {
    ASSERT_EQ(heap.TopEdge(), ref.top().first);
    ASSERT_EQ(heap.TopId(), ref.top().second);
    const Time e = ref.top().first + rng.NextInRange(0, 30);
    const int id = ref.top().second;
    ref.pop();
    ref.push({e, id});
    heap.ReplaceTopEdge(e);
  }
  heap.Clear();
  EXPECT_TRUE(heap.Empty());
  EXPECT_EQ(heap.TopEdge(), kMaxTime);
}

}  // namespace
}  // namespace scotty

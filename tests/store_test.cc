// AggregateStore unit tests: slice lookup, ordered range queries in lazy and
// eager mode, eviction, structure changes, the lazy block index across edits
// and snapshot round trips, and the StreamStateView used by
// forward-context-aware windows.

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "aggregates/basic.h"
#include "aggregates/ordered.h"
#include "aggregates/registry.h"
#include "common/memory.h"
#include "common/rng.h"
#include "core/aggregate_store.h"
#include "state/serde.h"
#include "tests/test_util.h"

namespace scotty {
namespace {

using testutil::T;

std::vector<AggregateFunctionPtr> SumFns() {
  return {std::make_shared<SumAggregation>()};
}

void Fill(AggregateStore& store, bool store_tuples = false) {
  // Slices [0,10), [10,20), [20,30) with one tuple each.
  uint64_t seq = 0;
  for (Time start = 0; start < 30; start += 10) {
    Slice& s = store.Append(start, start + 10);
    s.AddTuple(T(start + 5, static_cast<double>(start + 1), seq++),
               store.fns(), store_tuples);
    store.NoteTupleAdded();
    store.OnSliceAggUpdated(store.NumSlices() - 1);
  }
}

TEST(AggregateStore, FindCoveringAndByStart) {
  AggregateStore store(StoreMode::kLazy, SumFns());
  Fill(store);
  EXPECT_EQ(store.FindCovering(0), 0u);
  EXPECT_EQ(store.FindCovering(9), 0u);
  EXPECT_EQ(store.FindCovering(10), 1u);
  EXPECT_EQ(store.FindCovering(29), 2u);
  EXPECT_EQ(store.FindCovering(30), AggregateStore::kNpos);
  EXPECT_EQ(store.FindByStart(25), 2u);
  EXPECT_EQ(store.FindByStart(-1), AggregateStore::kNpos);
  EXPECT_EQ(store.FirstEndingAfter(10), 1u);
  EXPECT_EQ(store.FirstEndingAfter(9), 0u);
}

TEST(AggregateStore, FindCoveringRespectsGaps) {
  AggregateStore store(StoreMode::kLazy, SumFns());
  store.Append(0, 10);
  store.Append(20, 30);  // gap [10, 20)
  EXPECT_EQ(store.FindCovering(5), 0u);
  EXPECT_EQ(store.FindCovering(15), AggregateStore::kNpos);
  EXPECT_EQ(store.FindCovering(25), 1u);
}

TEST(AggregateStore, QueryRangeCombinesIntersectingSlices) {
  AggregateStore store(StoreMode::kLazy, SumFns());
  Fill(store);
  EXPECT_DOUBLE_EQ(store.QueryRange(0, 0, 30).Get<double>(), 1 + 11 + 21);
  EXPECT_DOUBLE_EQ(store.QueryRange(0, 10, 20).Get<double>(), 11);
  EXPECT_DOUBLE_EQ(store.QueryRange(0, 0, 15).Get<double>(), 12);  // full slices
  EXPECT_TRUE(store.QueryRange(0, 30, 40).IsIdentity());
}

TEST(AggregateStore, EagerQueriesMatchLazy) {
  AggregateStore lazy(StoreMode::kLazy, SumFns());
  AggregateStore eager(StoreMode::kEager, SumFns());
  Fill(lazy);
  Fill(eager);
  for (Time s = 0; s <= 30; s += 10) {
    for (Time e = s; e <= 30; e += 10) {
      EXPECT_EQ(lazy.QueryRange(0, s, e), eager.QueryRange(0, s, e))
          << s << "," << e;
    }
  }
}

TEST(AggregateStore, EagerTreeFollowsSliceUpdates) {
  AggregateStore store(StoreMode::kEager, SumFns());
  Fill(store);
  Slice& s = store.At(1);
  s.AddTuple(T(15, 100.0, 9), store.fns(), false);
  store.OnSliceAggUpdated(1);
  EXPECT_DOUBLE_EQ(store.QueryRange(0, 0, 30).Get<double>(), 133.0);
}

TEST(AggregateStore, MergeWithNextCombines) {
  for (StoreMode mode : {StoreMode::kLazy, StoreMode::kEager}) {
    AggregateStore store(mode, SumFns());
    Fill(store);
    store.MergeWithNext(0);
    EXPECT_EQ(store.NumSlices(), 2u);
    EXPECT_EQ(store.At(0).end(), 20);
    EXPECT_DOUBLE_EQ(store.QueryRange(0, 0, 20).Get<double>(), 12.0);
    EXPECT_DOUBLE_EQ(store.QueryRange(0, 0, 30).Get<double>(), 33.0);
  }
}

TEST(AggregateStore, SplitAtDividesSlice) {
  for (StoreMode mode : {StoreMode::kLazy, StoreMode::kEager}) {
    AggregateStore store(mode, SumFns());
    uint64_t seq = 0;
    Slice& s = store.Append(0, 20);
    s.AddTuple(T(3, 1.0, seq++), store.fns(), true);
    s.AddTuple(T(14, 2.0, seq++), store.fns(), true);
    store.OnSliceAggUpdated(0);
    store.SplitAt(0, 10);
    ASSERT_EQ(store.NumSlices(), 2u);
    EXPECT_DOUBLE_EQ(store.QueryRange(0, 0, 10).Get<double>(), 1.0);
    EXPECT_DOUBLE_EQ(store.QueryRange(0, 10, 20).Get<double>(), 2.0);
  }
}

TEST(AggregateStore, InsertAtKeepsOrderAndTrees) {
  for (StoreMode mode : {StoreMode::kLazy, StoreMode::kEager}) {
    AggregateStore store(mode, SumFns());
    store.Append(0, 10);
    store.Append(40, 50);
    Slice& mid = store.InsertAt(1, 20, 30);
    mid.AddTuple(T(25, 7.0, 0), store.fns(), false);
    store.OnSliceAggUpdated(1);
    EXPECT_EQ(store.NumSlices(), 3u);
    EXPECT_EQ(store.FindCovering(25), 1u);
    EXPECT_DOUBLE_EQ(store.QueryRange(0, 0, 50).Get<double>(), 7.0);
  }
}

TEST(AggregateStore, EvictBeforeDropsOldSlices) {
  for (StoreMode mode : {StoreMode::kLazy, StoreMode::kEager}) {
    AggregateStore store(mode, SumFns());
    Fill(store);
    EXPECT_EQ(store.TotalTupleCount(), 3u);
    store.EvictBefore(20);
    EXPECT_EQ(store.NumSlices(), 1u);
    EXPECT_EQ(store.At(0).start(), 20);
    EXPECT_EQ(store.TotalTupleCount(), 1u);
    EXPECT_DOUBLE_EQ(store.QueryRange(0, 0, 30).Get<double>(), 21.0);
  }
}

TEST(AggregateStore, OrderedCombineForNonCommutativeAggs) {
  std::vector<AggregateFunctionPtr> fns = {
      std::make_shared<ConcatAggregation>()};
  for (StoreMode mode : {StoreMode::kLazy, StoreMode::kEager}) {
    AggregateStore store(mode, fns);
    uint64_t seq = 0;
    for (Time start = 0; start < 40; start += 10) {
      Slice& s = store.Append(start, start + 10);
      s.AddTuple(T(start + 1, static_cast<double>(start), seq++), fns, true);
      store.OnSliceAggUpdated(store.NumSlices() - 1);
    }
    const Partial p = store.QueryRange(0, 0, 40);
    const std::vector<double> expected = {0, 10, 20, 30};
    EXPECT_EQ(ConcatAggregation().Lower(p).AsSequence(), expected) << "mode";
  }
}

TEST(AggregateStore, NthRecentTupleTimeWalksBackward) {
  AggregateStore store(StoreMode::kLazy, SumFns());
  uint64_t seq = 0;
  Slice& a = store.Append(0, 10);
  a.AddTuple(T(2, 1, seq++), store.fns(), true);
  a.AddTuple(T(6, 1, seq++), store.fns(), true);
  Slice& b = store.Append(10, 20);
  b.AddTuple(T(13, 1, seq++), store.fns(), true);
  b.AddTuple(T(17, 1, seq++), store.fns(), true);
  EXPECT_EQ(store.NthRecentTupleTime(20, 1), 17);
  EXPECT_EQ(store.NthRecentTupleTime(20, 2), 13);
  EXPECT_EQ(store.NthRecentTupleTime(20, 3), 6);
  EXPECT_EQ(store.NthRecentTupleTime(20, 4), 2);
  EXPECT_EQ(store.NthRecentTupleTime(20, 5), kNoTime);
  EXPECT_EQ(store.NthRecentTupleTime(15, 1), 13);  // excludes ts >= 15
  EXPECT_EQ(store.NthRecentTupleTime(13, 1), 6);   // strict: ts < 13
}

TEST(AggregateStore, NthRecentWithoutRetentionReturnsNoTime) {
  AggregateStore store(StoreMode::kLazy, SumFns());
  Fill(store, /*store_tuples=*/false);
  EXPECT_EQ(store.NthRecentTupleTime(30, 1), kNoTime);
}

TEST(AggregateStore, MemoryBytesReflectsEagerTreeOverhead) {
  AggregateStore lazy(StoreMode::kLazy, SumFns());
  AggregateStore eager(StoreMode::kEager, SumFns());
  Fill(lazy);
  Fill(eager);
  EXPECT_GT(eager.MemoryBytes(), lazy.MemoryBytes());
}

// ---- Lazy block index ----------------------------------------------------

/// Exact aggregations (integer-valued sum, min, max, count, m4): any
/// grouping of their fold is bit-identical to the plain left fold.
std::vector<AggregateFunctionPtr> BlockFns() {
  std::vector<AggregateFunctionPtr> fns;
  for (const char* name : {"sum", "min", "max", "count", "m4"}) {
    fns.push_back(MakeAggregation(name));
  }
  return fns;
}

/// The lazy fold without blocks: slices [i, j) combined one by one.
Partial PlainFold(const AggregateStore& store, size_t agg, size_t i,
                  size_t j) {
  Partial acc;
  for (size_t k = i; k < j; ++k) {
    store.fns()[agg]->Combine(acc, store.At(k).agg(agg));
  }
  return acc;
}

std::unique_ptr<AggregateStore> FullRoundTrip(const AggregateStore& store) {
  state::Writer w;
  store.Serialize(w);
  auto out = std::make_unique<AggregateStore>(store.mode(), store.fns());
  state::Reader r(w.bytes());
  out->Deserialize(r);
  EXPECT_TRUE(r.ok() && r.AtEnd());
  out->MarkAllClean();
  return out;
}

/// Drives one uninterrupted lazy store (`twin`) and one that goes through
/// full and delta snapshot round trips (`live`) with the same random edits:
/// appends, tuple updates, inserts into gaps, merges, splits and
/// evictions.
class BlockScript {
 public:
  BlockScript(uint64_t seed, bool real_values)
      : rng_(seed),
        real_(real_values),
        twin_(std::make_unique<AggregateStore>(StoreMode::kLazy, BlockFns())),
        live_(std::make_unique<AggregateStore>(StoreMode::kLazy, BlockFns())) {}

  AggregateStore& twin() { return *twin_; }
  AggregateStore& live() { return *live_; }
  Rng& rng() { return rng_; }

  /// One random edit, applied identically to both stores.
  void Edit() {
    const size_t n = twin_->NumSlices();
    const uint64_t pick = n < 2 ? 0 : rng_.NextBounded(100);
    if (pick < 40) {
      const Time start =
          n == 0 ? 0 : twin_->At(n - 1).end() + 5 * rng_.NextInRange(0, 1);
      const Time end = start + rng_.NextInRange(2, 12);
      const int tuples = static_cast<int>(rng_.NextInRange(1, 3));
      std::vector<Tuple> ts;
      for (int k = 0; k < tuples; ++k) ts.push_back(MakeTuple(start, end));
      for (AggregateStore* s : Both()) {
        Slice& slice = s->Append(start, end);
        for (const Tuple& t : ts) AddTo(*s, slice, t);
        s->OnSliceAggUpdated(s->NumSlices() - 1);
      }
    } else if (pick < 65) {
      const size_t i = rng_.NextBounded(n);
      const Tuple t = MakeTuple(twin_->At(i).start(), twin_->At(i).end());
      for (AggregateStore* s : Both()) {
        AddTo(*s, s->At(i), t);
        s->OnSliceAggUpdated(i);
      }
    } else if (pick < 73) {
      const size_t from = 1 + rng_.NextBounded(n - 1);
      for (size_t k = 0; k + 1 < n; ++k) {
        const size_t i = 1 + (from - 1 + k) % (n - 1);
        const Time gap_start = twin_->At(i - 1).end();
        const Time gap_end = twin_->At(i).start();
        if (gap_start >= gap_end) continue;
        const Tuple t = MakeTuple(gap_start, gap_end);
        for (AggregateStore* s : Both()) {
          AddTo(*s, s->InsertAt(i, gap_start, gap_end), t);
          s->OnSliceAggUpdated(i);
        }
        break;
      }
    } else if (pick < 81) {
      const size_t i = rng_.NextBounded(n - 1);
      for (AggregateStore* s : Both()) s->MergeWithNext(i);
    } else if (pick < 89) {
      const size_t i = rng_.NextBounded(n);
      const Slice& slice = twin_->At(i);
      if (slice.end() - slice.start() >= 2) {
        const Time t = rng_.NextInRange(slice.start() + 1, slice.end() - 1);
        for (AggregateStore* s : Both()) s->SplitAt(i, t);
      }
    } else if (pick < 95 && n > 320) {
      const size_t k = rng_.NextBounded(std::min<size_t>(60, n / 4));
      const Time bound = twin_->At(k).end();
      for (AggregateStore* s : Both()) s->EvictBefore(bound);
    }
  }

  /// Replaces `live` by a store restored from a full snapshot of it.
  void FullBarrier() {
    live_ = FullRoundTrip(*live_);
    base_ = FullRoundTrip(*live_);
  }

  /// Replaces `live` by the previous barrier's store with this barrier's
  /// delta applied (a full barrier first if there is none yet).
  void DeltaBarrier() {
    if (base_ == nullptr) {
      FullBarrier();
      return;
    }
    state::Writer w;
    live_->SerializeDelta(w);
    state::Reader r(w.bytes());
    base_->ApplyDelta(r);
    ASSERT_TRUE(r.ok() && r.AtEnd());
    live_ = std::move(base_);
    live_->MarkAllClean();
    base_ = FullRoundTrip(*live_);
  }

 private:
  std::vector<AggregateStore*> Both() { return {twin_.get(), live_.get()}; }

  Tuple MakeTuple(Time start, Time end) {
    const Time ts = rng_.NextInRange(start, end - 1);
    const double v = real_ ? rng_.NextDouble() * 100.0
                           : static_cast<double>(rng_.NextInRange(-50, 50));
    return T(ts, v, seq_++);
  }

  static void AddTo(AggregateStore& s, Slice& slice, const Tuple& t) {
    slice.InsertTupleOnly(t);
    slice.RecomputeFromTuples(s.fns());
    s.NoteTupleAdded();
  }

  Rng rng_;
  bool real_;
  uint64_t seq_ = 0;
  std::unique_ptr<AggregateStore> twin_;
  std::unique_ptr<AggregateStore> live_;
  std::unique_ptr<AggregateStore> base_;  // state at the last barrier
};

/// Random edits and full/delta round trips across many block boundaries;
/// after every edit, random ranges must answer like the plain fold (exact
/// aggregations) and like the uninterrupted store (all aggregations, bit
/// for bit: the restored store keeps the block phase).
void RunBlockScript(uint64_t seed, bool real_values) {
  BlockScript sc(seed, real_values);
  size_t max_slices = 0;
  size_t max_blocks = 0;
  for (int step = 0; step < 2500; ++step) {
    sc.Edit();
    if (step % 150 == 149) {
      if (step % 300 == 149) {
        sc.FullBarrier();
      } else {
        sc.DeltaBarrier();
      }
      if (::testing::Test::HasFatalFailure()) return;
    }
    const AggregateStore& twin = sc.twin();
    const AggregateStore& live = sc.live();
    ASSERT_EQ(live.NumSlices(), twin.NumSlices());
    const size_t n = twin.NumSlices();
    max_slices = std::max(max_slices, n);
    for (int q = 0; q < 3; ++q) {
      // Every third query spans nearly everything, so blocks get built.
      size_t i = sc.rng().NextBounded(n + 1);
      size_t j = sc.rng().NextBounded(n + 1);
      if (q == 0) {
        i = sc.rng().NextBounded(std::min<size_t>(n, 70) + 1);
        j = n - sc.rng().NextBounded(std::min<size_t>(n, 70) + 1);
      }
      if (i > j) std::swap(i, j);
      for (size_t a = 0; a < twin.fns().size(); ++a) {
        const Partial got = live.QuerySlices(a, i, j);
        ASSERT_EQ(got, twin.QuerySlices(a, i, j))
            << "step " << step << " agg " << a << " [" << i << "," << j
            << ")";
        if (!real_values || a != 0) {
          ASSERT_EQ(got, PlainFold(twin, a, i, j))
              << "step " << step << " agg " << a << " [" << i << "," << j
              << ")";
        }
      }
    }
    max_blocks = std::max(max_blocks, live.CachedBlocks());
  }
  EXPECT_GE(max_slices, 4 * AggregateStore::kBlockSlices);
  EXPECT_GT(max_blocks, 3u);
}

TEST(AggregateStoreBlocks, ExactAggregationsMatchPlainFoldAcrossRoundTrips) {
  for (uint64_t seed : {1, 2, 3}) {
    SCOPED_TRACE(seed);
    RunBlockScript(seed, /*real_values=*/false);
    if (HasFatalFailure()) return;
  }
}

TEST(AggregateStoreBlocks, RestoredRealSumIsBitIdenticalToUninterrupted) {
  for (uint64_t seed : {4, 5, 6}) {
    SCOPED_TRACE(seed);
    RunBlockScript(seed, /*real_values=*/true);
    if (HasFatalFailure()) return;
  }
}

TEST(AggregateStoreBlocks, CacheIsCountedStateAndHolisticAggsGetNone) {
  std::vector<AggregateFunctionPtr> fns = {MakeAggregation("sum"),
                                           MakeAggregation("median")};
  AggregateStore store(StoreMode::kLazy, fns);
  uint64_t seq = 0;
  for (Time start = 0; start < 10 * 300; start += 10) {
    Slice& s = store.Append(start, start + 10);
    s.AddTuple(T(start, 1.0, seq++), fns, false);
    store.NoteTupleAdded();
    store.OnSliceAggUpdated(store.NumSlices() - 1);
  }
  const size_t before = store.MemoryBytes();
  EXPECT_EQ(store.CachedBlocks(), 0u);  // ingest builds nothing
  EXPECT_EQ(store.QuerySlices(0, 0, 300).Get<double>(), 300.0);
  EXPECT_EQ(store.QuerySlices(1, 0, 300), PlainFold(store, 1, 0, 300));
  const size_t blocks = 300 / AggregateStore::kBlockSlices;
  EXPECT_EQ(store.CachedBlocks(), blocks);
  // One cached partial per block for sum; none for the median.
  EXPECT_EQ(store.MemoryBytes() - before,
            blocks * MemoryModel::kPartialBytes);

  // An update marks its block stale; eviction drops the blocks it cut.
  store.At(5).AddTuple(T(55, 1.0, seq++), fns, false);
  store.OnSliceAggUpdated(5);
  EXPECT_EQ(store.CachedBlocks(), blocks - 1);
  store.EvictBefore(store.At(69).end());
  EXPECT_EQ(store.CachedBlocks(), blocks - 2);
  EXPECT_EQ(store.QuerySlices(0, 0, store.NumSlices()).Get<double>(),
            300.0 - 70.0);

  AggregateStore eager(StoreMode::kEager, fns);
  EXPECT_EQ(eager.CachedBlocks(), 0u);
}

}  // namespace
}  // namespace scotty

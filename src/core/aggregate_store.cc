#include "core/aggregate_store.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <utility>

namespace scotty {

AggregateStore::AggregateStore(StoreMode mode,
                               std::vector<AggregateFunctionPtr> fns)
    : mode_(mode), fns_(std::move(fns)) {
  if (mode_ == StoreMode::kEager) {
    trees_.reserve(fns_.size());
    for (const AggregateFunctionPtr& fn : fns_) trees_.emplace_back(fn);
  }
  for (const AggregateFunctionPtr& fn : fns_) {
    blockable_.push_back(mode_ == StoreMode::kLazy &&
                         fn->Class() != AggClass::kHolistic);
  }
}

size_t AggregateStore::FindByStart(Time ts) const {
  // Last slice with start <= ts.
  auto it = std::upper_bound(
      slices_.begin(), slices_.end(), ts,
      [](Time x, const Slice& s) { return x < s.start(); });
  if (it == slices_.begin()) return kNpos;
  return static_cast<size_t>(it - slices_.begin()) - 1;
}

size_t AggregateStore::FindCovering(Time ts) const {
  const size_t i = FindByStart(ts);
  if (i == kNpos) return kNpos;
  return ts < slices_[i].end() ? i : kNpos;
}

size_t AggregateStore::FirstEndingAfter(Time ts) const {
  auto it = std::upper_bound(
      slices_.begin(), slices_.end(), ts,
      [](Time x, const Slice& s) { return x < s.end(); });
  return static_cast<size_t>(it - slices_.begin());
}

Slice AggregateStore::MakeSlice(Time start, Time end) {
  if (!free_slices_.empty()) {
    Slice s = std::move(free_slices_.back());
    free_slices_.pop_back();
    s.Reset(start, end, fns_.size());
    if (track_last_ts_) s.EnableLastTsTracking();
    return s;
  }
  Slice s(start, end, fns_.size());
  if (track_last_ts_) s.EnableLastTsTracking();
  return s;
}

void AggregateStore::Retire(Slice&& s) {
  if (free_slices_.size() >= kMaxFreeSlices) return;
  free_slices_.push_back(std::move(s));
}

Slice& AggregateStore::Append(Time start, Time end) {
  assert(slices_.empty() || start >= slices_.back().end());
  slices_.push_back(MakeSlice(start, end));
  ++slices_created_;
  for (FlatFat& tree : trees_) tree.Append(Partial{});
  InvalidateBlock(slices_.size() - 1);
  return slices_.back();
}

Slice& AggregateStore::InsertAt(size_t idx, Time start, Time end) {
  assert(idx <= slices_.size());
  slices_.insert(slices_.begin() + static_cast<ptrdiff_t>(idx),
                 MakeSlice(start, end));
  ++slices_created_;
  if (mode_ == StoreMode::kEager) {
    for (size_t a = 0; a < trees_.size(); ++a) {
      trees_[a].InsertLeafAt(idx, Partial{});
    }
  }
  InvalidateBlocksFrom(idx);
  return slices_[idx];
}

void AggregateStore::MergeWithNext(size_t i) {
  assert(i + 1 < slices_.size());
  slices_[i].MergeWith(slices_[i + 1], fns_);
  Retire(std::move(slices_[i + 1]));
  slices_.erase(slices_.begin() + static_cast<ptrdiff_t>(i) + 1);
  if (mode_ == StoreMode::kEager) {
    for (size_t a = 0; a < trees_.size(); ++a) {
      trees_[a].RemoveLeafAt(i + 1);
      trees_[a].UpdateLeaf(i, slices_[i].agg(a));
    }
  }
  InvalidateBlocksFrom(i);
}

void AggregateStore::SplitAt(size_t i, Time t) {
  assert(i < slices_.size());
  Slice right = slices_[i].SplitAt(t, fns_);
  slices_.insert(slices_.begin() + static_cast<ptrdiff_t>(i) + 1,
                 std::move(right));
  ++slices_created_;
  if (mode_ == StoreMode::kEager) {
    for (size_t a = 0; a < trees_.size(); ++a) {
      trees_[a].UpdateLeaf(i, slices_[i].agg(a));
      trees_[a].InsertLeafAt(i + 1, slices_[i + 1].agg(a));
    }
  }
  InvalidateBlocksFrom(i);
}

void AggregateStore::OnSliceAggUpdated(size_t i) {
  if (mode_ != StoreMode::kEager) {
    InvalidateBlock(i);
    return;
  }
  for (size_t a = 0; a < trees_.size(); ++a) {
    trees_[a].UpdateLeaf(i, slices_[i].agg(a));
  }
}

void AggregateStore::OnStructureChanged() {
  blocks_.clear();
  if (mode_ != StoreMode::kEager) return;
  RebuildTrees();
}

void AggregateStore::InvalidateBlock(size_t i) {
  const size_t first = FirstBlockStart();
  if (i < first) return;
  const size_t k = (i - first) / kBlockSlices;
  if (k < blocks_.size()) blocks_[k].valid = false;
}

void AggregateStore::InvalidateBlocksFrom(size_t i) {
  const size_t first = FirstBlockStart();
  const size_t k = i < first ? 0 : (i - first) / kBlockSlices;
  for (size_t b = k; b < blocks_.size(); ++b) blocks_[b].valid = false;
}

const Partial& AggregateStore::BlockPartial(size_t agg, size_t k) const {
  if (k >= blocks_.size()) blocks_.resize(k + 1);
  Block& b = blocks_[k];
  if (!b.valid) {
    const size_t lo = FirstBlockStart() + k * kBlockSlices;
    assert(lo + kBlockSlices <= slices_.size());
    b.aggs.assign(fns_.size(), Partial{});
    for (size_t a = 0; a < fns_.size(); ++a) {
      if (!blockable_[a]) continue;
      const AggregateFunction& fn = *fns_[a];
      auto it = slices_.begin() + static_cast<ptrdiff_t>(lo);
      for (size_t s = 0; s < kBlockSlices; ++s, ++it) {
        fn.Combine(b.aggs[a], it->agg(a));
      }
    }
    b.valid = true;
  }
  return b.aggs[agg];
}

size_t AggregateStore::CachedBlocks() const {
  size_t n = 0;
  for (const Block& b : blocks_) n += b.valid ? 1 : 0;
  return n;
}

void AggregateStore::EvictBefore(Time t) {
  size_t k = 0;
  while (k < slices_.size() && slices_[k].end() <= t) {
    total_tuples_ -= slices_[k].tuple_count();
    Retire(std::move(slices_[k]));
    ++k;
  }
  if (k == 0) return;
  slices_.erase(slices_.begin(), slices_.begin() + static_cast<ptrdiff_t>(k));
  for (FlatFat& tree : trees_) tree.PopFront(k);
  // Blocks starting before the new front lost slices; the rest keep their
  // absolute alignment and move down by whole blocks.
  const size_t first = FirstBlockStart();
  if (k > first && !blocks_.empty()) {
    const size_t dead = std::min(
        (k - first + kBlockSlices - 1) / kBlockSlices, blocks_.size());
    blocks_.erase(blocks_.begin(),
                  blocks_.begin() + static_cast<ptrdiff_t>(dead));
  }
  block_phase_ = (block_phase_ + k) % kBlockSlices;
}

Partial AggregateStore::QuerySlices(size_t agg, size_t i, size_t j) const {
  assert(agg < fns_.size());
  if (i >= j) return Partial{};
  if (mode_ == StoreMode::kEager) return trees_[agg].Query(i, j);
  Partial acc;
  const AggregateFunction& fn = *fns_[agg];
  // Iterates rather than indexes: deque indexing divides on every access.
  auto fold = [&](size_t from, size_t to) {
    auto it = slices_.begin() + static_cast<ptrdiff_t>(from);
    for (size_t k = from; k < to; ++k, ++it) fn.Combine(acc, it->agg(agg));
  };
  size_t k = i;
  if (j - i >= kBlockSlices && blockable_[agg]) {
    // Blocks [kb, ke) lie wholly inside [i, j).
    const size_t first = FirstBlockStart();
    const size_t kb =
        i <= first ? 0 : (i - first + kBlockSlices - 1) / kBlockSlices;
    const size_t ke = j < first ? 0 : (j - first) / kBlockSlices;
    if (kb < ke) {
      fold(i, first + kb * kBlockSlices);
      for (size_t b = kb; b < ke; ++b) fn.Combine(acc, BlockPartial(agg, b));
      k = first + ke * kBlockSlices;
    }
  }
  fold(k, j);
  return acc;
}

Partial AggregateStore::QueryRange(size_t agg, Time start, Time end) const {
  const size_t i = FirstEndingAfter(start);
  // First slice with start >= end bounds the range on the right.
  auto it = std::lower_bound(
      slices_.begin(), slices_.end(), end,
      [](const Slice& s, Time x) { return s.start() < x; });
  const size_t j = static_cast<size_t>(it - slices_.begin());
  return QuerySlices(agg, i, j);
}

Time AggregateStore::NthRecentTupleTime(Time t, int64_t n) const {
  if (n <= 0) return kNoTime;
  size_t i = FindByStart(t);
  if (i == kNpos) return kNoTime;
  int64_t remaining = n;
  for (size_t k = i + 1; k-- > 0;) {
    const std::vector<Tuple>& tuples = slices_[k].tuples();
    if (tuples.empty()) {
      if (slices_[k].tuple_count() > 0) return kNoTime;  // not retained
      continue;
    }
    // Tuples are sorted by (ts, seq); count those with ts < t from the back.
    auto ub = std::lower_bound(
        tuples.begin(), tuples.end(), t,
        [](const Tuple& a, Time x) { return a.ts < x; });
    int64_t avail = static_cast<int64_t>(ub - tuples.begin());
    if (avail >= remaining) {
      return tuples[static_cast<size_t>(avail - remaining)].ts;
    }
    remaining -= avail;
  }
  return kNoTime;
}

size_t AggregateStore::MemoryBytes() const {
  size_t bytes = 0;
  for (const Slice& s : slices_) bytes += s.MemoryBytes();
  for (const FlatFat& tree : trees_) bytes += tree.MemoryBytes();
  size_t blocked_aggs = 0;
  for (const char b : blockable_) blocked_aggs += b ? 1 : 0;
  bytes += CachedBlocks() * blocked_aggs * MemoryModel::kPartialBytes;
  return bytes;
}

void AggregateStore::Serialize(state::Writer& w) const {
  w.Tag(0x53544F52);  // "STOR"
  w.Bool(track_last_ts_);
  w.U64(total_tuples_);
  w.U64(slices_created_);
  w.U64(block_phase_);
  w.U64(slices_.size());
  for (const Slice& s : slices_) s.Serialize(w);
  w.U64(trees_.size());
  for (const FlatFat& tree : trees_) tree.Serialize(w);
}

void AggregateStore::Deserialize(state::Reader& r) {
  r.Tag(0x53544F52);
  track_last_ts_ = r.Bool();
  total_tuples_ = r.U64();
  slices_created_ = r.U64();
  const uint64_t phase = r.U64();
  const uint64_t ns = r.U64();
  if (phase >= kBlockSlices || ns > r.remaining()) {
    r.Fail();
    return;
  }
  block_phase_ = static_cast<size_t>(phase);
  blocks_.clear();
  slices_.clear();
  free_slices_.clear();
  for (uint64_t i = 0; i < ns && r.ok(); ++i) {
    slices_.emplace_back(0, 0, fns_.size());
    slices_.back().Deserialize(r);
  }
  const uint64_t ntrees = r.U64();
  if (mode_ == StoreMode::kEager) {
    if (ntrees != fns_.size()) {
      r.Fail();
      return;
    }
    trees_.clear();
    trees_.reserve(fns_.size());
    for (size_t a = 0; a < fns_.size() && r.ok(); ++a) {
      trees_.emplace_back(fns_[a]);
      trees_[a].Deserialize(r);
    }
  } else if (ntrees != 0) {
    r.Fail();
  }
}

void AggregateStore::SerializeDelta(state::Writer& w) const {
  w.Tag(0x53444C54);  // "SDLT"
  w.Bool(track_last_ts_);
  w.U64(total_tuples_);
  w.U64(slices_created_);
  w.U64(block_phase_);
  w.U64(slices_.size());
  for (const Slice& s : slices_) {
    if (s.snapshot_dirty()) {
      w.U8(1);
      s.Serialize(w);
    } else {
      w.U8(0);
      w.I64(s.start());
    }
  }
  w.U64(trees_.size());
  for (const FlatFat& tree : trees_) {
    w.U64(tree.capacity());
    w.U64(tree.offset());
    w.U64(tree.size());
  }
}

void AggregateStore::ApplyDelta(state::Reader& r) {
  r.Tag(0x53444C54);
  const bool track = r.Bool();
  const uint64_t total = r.U64();
  const uint64_t created = r.U64();
  const uint64_t phase = r.U64();
  const uint64_t ns = r.U64();
  if (!r.ok() || phase >= kBlockSlices || ns > r.remaining()) {
    r.Fail();
    return;
  }
  std::deque<Slice> next;
  for (uint64_t i = 0; i < ns && r.ok(); ++i) {
    const uint8_t dirty = r.U8();
    if (dirty == 1) {
      next.emplace_back(0, 0, fns_.size());
      next.back().Deserialize(r);
    } else if (dirty == 0) {
      const Time start = r.I64();
      if (!r.ok()) return;
      const size_t idx = FindByStart(start);
      // A clean reference must resolve to an untouched slice of the
      // previous epoch; anything else means a barrier is missing between
      // this delta and the state it is being applied to.
      if (idx == kNpos || slices_[idx].start() != start ||
          slices_[idx].snapshot_dirty()) {
        r.Fail();
        return;
      }
      next.push_back(slices_[idx]);
    } else {
      r.Fail();
      return;
    }
  }
  const uint64_t ntrees = r.U64();
  if (!r.ok()) return;
  std::vector<std::array<uint64_t, 3>> layouts;
  if (mode_ == StoreMode::kEager) {
    if (ntrees != fns_.size()) {
      r.Fail();
      return;
    }
    layouts.reserve(static_cast<size_t>(ntrees));
    for (uint64_t a = 0; a < ntrees; ++a) {
      const uint64_t cap = r.U64();
      const uint64_t off = r.U64();
      const uint64_t size = r.U64();
      if (!r.ok() || size != next.size()) {
        r.Fail();
        return;
      }
      layouts.push_back({cap, off, size});
    }
  } else if (ntrees != 0) {
    r.Fail();
    return;
  }

  track_last_ts_ = track;
  total_tuples_ = total;
  slices_created_ = created;
  block_phase_ = static_cast<size_t>(phase);
  blocks_.clear();
  slices_ = std::move(next);
  free_slices_.clear();
  if (mode_ == StoreMode::kEager) {
    trees_.clear();
    trees_.reserve(fns_.size());
    for (size_t a = 0; a < fns_.size(); ++a) {
      trees_.emplace_back(fns_[a]);
      const bool ok = trees_[a].RestoreFromLayout(
          static_cast<size_t>(layouts[a][0]), static_cast<size_t>(layouts[a][1]),
          static_cast<size_t>(layouts[a][2]),
          [&](size_t i) -> const Partial& { return slices_[i].agg(a); });
      if (!ok) {
        r.Fail();
        return;
      }
    }
  }
}

void AggregateStore::MarkAllClean() {
  for (Slice& s : slices_) s.MarkSnapshotClean();
}

size_t AggregateStore::DirtySliceCount() const {
  size_t n = 0;
  for (const Slice& s : slices_) n += s.snapshot_dirty() ? 1 : 0;
  return n;
}

void AggregateStore::RebuildTrees() {
  if (mode_ != StoreMode::kEager) return;
  trees_.clear();
  trees_.reserve(fns_.size());
  for (size_t a = 0; a < fns_.size(); ++a) {
    trees_.emplace_back(fns_[a]);
    for (const Slice& s : slices_) trees_[a].Append(s.agg(a));
  }
}

}  // namespace scotty

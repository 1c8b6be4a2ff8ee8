// Tests for the shared testing library itself: the stream generator's
// determinism and disorder bound, query-spec round-tripping, the replay
// cursor's resume, and the differential harness agreeing on hand-picked
// configurations.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "testing/differential.h"
#include "testing/harness.h"
#include "testing/oracle.h"
#include "testing/query_spec.h"
#include "testing/stream_gen.h"

namespace scotty {
namespace {

using testing::DifferentialConfig;
using testing::DifferentialOutcome;
using testing::GenerateStream;
using testing::ParseWindowSpecs;
using testing::RandomConfig;
using testing::ReplayCursor;
using testing::RunDifferential;
using testing::StreamSpec;
using testing::WindowSpec;
using testing::WindowSpecsToString;

TEST(StreamGen, DeterministicPerSeed) {
  StreamSpec spec;
  spec.seed = 99;
  spec.num_tuples = 500;
  spec.ooo_fraction = 0.3;
  spec.max_delay = 20;
  spec.punctuation_probability = 0.05;
  const std::vector<Tuple> a = GenerateStream(spec);
  const std::vector<Tuple> b = GenerateStream(spec);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].ts, b[i].ts);
    EXPECT_EQ(a[i].value, b[i].value);
    EXPECT_EQ(a[i].is_punctuation, b[i].is_punctuation);
  }
  spec.seed = 100;
  const std::vector<Tuple> c = GenerateStream(spec);
  bool different = c.size() != a.size();
  for (size_t i = 0; !different && i < a.size(); ++i) {
    different = a[i].ts != c[i].ts || a[i].value != c[i].value;
  }
  EXPECT_TRUE(different);
}

TEST(StreamGen, DisorderRespectsMaxLateness) {
  StreamSpec spec;
  spec.seed = 3;
  spec.num_tuples = 3000;
  spec.step_lo = 0;
  spec.step_hi = 3;
  spec.ooo_fraction = 0.4;
  spec.max_delay = 25;
  spec.burst_probability = 0.05;
  spec.gap_probability = 0.02;
  const std::vector<Tuple> arrived = GenerateStream(spec);
  ASSERT_EQ(arrived.size(), 3000u);
  Time max_ts = kNoTime;
  bool any_ooo = false;
  for (const Tuple& t : arrived) {
    if (max_ts != kNoTime) {
      any_ooo |= t.ts < max_ts;
      EXPECT_LE(max_ts - t.ts, spec.MaxLateness());
    }
    max_ts = std::max(max_ts, t.ts);
  }
  EXPECT_TRUE(any_ooo);
}

TEST(StreamGen, PunctuationSharesPrecedingTimestamp) {
  StreamSpec spec;
  spec.seed = 11;
  spec.num_tuples = 800;
  spec.punctuation_probability = 0.1;
  const std::vector<Tuple> stream = GenerateStream(spec);
  size_t punct = 0;
  for (size_t i = 0; i < stream.size(); ++i) {
    if (!stream[i].is_punctuation) continue;
    ++punct;
    ASSERT_GT(i, 0u);
    EXPECT_EQ(stream[i].ts, stream[i - 1].ts);
    EXPECT_FALSE(stream[i - 1].is_punctuation);
  }
  EXPECT_GT(punct, 0u);
}

TEST(QuerySpec, RoundTripsEveryKind) {
  const std::string text =
      "tumbling:15,sliding:30:10,session:20,ctumbling:5,csliding:8:3,punct";
  std::vector<WindowSpec> specs;
  ASSERT_TRUE(ParseWindowSpecs(text, &specs));
  ASSERT_EQ(specs.size(), 6u);
  EXPECT_EQ(WindowSpecsToString(specs), text);
  for (const WindowSpec& spec : specs) {
    EXPECT_NE(spec.Instantiate(), nullptr) << spec.ToString();
  }
}

TEST(QuerySpec, RejectsMalformedSpecs) {
  std::vector<WindowSpec> specs;
  EXPECT_FALSE(ParseWindowSpecs("", &specs));
  EXPECT_FALSE(ParseWindowSpecs("bogus:10", &specs));
  EXPECT_FALSE(ParseWindowSpecs("tumbling", &specs));
  EXPECT_FALSE(ParseWindowSpecs("tumbling:0", &specs));
  EXPECT_FALSE(ParseWindowSpecs("tumbling:-5", &specs));
  EXPECT_FALSE(ParseWindowSpecs("sliding:30", &specs));
  EXPECT_FALSE(ParseWindowSpecs("punct:5", &specs));
  EXPECT_FALSE(ParseWindowSpecs("tumbling:10,,", &specs));
}

DifferentialConfig HandConfig(const std::string& queries,
                              std::vector<std::string> aggs, uint64_t seed,
                              int n) {
  DifferentialConfig cfg;
  EXPECT_TRUE(ParseWindowSpecs(queries, &cfg.windows));
  cfg.aggs = std::move(aggs);
  cfg.stream.seed = seed;
  cfg.stream.num_tuples = n;
  return cfg;
}

// A resumed replay's log folds into what downstream saw: the resume drops
// the watermarks sent after its barrier and must restart from the one sent
// last before it.
TEST(WatermarkLog, MergeFoldsResumesLikeDownstream) {
  using testing::MergeWatermarkLog;
  using testing::WatermarkLog;
  WatermarkLog log = {{64, 10, false},  {128, 20, false}, {192, 30, false},
                      {128, 20, true},  {192, 30, false}, {256, 40, false}};
  WatermarkLog merged;
  ASSERT_TRUE(MergeWatermarkLog(log, &merged));
  EXPECT_EQ(merged, (WatermarkLog{{64, 10, false},
                                  {128, 20, false},
                                  {192, 30, false},
                                  {256, 40, false}}));
  log[3].wm = kNoTime;  // the resume lost the barrier's last watermark
  EXPECT_FALSE(MergeWatermarkLog(log, &merged));

  // A from-scratch recovery resumes before tuple 0 with no watermark.
  const WatermarkLog scratch = {
      {64, 10, false}, {0, kNoTime, true}, {64, 10, false}};
  ASSERT_TRUE(MergeWatermarkLog(scratch, &merged));
  EXPECT_EQ(merged, (WatermarkLog{{64, 10, false}}));
}

// A run stopped at any barrier and continued from a cursor rebuilt from
// that barrier's metadata sends the same watermarks after the same tuples
// as the uninterrupted run. Every other block of the stream arrives below
// max_ts, so max_ts stalls across a watermark point right after each
// barrier and the monotone filter must fire there: the resume has to carry
// last_wm, not only the offset, seq and max_ts.
TEST(ReplayCursor, ResumesFromEveryBarrier) {
  constexpr int kWmEvery = 4;
  constexpr Time kLag = 5;
  std::vector<Tuple> stream;
  Time ts = 0;
  for (int block = 0; block < 6; ++block) {
    for (int k = 0; k < kWmEvery; ++k) {
      stream.push_back(
          testing::T(block % 2 == 0 ? (ts += 10) : ts - 40 + k, 1.0));
    }
  }
  stream.push_back(testing::T(ts + 1, 1.0));  // tail past the last point

  using Events = std::vector<std::pair<size_t, Time>>;  // (index, watermark)
  // Replays from the cursor's position to the end in blocks of up to
  // `batch`, recording each watermark with the number of tuples before it
  // and, when `barriers` is set, the barrier metadata taken after it.
  auto replay = [&](ReplayCursor cur, size_t batch, Events* events,
                    std::vector<state::CheckpointMetadata>* barriers) {
    while (cur.next() < stream.size()) {
      for (size_t k = cur.BlockLimit(stream.size(), batch); k > 0; --k) {
        const size_t index = cur.next();
        EXPECT_EQ(cur.Admit(stream).seq, index);
      }
      if (const std::optional<Time> wm = cur.DueWatermark()) {
        events->emplace_back(cur.next(), *wm);
        if (barriers != nullptr) barriers->push_back(cur.Barrier());
      }
    }
  };

  Events full;
  std::vector<state::CheckpointMetadata> barriers;
  replay(ReplayCursor(kWmEvery, kLag), 1, &full, &barriers);
  // Six watermark points; the three after a late block repeat the previous
  // watermark and are filtered.
  ASSERT_EQ(full, (Events{{4, 35}, {12, 75}, {20, 115}}));
  ASSERT_EQ(barriers.size(), full.size());
  EXPECT_EQ(barriers[0].source_offset, 4u);
  EXPECT_EQ(barriers[0].next_seq, 4u);
  EXPECT_EQ(barriers[0].max_ts, 40);
  EXPECT_EQ(barriers[0].last_wm, 35);

  for (size_t b = 0; b < barriers.size(); ++b) {
    ReplayCursor resumed(kWmEvery, kLag);
    resumed.Resume(barriers[b]);
    const state::CheckpointMetadata again = resumed.Barrier();
    EXPECT_EQ(again.source_offset, barriers[b].source_offset);
    EXPECT_EQ(again.next_seq, barriers[b].next_seq);
    EXPECT_EQ(again.max_ts, barriers[b].max_ts);
    EXPECT_EQ(again.last_wm, barriers[b].last_wm);
    // Continue in blocks of 3: BlockLimit must still stop every block at
    // the next watermark point.
    Events events(full.begin(), full.begin() + static_cast<long>(b) + 1);
    replay(resumed, 3, &events, nullptr);
    EXPECT_EQ(events, full) << "resumed from barrier " << b;
  }
}

TEST(Differential, AgreesOnInOrderMixedQueries) {
  DifferentialConfig cfg =
      HandConfig("tumbling:10,sliding:25:7,session:12", {"sum", "max"}, 5, 400);
  const DifferentialOutcome o = RunDifferential(cfg);
  EXPECT_TRUE(o.ok) << o.detail;
  EXPECT_GT(o.comparisons, 0u);
}

TEST(Differential, AgreesOnOutOfOrderCountAndTimeWindows) {
  DifferentialConfig cfg =
      HandConfig("ctumbling:7,csliding:9:4,tumbling:20", {"sum", "median"},
                 17, 600);
  cfg.stream.ooo_fraction = 0.3;
  cfg.stream.max_delay = 15;
  cfg.wm_every = 64;
  const DifferentialOutcome o = RunDifferential(cfg);
  EXPECT_TRUE(o.ok) << o.detail;
  EXPECT_GT(o.comparisons, 0u);
}

TEST(Differential, AgreesOnPunctuationWindows) {
  DifferentialConfig cfg =
      HandConfig("punct,session:15", {"sum", "count"}, 23, 500);
  cfg.stream.punctuation_probability = 0.08;
  cfg.stream.ooo_fraction = 0.1;
  cfg.stream.max_delay = 10;
  const DifferentialOutcome o = RunDifferential(cfg);
  EXPECT_TRUE(o.ok) << o.detail;
  EXPECT_GT(o.comparisons, 0u);
}

TEST(Differential, RandomConfigsReplayFromTheirFlags) {
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    const DifferentialConfig cfg = RandomConfig(seed, 300);
    ASSERT_FALSE(cfg.windows.empty());
    ASSERT_FALSE(cfg.aggs.empty());
    const std::string flags = cfg.ToFlags();
    EXPECT_NE(flags.find("--seed="), std::string::npos);
    EXPECT_NE(flags.find("--queries="), std::string::npos);
    // The serialized query list parses back to the same window set.
    const std::string key = "--queries=";
    const size_t start = flags.find(key) + key.size();
    const std::string queries =
        flags.substr(start, flags.find(' ', start) - start);
    std::vector<WindowSpec> parsed;
    ASSERT_TRUE(ParseWindowSpecs(queries, &parsed)) << queries;
    EXPECT_EQ(WindowSpecsToString(parsed), WindowSpecsToString(cfg.windows));
  }
}

TEST(Differential, OracleSeesTheResultsTechniquesReport) {
  // A seed-derived config with every window kind forced in: oracle coverage
  // beyond what RandomConfig happens to draw for small seeds.
  DifferentialConfig cfg = HandConfig(
      "tumbling:12,sliding:18:5,session:10,ctumbling:6,punct",
      {"avg", "min-count"}, 31, 700);
  cfg.stream.punctuation_probability = 0.05;
  cfg.stream.gap_probability = 0.03;
  cfg.stream.gap_length = 40;
  cfg.stream.ooo_fraction = 0.2;
  cfg.stream.max_delay = 12;
  cfg.wm_every = 128;
  const DifferentialOutcome o = RunDifferential(cfg);
  EXPECT_TRUE(o.ok) << o.detail;
}

}  // namespace
}  // namespace scotty

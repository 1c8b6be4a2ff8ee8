// Benchmark binary: replays one seeded workload through the system for a
// fixed time and prints its metrics. Usage:
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--ckpt-root <dir>] [--spans-out <file>]
//             [--git-sha <sha>] [--source-digest <hex>]
//
// Every run starts with an untimed probe pass (warm-up, state-size
// sampling, and the self-test of the result check), then replays the
// stream in passes until --seconds have passed, timing set-up alone between
// them. With --trace 0 it prints the end-to-end metrics; with --trace 1 it
// alternates untraced and traced passes (plus multi-worker passes on
// keyed-parallel, for its scaling figure) and prints the per-layer metrics. Every pass's
// results are checked against the workload's reference. The last line of
// stdout is one JSON object: {"correct", "attempted", "failed", "metrics"}.

#include <cpuid.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "aggregates/kernels.h"
#include "reference.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr int kSetupReps = 201;
constexpr int kMinCycles = 3;
// The host alternates between two speeds about 1.45x apart, each held for
// stretches of a second to minutes. A run's median pass lands in whichever
// speed held most of the run and flipped between them from run to run; the
// slower quartile of a run's passes stays in the slower speed, which almost
// every run reaches. So the run reports the throughput that three in four
// of its passes reached and the pass median latency that three in four
// stayed within.
constexpr double kSlowPassShare = 0.25;
// Traced passes whose spans are written out (the shared workload runs
// hundreds of passes in a run).
constexpr size_t kSpanPasses = 8;

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  std::string ckpt_root = ".bench_build/ckpt";
  std::string spans_out;
  std::string git_sha = "unknown";
  std::string source_digest = "unknown";
};

bool ParseArgs(int argc, char** argv, Args* a) {
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    char* end = nullptr;
    if (k == "--workload") {
      a->workload = v;
    } else if (k == "--seed") {
      a->seed = std::strtoull(v.c_str(), &end, 10);
      have_seed = end != v.c_str() && *end == '\0';
    } else if (k == "--seconds") {
      a->seconds = std::strtod(v.c_str(), &end);
      if (end == v.c_str() || *end != '\0') return false;
    } else if (k == "--trace") {
      if (v != "0" && v != "1") return false;
      a->trace = v == "1" ? 1 : 0;
    } else if (k == "--ckpt-root") {
      a->ckpt_root = v;
    } else if (k == "--spans-out") {
      a->spans_out = v;
    } else if (k == "--git-sha") {
      a->git_sha = v;
    } else if (k == "--source-digest") {
      a->source_digest = v;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a->workload.empty() && have_seed &&
         a->seconds > 0.0 && a->trace >= 0;
}

std::string CpuModel() {
  unsigned int regs[12] = {};
  unsigned int max_ext = __get_cpuid_max(0x80000000u, nullptr);
  if (max_ext < 0x80000004u) return "unknown";
  for (unsigned int i = 0; i < 3; ++i) {
    __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1], &regs[4 * i + 2],
                &regs[4 * i + 3]);
  }
  char brand[49] = {};
  std::memcpy(brand, regs, 48);
  std::string s(brand);
  s.erase(0, s.find_first_not_of(' '));
  return s;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

void PrintFingerprint(const Args& a) {
  std::printf(
      "# fingerprint {\"workload\":\"%s\",\"seed\":%llu,\"seconds\":%g,"
      "\"cores\":%u,\"cpu\":\"%s\",\"compiler\":\"%s\",\"build_type\":\"%s\","
      "\"cxx_flags\":\"%s\",\"simd\":\"%s\",\"git_sha\":\"%s\","
      "\"source_digest\":\"%s\"}\n",
      JsonEscape(a.workload).c_str(), static_cast<unsigned long long>(a.seed),
      a.seconds, std::thread::hardware_concurrency(), JsonEscape(CpuModel()).c_str(),
#if defined(__clang__)
      "clang " __clang_version__,
#else
      "gcc " __VERSION__,
#endif
      PERFBENCH_BUILD_TYPE, PERFBENCH_CXX_FLAGS,
      scotty::simd::ModeName(scotty::simd::BestSupportedMode()),
      JsonEscape(a.git_sha).c_str(), JsonEscape(a.source_digest).c_str());
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  uint64_t samples = 0;  // percentiles: values they were taken over
};

double MedianOr0(const std::vector<double>& v) { return v.empty() ? 0.0 : Median(v); }

double Finite(double v) { return std::isfinite(v) ? v : 0.0; }

/// Per-layer figures of one traced pass, from its spans.
struct TracedPass {
  double wall_s = 0.0;
  double tps = 0.0;
  std::map<Stage, double> busy;               // all threads
  std::map<Stage, std::set<uint32_t>> owners; // threads that made each call
  std::map<Stage, std::vector<double>> calls_us;
  double producer_covered_s = 0.0;            // thread 0, inside the pass
  std::vector<double> worker_busy_s;          // executor worker threads
  std::vector<double> queue_fill;
  std::map<std::string, double> counters;
};

/// Tuples each worker ingested, max over mean: the key skew the executor's
/// hash partitioning leaves.
double WorkerTupleSkew(const std::vector<uint64_t>& tuples) {
  if (tuples.empty()) return 0.0;
  double total = 0.0;
  for (uint64_t n : tuples) total += static_cast<double>(n);
  const double most = static_cast<double>(*std::max_element(tuples.begin(), tuples.end()));
  return most / (total / static_cast<double>(tuples.size()));
}

TracedPass Summarize(PassOutput& p) {
  TracedPass t;
  t.wall_s = p.wall_s;
  t.tps = static_cast<double>(p.tuples) / p.wall_s;
  int64_t pass_start = 0;
  int64_t pass_end = 0;
  for (const Span& s : p.spans) {
    if (s.stage == Stage::kPass) {
      pass_start = s.start_ns;
      pass_end = s.end_ns;
    }
  }
  std::map<uint32_t, double> per_worker;
  for (const Span& s : p.spans) {
    if (s.stage == Stage::kPass) continue;
    t.busy[s.stage] += s.Seconds();
    t.owners[s.stage].insert(s.thread);
    t.calls_us[s.stage].push_back(s.Seconds() * 1e6);
    if (s.thread == 0 && s.start_ns >= pass_start && s.end_ns <= pass_end) {
      t.producer_covered_s += s.Seconds();
    }
    if (s.thread > 0) per_worker[s.thread] += s.Seconds();
  }
  if (!p.worker_tuples.empty()) {
    for (const auto& [thread, busy] : per_worker) t.worker_busy_s.push_back(busy);
  }
  t.queue_fill = std::move(p.queue_fill);
  t.counters = std::move(p.counters);
  return t;
}

/// Median over traced passes of f(pass).
template <typename F>
double OverPasses(const std::vector<TracedPass>& passes, F&& f) {
  std::vector<double> v;
  for (const TracedPass& p : passes) v.push_back(Finite(f(p)));
  return MedianOr0(v);
}

double Busy(const TracedPass& p, Stage s) {
  auto it = p.busy.find(s);
  return it == p.busy.end() ? 0.0 : it->second;
}

/// Busy share of the threads that made the calls.
double Share(const TracedPass& p, Stage s) {
  auto it = p.owners.find(s);
  if (it == p.owners.end()) return 0.0;
  return Busy(p, s) / (p.wall_s * static_cast<double>(it->second.size()));
}

double CallPercentile(const TracedPass& p, Stage s, double q) {
  auto it = p.calls_us.find(s);
  if (it == p.calls_us.end()) return 0.0;
  std::vector<double> v = it->second;
  return Percentile(v, q);
}

uint64_t Calls(const std::vector<TracedPass>& passes, Stage s) {
  uint64_t n = 0;
  for (const TracedPass& p : passes) {
    auto it = p.calls_us.find(s);
    if (it != p.calls_us.end()) n += it->second.size();
  }
  return n;
}

double Counter(const TracedPass& p, const std::string& name) {
  auto it = p.counters.find(name);
  return it == p.counters.end() ? 0.0 : it->second;
}

std::vector<Metric> LayerMetrics(const std::vector<TracedPass>& traced,
                                 const std::vector<double>& untraced_tps,
                                 const std::vector<double>& scaled_tps,
                                 const std::vector<double>& scaled_skew,
                                 const PassOutput& probe) {
  std::vector<Metric> m;
  auto add = [&](const std::string& name, double v, const std::string& unit,
                 uint64_t samples = 0) { m.push_back({name, Finite(v), unit, samples}); };
  auto busy = [&](Stage s) { return OverPasses(traced, [&](const TracedPass& p) { return Busy(p, s); }); };
  auto share = [&](Stage s) { return OverPasses(traced, [&](const TracedPass& p) { return Share(p, s); }); };
  auto pct = [&](Stage s, double q) {
    return OverPasses(traced, [&](const TracedPass& p) { return CallPercentile(p, s, q); });
  };
  auto counter = [&](const std::string& name) {
    return OverPasses(traced, [&](const TracedPass& p) { return Counter(p, name); });
  };

  add("core.ingest_busy_s", busy(Stage::kIngest), "s");
  add("core.ingest_share", share(Stage::kIngest), "ratio");
  add("core.ingest_call_p50_us", pct(Stage::kIngest, 0.5), "us", Calls(traced, Stage::kIngest));
  add("core.ingest_call_p99_us", pct(Stage::kIngest, 0.99), "us", Calls(traced, Stage::kIngest));
  add("core.trigger_busy_s", busy(Stage::kTrigger), "s");
  add("core.trigger_call_p50_us", pct(Stage::kTrigger, 0.5), "us", Calls(traced, Stage::kTrigger));
  add("core.trigger_call_p99_us", pct(Stage::kTrigger, 0.99), "us", Calls(traced, Stage::kTrigger));
  add("core.drain_busy_s", busy(Stage::kDrain), "s");
  for (const char* c : {"core.windows_emitted", "core.window_updates", "core.slice_splits",
                        "core.slice_merges", "core.slice_recomputes", "core.ooo_tuples",
                        "core.late_tuples", "core.dropped_tuples"}) {
    add(c, counter(c), "count");
  }
  add("core.slices_peak", probe.slices_peak, "count");

  add("query.register_s", busy(Stage::kRegister), "s");
  add("query.engine_windows", counter("query.engine_windows"), "count");
  add("query.engine_window_ratio", counter("query.engine_window_ratio"), "ratio");

  add("runtime.exec.push_busy_s", busy(Stage::kPush), "s");
  add("runtime.exec.push_share", share(Stage::kPush), "ratio");
  add("runtime.exec.push_call_p99_us", pct(Stage::kPush, 0.99), "us", Calls(traced, Stage::kPush));
  add("runtime.exec.watermark_busy_s", busy(Stage::kPushWatermark), "s");
  add("runtime.exec.finish_s", busy(Stage::kFinish), "s");
  add("runtime.exec.queue_fill_p50", OverPasses(traced, [](const TracedPass& p) {
        std::vector<double> v = p.queue_fill;
        return Percentile(v, 0.5);
      }), "ratio");
  add("runtime.exec.queue_fill_max", OverPasses(traced, [](const TracedPass& p) {
        return p.queue_fill.empty() ? 0.0 : *std::max_element(p.queue_fill.begin(), p.queue_fill.end());
      }), "ratio");
  add("runtime.exec.worker_busy_share_min", OverPasses(traced, [](const TracedPass& p) {
        if (p.worker_busy_s.empty()) return 0.0;
        return *std::min_element(p.worker_busy_s.begin(), p.worker_busy_s.end()) / p.wall_s;
      }), "ratio");
  add("runtime.exec.worker_busy_share_max", OverPasses(traced, [](const TracedPass& p) {
        if (p.worker_busy_s.empty()) return 0.0;
        return *std::max_element(p.worker_busy_s.begin(), p.worker_busy_s.end()) / p.wall_s;
      }), "ratio");
  add("runtime.exec.worker_tuple_skew", MedianOr0(scaled_skew), "ratio");
  add("runtime.exec.scaling_vs_1w",
      scaled_tps.empty() ? 0.0 : MedianOr0(scaled_tps) / MedianOr0(untraced_tps), "x");

  add("runtime.ckpt.barrier_busy_s", busy(Stage::kBarrier), "s");
  add("runtime.ckpt.barrier_share", share(Stage::kBarrier), "ratio");
  add("runtime.ckpt.barrier_call_p50_us", pct(Stage::kBarrier, 0.5), "us", Calls(traced, Stage::kBarrier));
  add("runtime.ckpt.barrier_call_p99_us", pct(Stage::kBarrier, 0.99), "us", Calls(traced, Stage::kBarrier));
  add("runtime.ckpt.flush_s", busy(Stage::kFlush), "s");
  for (const char* c : {"runtime.ckpt.bases", "runtime.ckpt.deltas", "runtime.ckpt.persist_failures",
                        "runtime.ckpt.barriers_dropped", "runtime.ckpt.persist_queue_max"}) {
    add(c, counter(c), "count");
  }
  add("state.retained_bytes", counter("state.retained_bytes"), "bytes");

  std::vector<double> traced_tps;
  for (const TracedPass& p : traced) traced_tps.push_back(p.tps);
  add("trace.overhead_ratio", MedianOr0(traced_tps) / MedianOr0(untraced_tps), "ratio");
  add("trace.busy_coverage",
      OverPasses(traced, [](const TracedPass& p) { return p.producer_covered_s / p.wall_s; }),
      "ratio");
  return m;
}

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    if (m.samples > 0) {
      std::printf("# metric %-36s %.6g %s (n=%llu)\n", m.name.c_str(), m.value,
                  m.unit.c_str(), static_cast<unsigned long long>(m.samples));
    } else {
      std::printf("# metric %-36s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              correct ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                metrics[i].name.c_str(), metrics[i].value, metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

int Run(const Args& args) {
  std::unique_ptr<Workload> w = MakeWorkload(args.workload, args.ckpt_root);
  if (w == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  std::filesystem::create_directories(args.ckpt_root);
  PrintFingerprint(args);
  std::fflush(stdout);

  const int64_t prep_start = NowNs();
  w->Prepare(args.seed);
  std::fprintf(stderr, "prepared stream and reference (%zu instances) in %.2f s\n",
               w->reference().size(), static_cast<double>(NowNs() - prep_start) * 1e-9);

  CheckReport checks;
  uint64_t barriers = 0;
  uint64_t barrier_failures = 0;
  auto check = [&](PassOutput& p) {
    const CheckReport r = Check(w->reference(), p.results, p.final_map);
    checks.Add(r);
    barriers += p.barriers;
    barrier_failures += p.barrier_failures;
    if (r.failed() != 0 || p.barrier_failures != 0) {
      std::fprintf(stderr,
                   "pass check: %llu wrong, %llu missing, %llu extra of %llu; "
                   "%llu of %llu barriers failed\n",
                   static_cast<unsigned long long>(r.wrong),
                   static_cast<unsigned long long>(r.missing),
                   static_cast<unsigned long long>(r.extra),
                   static_cast<unsigned long long>(r.attempted),
                   static_cast<unsigned long long>(p.barrier_failures),
                   static_cast<unsigned long long>(p.barriers));
    }
    std::vector<WindowResult>().swap(p.results);
  };

  PassConfig probe_cfg;
  probe_cfg.probe = true;
  PassOutput probe = w->RunPass(probe_cfg);
  // Self-test: the check must catch one corrupted result.
  std::vector<WindowResult> corrupted = probe.results;
  CorruptLast(&corrupted);
  const CheckReport self = Check(w->reference(), corrupted, probe.final_map);
  const CheckReport clean = Check(w->reference(), probe.results, probe.final_map);
  const bool self_test_ok = self.wrong == clean.wrong + 1 &&
                            self.failed() == clean.failed() + 1;
  if (!self_test_ok) std::fprintf(stderr, "self-test: the check missed a corrupted result\n");
  std::vector<WindowResult>().swap(corrupted);
  check(probe);

  // Set-up repetitions are spread evenly over the run, so that setup_s
  // meets the same host speeds as the passes rather than only those of the
  // run's first moments.
  std::vector<double> setups;
  auto set_up_until = [&](double share) {
    const size_t want = static_cast<size_t>(std::min(1.0, share) * kSetupReps);
    while (setups.size() < want) setups.push_back(w->SetupSeconds());
  };

  std::vector<double> untraced_tps;
  std::vector<double> scaled_tps;
  std::vector<double> scaled_skew;
  // Host stalls of 5-30 ms come in bursts of a few seconds and fill the tail
  // of every pass they hit, so the p99 is the median over passes of each
  // pass's p99 (over closing results, at least 70 beyond it per pass).
  std::vector<double> latency_p50;
  std::vector<double> latency_p99;
  uint64_t closed = 0;
  std::vector<TracedPass> traced;
  std::vector<Span> all_spans;
  const int64_t loop_start = NowNs();
  for (int cycle = 0;
       cycle < kMinCycles || static_cast<double>(NowNs() - loop_start) * 1e-9 < args.seconds;
       ++cycle) {
    set_up_until(static_cast<double>(NowNs() - loop_start) * 1e-9 / args.seconds);
    PassOutput p = w->RunPass(PassConfig{});
    untraced_tps.push_back(static_cast<double>(p.tuples) / p.wall_s);
    latency_p50.push_back(Percentile(p.latencies, 0.5));
    latency_p99.push_back(Percentile(p.latencies, 0.99));
    for (const Latency& l : p.latencies) closed += l.n;
    check(p);
    if (args.trace == 0) continue;

    PassConfig traced_cfg;
    traced_cfg.traced = true;
    PassOutput t = w->RunPass(traced_cfg);
    check(t);
    if (!args.spans_out.empty() && traced.size() < kSpanPasses) {
      all_spans.insert(all_spans.end(), t.spans.begin(), t.spans.end());
    }
    traced.push_back(Summarize(t));
    if (w->scaling_workers() > 0) {
      PassConfig scaled_cfg;
      scaled_cfg.workers = w->scaling_workers();
      PassOutput s = w->RunPass(scaled_cfg);
      scaled_tps.push_back(static_cast<double>(s.tuples) / s.wall_s);
      scaled_skew.push_back(WorkerTupleSkew(s.worker_tuples));
      check(s);
    }
  }
  set_up_until(1.0);

  {
    std::vector<double> v = untraced_tps;
    std::fprintf(stderr, "%zu timed passes: %.6g / %.6g / %.6g tuples/s (min / median / max)\n",
                 v.size(), Percentile(v, 0.0), Percentile(v, 0.5), Percentile(v, 1.0));
  }
  std::vector<Metric> metrics;
  if (args.trace == 0) {
    metrics.push_back({"throughput_tps", Percentile(untraced_tps, kSlowPassShare),
                       "1/s", untraced_tps.size()});
    metrics.push_back({"emit_latency_p50_us", Percentile(latency_p50, 1.0 - kSlowPassShare), "us",
                       closed});
    metrics.push_back({"emit_latency_p99_us", MedianOr0(latency_p99), "us", closed});
    metrics.push_back({"peak_state_bytes", probe.peak_state_bytes, "bytes"});
    metrics.push_back({"setup_s", MedianOr0(setups), "s", setups.size()});
  } else {
    metrics = LayerMetrics(traced, untraced_tps, scaled_tps, scaled_skew, probe);
    if (!args.spans_out.empty() && !WriteSpans(args.spans_out, all_spans)) {
      std::fprintf(stderr, "could not write spans to %s\n", args.spans_out.c_str());
      return 1;
    }
  }
  const uint64_t attempted = checks.attempted + barriers;
  const uint64_t failed = checks.failed() + barrier_failures;
  std::printf("# error_ratio %.6g (%llu failed of %llu attempted; %llu wrong, %llu missing, "
              "%llu extra results; %llu of %llu barriers failed)\n",
              attempted == 0 ? 0.0 : static_cast<double>(failed) / static_cast<double>(attempted),
              static_cast<unsigned long long>(failed), static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(checks.wrong),
              static_cast<unsigned long long>(checks.missing),
              static_cast<unsigned long long>(checks.extra),
              static_cast<unsigned long long>(barrier_failures),
              static_cast<unsigned long long>(barriers));
  PrintResult(failed == 0 && self_test_ok, attempted, failed, metrics);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
#if !defined(__OPTIMIZE__)
  std::fprintf(stderr, "perfbench: built without optimisation; refusing to measure\n");
  return 3;
#endif
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--ckpt-root <dir>] [--spans-out <file>] "
                 "[--git-sha <sha>] [--source-digest <hex>]\n");
    return 2;
  }
  try {
    return perfbench::Run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}

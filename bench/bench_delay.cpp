// Experiment E3 — Theorem 8.1, delay: per-answer time independent of |T|,
// linear in the produced assignment size |S|.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <memory>
#include <string>

#include "bench_util.h"
#include "core/document.h"
#include "core/engine.h"
#include "util/latency_histogram.h"

namespace treenum {
namespace {

using bench::kSeed;

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// (a) n sweep with a fixed number of answers: per-answer time flat in n.
// ns_per_answer comes from the timed drains; delay_p99_ns from 256 more
// drains afterwards that time each answer (the gap between consecutive
// Next calls), so the clock reads do not enter ns_per_answer.
void BM_Delay_FixedAnswers_SizeSweep(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  Rng rng(kSeed);
  UnrankedTree t = RandomTree(n, 1, rng);  // all label a
  NodeId spine = t.AppendChild(t.root(), 1);
  for (int i = 0; i < 64; ++i) t.AppendChild(spine, 2);
  TreeEnumerator e(t, bench::StandardQuery());
  size_t answers = 0;
  for (auto _ : state) {
    answers = bench::Drain(e);
  }
  LatencyHistogram delay;
  Assignment a;
  for (int pass = 0; pass < 256; ++pass) {
    TreeEnumerator::Cursor c = e.Enumerate();
    uint64_t prev = NowNs();
    while (c.Next(&a)) {
      const uint64_t now = NowNs();
      delay.Record(now - prev);
      prev = now;
    }
  }
  state.counters["answers"] = static_cast<double>(answers);
  state.counters["ns_per_answer"] = benchmark::Counter(
      static_cast<double>(answers) * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
  const double delay_p99 = static_cast<double>(delay.Quantile(0.99));
  state.counters["delay_p99_ns"] = delay_p99;
  bench::EmitJson("BM_Delay_FixedAnswers_SizeSweep",
                  {{"n", static_cast<double>(n)},
                   {"iterations", static_cast<double>(state.iterations())},
                   {"answers", static_cast<double>(answers)},
                   {"delay_p99_ns", delay_p99}});
}
BENCHMARK(BM_Delay_FixedAnswers_SizeSweep)
    ->Range(1024, 262144)
    ->Unit(benchmark::kMicrosecond);

// (b) answer-count sweep at fixed n: total time linear in the output size.
void BM_Delay_AnswerCountSweep(benchmark::State& state) {
  size_t answers_target = static_cast<size_t>(state.range(0));
  Rng rng(kSeed);
  UnrankedTree t = RandomTree(16384, 1, rng);
  NodeId spine = t.AppendChild(t.root(), 1);
  for (size_t i = 0; i < answers_target; ++i) t.AppendChild(spine, 2);
  TreeEnumerator e(t, bench::StandardQuery());
  size_t answers = 0;
  for (auto _ : state) {
    answers = bench::Drain(e);
  }
  state.counters["answers"] = static_cast<double>(answers);
  state.counters["ns_per_answer"] = benchmark::Counter(
      static_cast<double>(answers) * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_Delay_AnswerCountSweep)
    ->Range(16, 4096)
    ->Unit(benchmark::kMicrosecond);

// (c) assignment-size sweep: second-order variable, answers are subsets of
// the k b-nodes — delay is allowed to be linear in |S| (Corollary 8.2).
void BM_Delay_AssignmentSizeSweep(benchmark::State& state) {
  size_t k = static_cast<size_t>(state.range(0));
  Rng rng(kSeed);
  UnrankedTree t = RandomTree(256, 1, rng);
  for (size_t i = 0; i < k; ++i) t.AppendChild(t.root(), 1);
  TreeEnumerator e(t, QueryAnySubsetOfLabel(2, 1));
  size_t answers = 0;
  size_t singletons = 0;
  for (auto _ : state) {
    TreeEnumerator::Cursor c = e.Enumerate();
    Assignment a;
    answers = 0;
    singletons = 0;
    while (c.Next(&a)) {
      ++answers;
      singletons += a.size();
    }
  }
  state.counters["answers"] = static_cast<double>(answers);
  state.counters["ns_per_singleton"] = benchmark::Counter(
      static_cast<double>(singletons) *
          static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_Delay_AssignmentSizeSweep)
    ->DenseRange(4, 14, 2)
    ->Unit(benchmark::kMillisecond);

// (d) worst-case single-probe delay: one answer hidden at the bottom of a
// path tree; indexed vs. naive box enumeration.
template <BoxEnumMode mode>
void ProbeBench(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  Rng rng(kSeed);
  UnrankedTree t = PathTree(n, 1, rng);
  NodeId cur = t.root();
  while (!t.IsLeaf(cur)) cur = t.children(cur)[0];
  t.Relabel(cur, 2);
  t.Relabel(t.root(), 1);
  TreeEnumerator e(t, bench::StandardQuery(), mode);
  for (auto _ : state) {
    size_t got = bench::Drain(e);
    benchmark::DoNotOptimize(got);
  }
}
void BM_Delay_DeepProbe_Indexed(benchmark::State& state) {
  ProbeBench<BoxEnumMode::kIndexed>(state);
}
BENCHMARK(BM_Delay_DeepProbe_Indexed)
    ->Range(1024, 131072)
    ->Unit(benchmark::kMicrosecond);
void BM_Delay_DeepProbe_NoIndex(benchmark::State& state) {
  ProbeBench<BoxEnumMode::kNaive>(state);
}
BENCHMARK(BM_Delay_DeepProbe_NoIndex)
    ->Range(1024, 131072)
    ->Unit(benchmark::kMicrosecond);

// (e) restart probe, the read perfbench's tree_edits workload times: one
// relabel, then a fresh cursor from the public DynamicDocument::MakeCursorAt
// at a fresh pin and up to 8 answers. restart = cursor request to first
// answer; delay = the gap before each later answer.
void BM_Delay_RestartProbe(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const UnrankedTree t = bench::MakeTree(n);
  DynamicDocument doc(t, 3);
  const DynamicDocument::QueryHandle h = doc.Register(bench::StandardQuery());
  serving::CommandScript script(t, kSeed, serving::WorkloadOptions{3});
  LatencyHistogram restart;
  LatencyHistogram delay;
  Assignment a;
  size_t reads = 0;
  for (auto _ : state) {
    doc.ApplyEdit(script.NextRelabel());
    const uint64_t t0 = NowNs();
    std::unique_ptr<Engine::Cursor> cursor =
        doc.MakeCursorAt(doc.CurrentSnapshot(), h);
    uint64_t prev = t0;
    size_t got = 0;
    while (got < 8 && cursor->Next(&a)) {
      const uint64_t now = NowNs();
      (got == 0 ? restart : delay).Record(now - prev);
      prev = now;
      ++got;
    }
    // A short read must have drained the document (checked untimed).
    if (got < 8) {
      state.PauseTiming();
      const size_t all = doc.EnumerateAt(doc.CurrentSnapshot(), h).size();
      state.ResumeTiming();
      if (got < all) {
        state.SkipWithError(("probe read " + std::to_string(got) + " of " +
                             std::to_string(all) + " answers")
                                .c_str());
        break;
      }
    }
    ++reads;
  }
  const double restart_p50 = static_cast<double>(restart.Quantile(0.5));
  const double restart_p99 = static_cast<double>(restart.Quantile(0.99));
  const double delay_p50 = static_cast<double>(delay.Quantile(0.5));
  const double delay_p99 = static_cast<double>(delay.Quantile(0.99));
  state.counters["restart_p50_ns"] = restart_p50;
  state.counters["restart_p99_ns"] = restart_p99;
  state.counters["delay_p50_ns"] = delay_p50;
  state.counters["delay_p99_ns"] = delay_p99;
  bench::EmitJson("BM_Delay_RestartProbe",
                  {{"n", static_cast<double>(n)},
                   {"iterations", static_cast<double>(reads)},
                   {"restart_p50_ns", restart_p50},
                   {"restart_p99_ns", restart_p99},
                   {"delay_p50_ns", delay_p50},
                   {"delay_p99_ns", delay_p99}});
}
BENCHMARK(BM_Delay_RestartProbe)
    ->Arg(4096)
    ->Arg(32768)
    ->Arg(131072)
    ->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace treenum

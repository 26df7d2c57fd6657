// Experiment E1 — Table 1 of the paper, empirically.
//
// Rows (stand-ins for the state of the art):
//   Static      Bagan'06 / Kazana-Segoufin: constant delay, updates = full
//               re-preprocessing (O(n)).
//   NoIndex     enumeration without the §6 jump index: delay grows with the
//               circuit depth = O(log n) on balanced terms (the
//               Losemann-Martens / Niewerth'18 regime).
//   RelabelOnly Amarilli-Bourhis-Mengel'18: this paper's engine restricted
//               to relabeling updates.
//   ThisPaper   full engine: O(1)-delay (per answer), O(log n) updates of
//               all three kinds.
//
// The bench reports per-update time (…Update…) and per-answer delay
// (…Delay…) for each row across a size sweep; the *shape* (constant vs.
// logarithmic vs. linear growth) reproduces the table.
#include <benchmark/benchmark.h>

#include "baseline/static_engine.h"
#include "bench_util.h"

namespace treenum {
namespace {

using bench::kSeed;

// One relabel of the tree, then a full preprocessing run over the edited
// tree: the static engine's update.
void BM_Update_Static(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  UnrankedTree tree = bench::MakeTree(n);
  const UnrankedTva query = bench::StandardQuery();
  Rng rng(kSeed);
  std::vector<NodeId> nodes;
  for (auto _ : state) {
    state.PauseTiming();
    nodes = tree.PreorderNodes();
    NodeId target = nodes[rng.Index(nodes.size())];
    Label l = static_cast<Label>(rng.Index(3));
    state.ResumeTiming();
    tree.Relabel(target, l);
    StaticEngine engine(tree, query);
    benchmark::DoNotOptimize(engine);
  }
  state.SetLabel("Bagan06-staticrebuild");
}
BENCHMARK(BM_Update_Static)->Range(256, 16384)->Unit(benchmark::kMicrosecond);

template <BoxEnumMode mode>
void UpdateBench(benchmark::State& state, bool relabel_only,
                 const char* label) {
  size_t n = static_cast<size_t>(state.range(0));
  UnrankedTree tree = bench::MakeTree(n);
  TreeEnumerator engine(tree, bench::StandardQuery(), mode);
  serving::CommandScript script(tree, kSeed, serving::WorkloadOptions{3});
  for (auto _ : state) {
    engine.document().ApplyEdit(relabel_only ? script.NextRelabel()
                                             : script.NextEdit());
  }
  state.SetLabel(label);
}

void BM_Update_NoIndex(benchmark::State& state) {
  UpdateBench<BoxEnumMode::kNaive>(state, false, "Niewerth18-noindex");
}
BENCHMARK(BM_Update_NoIndex)->Range(256, 65536)->Unit(benchmark::kMicrosecond);

void BM_Update_RelabelOnly(benchmark::State& state) {
  UpdateBench<BoxEnumMode::kIndexed>(state, true, "ABM18-relabels");
}
BENCHMARK(BM_Update_RelabelOnly)
    ->Range(256, 65536)
    ->Unit(benchmark::kMicrosecond);

void BM_Update_ThisPaper(benchmark::State& state) {
  UpdateBench<BoxEnumMode::kIndexed>(state, false, "this-paper");
}
BENCHMARK(BM_Update_ThisPaper)
    ->Range(256, 65536)
    ->Unit(benchmark::kMicrosecond);

// ---- Delay rows: time per produced answer, with the answer count held at
// ~16 regardless of n (so totals are delay-dominated).

UnrankedTree DelayTree(size_t n) {
  // All-a random tree with 16 c-nodes under a b-spine: 16 answers for the
  // marked-ancestor query at any n.
  Rng rng(kSeed + 7 * n);
  UnrankedTree t = RandomTree(n, 1, rng);  // all labels = a
  NodeId spine = t.AppendChild(t.root(), 1);
  for (int i = 0; i < 16; ++i) t.AppendChild(spine, 2);
  return t;
}

template <BoxEnumMode mode>
void DelayBench(benchmark::State& state, const char* label) {
  size_t n = static_cast<size_t>(state.range(0));
  TreeEnumerator engine(DelayTree(n), bench::StandardQuery(), mode);
  size_t answers = 0;
  for (auto _ : state) {
    answers = bench::Drain(engine);
    benchmark::DoNotOptimize(answers);
  }
  state.SetLabel(label);
  state.counters["answers"] = static_cast<double>(answers);
  state.counters["ns_per_answer"] = benchmark::Counter(
      static_cast<double>(answers) * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}

void BM_Delay_ThisPaper(benchmark::State& state) {
  DelayBench<BoxEnumMode::kIndexed>(state, "this-paper");
}
BENCHMARK(BM_Delay_ThisPaper)->Range(256, 65536)->Unit(benchmark::kMicrosecond);

void BM_Delay_NoIndex(benchmark::State& state) {
  DelayBench<BoxEnumMode::kNaive>(state, "Niewerth18-noindex");
}
BENCHMARK(BM_Delay_NoIndex)->Range(256, 65536)->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace treenum

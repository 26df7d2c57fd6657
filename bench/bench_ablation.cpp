// Experiment E8 — ablations for the design choices in docs/ARCHITECTURE.md:
//  (a) bit-packed vs. naive relation composition (the O(w^ω) kernel of §6);
//  (b) ∪-chain jumping on adversarial path-shaped inputs (what the §6 index
//      buys over plain descent);
//  (c) homogenization blowup (the ×2 of Lemma 2.1 measured after trimming);
//  (d) rebalancing overhead in the update path (rebuild fraction under
//      different edit mixes).
#include <benchmark/benchmark.h>

#include "automata/homogenize.h"
#include "automata/translate.h"
#include "bench_util.h"
#include "util/bit_matrix.h"

namespace treenum {
namespace {

using bench::kSeed;

void BM_Ablation_ComposeBitPacked(benchmark::State& state) {
  size_t w = static_cast<size_t>(state.range(0));
  Rng rng(kSeed);
  BitMatrix a(w, w), b(w, w);
  for (size_t i = 0; i < w * w / 4 + 1; ++i) {
    a.Set(rng.Index(w), rng.Index(w));
    b.Set(rng.Index(w), rng.Index(w));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.Compose(b));
  }
}
BENCHMARK(BM_Ablation_ComposeBitPacked)->RangeMultiplier(2)->Range(8, 256);

void BM_Ablation_ComposeNaive(benchmark::State& state) {
  size_t w = static_cast<size_t>(state.range(0));
  Rng rng(kSeed);
  BitMatrix a(w, w), b(w, w);
  for (size_t i = 0; i < w * w / 4 + 1; ++i) {
    a.Set(rng.Index(w), rng.Index(w));
    b.Set(rng.Index(w), rng.Index(w));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(ComposeNaive(a, b));
  }
}
BENCHMARK(BM_Ablation_ComposeNaive)->RangeMultiplier(2)->Range(8, 256);

// (b) The ∪-chain jump: single deep answer in a path tree. The indexed
// cursor's probe cost is flat in n; plain descent pays the full depth.
template <BoxEnumMode mode>
void ChainBench(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  Rng rng(kSeed);
  UnrankedTree t = PathTree(n, 1, rng);
  NodeId cur = t.root();
  while (!t.IsLeaf(cur)) cur = t.children(cur)[0];
  t.Relabel(cur, 2);
  t.Relabel(t.root(), 1);
  TreeEnumerator e(t, bench::StandardQuery(), mode);
  for (auto _ : state) {
    benchmark::DoNotOptimize(bench::Drain(e));
  }
}
void BM_Ablation_ChainJump_Indexed(benchmark::State& state) {
  ChainBench<BoxEnumMode::kIndexed>(state);
}
BENCHMARK(BM_Ablation_ChainJump_Indexed)
    ->Range(4096, 262144)
    ->Unit(benchmark::kMicrosecond);
void BM_Ablation_ChainJump_Naive(benchmark::State& state) {
  ChainBench<BoxEnumMode::kNaive>(state);
}
BENCHMARK(BM_Ablation_ChainJump_Naive)
    ->Range(4096, 262144)
    ->Unit(benchmark::kMicrosecond);

// (c) Homogenization/trimming sizes across the query library.
void BM_Ablation_HomogenizationSize(benchmark::State& state) {
  size_t which = static_cast<size_t>(state.range(0));
  UnrankedTva q = which == 0   ? QuerySelectLabel(3, 1)
                  : which == 1 ? QueryMarkedAncestor(3, 1, 2)
                  : which == 2 ? QueryDescendantPairs(3, 0, 1)
                               : QueryAncestorAtDistance(3, 1, 4);
  size_t translated = 0, homogenized = 0;
  for (auto _ : state) {
    TranslatedTva tr = TranslateUnrankedTva(q);
    translated = tr.tva.num_states();
    HomogenizedTva h = HomogenizeBinaryTva(tr.tva);
    homogenized = h.tva.num_states();
  }
  state.counters["unranked_states"] = static_cast<double>(q.num_states());
  state.counters["translated_states"] = static_cast<double>(translated);
  state.counters["homogenized_states"] = static_cast<double>(homogenized);
}
BENCHMARK(BM_Ablation_HomogenizationSize)
    ->DenseRange(0, 3, 1)
    ->Unit(benchmark::kMicrosecond);

// (d) Rebuild overhead: insert-heavy vs. relabel-heavy edit streams.
void BM_Ablation_RebuildOverhead(benchmark::State& state) {
  bool insert_heavy = state.range(0) == 1;
  TreeEnumerator e(bench::MakeTree(8192), bench::StandardQuery());
  Rng rng(kSeed);
  size_t rebuilt = 0, updates = 0;
  for (auto _ : state) {
    std::vector<NodeId> nodes = e.tree().PreorderNodes();
    NodeId n = nodes[rng.Index(nodes.size())];
    UpdateStats s;
    if (insert_heavy) {
      s = e.InsertFirstChild(n, static_cast<Label>(rng.Index(3)));
    } else {
      s = e.Relabel(n, static_cast<Label>(rng.Index(3)));
    }
    rebuilt += s.rebuilt_size;
    ++updates;
  }
  state.counters["rebuilt_nodes_per_update"] =
      static_cast<double>(rebuilt) / static_cast<double>(updates);
  state.SetLabel(insert_heavy ? "insert-heavy" : "relabel-only");
}
BENCHMARK(BM_Ablation_RebuildOverhead)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace treenum

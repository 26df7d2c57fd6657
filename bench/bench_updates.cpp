// Experiment E4 — Theorem 8.1, updates: O(log n) per edit. Separate series
// per edit kind; the relabel series is worst-case logarithmic (pure path
// recomputation), the structural series are amortized (partial rebuilds,
// see docs/ARCHITECTURE.md §1) — the reported averages grow logarithmically.
#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "util/alloc_gauge.h"

namespace treenum {
namespace {

using bench::kSeed;

void BM_Update_Relabel(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  TreeEnumerator e(bench::MakeTree(n), bench::StandardQuery());
  Rng rng(kSeed);
  std::vector<NodeId> nodes = e.tree().PreorderNodes();
  for (auto _ : state) {
    NodeId target = nodes[rng.Index(nodes.size())];
    e.Relabel(target, static_cast<Label>(rng.Index(3)));
  }
}
BENCHMARK(BM_Update_Relabel)->Range(1024, 262144)->Unit(benchmark::kMicrosecond);

void BM_Update_InsertLeaf(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  TreeEnumerator e(bench::MakeTree(n), bench::StandardQuery());
  Rng rng(kSeed);
  // Insertion targets cycle through a fixed precomputed set so target
  // selection costs O(1) inside the timed region.
  std::vector<NodeId> targets = e.tree().PreorderNodes();
  size_t ti = 0;
  size_t rebuilds = 0;
  size_t rebuilt_nodes = 0;
  for (auto _ : state) {
    NodeId target = targets[ti++ % targets.size()];
    UpdateStats s =
        e.InsertFirstChild(target, static_cast<Label>(rng.Index(3)));
    rebuilds += s.rebuilt_size > 0;
    rebuilt_nodes += s.rebuilt_size;
  }
  state.counters["rebuild_fraction"] =
      static_cast<double>(rebuilds) / static_cast<double>(state.iterations());
  state.counters["rebuilt_nodes_per_update"] =
      static_cast<double>(rebuilt_nodes) /
      static_cast<double>(state.iterations());
}
BENCHMARK(BM_Update_InsertLeaf)
    ->Range(1024, 131072)
    ->Unit(benchmark::kMicrosecond);

void BM_Update_InsertDeleteCycle(benchmark::State& state) {
  // Insert then delete the same leaf: size stays constant, so the series is
  // clean of growth effects.
  size_t n = static_cast<size_t>(state.range(0));
  TreeEnumerator e(bench::MakeTree(n), bench::StandardQuery());
  Rng rng(kSeed);
  std::vector<NodeId> nodes = e.tree().PreorderNodes();
  for (auto _ : state) {
    NodeId target = nodes[rng.Index(nodes.size())];
    NodeId u;
    e.InsertFirstChild(target, 2, &u);
    e.DeleteLeaf(u);
  }
}
BENCHMARK(BM_Update_InsertDeleteCycle)
    ->Range(1024, 131072)
    ->Unit(benchmark::kMicrosecond);

void BM_Update_MixedStream(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  UnrankedTree tree = bench::MakeTree(n);
  TreeEnumerator e(tree, bench::StandardQuery());
  serving::CommandScript script(tree, kSeed, serving::WorkloadOptions{3});
  size_t boxes = 0;
  for (auto _ : state) {
    UpdateStats s = e.document().ApplyEdit(script.NextEdit());
    boxes += s.boxes_recomputed;
  }
  state.counters["boxes_per_update"] =
      static_cast<double>(boxes) / static_cast<double>(state.iterations());
}
BENCHMARK(BM_Update_MixedStream)
    ->Range(1024, 131072)
    ->Unit(benchmark::kMicrosecond);

// ---- Batched updates: k edits in one batch vs the same k edits applied
// one-by-one. The batch coalesces the changed_bottom_up sets, so shared
// root-path boxes are refreshed once per batch instead of once per edit;
// the win grows with k (until the batch covers the whole tree).
template <bool kBatched>
void UpdateScriptBench(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  size_t k = static_cast<size_t>(state.range(1));
  UnrankedTree tree = bench::MakeTree(n);
  TreeEnumerator e(tree, bench::StandardQuery());
  serving::CommandScript script(tree, kSeed, serving::WorkloadOptions{3});
  size_t boxes = 0;
  for (auto _ : state) {
    if (kBatched) e.BeginBatch();
    for (size_t i = 0; i < k; ++i) {
      boxes += e.document().ApplyEdit(script.NextEdit()).boxes_recomputed;
    }
    if (kBatched) boxes += e.CommitBatch().boxes_recomputed;
  }
  double per_edit_boxes = static_cast<double>(boxes) /
                          static_cast<double>(state.iterations() * k);
  state.counters["boxes_per_edit"] = per_edit_boxes;
  state.counters["edits_per_batch"] = static_cast<double>(k);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * k));
  bench::EmitJson(kBatched ? "update_batched" : "update_sequential",
                  {{"n", static_cast<double>(n)},
                   {"k", static_cast<double>(k)},
                   {"boxes_per_edit", per_edit_boxes},
                   {"iterations", static_cast<double>(state.iterations())}});
}

void BM_Update_SequentialEdits(benchmark::State& state) {
  UpdateScriptBench<false>(state);
}
BENCHMARK(BM_Update_SequentialEdits)
    ->Args({131072, 16})
    ->Args({131072, 64})
    ->Args({131072, 256})
    ->Unit(benchmark::kMicrosecond);

void BM_Update_BatchedEdits(benchmark::State& state) {
  UpdateScriptBench<true>(state);
}
BENCHMARK(BM_Update_BatchedEdits)
    ->Args({131072, 16})
    ->Args({131072, 64})
    ->Args({131072, 256})
    ->Unit(benchmark::kMicrosecond);

// ---- Relabel-heavy scripts: relabels are the paper's cheapest update
// (pure O(log n) path recomputation, no rebalancing) and the steady-state
// showcase for the arena/CSR storage — after warmup, a relabel's circuit
// *and* jump-index refresh reuse their pool spans in place, so the indexed
// and _NoIndex series are both allocation-free in steady state.
// allocs_per_edit reports the remaining whole-engine heap traffic via the
// allocation gauge (first-touch pool growth only; decays towards 0 as the
// script revisits configurations).
template <bool kBatched>
void RelabelScriptBench(benchmark::State& state, BoxEnumMode mode) {
  size_t n = static_cast<size_t>(state.range(0));
  size_t k = static_cast<size_t>(state.range(1));
  UnrankedTree tree = bench::MakeTree(n);
  TreeEnumerator e(tree, bench::StandardQuery(), mode);
  serving::CommandScript script(tree, kSeed, serving::WorkloadOptions{3});
  // Untimed warmup pass: sizes the arena spans touched by the script.
  for (size_t i = 0; i < k; ++i) e.document().ApplyEdit(script.NextRelabel());
  size_t boxes = 0;
  AllocGaugeScope gauge;
  // Snapshot-layer cost: spine nodes path-copied per edit (the published
  // snapshot pins the root, so every edit copies its O(log n) spine) and
  // node versions recycled through the term's free list.
  uint64_t copies0 = e.term().path_copies();
  uint64_t recycled0 = e.term().nodes_recycled();
  for (auto _ : state) {
    if (kBatched) e.BeginBatch();
    for (size_t i = 0; i < k; ++i) {
      boxes += e.document().ApplyEdit(script.NextRelabel()).boxes_recomputed;
    }
    if (kBatched) boxes += e.CommitBatch().boxes_recomputed;
  }
  size_t edits = state.iterations() * k;
  double per_edit_boxes =
      static_cast<double>(boxes) / static_cast<double>(edits);
  double allocs_per_edit =
      static_cast<double>(gauge.allocs()) / static_cast<double>(edits);
  double copies_per_edit =
      static_cast<double>(e.term().path_copies() - copies0) /
      static_cast<double>(edits);
  double nodes_recycled =
      static_cast<double>(e.term().nodes_recycled() - recycled0);
  state.counters["boxes_per_edit"] = per_edit_boxes;
  state.counters["allocs_per_edit"] = allocs_per_edit;
  state.counters["path_copies_per_edit"] = copies_per_edit;
  state.counters["nodes_recycled"] = nodes_recycled;
  state.SetItemsProcessed(static_cast<int64_t>(edits));
  bool indexed = mode == BoxEnumMode::kIndexed;
  const char* name =
      kBatched ? (indexed ? "relabel_batched" : "relabel_batched_noindex")
               : (indexed ? "relabel_sequential"
                          : "relabel_sequential_noindex");
  bench::EmitJson(name,
                  {{"n", static_cast<double>(n)},
                   {"k", static_cast<double>(k)},
                   {"indexed", indexed ? 1.0 : 0.0},
                   {"boxes_per_edit", per_edit_boxes},
                   {"allocs_per_edit", allocs_per_edit},
                   {"path_copies_per_edit", copies_per_edit},
                   {"nodes_recycled", nodes_recycled},
                   {"iterations", static_cast<double>(state.iterations())}});
}

void BM_Update_SequentialRelabels(benchmark::State& state) {
  RelabelScriptBench<false>(state, BoxEnumMode::kIndexed);
}
BENCHMARK(BM_Update_SequentialRelabels)
    ->Args({131072, 256})
    ->Args({262144, 256})
    ->Unit(benchmark::kMicrosecond);

void BM_Update_BatchedRelabels(benchmark::State& state) {
  RelabelScriptBench<true>(state, BoxEnumMode::kIndexed);
}
BENCHMARK(BM_Update_BatchedRelabels)
    ->Args({131072, 256})
    ->Args({262144, 256})
    ->Unit(benchmark::kMicrosecond);

void BM_Update_SequentialRelabels_NoIndex(benchmark::State& state) {
  RelabelScriptBench<false>(state, BoxEnumMode::kNaive);
}
BENCHMARK(BM_Update_SequentialRelabels_NoIndex)
    ->Args({131072, 256})
    ->Args({262144, 256})
    ->Unit(benchmark::kMicrosecond);

void BM_Update_BatchedRelabels_NoIndex(benchmark::State& state) {
  RelabelScriptBench<true>(state, BoxEnumMode::kNaive);
}
BENCHMARK(BM_Update_BatchedRelabels_NoIndex)
    ->Args({131072, 256})
    ->Args({262144, 256})
    ->Unit(benchmark::kMicrosecond);

void BM_Update_AdversarialPathGrowth(benchmark::State& state) {
  // Always extend the deepest node: maximal rebalancing pressure.
  TreeEnumerator e(UnrankedTree(0), bench::StandardQuery());
  NodeId cur = e.tree().root();
  size_t rebuilt_nodes = 0;
  for (auto _ : state) {
    NodeId u;
    UpdateStats s = e.InsertFirstChild(cur, 0, &u);
    rebuilt_nodes += s.rebuilt_size;
    cur = u;
  }
  state.counters["rebuilt_nodes_per_update"] =
      static_cast<double>(rebuilt_nodes) /
      static_cast<double>(state.iterations());
}
BENCHMARK(BM_Update_AdversarialPathGrowth)->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace treenum

// Shared-document multi-query serving (core/document.h): two costs as a
// function of the number of registered queries Q.
//
//   1. Per-edit maintenance: one DynamicDocument with Q registered queries
//      pays the O(log n) balanced-term encoding maintenance once per edit
//      and only fans the changed path out per query, vs. Q independent
//      TreeEnumerators that each re-do the encoding half (and, on
//      rebalances, the full subterm rebuild) — the `multiquery_shared` /
//      `multiquery_independent` series.
//   2. Registry dedupe: the same query registered Q times collapses onto
//      one refcounted pipeline, so per-edit cost tracks *distinct* queries
//      — the `multiquery_dedupe` series (flat in Q).
//   3. Batched-commit wall time: the merged changed-box set is computed
//      once and each query's pipeline refreshes it in turn — the
//      `multiquery_commit` series at Q = 8 and Q = 4.
//   4. Warm-start registration: a 10-query library registered through a
//      fresh compiled-plan cache vs. through one restored from a cache
//      image — the `serving_warmstart` series.
#include <benchmark/benchmark.h>

#include <chrono>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "automata/query_cache.h"
#include "bench_util.h"
#include "core/document.h"

namespace treenum {
namespace {

using bench::kSeed;

// A mix of library queries over the shared 3-label alphabet, so registered
// pipelines have different widths. All 8 are pairwise
// distinct automata: the document's registry dedupes identical queries to
// one pipeline, so repeating a query here would silently shrink the
// shared-document workload and skew the shared-vs-independent comparison
// (the dedupe effect itself is measured by the dedupe series below).
UnrankedTva QueryAt(size_t i) {
  switch (i % 8) {
    case 0:
      return QueryMarkedAncestor(3, 1, 2);
    case 1:
      return QuerySelectLabel(3, 1);
    case 2:
      return QueryChildOfLabel(3, 0, 2);
    case 3:
      return QueryDescendantPairs(3, 0, 1);
    case 4:
      return QueryMarkedAncestor(3, 2, 1);
    case 5:
      return QuerySelectLabel(3, 2);
    case 6:
      return QueryChildOfLabel(3, 1, 0);
    default:
      return QueryDescendantPairs(3, 2, 0);
  }
}

// ---- 1. Per-edit maintenance vs. Q ----

void BM_MultiQuery_IndependentEngines(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  size_t q = static_cast<size_t>(state.range(1));
  UnrankedTree tree = bench::MakeTree(n);
  std::vector<std::unique_ptr<TreeEnumerator>> engines;
  for (size_t i = 0; i < q; ++i) {
    engines.push_back(std::make_unique<TreeEnumerator>(tree, QueryAt(i)));
  }
  serving::CommandScript script(tree, kSeed, serving::WorkloadOptions{3});
  double total_us = 0;
  size_t edits = 0;
  for (auto _ : state) {
    Edit e = script.NextEdit();
    auto t0 = std::chrono::steady_clock::now();
    for (auto& engine : engines) engine->document().ApplyEdit(e);
    total_us += std::chrono::duration<double, std::micro>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
    ++edits;
  }
  state.counters["queries"] = static_cast<double>(q);
  bench::EmitJson("multiquery_independent",
                  {{"n", static_cast<double>(n)},
                   {"q", static_cast<double>(q)},
                   {"us_per_edit", edits ? total_us / edits : 0.0},
                   {"iterations", static_cast<double>(state.iterations())}});
}
BENCHMARK(BM_MultiQuery_IndependentEngines)
    ->Args({131072, 1})
    ->Args({131072, 2})
    ->Args({131072, 4})
    ->Args({131072, 8})
    ->Unit(benchmark::kMicrosecond);

void BM_MultiQuery_SharedDocument(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  size_t q = static_cast<size_t>(state.range(1));
  UnrankedTree tree = bench::MakeTree(n);
  DynamicDocument doc(tree, 3);
  for (size_t i = 0; i < q; ++i) doc.Register(QueryAt(i));
  serving::CommandScript script(tree, kSeed, serving::WorkloadOptions{3});
  double total_us = 0;
  size_t edits = 0;
  for (auto _ : state) {
    Edit e = script.NextEdit();
    auto t0 = std::chrono::steady_clock::now();
    doc.ApplyEdit(e);
    total_us += std::chrono::duration<double, std::micro>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
    ++edits;
  }
  state.counters["queries"] = static_cast<double>(q);
  bench::EmitJson("multiquery_shared",
                  {{"n", static_cast<double>(n)},
                   {"q", static_cast<double>(q)},
                   {"us_per_edit", edits ? total_us / edits : 0.0},
                   {"iterations", static_cast<double>(state.iterations())}});
}
BENCHMARK(BM_MultiQuery_SharedDocument)
    ->Args({131072, 1})
    ->Args({131072, 2})
    ->Args({131072, 4})
    ->Args({131072, 8})
    ->Unit(benchmark::kMicrosecond);

// ---- 2. Duplicate-heavy registration (registry dedupe) ----
//
// The same query registered Q times: the registry canonicalizes and maps
// every registration onto one refcounted pipeline, so per-edit refresh
// cost scales with the number of *distinct* queries (1 here), not with
// the number of registrations — the `multiquery_dedupe` series should be
// flat in Q (compare with `multiquery_shared`, where the Q queries are
// distinct, and `multiquery_independent`, where each registration is a
// whole engine).
void BM_MultiQuery_DuplicateQueries(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  size_t q = static_cast<size_t>(state.range(1));
  UnrankedTree tree = bench::MakeTree(n);
  DynamicDocument doc(tree, 3);
  for (size_t i = 0; i < q; ++i) doc.Register(bench::StandardQuery());
  serving::CommandScript script(tree, kSeed, serving::WorkloadOptions{3});
  double total_us = 0;
  size_t edits = 0;
  for (auto _ : state) {
    Edit e = script.NextEdit();
    auto t0 = std::chrono::steady_clock::now();
    doc.ApplyEdit(e);
    total_us += std::chrono::duration<double, std::micro>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
    ++edits;
  }
  state.counters["queries"] = static_cast<double>(q);
  state.counters["distinct"] = static_cast<double>(doc.num_pipelines());
  bench::EmitJson("multiquery_dedupe",
                  {{"n", static_cast<double>(n)},
                   {"q", static_cast<double>(q)},
                   {"distinct", static_cast<double>(doc.num_pipelines())},
                   {"us_per_edit", edits ? total_us / edits : 0.0},
                   {"iterations", static_cast<double>(state.iterations())}});
}
BENCHMARK(BM_MultiQuery_DuplicateQueries)
    ->Args({131072, 1})
    ->Args({131072, 2})
    ->Args({131072, 4})
    ->Args({131072, 8})
    ->Unit(benchmark::kMicrosecond);

// ---- 3. Batched commits ----

void BM_MultiQuery_BatchedCommit(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  size_t q = static_cast<size_t>(state.range(1));
  constexpr size_t kBatch = 256;

  UnrankedTree tree = bench::MakeTree(n);
  DynamicDocument doc(tree, 3);
  for (size_t i = 0; i < q; ++i) doc.Register(QueryAt(i));
  serving::CommandScript script(tree, kSeed, serving::WorkloadOptions{3});
  // Warm the arena spans so the measured commits are refresh-dominated.
  doc.BeginBatch();
  for (size_t i = 0; i < kBatch; ++i) doc.ApplyEdit(script.NextRelabel());
  doc.CommitBatch();

  double commit_us = 0;
  size_t commits = 0;
  for (auto _ : state) {
    doc.BeginBatch();
    for (size_t i = 0; i < kBatch; ++i) doc.ApplyEdit(script.NextRelabel());
    auto t0 = std::chrono::steady_clock::now();
    doc.CommitBatch();
    commit_us += std::chrono::duration<double, std::micro>(
                     std::chrono::steady_clock::now() - t0)
                     .count();
    ++commits;
  }
  state.counters["queries"] = static_cast<double>(q);
  state.counters["us_per_commit"] = commits ? commit_us / commits : 0.0;
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * kBatch));
  bench::EmitJson("multiquery_commit",
                  {{"n", static_cast<double>(n)},
                   {"q", static_cast<double>(q)},
                   {"k", static_cast<double>(kBatch)},
                   {"us_per_commit", commits ? commit_us / commits : 0.0},
                   {"iterations", static_cast<double>(state.iterations())}});
}
BENCHMARK(BM_MultiQuery_BatchedCommit)
    ->Args({131072, 8})
    ->Args({131072, 4})
    ->Unit(benchmark::kMillisecond);

// ---- 4. Warm-start registration ----
//
// Cold: the whole library registered on a fresh document through a fresh
// QueryCache — each registration pays translation, determinization,
// homogenization and canonicalization before the pipeline is built. The
// cache image is then serialized (SaveCache) and restored into a second
// cache (WarmStart); re-registering the same library on a new document pays
// only the pipeline build. The cold/warm ratio is the restart-time win a
// server gets from shipping its compiled-plan cache. The row fails when the
// restore admits fewer plans than the library holds or a warm registration
// still translates a query.
std::vector<UnrankedTva> WarmStartLibrary() {
  std::vector<UnrankedTva> library;
  library.push_back(QuerySelectLabel(3, 1));
  library.push_back(QuerySelectAll(3));
  library.push_back(QueryMarkedAncestor(3, 1, 2));
  library.push_back(QueryDescendantPairs(3, 0, 1));
  library.push_back(QueryContainsLabel(3, 2));
  library.push_back(QueryAnySubsetOfLabel(3, 0));
  // Compile cost grows exponentially with the distance k while the
  // per-document pipeline cost only tracks the final automaton, so this
  // query dominates the cold leg — exactly the plan a warm start saves.
  library.push_back(QueryAncestorAtDistance(3, 1, 6));
  library.push_back(QueryChildOfLabel(3, 0, 2));
  library.push_back(QuerySelectLeaves(3));
  library.push_back(QueryNextSibling(3, 1, 0));
  return library;
}

/// Registers every query of `library` on a fresh document over `tree`
/// through `cache`; returns the registration time in microseconds.
double RegisterAllUs(const UnrankedTree& tree,
                     const std::vector<UnrankedTva>& library,
                     QueryCache* cache) {
  DynamicDocument doc(tree, 3, cache);
  auto t0 = std::chrono::steady_clock::now();
  for (const UnrankedTva& q : library) doc.Register(q);
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

void BM_MultiQuery_WarmStart(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const std::vector<UnrankedTva> library = WarmStartLibrary();
  Rng rng(kSeed + 31);
  const UnrankedTree tree = RandomTree(n, 3, rng);
  double cold_us = 0;
  double warm_us = 0;
  size_t image_bytes = 0;
  size_t rounds = 0;
  for (auto _ : state) {
    QueryCache cold_cache;
    cold_us += RegisterAllUs(tree, library, &cold_cache);
    std::stringstream image(std::ios::in | std::ios::out | std::ios::binary);
    if (!cold_cache.SaveCache(image)) {
      state.SkipWithError("SaveCache failed");
      break;
    }
    image_bytes = image.str().size();
    QueryCache warm_cache;
    std::string error;
    const size_t admitted = warm_cache.WarmStart(image, &error);
    if (admitted != library.size()) {
      state.SkipWithError(("WarmStart admitted " + std::to_string(admitted) +
                           " of " + std::to_string(library.size()) +
                           " plans: " + error)
                              .c_str());
      break;
    }
    warm_us += RegisterAllUs(tree, library, &warm_cache);
    if (warm_cache.stats().translations != 0) {
      state.SkipWithError("a warm registration translated its query");
      break;
    }
    ++rounds;
  }
  if (rounds == 0) return;
  const double speedup = warm_us > 0 ? cold_us / warm_us : 0.0;
  state.counters["queries"] = static_cast<double>(library.size());
  state.counters["cold_register_us"] = cold_us / rounds;
  state.counters["warm_register_us"] = warm_us / rounds;
  state.counters["speedup"] = speedup;
  state.counters["image_bytes"] = static_cast<double>(image_bytes);
  bench::EmitJson("serving_warmstart",
                  {{"doc_size", static_cast<double>(n)},
                   {"queries", static_cast<double>(library.size())},
                   {"cold_register_us", cold_us / rounds},
                   {"warm_register_us", warm_us / rounds},
                   {"speedup", speedup},
                   {"image_bytes", static_cast<double>(image_bytes)},
                   {"iterations", static_cast<double>(state.iterations())}});
}
BENCHMARK(BM_MultiQuery_WarmStart)->Arg(32)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace treenum

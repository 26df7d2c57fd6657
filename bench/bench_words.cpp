// Experiment E6 — Theorem 8.5: document spanners on dynamic words.
// Preprocessing linear in |w|, updates worst-case O(log |w|) (genuine AVL
// rebalancing, Corollary 8.4), delay independent of |w|.
#include <benchmark/benchmark.h>

#include "automata/regex_spanner.h"
#include "core/word_enumerator.h"
#include "util/random.h"

namespace treenum {
namespace {

constexpr uint64_t kSeed = 0x5EED;

Word RandomText(size_t n, size_t alphabet) {
  Rng rng(kSeed + n);
  Word w;
  w.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    w.push_back(static_cast<Label>(rng.Index(alphabet)));
  }
  return w;
}

Wva Spanner() {
  // b positions immediately followed by at least one c.
  return CompileRegexSpanner(".*<0:b>c+.*|.*<0:b>c+", 3, 1);
}

void BM_Words_Preprocess(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  Word w = RandomText(n, 3);
  Wva q = Spanner();
  for (auto _ : state) {
    WordEnumerator e(w, q);
    benchmark::DoNotOptimize(e.width());
  }
  state.counters["ns_per_char"] = benchmark::Counter(
      static_cast<double>(n) * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_Words_Preprocess)
    ->Range(1024, 262144)
    ->Unit(benchmark::kMillisecond);

void BM_Words_Update(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  WordEnumerator e(RandomText(n, 3), Spanner());
  Rng rng(kSeed);
  for (auto _ : state) {
    switch (rng.Index(3)) {
      case 0:
        e.Insert(rng.Index(e.size() + 1),
                 static_cast<Label>(rng.Index(3)));
        break;
      case 1:
        if (e.size() > 1) e.Erase(rng.Index(e.size()));
        break;
      default:
        e.Replace(rng.Index(e.size()),
                  static_cast<Label>(rng.Index(3)));
        break;
    }
  }
}
BENCHMARK(BM_Words_Update)->Range(1024, 262144)->Unit(benchmark::kMicrosecond);

void BM_Words_BulkMove(benchmark::State& state) {
  // The "move part of the text" bulk update (paper conclusion, future
  // work): AVL split/join, O(log n) per move regardless of factor length.
  size_t n = static_cast<size_t>(state.range(0));
  WordEnumerator e(RandomText(n, 3), Spanner());
  Rng rng(kSeed);
  for (auto _ : state) {
    size_t sz = e.size();
    size_t begin = rng.Index(sz - 1);
    size_t end = begin + 1 + rng.Index(sz - begin - 1);
    size_t dst = rng.Index(sz - (end - begin) + 1);
    e.MoveRange(begin, end, dst);
  }
}
BENCHMARK(BM_Words_BulkMove)->Range(1024, 262144)->Unit(benchmark::kMicrosecond);

void BM_Words_EnumeratePerMatch(benchmark::State& state) {
  // Fixed ~32 matches embedded in growing all-'a' text.
  size_t n = static_cast<size_t>(state.range(0));
  Word w(n, 0);
  for (size_t i = 0; i < 32; ++i) {
    size_t pos = (i + 1) * n / 34;
    w[pos] = 1;
    w[pos + 1] = 2;
  }
  WordEnumerator e(w, Spanner());
  size_t matches = 0;
  for (auto _ : state) {
    matches = e.EnumerateAll().size();
  }
  state.counters["matches"] = static_cast<double>(matches);
  state.counters["ns_per_match"] = benchmark::Counter(
      static_cast<double>(matches) * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_Words_EnumeratePerMatch)
    ->Range(1024, 131072)
    ->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace treenum

// Experiment E10 — structural transactions: one join-based SubtreeMove (or
// word split/join MoveRange) versus replaying the same move as individual
// leaf edits, at n = 131072 and subtree/range sizes m in {16, 256, 4096}.
// The transaction re-encodes the covering region once and rebuilds each
// surviving box once (one EnumerationPipeline::Apply), so it must beat the
// 2m-edit replay — the acceptance bar is a >= 5x speedup at m = 4096,
// pinned in BENCH_structural.json together with the steady-state
// allocs_per_txn gauge (0 once warm; this binary links
// treenum_alloc_gauge).
#include <benchmark/benchmark.h>

#include <chrono>
#include <vector>

#include "bench_util.h"
#include "core/document.h"
#include "util/alloc_gauge.h"

namespace treenum {
namespace {

constexpr size_t kDocSize = 131072;

// Tree document with two anchors under the root and one movable "broom"
// subtree of exactly m nodes (a root with m - 1 leaf children — the region
// re-encode cost depends on m, not the subtree's shape, and the flat shape
// makes the leaf-edit replay straightforward).
struct MoveSetup {
  explicit MoveSetup(size_t m) : doc(bench::MakeTree(kDocSize), 3) {
    h = doc.Register(bench::StandardQuery());
    NodeId root = doc.tree().root();
    bench::MustApply(doc, Command::InsertFirstChild(root, 0, &a));
    bench::MustApply(doc, Command::InsertFirstChild(root, 0, &b));
    bench::MustApply(doc, Command::InsertFirstChild(a, 1, &v));
    for (size_t i = 1; i < m; ++i) {
      const Label l = static_cast<Label>(2 - (i & 1));
      bench::MustApply(doc, Command::InsertFirstChild(v, l));
    }
  }

  // One transaction: ping-pong the subtree between the anchors.
  void MoveOnce(int parity) {
    bench::MustApply(doc, Command::SubtreeMove(v, parity ? b : a));
  }

  // The same move replayed as leaf edits: delete the broom leaf by leaf,
  // then rebuild it node by node under the other anchor (2m edits).
  void ReplayOnce(int parity) {
    std::vector<Label> labels;
    labels.reserve(doc.tree().children(v).size());
    while (!doc.tree().children(v).empty()) {
      NodeId c = doc.tree().children(v).back();
      labels.push_back(doc.tree().label(c));
      bench::MustApply(doc, Command::DeleteLeaf(c));
    }
    Label lv = doc.tree().label(v);
    bench::MustApply(doc, Command::DeleteLeaf(v));
    bench::MustApply(doc, Command::InsertFirstChild(parity ? b : a, lv, &v));
    for (size_t i = labels.size(); i-- > 0;) {
      bench::MustApply(doc, Command::InsertFirstChild(v, labels[i]));
    }
  }

  DynamicDocument doc;
  DynamicDocument::QueryHandle h;
  NodeId a = kNoNode, b = kNoNode, v = kNoNode;
};

// Timed SubtreeMove transactions with the allocation gauge: after warmup
// the whole path (detach, region re-encode, rebalance, coalesced box
// rebuild, publish) must be allocation-free.
void BM_Structural_SubtreeMove(benchmark::State& state) {
  size_t m = static_cast<size_t>(state.range(0));
  MoveSetup s(m);
  int parity = 0;
  for (int i = 0; i < 8; ++i) s.MoveOnce(parity ^= 1);  // warm scratch/pools
  AllocGaugeScope gauge;
  for (auto _ : state) {
    s.MoveOnce(parity ^= 1);
  }
  size_t txns = state.iterations();
  double allocs_per_txn =
      static_cast<double>(gauge.allocs()) / static_cast<double>(txns);
  state.counters["allocs_per_txn"] = allocs_per_txn;
  state.SetItemsProcessed(static_cast<int64_t>(txns));
  bench::EmitJson("structural_subtree_move",
                  {{"n", static_cast<double>(kDocSize)},
                   {"m", static_cast<double>(m)},
                   {"allocs_per_txn", allocs_per_txn},
                   {"iterations", static_cast<double>(txns)}});
}
BENCHMARK(BM_Structural_SubtreeMove)
    ->Arg(16)
    ->Arg(256)
    ->Arg(4096)
    ->Unit(benchmark::kMicrosecond);

// Head-to-head on one document instance: k transactions vs k replays,
// manually timed so one JSON record carries the speedup the acceptance
// criteria pin (>= 5x at m = 4096).
void BM_Structural_SubtreeMoveVsReplay(benchmark::State& state) {
  size_t m = static_cast<size_t>(state.range(0));
  MoveSetup s(m);
  int parity = 0;
  for (int i = 0; i < 4; ++i) s.MoveOnce(parity ^= 1);
  const int kMoves = m >= 4096 ? 8 : 32;
  const int kReplays = m >= 4096 ? 2 : 8;
  using Clock = std::chrono::steady_clock;
  double us_move = 0, us_replay = 0;
  for (auto _ : state) {
    auto t0 = Clock::now();
    for (int i = 0; i < kMoves; ++i) s.MoveOnce(parity ^= 1);
    auto t1 = Clock::now();
    for (int i = 0; i < kReplays; ++i) s.ReplayOnce(parity ^= 1);
    auto t2 = Clock::now();
    us_move = std::chrono::duration<double, std::micro>(t1 - t0).count() /
              kMoves;
    us_replay = std::chrono::duration<double, std::micro>(t2 - t1).count() /
                kReplays;
  }
  double speedup = us_move > 0 ? us_replay / us_move : 0;
  state.counters["us_per_move"] = us_move;
  state.counters["us_per_replay"] = us_replay;
  state.counters["speedup"] = speedup;
  bench::EmitJson("structural_move_vs_replay",
                  {{"n", static_cast<double>(kDocSize)},
                   {"m", static_cast<double>(m)},
                   {"us_per_move", us_move},
                   {"us_per_replay", us_replay},
                   {"speedup", speedup}});
}
BENCHMARK(BM_Structural_SubtreeMoveVsReplay)
    ->Arg(16)
    ->Arg(256)
    ->Arg(4096)
    ->Unit(benchmark::kMicrosecond)
    ->Iterations(1);

// Word counterpart: AVL split/join MoveRange vs moving the same factor one
// letter at a time (2m edits), on a 131072-letter document with a spanner
// selecting every b position.
void BM_Structural_WordMoveVsReplay(benchmark::State& state) {
  size_t m = static_cast<size_t>(state.range(0));
  // a*<x:b>(a|b)* — select every b position.
  Wva select_b(2, 2, 1);
  select_b.AddInitial(0);
  select_b.AddTransition(0, 0, 0, 0);
  select_b.AddTransition(0, 1, 0, 0);
  select_b.AddTransition(0, 1, 1, 1);
  select_b.AddTransition(1, 0, 0, 1);
  select_b.AddTransition(1, 1, 0, 1);
  select_b.AddFinal(1);

  Rng rng(bench::kSeed);
  Word w;
  w.reserve(kDocSize);
  for (size_t i = 0; i < kDocSize; ++i) {
    w.push_back(static_cast<Label>(rng.Index(2)));
  }
  DynamicDocument doc(w, 2);
  doc.Register(select_b);

  size_t n = doc.word_encoding().size();
  auto move_once = [&](int parity) {
    if (parity) {
      // The front block to the back...
      bench::MustApply(doc, Command::MoveRange(0, m, n - m));
    } else {
      // ...and back again.
      bench::MustApply(doc, Command::MoveRange(n - m, n, 0));
    }
  };
  auto replay_once = [&](int parity) {
    for (size_t i = 0; i < m; ++i) {
      if (parity) {
        Label l = doc.word_encoding().LetterAt(0);
        bench::MustApply(doc, Command::Erase(0));
        const size_t end = doc.word_encoding().size();
        bench::MustApply(doc, Command::Insert(end, l));
      } else {
        Label l = doc.word_encoding().LetterAt(doc.word_encoding().size() - 1);
        bench::MustApply(doc, Command::Erase(doc.word_encoding().size() - 1));
        bench::MustApply(doc, Command::Insert(0, l));
      }
    }
  };

  int parity = 0;
  for (int i = 0; i < 4; ++i) move_once(parity ^= 1);
  const int kMoves = 32;
  const int kReplays = m >= 4096 ? 2 : 8;
  using Clock = std::chrono::steady_clock;
  double us_move = 0, us_replay = 0;
  for (auto _ : state) {
    auto t0 = Clock::now();
    for (int i = 0; i < kMoves; ++i) move_once(parity ^= 1);
    auto t1 = Clock::now();
    for (int i = 0; i < kReplays; ++i) replay_once(parity ^= 1);
    auto t2 = Clock::now();
    us_move = std::chrono::duration<double, std::micro>(t1 - t0).count() /
              kMoves;
    us_replay = std::chrono::duration<double, std::micro>(t2 - t1).count() /
                kReplays;
  }
  double speedup = us_move > 0 ? us_replay / us_move : 0;
  state.counters["us_per_move"] = us_move;
  state.counters["us_per_replay"] = us_replay;
  state.counters["speedup"] = speedup;
  bench::EmitJson("structural_word_move_vs_replay",
                  {{"n", static_cast<double>(kDocSize)},
                   {"m", static_cast<double>(m)},
                   {"us_per_move", us_move},
                   {"us_per_replay", us_replay},
                   {"speedup", speedup}});
}
BENCHMARK(BM_Structural_WordMoveVsReplay)
    ->Arg(16)
    ->Arg(256)
    ->Arg(4096)
    ->Unit(benchmark::kMicrosecond)
    ->Iterations(1);

}  // namespace
}  // namespace treenum

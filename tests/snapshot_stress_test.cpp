// Concurrency stress for the copy-on-write snapshot layer: one writer
// thread streams batched edits while reader threads pin snapshots and
// enumerate, checking every answer set against per-version oracles
// precomputed by replaying the same edit script single-threaded. Run
// under TSan in CI (the debug-tsan job) — the interesting assertions here
// are the ones the sanitizer makes, not just the EXPECTs.
//
// Version bookkeeping: the document constructor publishes epoch 0 and
// each batch commit publishes the next epoch, so a pinned snapshot's
// epoch() indexes the expected-answers table directly.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <string>
#include <thread>
#include <vector>

#include "automata/query_library.h"
#include "automata/regex_spanner.h"
#include "baseline/static_engine.h"
#include "core/document.h"
#include "core/word_enumerator.h"
#include "test_util.h"

namespace treenum {
namespace {

constexpr int kReaders = 4;
constexpr size_t kMinIterations = 10;  // per reader before the writer stops

Wva SomeBPosition() {
  // a*<x:b>(a|b)* — select every b position.
  Wva a(2, 2, 1);
  a.AddInitial(0);
  a.AddTransition(0, 0, 0, 0);
  a.AddTransition(0, 1, 0, 0);
  a.AddTransition(0, 1, 1, 1);
  a.AddTransition(1, 0, 0, 1);
  a.AddTransition(1, 1, 0, 1);
  a.AddFinal(1);
  return a;
}

// Readers loop {pin, enumerate, compare against expected[epoch]} until the
// writer signals done; mismatches are counted (not EXPECTed — gtest
// assertions are not thread-safe) and reported after the join. Reader 0
// additionally re-verifies a version-0 pin every iteration (time travel
// under write pressure).
struct ReaderState {
  std::atomic<bool> done{false};
  std::atomic<size_t> iterations{0};
  std::atomic<size_t> mismatches{0};
};

TEST(SnapshotStress, TreeReadersRaceBatchedWriter) {
  Rng rng(201);
  UnrankedTree tree = RandomTree(40, 3, rng);
  const UnrankedTva q1 = QuerySelectLabel(3, 1);
  const UnrankedTva q2 = QueryMarkedAncestor(3, 1, 2);

  // Precompute the edit script and the per-version answer tables.
  constexpr int kBatches = 60;
  constexpr int kBatchSize = 4;
  serving::CommandScript script(tree, 3001, serving::WorkloadOptions{3});
  std::vector<std::vector<Edit>> batches;
  std::vector<std::vector<Assignment>> expected1, expected2;
  expected1.push_back(StaticEngine(tree, q1).EnumerateAll());
  expected2.push_back(StaticEngine(tree, q2).EnumerateAll());
  for (int j = 0; j < kBatches; ++j) {
    std::vector<Edit> batch;
    for (int i = 0; i < kBatchSize; ++i) batch.push_back(script.NextEdit());
    expected1.push_back(StaticEngine(script.mirror(), q1).EnumerateAll());
    expected2.push_back(StaticEngine(script.mirror(), q2).EnumerateAll());
    batches.push_back(std::move(batch));
  }

  DynamicDocument doc(tree, 3);
  DynamicDocument::QueryHandle h1 = doc.Register(q1);
  DynamicDocument::QueryHandle h2 = doc.Register(q2);

  ReaderState state;
  SnapshotRef genesis = doc.CurrentSnapshot();
  ASSERT_EQ(genesis.epoch(), 0u);

  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      SnapshotRef time_travel = r == 0 ? genesis : SnapshotRef();
      while (!state.done.load(std::memory_order_acquire)) {
        SnapshotRef snap = doc.CurrentSnapshot();
        const size_t v = static_cast<size_t>(snap.epoch());
        if (doc.EnumerateAt(snap, h1) != expected1[v] ||
            doc.EnumerateAt(snap, h2) != expected2[v] ||
            doc.HasAnswerAt(snap, h1) != !expected1[v].empty()) {
          state.mismatches.fetch_add(1, std::memory_order_relaxed);
        }
        if (time_travel && doc.EnumerateAt(time_travel, h1) != expected1[0]) {
          state.mismatches.fetch_add(1, std::memory_order_relaxed);
        }
        state.iterations.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  // Writer (this thread): pace the batches against reader progress so the
  // interleaving is real under any scheduler, then keep readers spinning
  // until each has done a minimum amount of verified work.
  for (int j = 0; j < kBatches; ++j) {
    while (state.iterations.load(std::memory_order_relaxed) <
           static_cast<size_t>(j) / 2) {
      std::this_thread::yield();
    }
    ApplyBatchOk(doc, batches[j]);
  }
  while (state.iterations.load(std::memory_order_relaxed) <
         kMinIterations * kReaders) {
    std::this_thread::yield();
  }
  state.done.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();

  EXPECT_EQ(state.mismatches.load(), 0u);
  EXPECT_GE(state.iterations.load(), kMinIterations * kReaders);
  // The writer-side view stayed coherent too.
  EXPECT_EQ(doc.EnumerateAt(doc.CurrentSnapshot(), h1), expected1[kBatches]);
  EXPECT_EQ(doc.EnumerateAt(genesis, h1), expected1[0]);
  EXPECT_EQ(doc.snapshots_published(), static_cast<uint64_t>(kBatches) + 1);
}

// Readers race the writer's store growth and its reclamation. Every edit
// inserts, so every store — term, circuit, index and run counts, directory
// and pool — keeps outgrowing its buffer while readers read it, and the
// writer waits before each edit until every reader holds the current
// snapshot, so the edit's drain frees the buffers the last growth retired.
// Readers enumerate and count at each pin against the per-version oracle;
// a read of a freed buffer is a sanitizer report.
TEST(SnapshotStress, ReadersRaceStoreGrowthAndReclamation) {
  Rng rng(223);
  UnrankedTree tree = RandomTree(16, 3, rng);
  const UnrankedTva q = QueryMarkedAncestor(3, 1, 2);

  constexpr int kEdits = 160;
  std::vector<Edit> edits;
  std::vector<std::vector<Assignment>> expected;
  UnrankedTree mirror = tree;
  expected.push_back(StaticEngine(mirror, q).EnumerateAll());
  for (int j = 0; j < kEdits; ++j) {
    const std::vector<NodeId> nodes = mirror.PreorderNodes();
    edits.push_back(Edit::InsertFirstChild(nodes[rng.Index(nodes.size())],
                                           static_cast<Label>(rng.Index(3))));
    ApplyToTree(edits.back(), mirror);
    expected.push_back(StaticEngine(mirror, q).EnumerateAll());
  }

  DynamicDocument doc(tree, 3);
  const DynamicDocument::QueryHandle h = doc.Register(q);
  doc.pipeline(h).EnableCounting();
  const EnumerationPipeline& p = doc.pipeline(h);

  ReaderState state;
  std::atomic<uint64_t> pinned[kReaders] = {};  // each reader's last epoch
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      while (!state.done.load(std::memory_order_acquire)) {
        SnapshotRef snap = doc.CurrentSnapshot();
        const size_t v = static_cast<size_t>(snap.epoch());
        pinned[r].store(v, std::memory_order_release);
        if (doc.EnumerateAt(snap, h) != expected[v] ||
            p.AcceptingRunsAt(snap) != expected[v].size()) {
          state.mismatches.fetch_add(1, std::memory_order_relaxed);
        }
        state.iterations.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  size_t frees = 0;  // commits whose drain freed retired buffers
  for (int j = 0; j < kEdits; ++j) {
    for (int r = 0; r < kReaders; ++r) {
      while (pinned[r].load(std::memory_order_acquire) !=
             static_cast<uint64_t>(j)) {
        std::this_thread::yield();
      }
    }
    const size_t before = doc.stats().retired_bytes;
    ApplyOk(doc, Command::Of(edits[j]));
    frees += doc.stats().retired_bytes < before;
  }
  state.done.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();

  EXPECT_EQ(state.mismatches.load(), 0u);
  EXPECT_GT(frees, 0u);
  EXPECT_GE(doc.term().id_bound(), 8 * tree.size())
      << "the stores did not grow";
  EXPECT_EQ(doc.EnumerateAt(doc.CurrentSnapshot(), h), expected[kEdits]);
}

// Readers race the writer's frees and reuses of shared circuit blocks. The
// tree repeats one subtree, so its boxes share few blocks; each relabel
// moves one copy's path onto other blocks, freeing a block with its last
// use once no pin reaches it, and the next new key reuses that block id and
// its pool span. Readers hold pins across several commits and enumerate
// both the held and the current version against the per-version oracle; a
// read of a freed or rewritten block is a mismatch or a sanitizer report.
TEST(SnapshotStress, ReadersRaceSharedBlockFreeAndReuse) {
  std::string sexpr = "(a";
  for (int i = 0; i < 12; ++i) sexpr += " (b (c (a) (b)) (a (c)))";
  const UnrankedTree tree = UnrankedTree::Parse(sexpr + ")");
  const UnrankedTva q = QueryMarkedAncestor(3, 1, 2);

  constexpr int kEdits = 120;
  Rng rng(227);
  std::vector<Edit> edits;
  std::vector<std::vector<Assignment>> expected;
  UnrankedTree mirror = tree;
  expected.push_back(StaticEngine(mirror, q).EnumerateAll());
  const std::vector<NodeId> nodes = tree.PreorderNodes();
  for (int j = 0; j < kEdits; ++j) {
    edits.push_back(Edit::Relabel(nodes[rng.Index(nodes.size())],
                                  static_cast<Label>(rng.Index(3))));
    ApplyToTree(edits.back(), mirror);
    expected.push_back(StaticEngine(mirror, q).EnumerateAll());
  }

  DynamicDocument doc(tree, 3);
  const DynamicDocument::QueryHandle h = doc.Register(q);
  const AssignmentCircuit& circuit = doc.pipeline(h).circuit();

  ReaderState state;
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      SnapshotRef held;
      for (size_t i = 0; !state.done.load(std::memory_order_acquire); ++i) {
        if (i % static_cast<size_t>(2 + r) == 0) held = doc.CurrentSnapshot();
        SnapshotRef now = doc.CurrentSnapshot();
        for (const SnapshotRef* snap : {&held, &now}) {
          const size_t v = static_cast<size_t>(snap->epoch());
          if (doc.EnumerateAt(*snap, h) != expected[v]) {
            state.mismatches.fetch_add(1, std::memory_order_relaxed);
          }
        }
        state.iterations.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  size_t freed = 0;   // commits after which fewer blocks were alive
  size_t reused = 0;  // commits that added blocks after some were freed
  for (int j = 0; j < kEdits; ++j) {
    while (state.iterations.load(std::memory_order_relaxed) <
           static_cast<size_t>(j)) {
      std::this_thread::yield();
    }
    const size_t before = circuit.num_blocks();
    ApplyOk(doc, Command::Of(edits[j]));
    freed += circuit.num_blocks() < before;
    reused += freed != 0 && circuit.num_blocks() > before;
  }
  state.done.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();

  EXPECT_EQ(state.mismatches.load(), 0u);
  EXPECT_GT(freed, 0u);
  EXPECT_GT(reused, 0u);
  EXPECT_LT(4 * circuit.num_blocks(), doc.term().num_alive());
  EXPECT_EQ(circuit.ValidateStorage(), "");
  EXPECT_EQ(doc.EnumerateAt(doc.CurrentSnapshot(), h), expected[kEdits]);
}

TEST(SnapshotStress, WordReadersRaceBatchedWriter) {
  const Word w = ToWord("abababababab");
  const Wva q = SomeBPosition();

  // Replace-only script (positions stay stable), precomputed per version
  // by replaying a second enumerator.
  constexpr int kBatches = 40;
  constexpr int kBatchSize = 3;
  Rng rng(211);
  std::vector<std::vector<std::pair<size_t, Label>>> batches;
  std::vector<std::vector<Assignment>> expected;
  {
    WordEnumerator replay(w, q);
    expected.push_back(replay.EnumerateAll());
    for (int j = 0; j < kBatches; ++j) {
      std::vector<std::pair<size_t, Label>> batch;
      for (int i = 0; i < kBatchSize; ++i) {
        batch.emplace_back(rng.Index(w.size()),
                           static_cast<Label>(rng.Index(2)));
      }
      replay.BeginBatch();
      for (const auto& e : batch) replay.Replace(e.first, e.second);
      replay.CommitBatch();
      expected.push_back(replay.EnumerateAll());
      batches.push_back(std::move(batch));
    }
  }

  WordEnumerator e(w, q);
  ReaderState state;
  SnapshotRef genesis = e.CurrentSnapshot();

  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      SnapshotRef time_travel = r == 0 ? genesis : SnapshotRef();
      while (!state.done.load(std::memory_order_acquire)) {
        SnapshotRef snap = e.CurrentSnapshot();
        const size_t v = static_cast<size_t>(snap.epoch());
        if (e.EnumerateAt(snap) != expected[v]) {
          state.mismatches.fetch_add(1, std::memory_order_relaxed);
        }
        if (time_travel && e.EnumerateAt(time_travel) != expected[0]) {
          state.mismatches.fetch_add(1, std::memory_order_relaxed);
        }
        state.iterations.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  for (int j = 0; j < kBatches; ++j) {
    while (state.iterations.load(std::memory_order_relaxed) <
           static_cast<size_t>(j) / 2) {
      std::this_thread::yield();
    }
    e.BeginBatch();
    for (const auto& ed : batches[j]) e.Replace(ed.first, ed.second);
    e.CommitBatch();
  }
  while (state.iterations.load(std::memory_order_relaxed) <
         kMinIterations * kReaders) {
    std::this_thread::yield();
  }
  state.done.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();

  EXPECT_EQ(state.mismatches.load(), 0u);
  EXPECT_EQ(e.EnumerateAt(e.CurrentSnapshot()), expected[kBatches]);
  EXPECT_EQ(e.EnumerateAt(genesis), expected[0]);
}

}  // namespace
}  // namespace treenum

// Conformance fuzzing of the one mutation entry point. Seed-randomized
// Commands from serving::CommandScript (tree documents) and WordScript
// below (word documents), mixed with invalid ones, are replayed through
// documents and a 2-shard server:
//
//   * Replicas: one document whose registrations are served from a
//     pre-warmed shared QueryCache (zero compile work) and one compiling
//     freshly in a private cache must both answer like an independent
//     oracle after every epoch — a divergence would mean a cached plan is
//     not equivalent to a freshly compiled one.
//   * Hostile commands: dead or out-of-range node ids, labels and
//     positions, moves into the moved subtree, inner-node and root
//     deletes, word ranges that are empty, past the end or the whole word,
//     empty appends, commands of the other document kind, registration
//     inside a batch, and stale handles. Nothing may crash; each is
//     rejected with its status and leaves the tree or word, the term,
//     ValidateStructure, every ValidateStorage (audited at once, before
//     any further commit) and every answer as they were. Accepted commands
//     must match the oracle.
//
// Seeds are fixed and logged to stderr; a failure names its seed and step.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "automata/query_cache.h"
#include "automata/query_library.h"
#include "automata/regex_spanner.h"
#include "baseline/static_engine.h"
#include "core/document.h"
#include "core/word_enumerator.h"
#include "serving/shard_server.h"
#include "test_util.h"
#include "trees/unranked_tree.h"
#include "util/random.h"

namespace treenum {
namespace {

constexpr size_t kLabels = 3;
using QueryHandle = DynamicDocument::QueryHandle;

void LogSeed(const char* test, uint64_t seed) {
  std::fprintf(stderr, "[conformance_fuzz] %s seed %llu\n", test,
               static_cast<unsigned long long>(seed));
}

serving::WorkloadOptions Mixed(double structural) {
  serving::WorkloadOptions wo;
  wo.num_labels = kLabels;
  wo.structural_fraction = structural;
  return wo;
}

// CommandScript's counterpart for word documents: word Commands over a
// mirror word, each applied to the mirror as it is emitted — point edits
// and, at `ranges`, moves, erases and appends of factors of up to four
// letters. Erases keep at least kMinSize letters. A Concat points at
// letters the script owns until its next call.
class WordScript {
 public:
  WordScript(Word mirror, uint64_t seed, double ranges)
      : word_(std::move(mirror)), rng_(seed), ranges_(ranges) {}

  const Word& mirror() const { return word_; }

  Command Next() {
    const size_t n = word_.size();
    const Label l = static_cast<Label>(rng_.Index(kLabels));
    if (rng_.Flip(ranges_)) {
      const size_t begin = rng_.Index(n);
      const size_t end = begin + 1 + rng_.Index(std::min<size_t>(n - begin, 4));
      const size_t kept = n - (end - begin);
      switch (rng_.Index(3)) {
        case 0: {
          const size_t dst = rng_.Index(kept + 1);
          Word factor(word_.begin() + begin, word_.begin() + end);
          word_.erase(word_.begin() + begin, word_.begin() + end);
          word_.insert(word_.begin() + dst, factor.begin(), factor.end());
          return Command::MoveRange(begin, end, dst);
        }
        case 1:
          if (kept >= kMinSize) {
            word_.erase(word_.begin() + begin, word_.begin() + end);
            return Command::EraseRange(begin, end);
          }
          break;
        default:
          appended_.assign(end - begin, l);
          word_.insert(word_.end(), appended_.begin(), appended_.end());
          return Command::Concat(&appended_);
      }
    }
    const size_t pos = rng_.Index(n);
    switch (rng_.Index(3)) {
      case 0:
        word_.insert(word_.begin() + pos, l);
        return Command::Insert(pos, l);
      case 1:
        if (n > kMinSize) {
          word_.erase(word_.begin() + pos);
          return Command::Erase(pos);
        }
        break;
      default:
        break;
    }
    word_[pos] = l;
    return Command::Replace(pos, l);
  }

 private:
  static constexpr size_t kMinSize = 8;
  Word word_;
  Rng rng_;
  double ranges_;
  Word appended_;
};

// What a document shows from outside: its input, its term (node ids
// included), its published epochs and every registered query's answers.
struct Observed {
  std::string input;
  std::string term;
  uint64_t published = 0;
  std::vector<std::vector<Assignment>> answers;
};

Observed Observe(const DynamicDocument& doc,
                 const std::vector<QueryHandle>& handles, bool word) {
  Observed o;
  o.term = doc.term().ToString(doc.term().root());
  if (word) {
    for (Label l : doc.word_encoding().Current()) o.input += 'a' + l;
  } else {
    o.input = doc.tree().ToString();
  }
  o.published = doc.snapshots_published();
  for (QueryHandle h : handles) {
    o.answers.push_back(doc.EnumerateAt(doc.CurrentSnapshot(), h));
  }
  return o;
}

void ExpectSame(const Observed& before, const Observed& after) {
  EXPECT_EQ(after.input, before.input);
  EXPECT_EQ(after.term, before.term);
  EXPECT_EQ(after.published, before.published);
  EXPECT_EQ(after.answers, before.answers);
}

// The storage audits, outside a batch: term structure and every layer of
// every pipeline (circuit, index, run counts).
void ExpectAudited(const DynamicDocument& doc,
                   const std::vector<QueryHandle>& handles) {
  ASSERT_EQ(doc.term().ValidateStructure(&MaxAllowedHeight), "");
  for (QueryHandle h : handles) {
    ASSERT_EQ(doc.pipeline(h).ValidateStorage(), "");
  }
}

NodeId PickAlive(Rng& rng, const UnrankedTree& t, bool non_root) {
  std::vector<NodeId> nodes = t.PreorderNodes();
  if (non_root) nodes.erase(nodes.begin());  // preorder starts at the root
  return nodes[rng.Index(nodes.size())];
}

// A node id that is not alive in `t`: a freed slot or one never allocated.
NodeId PickDead(Rng& rng, const UnrankedTree& t) {
  std::vector<NodeId> dead;
  for (NodeId n = 0; n < t.id_bound(); ++n) {
    if (!t.IsAlive(n)) dead.push_back(n);
  }
  if (!dead.empty() && rng.Flip(0.5)) return dead[rng.Index(dead.size())];
  return rng.Flip(0.2) ? kNoNode
                       : static_cast<NodeId>(t.id_bound() + rng.Index(1000));
}

// One invalid tree command against `t` and the status it must get.
std::pair<Command, Status> HostileTreeCommand(Rng& rng, const UnrankedTree& t,
                                              const UnrankedTree& foreign,
                                              UnrankedTree* sink) {
  const NodeId root = t.root();
  const NodeId any = PickAlive(rng, t, /*non_root=*/true);
  std::vector<NodeId> inner;
  for (NodeId n : t.PreorderNodes()) {
    if (n != root && !t.IsLeaf(n)) inner.push_back(n);
  }
  const Label bad_label = static_cast<Label>(kLabels + rng.Index(100));
  switch (rng.Index(13)) {
    case 0:
      return {Command::Relabel(PickDead(rng, t), 0), Status::kUnknownNode};
    case 1:
      return {Command::InsertRightSibling(PickDead(rng, t), 1),
              Status::kUnknownNode};
    case 2:
      return {Command::InsertFirstChild(any, bad_label),
              Status::kUnknownLabel};
    case 3:
      return {Command::InsertRightSibling(root, 0), Status::kIsRoot};
    case 4:
      return {Command::DeleteLeaf(root), Status::kIsRoot};
    case 5:
      if (!inner.empty()) {
        return {Command::DeleteLeaf(inner[rng.Index(inner.size())]),
                Status::kNotALeaf};
      }
      return {Command::SubtreeDelete(root), Status::kIsRoot};
    case 6:
      return {rng.Flip(0.5) ? Command::SubtreeDelete(root)
                            : Command::SubtreeExtract(root, sink),
              Status::kIsRoot};
    case 7: {
      // Into the moved subtree: onto its root, or onto a node below it.
      NodeId v = inner.empty() ? any : inner[rng.Index(inner.size())];
      NodeId dst = v;
      while (!t.IsLeaf(dst) && rng.Flip(0.7)) {
        dst = t.children(dst)[rng.Index(t.children(dst).size())];
      }
      const AttachWhere where = rng.Flip(0.5) ? AttachWhere::kFirstChild
                                              : AttachWhere::kRightSibling;
      return {Command::SubtreeMove(v, dst, where),
              Status::kInsideMovedSubtree};
    }
    case 8:
      return {Command::SubtreeMove(any, root, AttachWhere::kRightSibling),
              Status::kIsRoot};
    case 9:
      return {Command::SubtreeMove(any, PickDead(rng, t)),
              Status::kUnknownNode};
    case 10:
      return {Command::GraftSubtree(&foreign, foreign.root(), any),
              Status::kUnknownLabel};
    case 11:
      return {Command::GraftSubtree(&foreign, PickDead(rng, foreign), any),
              Status::kUnknownNode};
    default:
      return {Command::Erase(0), Status::kWrongDocumentKind};
  }
}

// One invalid word command against a word of `n` letters.
std::pair<Command, Status> HostileWordCommand(Rng& rng, size_t n,
                                              const Word& foreign,
                                              Word* sink) {
  static const Word kEmpty;
  const size_t k = 1 + rng.Index(n);  // a factor length in [1, n]
  switch (rng.Index(12)) {
    case 0:
      return {Command::Replace(n + rng.Index(5), 0), Status::kOutOfRange};
    case 1:
      return {Command::Insert(n + 1 + rng.Index(5), 0), Status::kOutOfRange};
    case 2:
      return {Command::Replace(rng.Index(n),
                               static_cast<Label>(kLabels + rng.Index(9))),
              Status::kUnknownLabel};
    case 3:
      return {Command::Erase(n + rng.Index(3)), Status::kOutOfRange};
    case 4:
      return {Command::MoveRange(k, k - 1, 0), Status::kOutOfRange};
    case 5:
      return {Command::MoveRange(0, k, n - k + 1 + rng.Index(3)),
              Status::kOutOfRange};
    case 6:
      return {Command::EraseRange(0, n), Status::kOutOfRange};
    case 7:
      return {Command::ExtractRange(rng.Index(n), n + 1 + rng.Index(3), sink),
              Status::kOutOfRange};
    case 8:
      return {Command::Concat(&kEmpty), Status::kOutOfRange};
    case 9:
      return {Command::Concat(&foreign), Status::kUnknownLabel};
    case 10: {
      const size_t at = rng.Index(n + 1);  // an empty range
      switch (rng.Index(3)) {
        case 0:
          return {Command::MoveRange(at, at, 0), Status::kOutOfRange};
        case 1:
          return {Command::EraseRange(at, at), Status::kOutOfRange};
        default:
          return {Command::ExtractRange(at, at, sink), Status::kOutOfRange};
      }
    }
    default:
      return {Command::Relabel(0, 0), Status::kWrongDocumentKind};
  }
}

std::vector<Assignment> ByPosition(const DynamicDocument& doc,
                                   std::vector<Assignment> answers) {
  for (Assignment& a : answers) {
    Assignment b;
    for (const Singleton& s : a.singletons()) {
      b.Add(Singleton{s.var, static_cast<NodeId>(
                                 doc.word_encoding().PositionOf(s.node))});
    }
    b.Normalize();
    a = std::move(b);
  }
  std::sort(answers.begin(), answers.end());
  return answers;
}

// ---- Replicas: cache-served and freshly compiled plans ----

TEST(ConformanceFuzz, TreeCacheServedMatchesFreshCompileAndOracle) {
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    LogSeed("TreeCacheServed", seed);
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);

    std::vector<UnrankedTva> queries;
    queries.push_back(QuerySelectLabel(kLabels, 1));
    queries.push_back(QueryMarkedAncestor(kLabels, 1, 2));
    // Low annotation density keeps random answer sets polynomial — dense
    // random ι relations can make the satisfying-assignment count
    // exponential in the tree size, which the oracle then materializes.
    queries.push_back(RandomUnrankedTva(rng, 3, kLabels, 1, 2, 9));
    queries.push_back(RandomUnrankedTva(rng, 4, kLabels, 1, 3, 10));

    // Pre-warm the shared cache, then hang two replica documents off the
    // same seed tree: one cache-served, one compiling into a private cache.
    QueryCache shared, privat;
    for (const UnrankedTva& q : queries) shared.CompileTree(q);
    const QueryCache::Stats warm = shared.stats();

    UnrankedTree tree = RandomTree(16, kLabels, rng);
    DynamicDocument cached(tree, kLabels, &shared);
    DynamicDocument fresh(tree, kLabels, &privat);
    std::vector<QueryHandle> hc, hf;
    for (const UnrankedTva& q : queries) {
      hc.push_back(cached.Register(q));
      hf.push_back(fresh.Register(q));
    }
    // Cache-served means served: registration did zero new compile work.
    EXPECT_EQ(shared.stats().translations, warm.translations);
    EXPECT_EQ(shared.stats().source_hits, warm.source_hits + queries.size());

    serving::CommandScript script(tree, seed ^ 0xF022, Mixed(0.3));
    for (int epoch = 0; epoch < 6; ++epoch) {
      SCOPED_TRACE("epoch " + std::to_string(epoch));
      for (int op = 0; op < 5; ++op) {
        const Command c = script.Next();
        ApplyOk(cached, c);
        ApplyOk(fresh, c);
      }
      ASSERT_TRUE(fresh.tree() == script.mirror());
      for (size_t i = 0; i < queries.size(); ++i) {
        SCOPED_TRACE("query " + std::to_string(i));
        StaticEngine oracle(script.mirror(), queries[i]);
        std::vector<Assignment> expected = oracle.EnumerateAll();
        ASSERT_EQ(cached.EnumerateAt(cached.CurrentSnapshot(), hc[i]),
                  expected);
        ASSERT_EQ(fresh.EnumerateAt(fresh.CurrentSnapshot(), hf[i]), expected);
      }
    }
  }
}

TEST(ConformanceFuzz, TreeBatchedScriptsMatchUnderSharedCache) {
  // Same replica pair, but each epoch's commands are applied as ONE
  // transaction — the coalesced refresh path must converge to the same
  // answers on cache-served and freshly compiled pipelines.
  for (uint64_t seed = 21; seed <= 23; ++seed) {
    LogSeed("TreeBatchedScripts", seed);
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    UnrankedTva q = RandomUnrankedTva(rng, 3, kLabels, 1, 4, 9);

    QueryCache shared, privat;
    shared.CompileTree(q);

    UnrankedTree tree = RandomTree(20, kLabels, rng);
    DynamicDocument cached(tree, kLabels, &shared);
    DynamicDocument fresh(tree, kLabels, &privat);
    QueryHandle hc = cached.Register(q);
    QueryHandle hf = fresh.Register(q);
    EXPECT_EQ(shared.stats().translations, 1u);

    serving::CommandScript script(std::move(tree), seed ^ 0x5eed, Mixed(0.2));
    for (int epoch = 0; epoch < 5; ++epoch) {
      SCOPED_TRACE("epoch " + std::to_string(epoch));
      cached.BeginBatch();
      fresh.BeginBatch();
      for (int op = 0; op < 6; ++op) {
        const Command c = script.Next();
        ApplyOk(cached, c);
        ApplyOk(fresh, c);
      }
      cached.CommitBatch();
      fresh.CommitBatch();
      StaticEngine oracle(script.mirror(), q);
      std::vector<Assignment> expected = oracle.EnumerateAll();
      ASSERT_EQ(cached.EnumerateAt(cached.CurrentSnapshot(), hc), expected);
      ASSERT_EQ(fresh.EnumerateAt(fresh.CurrentSnapshot(), hf), expected);
    }
  }
}

TEST(ConformanceFuzz, WordCacheServedMatchesFreshCompileAndOracle) {
  // Word documents answer in stable position ids; the cache-served and
  // freshly compiled pipelines share one edit history and therefore one id
  // assignment, so they must match assignment-exactly, and by position
  // they must match a WordEnumerator rebuilt from the mirror word.
  for (uint64_t seed = 5; seed <= 7; ++seed) {
    LogSeed("WordCacheServed", seed);
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);

    std::vector<Wva> queries;
    queries.push_back(CompileRegexSpanner("a*<0:b>.*", kLabels, 1));
    queries.push_back(CompileRegexSpanner(".*<0:a>.*<1:c>.*", kLabels, 2));

    QueryCache shared, privat;
    for (const Wva& q : queries) shared.CompileWord(q);
    const QueryCache::Stats warm = shared.stats();

    Word ref;
    for (int i = 0; i < 12; ++i) {
      ref.push_back(static_cast<Label>(rng.Index(kLabels)));
    }
    DynamicDocument cached(ref, kLabels, &shared);
    DynamicDocument fresh(ref, kLabels, &privat);
    std::vector<QueryHandle> hc, hf;
    for (const Wva& q : queries) {
      hc.push_back(cached.Register(q));
      hf.push_back(fresh.Register(q));
    }
    EXPECT_EQ(shared.stats().translations, warm.translations);

    WordScript script(ref, seed ^ 0x3070, 0.3);
    for (int epoch = 0; epoch < 8; ++epoch) {
      SCOPED_TRACE("epoch " + std::to_string(epoch));
      for (int op = 0; op < 4; ++op) {
        const Command c = script.Next();
        ApplyOk(cached, c);
        ApplyOk(fresh, c);
      }
      ASSERT_EQ(fresh.word_encoding().Current(), script.mirror());
      for (size_t i = 0; i < queries.size(); ++i) {
        SCOPED_TRACE("query " + std::to_string(i));
        std::vector<Assignment> got =
            cached.EnumerateAt(cached.CurrentSnapshot(), hc[i]);
        ASSERT_EQ(got, fresh.EnumerateAt(fresh.CurrentSnapshot(), hf[i]));
        WordEnumerator oracle(script.mirror(), queries[i]);
        ASSERT_EQ(ByPosition(cached, got), oracle.EnumerateAllByPosition());
      }
    }
  }
}

// ---- Hostile commands ----

TEST(ConformanceFuzz, HostileTreeCommandsAreRejectedWithoutChange) {
  UnrankedTree foreign(0);
  foreign.AppendChild(foreign.root(), 1);
  foreign.AppendChild(foreign.root(), static_cast<Label>(kLabels + 4));
  for (uint64_t seed = 31; seed <= 34; ++seed) {
    LogSeed("HostileTree", seed);
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    std::vector<UnrankedTva> queries = {QueryMarkedAncestor(kLabels, 1, 2),
                                        QueryChildOfLabel(kLabels, 0, 2),
                                        RandomUnrankedTva(rng, 3, kLabels, 1,
                                                          2, 9)};
    UnrankedTree tree = RandomTree(24, kLabels, rng);
    DynamicDocument doc(tree, kLabels);
    std::vector<QueryHandle> handles;
    for (size_t i = 0; i < queries.size(); ++i) {
      handles.push_back(doc.Register(
          queries[i], i == 1 ? BoxEnumMode::kNaive : BoxEnumMode::kIndexed));
    }
    doc.pipeline(handles[0]).EnableCounting();
    const QueryHandle stale = doc.Register(QuerySelectLabel(kLabels, 0));
    ASSERT_EQ(doc.Unregister(stale), Status::kOk);

    serving::CommandScript script(std::move(tree), seed, Mixed(0.25));
    UnrankedTree sink(0);
    size_t rejected = 0;
    for (int step = 0; step < 160; ++step) {
      SCOPED_TRACE("step " + std::to_string(step));
      const bool batch = step % 16 >= 12;  // every 16 steps, a 4-step batch
      if (batch && step % 16 == 12) doc.BeginBatch();
      if (rng.Flip(0.4)) {
        const Observed before = Observe(doc, handles, /*word=*/false);
        switch (rng.Index(8)) {
          case 0:
            EXPECT_EQ(doc.Register(QuerySelectLabel(kLabels + 1, 1)).status,
                      batch ? Status::kInBatch : Status::kWrongAlphabet);
            break;
          case 1:
            EXPECT_EQ(doc.Unregister(rng.Flip(0.5) ? stale : stale + 977),
                      batch ? Status::kInBatch : Status::kUnknownHandle);
            break;
          case 2:
            if (batch) {
              EXPECT_EQ(doc.Register(queries[0]).status, Status::kInBatch);
              break;
            }
            [[fallthrough]];
          default: {
            const auto [c, want] =
                HostileTreeCommand(rng, script.mirror(), foreign, &sink);
            const UpdateStats s = doc.Apply(c);
            EXPECT_EQ(s.status, want);
            EXPECT_EQ(s.edits_applied, 0u);
          }
        }
        ++rejected;
        ExpectSame(before, Observe(doc, handles, /*word=*/false));
        if (!batch) ExpectAudited(doc, handles);
      } else {
        ApplyOk(doc, script.Next());
      }
      if (batch && step % 16 == 15) doc.CommitBatch();
      if (doc.in_batch()) continue;
      ASSERT_TRUE(doc.tree() == script.mirror());
      for (size_t i = 0; i < queries.size(); ++i) {
        StaticEngine oracle(script.mirror(), queries[i]);
        ASSERT_EQ(doc.EnumerateAt(doc.CurrentSnapshot(), handles[i]),
                  oracle.EnumerateAll())
            << "query " << i;
      }
      ASSERT_EQ(doc.pipeline(handles[0]).AcceptingRunsAt(
                    doc.CurrentSnapshot()),
                doc.EnumerateAt(doc.CurrentSnapshot(), handles[0]).size());
    }
    EXPECT_GT(rejected, 40u);
    ExpectAudited(doc, handles);
  }
}

// Word documents, with a reader thread enumerating pinned snapshots while
// range moves, erases and appends commit during the first half of the run,
// and one pin held across every command on the writer: its answers must
// not move (time-travel), whether the command was accepted or rejected.
// The storage audits count live pins, so they run once the reader stopped.
TEST(ConformanceFuzz, HostileWordCommandsUnderPinnedReaders) {
  const Word foreign = {0, static_cast<Label>(kLabels + 2)};
  for (uint64_t seed = 41; seed <= 43; ++seed) {
    LogSeed("HostileWord", seed);
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    const std::vector<Wva> queries = {
        CompileRegexSpanner("a*<0:b>.*", kLabels, 1),
        CompileRegexSpanner(".*<0:a>.*<1:c>.*", kLabels, 2)};
    Word w;
    for (int i = 0; i < 14; ++i) {
      w.push_back(static_cast<Label>(rng.Index(kLabels)));
    }
    DynamicDocument doc(w, kLabels);
    std::vector<QueryHandle> handles;
    for (const Wva& q : queries) handles.push_back(doc.Register(q));

    std::atomic<bool> stop{false};
    std::atomic<uint64_t> mismatches{0};
    const DynamicDocument::ReaderView view = doc.reader_view(handles[1]);
    std::thread reader([&] {
      while (!stop.load(std::memory_order_acquire)) {
        SnapshotRef snap = doc.CurrentSnapshot();
        const std::vector<Assignment> a = view.EnumerateAt(snap);
        auto cursor = view.MakeCursorAt(snap);
        Assignment first;
        const bool any = cursor->Next(&first);
        if (a != view.EnumerateAt(snap) || any != !a.empty() ||
            any != view.HasAnswerAt(snap)) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });

    WordScript script(w, seed, 0.5);
    Word sink;
    constexpr int kSteps = 200;
    for (int step = 0; step < kSteps; ++step) {
      SCOPED_TRACE("step " + std::to_string(step));
      if (step == kSteps / 2) {
        stop.store(true, std::memory_order_release);
        reader.join();
      }
      SnapshotRef pin = doc.CurrentSnapshot();
      const std::vector<Assignment> pinned = doc.EnumerateAt(pin, handles[0]);
      if (rng.Flip(0.4)) {
        const Observed before = Observe(doc, handles, /*word=*/true);
        const auto [c, want] = HostileWordCommand(
            rng, script.mirror().size(), foreign, &sink);
        EXPECT_EQ(doc.Apply(c).status, want);
        ExpectSame(before, Observe(doc, handles, /*word=*/true));
        if (step >= kSteps / 2) ExpectAudited(doc, handles);
      } else {
        ApplyOk(doc, script.Next());
      }
      ASSERT_EQ(doc.EnumerateAt(pin, handles[0]), pinned);
      ASSERT_EQ(doc.word_encoding().Current(), script.mirror());
      if (step % 4 == 3) {
        for (size_t i = 0; i < queries.size(); ++i) {
          WordEnumerator oracle(script.mirror(), queries[i]);
          ASSERT_EQ(ByPosition(doc, doc.EnumerateAt(doc.CurrentSnapshot(),
                                                    handles[i])),
                    oracle.EnumerateAllByPosition())
              << "query " << i;
        }
      }
    }
    EXPECT_EQ(mismatches.load(), 0u);
    ExpectAudited(doc, handles);
  }
}

// A 2-shard server: hostile commands and (un)registrations interleaved with
// every tenant's script. Each is rejected on its own document and counted;
// every accepted command lands, in order, on every tenant.
TEST(ConformanceFuzz, HostileCommandsOnAShardServer) {
  UnrankedTree foreign(0);
  foreign.AppendChild(foreign.root(), static_cast<Label>(kLabels));
  for (uint64_t seed = 51; seed <= 52; ++seed) {
    LogSeed("HostileServer", seed);
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    serving::DocumentShardServer::Options o;
    o.shards = 2;
    serving::DocumentShardServer server(o);
    const UnrankedTva query = QueryMarkedAncestor(kLabels, 1, 2);
    struct Tenant {
      serving::DocumentShardServer::DocRef doc;
      serving::DocumentShardServer::QueryRef ref;
      serving::CommandScript script;
    };
    std::vector<Tenant> tenants;
    for (size_t i = 0; i < 3; ++i) {
      UnrankedTree tree = RandomTree(20, kLabels, rng);
      const auto doc = server.AddDocument(tree, kLabels);
      tenants.push_back({doc, server.RegisterQuery(doc, query),
                         serving::CommandScript(std::move(tree), seed + i,
                                                Mixed(0.2))});
    }
    std::vector<UnrankedTree> sinks(400, UnrankedTree(0));
    uint64_t hostile = 0;
    for (size_t k = 0; k < 400; ++k) {
      Tenant& t = tenants[rng.Index(tenants.size())];
      if (!rng.Flip(0.3)) {
        server.Submit(t.doc, t.script.Next());
        continue;
      }
      ++hostile;
      switch (rng.Index(6)) {
        case 0:
          EXPECT_FALSE(
              server.RegisterQuery(t.doc, QuerySelectLabel(kLabels + 2, 0))
                  .view);
          break;
        case 1:
          server.UnregisterQuery(t.doc, t.ref.handle + 1 + rng.Index(50));
          break;
        default:
          // Out-parameters get their own slot: the worker writes them after
          // this loop has moved on.
          server.Submit(t.doc, HostileTreeCommand(rng, t.script.mirror(),
                                                  foreign, &sinks[k])
                                   .first);
      }
    }
    server.Drain();
    EXPECT_EQ(server.stats().rejected, hostile);
    for (size_t i = 0; i < tenants.size(); ++i) {
      const Tenant& t = tenants[i];
      const DynamicDocument& doc = server.document(t.doc);
      ASSERT_TRUE(doc.tree() == t.script.mirror()) << "tenant " << i;
      StaticEngine oracle(t.script.mirror(), query);
      EXPECT_EQ(t.ref.view.EnumerateAt(server.Pin(t.doc)),
                oracle.EnumerateAll())
          << "tenant " << i;
      ExpectAudited(doc, {t.ref.handle});
    }
  }
}

}  // namespace
}  // namespace treenum

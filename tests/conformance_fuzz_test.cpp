// Conformance fuzzing for the process-wide query cache: seed-randomized
// queries and edit/structural scripts are replayed through TWO documents —
// one whose registrations are served from a pre-warmed shared QueryCache
// (zero compile work), one compiling freshly in a private cache — and both
// must produce answer sets identical to an independent oracle after every
// epoch. A divergence would mean a cached plan is not equivalent to a
// freshly compiled one. Failures log the seed via SCOPED_TRACE.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "automata/query_cache.h"
#include "automata/query_library.h"
#include "automata/regex_spanner.h"
#include "baseline/static_engine.h"
#include "core/document.h"
#include "core/word_enumerator.h"
#include "test_util.h"
#include "trees/unranked_tree.h"
#include "util/random.h"

namespace treenum {
namespace {

constexpr size_t kLabels = 3;

// One random edit-or-structural op applied identically to both documents.
// The documents are bit-identical replicas (same seed tree, same op
// history), so node ids picked from `a.tree()` are valid in both.
void ApplyRandomTreeOp(Rng& rng, DynamicDocument& a, DynamicDocument& b) {
  std::vector<NodeId> nodes = a.tree().PreorderNodes();
  NodeId n = nodes[rng.Index(nodes.size())];
  Label l = static_cast<Label>(rng.Index(kLabels));
  const NodeId root = a.tree().root();
  switch (rng.Index(6)) {
    case 0: {
      a.InsertFirstChild(n, l);
      b.InsertFirstChild(n, l);
      return;
    }
    case 1:
      if (n != root) {
        a.InsertRightSibling(n, l);
        b.InsertRightSibling(n, l);
        return;
      }
      break;
    case 2:
      if (n != root && a.tree().IsLeaf(n)) {
        a.DeleteLeaf(n);
        b.DeleteLeaf(n);
        return;
      }
      break;
    case 3:  // structural: drop a whole subtree
      if (n != root && nodes.size() > 8) {
        a.SubtreeDelete(n);
        b.SubtreeDelete(n);
        return;
      }
      break;
    case 4:  // structural: re-root a subtree under the root
      if (n != root) {
        a.SubtreeMove(n, root);
        b.SubtreeMove(n, root);
        return;
      }
      break;
    default:
      break;
  }
  a.Relabel(n, l);
  b.Relabel(n, l);
}

TEST(ConformanceFuzz, TreeCacheServedMatchesFreshCompileAndOracle) {
  for (uint64_t seed = 1; seed <= 4; ++seed) {
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
    std::vector<DynamicDocument::QueryHandle> hc, hf;
    for (const UnrankedTva& q : queries) {
      hc.push_back(cached.Register(q));
      hf.push_back(fresh.Register(q));
    }
    // Cache-served means served: registration did zero new compile work.
    EXPECT_EQ(shared.stats().translations, warm.translations);
    EXPECT_EQ(shared.stats().source_hits, warm.source_hits + queries.size());

    for (int epoch = 0; epoch < 6; ++epoch) {
      SCOPED_TRACE("epoch " + std::to_string(epoch));
      for (int op = 0; op < 5; ++op) ApplyRandomTreeOp(rng, cached, fresh);
      for (size_t i = 0; i < queries.size(); ++i) {
        SCOPED_TRACE("query " + std::to_string(i));
        StaticEngine oracle(fresh.tree(), queries[i]);
        std::vector<Assignment> expected = oracle.EnumerateAll();
        ASSERT_EQ(cached.EnumerateAt(cached.CurrentSnapshot(), hc[i]),
                  expected);
        ASSERT_EQ(fresh.EnumerateAt(fresh.CurrentSnapshot(), hf[i]), expected);
      }
    }
  }
}

TEST(ConformanceFuzz, TreeBatchedScriptsMatchUnderSharedCache) {
  // Same replica pair, but each epoch's edit script is applied as ONE
  // transaction (ApplyEdits) — the coalesced refresh path must converge to
  // the same answers on cache-served and freshly compiled pipelines.
  for (uint64_t seed = 21; seed <= 23; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    UnrankedTva q = RandomUnrankedTva(rng, 3, kLabels, 1, 4, 9);

    QueryCache shared, privat;
    shared.CompileTree(q);

    UnrankedTree tree = RandomTree(20, kLabels, rng);
    UnrankedTree mirror = tree;
    DynamicDocument cached(tree, kLabels, &shared);
    DynamicDocument fresh(tree, kLabels, &privat);
    DynamicDocument::QueryHandle hc = cached.Register(q);
    DynamicDocument::QueryHandle hf = fresh.Register(q);
    EXPECT_EQ(shared.stats().translations, 1u);

    serving::CommandScript editor(std::move(mirror), seed ^ 0x5eed,
                                  serving::WorkloadOptions{kLabels});
    for (int epoch = 0; epoch < 5; ++epoch) {
      SCOPED_TRACE("epoch " + std::to_string(epoch));
      std::vector<Edit> script;
      for (int op = 0; op < 6; ++op) script.push_back(editor.NextEdit());
      cached.ApplyEdits(script);
      fresh.ApplyEdits(script);
      StaticEngine oracle(fresh.tree(), q);
      std::vector<Assignment> expected = oracle.EnumerateAll();
      ASSERT_EQ(cached.EnumerateAt(cached.CurrentSnapshot(), hc), expected);
      ASSERT_EQ(fresh.EnumerateAt(fresh.CurrentSnapshot(), hf), expected);
    }
  }
}

TEST(ConformanceFuzz, WordCacheServedMatchesFreshCompileAndOracle) {
  // Word documents answer in stable position ids, so the absolute
  // by-position oracle (a WordEnumerator rebuilt from the mirror word each
  // epoch) is compared by answer count — id renaming is a bijection — while
  // the cache-served and freshly compiled pipelines, which share one edit
  // history and therefore one id assignment, must match assignment-exactly.
  for (uint64_t seed = 5; seed <= 7; ++seed) {
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
    std::vector<DynamicDocument::QueryHandle> hc, hf;
    for (const Wva& q : queries) {
      hc.push_back(cached.Register(q));
      hf.push_back(fresh.Register(q));
    }
    EXPECT_EQ(shared.stats().translations, warm.translations);

    for (int epoch = 0; epoch < 8; ++epoch) {
      SCOPED_TRACE("epoch " + std::to_string(epoch));
      for (int op = 0; op < 4; ++op) {
        size_t pos = rng.Index(ref.size());
        Label l = static_cast<Label>(rng.Index(kLabels));
        switch (rng.Index(3)) {
          case 0:
            ref[pos] = l;
            cached.Replace(pos, l);
            fresh.Replace(pos, l);
            break;
          case 1:
            ref.insert(ref.begin() + pos, l);
            cached.Insert(pos, l);
            fresh.Insert(pos, l);
            break;
          default:
            if (ref.size() > 2) {
              ref.erase(ref.begin() + pos);
              cached.Erase(pos);
              fresh.Erase(pos);
            }
            break;
        }
      }
      for (size_t i = 0; i < queries.size(); ++i) {
        SCOPED_TRACE("query " + std::to_string(i));
        std::vector<Assignment> got =
            cached.EnumerateAt(cached.CurrentSnapshot(), hc[i]);
        ASSERT_EQ(got, fresh.EnumerateAt(fresh.CurrentSnapshot(), hf[i]));
        WordEnumerator oracle(ref, queries[i]);
        ASSERT_EQ(got.size(), oracle.EnumerateAllByPosition().size());
      }
    }
  }
}

}  // namespace
}  // namespace treenum

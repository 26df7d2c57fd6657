// Tests for the process-wide compiled-query cache (automata/query_cache.h):
// cross-document dedupe down to pointer identity with zero recompilation,
// refcount-driven retention and LRU eviction of warm plans, the exact-
// comparison fallback under forced fingerprint collisions, shard-server
// plumbing, and an 8-thread concurrent Acquire/Release stress run (in the
// CI TSan filter).
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "automata/query_cache.h"
#include "automata/query_library.h"
#include "automata/translate.h"
#include "baseline/static_engine.h"
#include "core/document.h"
#include "serving/shard_server.h"
#include "test_util.h"

namespace treenum {
namespace {

using Handle = QueryCache::Handle;

// ---- Cross-document dedupe ----

// Registering the same query on a second document must be served entirely
// by the cache: zero translation / homogenization / canonicalization work
// (the acceptance counter-assert), and both documents' pipelines must
// share one compiled plan object.
TEST(QueryCache, SecondDocumentRegistrationCompilesNothing) {
  Rng rng(11);
  QueryCache cache;
  DynamicDocument doc1(RandomTree(40, 3, rng), 3, &cache);
  DynamicDocument doc2(RandomTree(25, 3, rng), 3, &cache);

  auto h1 = doc1.Register(QueryMarkedAncestor(3, 1, 2));
  QueryCache::Stats after_first = cache.stats();
  EXPECT_EQ(after_first.translations, 1u);
  EXPECT_EQ(after_first.homogenizations, 1u);
  EXPECT_EQ(after_first.canonicalizations, 1u);
  EXPECT_EQ(after_first.insertions, 1u);

  auto h2 = doc2.Register(QueryMarkedAncestor(3, 1, 2));
  QueryCache::Stats after_second = cache.stats();
  EXPECT_EQ(after_second.translations, after_first.translations)
      << "second-document registration must not translate";
  EXPECT_EQ(after_second.homogenizations, after_first.homogenizations)
      << "second-document registration must not homogenize";
  EXPECT_EQ(after_second.canonicalizations, after_first.canonicalizations)
      << "second-document registration must not canonicalize";
  EXPECT_EQ(after_second.source_hits, 1u);
  EXPECT_EQ(after_second.entries, 1u);

  // Pointer identity: one compiled plan serves both documents.
  EXPECT_EQ(doc1.pipeline(h1).automaton().get(),
            doc2.pipeline(h2).automaton().get());

  // And both answer correctly over their own trees.
  StaticEngine o1(doc1.tree(), QueryMarkedAncestor(3, 1, 2));
  StaticEngine o2(doc2.tree(), QueryMarkedAncestor(3, 1, 2));
  EXPECT_EQ(doc1.EnumerateAt(doc1.CurrentSnapshot(), h1), o1.EnumerateAll());
  EXPECT_EQ(doc2.EnumerateAt(doc2.CurrentSnapshot(), h2), o2.EnumerateAll());
}

// Renumbered/reordered variants miss the source map but converge in the
// canonical map: still exactly one compiled plan.
TEST(QueryCache, RenumberedVariantConvergesCanonically) {
  // QuerySelectLabel(3, 1) with states swapped and declarations reordered.
  UnrankedTva permuted(2, 3, 1);
  permuted.AddFinal(0);
  permuted.AddTransition(0, 1, 0);
  permuted.AddTransition(1, 0, 0);
  permuted.AddTransition(1, 1, 1);
  permuted.AddInit(1, 1, 0);
  for (Label l = 3; l-- > 0;) permuted.AddInit(l, 0, 1);

  QueryCache cache;
  Handle a = cache.CompileTree(QuerySelectLabel(3, 1));
  Handle b = cache.CompileTree(permuted);
  EXPECT_EQ(a.get(), b.get()) << "canonically equal plans must be shared";
  QueryCache::Stats s = cache.stats();
  EXPECT_EQ(s.translations, 2u) << "source miss still compiles";
  EXPECT_EQ(s.insertions, 1u) << "but interns into one entry";
  EXPECT_EQ(s.canonical_hits, 1u);
  EXPECT_EQ(s.source_entries, 2u) << "both sources link to the plan";
}

// Word queries go through the same cache under a separate source domain.
TEST(QueryCache, WordQueriesShareAcrossDocuments) {
  // Spanner: x matches any position labeled 1.
  Wva wva(2, 3, 1);
  wva.AddInitial(0);
  wva.AddFinal(1);
  for (Label l = 0; l < 3; ++l) {
    wva.AddTransition(0, l, 0, 0);
    wva.AddTransition(1, l, 0, 1);
  }
  wva.AddTransition(0, 1, 1, 1);

  QueryCache cache;
  Word w1 = {0, 1, 2, 1};
  Word w2 = {2, 2, 1};
  DynamicDocument doc1(w1, 3, &cache);
  DynamicDocument doc2(w2, 3, &cache);
  auto h1 = doc1.Register(wva);
  auto h2 = doc2.Register(wva);
  EXPECT_EQ(doc1.pipeline(h1).automaton().get(),
            doc2.pipeline(h2).automaton().get());
  QueryCache::Stats s = cache.stats();
  EXPECT_EQ(s.translations, 1u);
  EXPECT_EQ(s.source_hits, 1u);

  // Cache-served answers match freshly compiled pipelines over the same
  // words (fresh private caches -> full cold compile).
  QueryCache fresh1, fresh2;
  DynamicDocument ref1(w1, 3, &fresh1);
  DynamicDocument ref2(w2, 3, &fresh2);
  auto r1 = ref1.Register(wva);
  auto r2 = ref2.Register(wva);
  EXPECT_EQ(doc1.EnumerateAt(doc1.CurrentSnapshot(), h1),
            ref1.EnumerateAt(ref1.CurrentSnapshot(), r1));
  EXPECT_EQ(doc2.EnumerateAt(doc2.CurrentSnapshot(), h2),
            ref2.EnumerateAt(ref2.CurrentSnapshot(), r2));
}

// RegisterPrepared routes through Intern: automaton-identical prepared
// registrations across documents share the plan too.
TEST(QueryCache, PreparedRegistrationsIntern) {
  Rng rng(12);
  QueryCache cache;
  DynamicDocument doc1(RandomTree(20, 3, rng), 3, &cache);
  DynamicDocument doc2(RandomTree(20, 3, rng), 3, &cache);
  auto prepare = [] {
    return HomogenizeBinaryTva(
        TranslateUnrankedTva(QuerySelectLabel(3, 0)).tva);
  };
  auto h1 = doc1.RegisterPrepared(prepare(), BoxEnumMode::kIndexed);
  auto h2 = doc2.RegisterPrepared(prepare(), BoxEnumMode::kIndexed);
  EXPECT_EQ(doc1.pipeline(h1).automaton().get(),
            doc2.pipeline(h2).automaton().get());
  EXPECT_EQ(cache.stats().insertions, 1u);
  EXPECT_EQ(cache.stats().canonical_hits, 1u);
}

// ---- Refcounting, retention, eviction ----

TEST(QueryCache, DropToZeroRetainsUntilCapEvicts) {
  Rng rng(13);
  QueryCache cache;
  cache.set_retention_cap(2);

  {
    DynamicDocument doc(RandomTree(30, 3, rng), 3, &cache);
    doc.Register(QuerySelectLabel(3, 0));
    EXPECT_EQ(cache.stats().unreferenced_entries, 0u)
        << "document + pipeline pin the plan";
  }
  // Document destroyed: the plan dropped to refcount zero but stays warm.
  QueryCache::Stats s = cache.stats();
  EXPECT_EQ(s.entries, 1u);
  EXPECT_EQ(s.unreferenced_entries, 1u);
  EXPECT_EQ(s.evictions, 0u);

  // Re-acquiring the warm plan is a source hit, not a recompile.
  {
    DynamicDocument doc(RandomTree(18, 3, rng), 3, &cache);
    doc.Register(QuerySelectLabel(3, 0));
    s = cache.stats();
    EXPECT_EQ(s.translations, 1u);
    EXPECT_EQ(s.source_hits, 1u);
  }

  // Churning distinct queries beyond the cap evicts LRU warm plans and
  // their source links; live totals stay bounded by the cap.
  for (Label a = 0; a < 3; ++a) {
    for (Label b = 0; b < 3; ++b) {
      if (a == b) continue;
      Handle h = cache.CompileTree(QueryMarkedAncestor(3, a, b));
      EXPECT_TRUE(h != nullptr);
    }
  }
  s = cache.stats();
  EXPECT_GT(s.evictions, 0u);
  EXPECT_LE(s.entries, 2u);
  EXPECT_LE(s.unreferenced_entries, 2u);
  EXPECT_LE(s.source_entries, 2u + 1u)
      << "source links die with their evicted plan";

  // An evicted query recompiles and still answers correctly.
  DynamicDocument doc(RandomTree(22, 3, rng), 3, &cache);
  auto h = doc.Register(QuerySelectLabel(3, 0));
  StaticEngine oracle(doc.tree(), QuerySelectLabel(3, 0));
  EXPECT_EQ(doc.EnumerateAt(doc.CurrentSnapshot(), h), oracle.EnumerateAll());
}

TEST(QueryCache, PinnedPlansAreNeverEvicted) {
  QueryCache cache;
  cache.set_retention_cap(0);
  Handle pinned = cache.CompileTree(QuerySelectAll(3));
  for (Label a = 0; a < 3; ++a) {
    cache.CompileTree(QuerySelectLabel(3, a));  // dropped immediately
  }
  QueryCache::Stats s = cache.stats();
  EXPECT_EQ(s.entries, 1u) << "only the pinned plan survives cap 0";
  EXPECT_EQ(s.unreferenced_entries, 0u);
  EXPECT_EQ(s.evictions, 3u);
  EXPECT_EQ(pinned->tva.num_states(), pinned->kind.size());
}

// ---- Fingerprint-collision fallback ----

// With every fingerprint forced to one constant, correctness rests
// entirely on the exact-comparison fallbacks in both maps: distinct
// queries must stay distinct, identical ones must still dedupe.
TEST(QueryCache, ForcedCollisionsFallBackToExactComparison) {
  QueryCache cache;
  cache.set_test_force_fingerprint_collisions(true);

  Handle a0 = cache.CompileTree(QuerySelectLabel(3, 0));
  Handle a1 = cache.CompileTree(QuerySelectLabel(3, 1));
  Handle a2 = cache.CompileTree(QueryMarkedAncestor(3, 1, 2));
  EXPECT_NE(a0.get(), a1.get());
  EXPECT_NE(a1.get(), a2.get());

  Handle b0 = cache.CompileTree(QuerySelectLabel(3, 0));
  EXPECT_EQ(a0.get(), b0.get()) << "identical query still dedupes";

  QueryCache::Stats s = cache.stats();
  EXPECT_EQ(s.insertions, 3u);
  EXPECT_GT(s.collisions, 0u) << "the fallback actually ran";
  EXPECT_EQ(s.source_hits, 1u);

  // Collided-but-distinct plans answer their own queries correctly.
  Rng rng(14);
  DynamicDocument doc(RandomTree(35, 3, rng), 3, &cache);
  auto h0 = doc.Register(QuerySelectLabel(3, 0));
  auto h2 = doc.Register(QueryMarkedAncestor(3, 1, 2));
  StaticEngine o0(doc.tree(), QuerySelectLabel(3, 0));
  StaticEngine o2(doc.tree(), QueryMarkedAncestor(3, 1, 2));
  EXPECT_EQ(doc.EnumerateAt(doc.CurrentSnapshot(), h0), o0.EnumerateAll());
  EXPECT_EQ(doc.EnumerateAt(doc.CurrentSnapshot(), h2), o2.EnumerateAll());
}

// ---- Shard-server plumbing ----

// One cache threaded through all shard workers: the same query registered
// on documents living on different shards compiles once server-wide.
TEST(QueryCache, ShardServerSharesOneCacheAcrossShards) {
  Rng rng(15);
  QueryCache cache;
  serving::DocumentShardServer::Options opts;
  opts.shards = 4;
  opts.query_cache = &cache;
  serving::DocumentShardServer server(opts);

  std::vector<serving::DocumentShardServer::DocRef> docs;
  std::vector<serving::DocumentShardServer::QueryRef> refs;
  for (int i = 0; i < 8; ++i) {
    docs.push_back(server.AddDocument(RandomTree(24, 3, rng), 3));
  }
  for (auto& d : docs) {
    refs.push_back(server.RegisterQuery(d, QueryMarkedAncestor(3, 1, 2)));
  }
  server.Drain();

  QueryCache::Stats s = cache.stats();
  EXPECT_EQ(s.translations, 1u) << "8 registrations, one compile";
  EXPECT_EQ(s.source_hits, 7u);
  const HomogenizedTva* plan =
      server.document(docs[0]).pipeline(refs[0].handle).automaton().get();
  for (size_t i = 1; i < docs.size(); ++i) {
    EXPECT_EQ(
        server.document(docs[i]).pipeline(refs[i].handle).automaton().get(),
        plan);
  }
  for (size_t i = 0; i < docs.size(); ++i) {
    StaticEngine oracle(server.document(docs[i]).tree(),
                        QueryMarkedAncestor(3, 1, 2));
    SnapshotRef snap = server.Pin(docs[i]);
    EXPECT_EQ(refs[i].view.EnumerateAt(snap), oracle.EnumerateAll());
  }
}

// ---- Concurrent stress (CI TSan filter) ----

// 8 threads hammer one cache with a small query set: compile (acquire),
// hold, release, plus occasional Intern of prepared automata. Exercises
// concurrent source hits, racing cold compiles of the same query, the
// deleter notification path, and eviction under a small retention cap.
TEST(QueryCache, ConcurrentAcquireReleaseStress) {
  QueryCache cache;
  cache.set_retention_cap(3);
  constexpr int kThreads = 8;
  constexpr int kIters = 120;

  std::vector<UnrankedTva> queries;
  for (Label a = 0; a < 3; ++a) queries.push_back(QuerySelectLabel(3, a));
  queries.push_back(QueryMarkedAncestor(3, 1, 2));
  queries.push_back(QueryMarkedAncestor(3, 2, 0));
  queries.push_back(QuerySelectLeaves(3));

  // Reference plans, compiled single-threaded in a private cache.
  std::vector<HomogenizedTva> reference;
  {
    QueryCache ref_cache;
    for (const UnrankedTva& q : queries) {
      reference.push_back(*ref_cache.CompileTree(q));
    }
  }

  std::atomic<bool> failed{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(1000 + t);
      std::vector<Handle> held;
      for (int i = 0; i < kIters; ++i) {
        size_t qi = rng.Index(queries.size());
        Handle h;
        if (i % 5 == 4) {
          h = cache.Intern(HomogenizeBinaryTva(
              TranslateUnrankedTva(queries[qi]).tva));
        } else {
          h = cache.CompileTree(queries[qi]);
        }
        if (!HomogenizedTvaEqual(*h, reference[qi])) failed = true;
        if (rng.Flip(0.5)) {
          held.push_back(std::move(h));  // pin across iterations
        }
        if (held.size() > 4) held.erase(held.begin());
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_FALSE(failed.load()) << "a thread saw a wrong compiled plan";

  QueryCache::Stats s = cache.stats();
  EXPECT_LE(s.entries, queries.size());
  EXPECT_EQ(s.lookups, uint64_t{kThreads} * kIters);
  EXPECT_EQ(s.unreferenced_entries,
            std::min<size_t>(s.entries, 3u))
      << "all handles released; warm plans bounded by the cap";
}

}  // namespace
}  // namespace treenum

// Tests for the process-wide compiled-query cache (automata/query_cache.h):
// cross-document dedupe down to pointer identity with zero recompilation,
// reordered and renumbered sources converging on one plan, refcount-driven
// retention and LRU eviction of warm plans, shard-server plumbing, and an
// 8-thread concurrent Acquire/Release stress run (in the CI TSan filter).
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "automata/query_cache.h"
#include "automata/query_library.h"
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
  EXPECT_EQ(after_first.insertions, 1u);

  auto h2 = doc2.Register(QueryMarkedAncestor(3, 1, 2));
  QueryCache::Stats after_second = cache.stats();
  EXPECT_EQ(after_second.translations, after_first.translations)
      << "second-document registration must not translate";
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

// Renumbered/reordered variants miss the source map (its keys keep
// declaration order) but converge in the canonical map: each compiles
// once and lands on its original's plan.
TEST(QueryCache, RenumberedVariantConvergesCanonically) {
  // QuerySelectLabel(3, 1) with states swapped and declarations reordered.
  UnrankedTva permuted(2, 3, 1);
  permuted.AddFinal(0);
  permuted.AddTransition(0, 1, 0);
  permuted.AddTransition(1, 0, 0);
  permuted.AddTransition(1, 1, 1);
  permuted.AddInit(1, 1, 0);
  for (Label l = 3; l-- > 0;) permuted.AddInit(l, 0, 1);
  // QuerySelectLabel(3, 1) with every relation declared backwards.
  UnrankedTva reordered(2, 3, 1);
  reordered.AddFinal(1);
  reordered.AddTransition(1, 0, 1);
  reordered.AddTransition(0, 1, 1);
  reordered.AddTransition(0, 0, 0);
  reordered.AddInit(1, 1, 1);
  for (Label l = 3; l-- > 0;) reordered.AddInit(l, 0, 0);
  // A word query, and the same query declared backwards.
  Wva w1(2, 2, 1), w2(2, 2, 1);
  w1.AddInitial(0);
  w1.AddTransition(0, 0, 0, 0);
  w1.AddTransition(0, 1, 1, 1);
  w1.AddFinal(1);
  w2.AddFinal(1);
  w2.AddTransition(0, 1, 1, 1);
  w2.AddTransition(0, 0, 0, 0);
  w2.AddInitial(0);

  QueryCache cache;
  Handle a = cache.CompileTree(QuerySelectLabel(3, 1));
  Handle w = cache.CompileWord(w1);
  Handle b = cache.CompileTree(permuted);
  Handle c = cache.CompileTree(reordered);
  Handle v = cache.CompileWord(w2);
  EXPECT_EQ(a.get(), b.get()) << "canonically equal plans must be shared";
  EXPECT_EQ(a.get(), c.get()) << "declaration order must not split plans";
  EXPECT_EQ(w.get(), v.get()) << "word sources converge the same way";
  QueryCache::Stats s = cache.stats();
  EXPECT_EQ(s.translations, 5u) << "each source miss compiles once";
  EXPECT_EQ(s.insertions, 2u) << "but interns into its original's entry";
  EXPECT_EQ(s.canonical_hits, 3u);
  EXPECT_EQ(s.source_hits, 0u);
  EXPECT_EQ(s.source_entries, 5u) << "every source links to its plan";
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

// `q` with every relation declared in reverse order: the same automaton
// under a different source key, so it misses the source map and reaches
// the plan through the canonical map.
UnrankedTva Reversed(const UnrankedTva& q) {
  UnrankedTva r(q.num_states(), q.num_labels(), q.num_vars());
  const auto& inits = q.inits();
  for (auto it = inits.rbegin(); it != inits.rend(); ++it) {
    r.AddInit(it->label, it->vars, it->state);
  }
  const auto& trans = q.transitions();
  for (auto it = trans.rbegin(); it != trans.rend(); ++it) {
    r.AddTransition(it->from, it->child, it->to);
  }
  const auto& finals = q.final_states();
  for (auto it = finals.rbegin(); it != finals.rend(); ++it) r.AddFinal(*it);
  return r;
}

// 8 threads hammer one cache with a small query set: compile (acquire),
// hold, release, plus occasional compiles of reversed declarations.
// Exercises concurrent source hits, concurrent canonical hits, racing cold
// compiles of the same query, the deleter notification path, and eviction
// under a small retention cap.
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
  std::vector<UnrankedTva> reversed;
  for (const UnrankedTva& q : queries) reversed.push_back(Reversed(q));

  // Reference plans, compiled single-threaded in a private cache.
  std::vector<std::string> reference;
  {
    QueryCache ref_cache;
    for (const UnrankedTva& q : queries) {
      reference.push_back(PlanBytes(*ref_cache.CompileTree(q)));
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
        Handle h = cache.CompileTree(i % 5 == 4 ? reversed[qi] : queries[qi]);
        if (PlanBytes(*h) != reference[qi]) failed = true;
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

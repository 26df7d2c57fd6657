// Tests for the deduplicating query registry (core/document.h) and the
// canonical form its query cache keys plans by (automata/homogenize.h): duplicate and state-renumbered queries share
// one refcounted pipeline, unregistering keeps survivors correct, the last
// unregistration destroys the pipeline so later edits refresh only live
// ones, and re-registering a released query compiles nothing and
// round-trips against a StaticEngine oracle.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "automata/homogenize.h"
#include "automata/query_library.h"
#include "automata/translate.h"
#include "baseline/static_engine.h"
#include "core/document.h"
#include "test_util.h"

namespace treenum {
namespace {

using QueryHandle = DynamicDocument::QueryHandle;

// Answers of `h` at the document's current snapshot.
std::vector<Assignment> Answers(const DynamicDocument& doc, QueryHandle h) {
  return doc.EnumerateAt(doc.CurrentSnapshot(), h);
}

// QuerySelectLabel(3, a) with the two states swapped and the relations
// declared in a different order: textually different, automaton-identical.
UnrankedTva SelectLabelPermuted(Label a) {
  // Original states: 0 = no pick below, 1 = exactly one pick below.
  // Here: 1 = no pick below, 0 = exactly one pick below.
  UnrankedTva q(2, 3, 1);
  q.AddFinal(0);
  q.AddTransition(0, 1, 0);
  q.AddTransition(1, 0, 0);
  q.AddTransition(1, 1, 1);
  q.AddInit(a, 1, 0);
  for (Label l = 3; l-- > 0;) q.AddInit(l, 0, 1);
  return q;
}

HomogenizedTva Prepare(const UnrankedTva& q) {
  return HomogenizeBinaryTva(TranslateUnrankedTva(q).tva);
}

// ---- Canonical form ----

TEST(CanonicalForm, InvariantUnderRenumberingAndDeclarationOrder) {
  for (Label a = 0; a < 3; ++a) {
    HomogenizedTva h1 = Prepare(QuerySelectLabel(3, a));
    HomogenizedTva h2 = Prepare(SelectLabelPermuted(a));
    EXPECT_NE(PlanBytes(h1), PlanBytes(h2))
        << "permuted variants should differ before canonicalization";
    CanonicalizeHomogenizedTva(&h1);
    CanonicalizeHomogenizedTva(&h2);
    EXPECT_EQ(PlanBytes(h1), PlanBytes(h2)) << "label " << a;
  }
}

// A directed 6-cycle of states: vertex-transitive, so every state has the
// same refinement color at the fixpoint and signature refinement alone
// cannot order them. The individualization-refinement tie-break must still
// canonicalize every renumbered copy to the same automaton.
HomogenizedTva CyclicTva(const std::vector<State>& perm) {
  size_t n = perm.size();
  BinaryTva tva(n, /*num_labels=*/1, /*num_vars=*/1);
  for (size_t i = 0; i < n; ++i) {
    tva.AddLeafInit(0, 0, perm[i]);
    tva.AddTransition(0, perm[i], perm[i], perm[(i + 1) % n]);
  }
  HomogenizedTva out{std::move(tva), {}};
  out.kind.assign(n, 0);
  return out;
}

TEST(CanonicalForm, BreaksTiesOfVertexTransitiveAutomaton) {
  HomogenizedTva h1 = CyclicTva({0, 1, 2, 3, 4, 5});
  CanonicalizeHomogenizedTva(&h1);
  // Idempotent on the symmetric automaton too.
  HomogenizedTva again = h1;
  CanonicalizeHomogenizedTva(&again);
  EXPECT_EQ(PlanBytes(h1), PlanBytes(again));
  const std::vector<std::vector<State>> perms = {
      {1, 2, 3, 4, 5, 0},  // rotation (an automorphism of the cycle)
      {2, 4, 0, 5, 1, 3},  // arbitrary renumbering
      {5, 4, 3, 2, 1, 0},  // reversal
  };
  for (const std::vector<State>& perm : perms) {
    HomogenizedTva h2 = CyclicTva(perm);
    CanonicalizeHomogenizedTva(&h2);
    EXPECT_EQ(PlanBytes(h1), PlanBytes(h2));
  }
}

TEST(CanonicalForm, IsIdempotent) {
  HomogenizedTva h = Prepare(QueryMarkedAncestor(3, 1, 2));
  CanonicalizeHomogenizedTva(&h);
  HomogenizedTva again = h;
  CanonicalizeHomogenizedTva(&again);
  EXPECT_EQ(PlanBytes(h), PlanBytes(again));
}

TEST(CanonicalForm, DistinguishesDifferentQueries) {
  std::vector<HomogenizedTva> canon;
  std::vector<UnrankedTva> queries;
  queries.push_back(QuerySelectLabel(3, 1));
  queries.push_back(QuerySelectLabel(3, 2));
  queries.push_back(QueryMarkedAncestor(3, 1, 2));
  queries.push_back(QueryMarkedAncestor(3, 2, 1));
  queries.push_back(QueryChildOfLabel(3, 0, 2));
  for (const UnrankedTva& q : queries) {
    HomogenizedTva h = Prepare(q);
    CanonicalizeHomogenizedTva(&h);
    canon.push_back(std::move(h));
  }
  for (size_t i = 0; i < canon.size(); ++i) {
    for (size_t j = i + 1; j < canon.size(); ++j) {
      EXPECT_NE(PlanBytes(canon[i]), PlanBytes(canon[j]))
          << "queries " << i << " and " << j;
    }
  }
}

// ---- Registry: dedupe ----

TEST(QueryRegistry, DuplicateRegistrationsShareOnePipeline) {
  Rng rng(31);
  UnrankedTree tree = RandomTree(40, 3, rng);
  DynamicDocument doc(tree, 3);

  QueryHandle h1 = doc.Register(QueryMarkedAncestor(3, 1, 2));
  QueryHandle h2 = doc.Register(QueryMarkedAncestor(3, 1, 2));
  QueryHandle h3 = doc.Register(QueryMarkedAncestor(3, 1, 2));
  EXPECT_NE(h1, h2);
  EXPECT_NE(h2, h3);
  EXPECT_EQ(doc.num_queries(), 3u);
  EXPECT_EQ(doc.num_pipelines(), 1u);
  EXPECT_EQ(&doc.pipeline(h1), &doc.pipeline(h2));
  EXPECT_EQ(&doc.pipeline(h1), &doc.pipeline(h3));

  DocumentStats stats = doc.stats();
  EXPECT_EQ(stats.live_queries, 3u);
  EXPECT_EQ(stats.live_pipelines, 1u);
  EXPECT_EQ(stats.shared_hits, 2u);
  ASSERT_EQ(stats.pipelines.size(), 1u);
  EXPECT_EQ(stats.pipelines[0].queries, 3u);
}

TEST(QueryRegistry, RenumberedQueriesDedupeToOnePipeline) {
  Rng rng(37);
  UnrankedTree tree = RandomTree(30, 3, rng);
  DynamicDocument doc(tree, 3);
  QueryHandle h1 = doc.Register(QuerySelectLabel(3, 1));
  QueryHandle h2 = doc.Register(SelectLabelPermuted(1));
  EXPECT_EQ(&doc.pipeline(h1), &doc.pipeline(h2));
  EXPECT_EQ(doc.num_pipelines(), 1u);

  // ... and the shared pipeline answers correctly for both.
  StaticEngine oracle(tree, QuerySelectLabel(3, 1));
  EXPECT_EQ(Answers(doc, h2), oracle.EnumerateAll());
}

TEST(QueryRegistry, DistinctQueriesAndModesGetDistinctPipelines) {
  Rng rng(41);
  UnrankedTree tree = RandomTree(30, 3, rng);
  DynamicDocument doc(tree, 3);
  QueryHandle h1 = doc.Register(QuerySelectLabel(3, 1));
  QueryHandle h2 = doc.Register(QuerySelectLabel(3, 2));
  // Same automaton, different box-enum mode: must not share.
  QueryHandle h3 = doc.Register(QuerySelectLabel(3, 1), BoxEnumMode::kNaive);
  EXPECT_NE(&doc.pipeline(h1), &doc.pipeline(h2));
  EXPECT_NE(&doc.pipeline(h1), &doc.pipeline(h3));
  EXPECT_EQ(doc.num_pipelines(), 3u);
  EXPECT_EQ(doc.stats().shared_hits, 0u);
}

TEST(QueryRegistry, WordDocumentDedupesSpanners) {
  Word w;
  for (int i = 0; i < 12; ++i) w.push_back(static_cast<Label>(i % 2));
  auto select_b = [] {
    Wva a(2, 2, 1);
    a.AddInitial(0);
    for (Label l = 0; l < 2; ++l) a.AddTransition(0, l, 0, 0);
    a.AddTransition(0, 1, 1, 1);
    for (Label l = 0; l < 2; ++l) a.AddTransition(1, l, 0, 1);
    a.AddFinal(1);
    return a;
  };
  DynamicDocument doc(w, 2);
  QueryHandle h1 = doc.Register(select_b());
  QueryHandle h2 = doc.Register(select_b());
  EXPECT_EQ(&doc.pipeline(h1), &doc.pipeline(h2));
  EXPECT_EQ(doc.num_pipelines(), 1u);
}

// ---- Registry: unregister / refcounting ----

TEST(QueryRegistry, UnregisterToZeroKeepsSurvivorsCorrect) {
  Rng rng(43);
  UnrankedTree tree = RandomTree(50, 3, rng);
  DynamicDocument doc(tree, 3);

  QueryHandle dup1 = doc.Register(QueryMarkedAncestor(3, 1, 2));
  QueryHandle dup2 = doc.Register(QueryMarkedAncestor(3, 1, 2));
  QueryHandle other = doc.Register(QuerySelectLabel(3, 1));

  // Dropping one duplicate keeps the shared pipeline alive and correct.
  doc.Unregister(dup1);
  EXPECT_FALSE(doc.IsRegistered(dup1));
  EXPECT_TRUE(doc.IsRegistered(dup2));
  EXPECT_EQ(doc.num_queries(), 2u);
  EXPECT_EQ(doc.num_pipelines(), 2u);

  serving::CommandScript script(tree, 4711, serving::WorkloadOptions{3});
  for (int i = 0; i < 60; ++i) ApplyOk(doc, Command::Of(script.NextEdit()));
  EXPECT_EQ(Answers(doc, dup2),
            StaticEngine(script.mirror(), QueryMarkedAncestor(3, 1, 2))
                .EnumerateAll());
  EXPECT_EQ(Answers(doc, other),
            StaticEngine(script.mirror(), QuerySelectLabel(3, 1))
                .EnumerateAll());
}

// The last Unregister destroys the pipeline at once: later edits refresh
// only the live pipelines, exactly what a document serving only them pays.
TEST(QueryRegistry, UnregisterToZeroDestroysThePipeline) {
  Rng rng(79);
  UnrankedTree tree = RandomTree(50, 3, rng);
  DynamicDocument doc(tree, 3);
  DynamicDocument only_a(tree, 3);
  QueryHandle ha = doc.Register(QueryMarkedAncestor(3, 1, 2));
  QueryHandle hb = doc.Register(QuerySelectLabel(3, 1));
  only_a.Register(QueryMarkedAncestor(3, 1, 2));
  EXPECT_EQ(doc.num_pipelines(), 2u);

  doc.Unregister(hb);
  EXPECT_EQ(doc.num_pipelines(), 1u);
  EXPECT_EQ(doc.stats().pipelines.size(), 1u);

  const NodeId n = tree.PreorderNodes()[tree.size() / 2];
  const Label l = static_cast<Label>((tree.label(n) + 1) % 3);
  const UpdateStats want = ApplyOk(only_a, Command::Relabel(n, l));
  ASSERT_GT(want.boxes_recomputed, 0u);
  EXPECT_EQ(ApplyOk(doc, Command::Relabel(n, l)).boxes_recomputed,
            want.boxes_recomputed);
  StaticEngine oracle(doc.tree(), QueryMarkedAncestor(3, 1, 2));
  EXPECT_EQ(Answers(doc, ha), oracle.EnumerateAll());
}

// ---- Registry: re-registration ----

TEST(QueryRegistry, ReRegistrationAfterUnregisterMatchesOracle) {
  Rng rng(53);
  UnrankedTree tree = RandomTree(50, 3, rng);
  QueryCache cache;
  DynamicDocument doc(tree, 3, &cache);

  QueryHandle keep = doc.Register(QueryMarkedAncestor(3, 1, 2));
  QueryHandle drop = doc.Register(QuerySelectLabel(3, 1));
  EXPECT_EQ(doc.num_pipelines(), 2u);

  // Releasing the second query destroys its pipeline, leaving no registry
  // entry behind.
  doc.Unregister(drop);
  EXPECT_EQ(doc.num_pipelines(), 1u);
  EXPECT_EQ(doc.stats().pipelines.size(), 1u);

  serving::CommandScript script(tree, 6007, serving::WorkloadOptions{3});
  for (int i = 0; i < 60; ++i) ApplyOk(doc, Command::Of(script.NextEdit()));
  EXPECT_EQ(Answers(doc, keep),
            StaticEngine(script.mirror(), QueryMarkedAncestor(3, 1, 2))
                .EnumerateAll());

  // Re-registration builds a fresh pipeline over the *current* tree from
  // the plan the cache kept: a source hit with no compile work.
  const QueryCache::Stats before = cache.stats();
  QueryHandle again = doc.Register(QuerySelectLabel(3, 1));
  const QueryCache::Stats after = cache.stats();
  EXPECT_EQ(after.translations, before.translations);
  EXPECT_EQ(after.source_hits, before.source_hits + 1);
  EXPECT_EQ(doc.stats().shared_hits, 0u);
  EXPECT_EQ(Answers(doc, again),
            StaticEngine(script.mirror(), QuerySelectLabel(3, 1))
                .EnumerateAll());

  // ... and stays correct under further edits.
  for (int i = 0; i < 30; ++i) ApplyOk(doc, Command::Of(script.NextEdit()));
  EXPECT_EQ(Answers(doc, again),
            StaticEngine(script.mirror(), QuerySelectLabel(3, 1))
                .EnumerateAll());
}

// A query released before batched commits and registered again after them
// is built over the committed tree, and its fresh pipeline follows the
// next commit.
TEST(QueryRegistry, ReRegistrationAfterBatchedCommitsMatchesOracle) {
  Rng rng(67);
  UnrankedTree tree = RandomTree(50, 3, rng);
  DynamicDocument doc(tree, 3);
  QueryHandle h = doc.Register(QueryMarkedAncestor(3, 1, 2));
  doc.Unregister(h);
  EXPECT_EQ(doc.num_pipelines(), 0u);

  serving::CommandScript script(tree, 6389, serving::WorkloadOptions{3});
  auto commit_round = [&] {
    std::vector<Edit> edits;
    for (int i = 0; i < 16; ++i) edits.push_back(script.NextEdit());
    ApplyBatchOk(doc, edits);
  };
  auto oracle = [&] {
    return StaticEngine(script.mirror(), QueryMarkedAncestor(3, 1, 2))
        .EnumerateAll();
  };
  for (int round = 0; round < 6; ++round) commit_round();
  QueryHandle h2 = doc.Register(QueryMarkedAncestor(3, 1, 2));
  EXPECT_EQ(Answers(doc, h2), oracle());
  commit_round();
  EXPECT_EQ(Answers(doc, h2), oracle());
}

TEST(QueryRegistry, HandlesStayStableAcrossUnregister) {
  Rng rng(61);
  UnrankedTree tree = RandomTree(30, 3, rng);
  DynamicDocument doc(tree, 3);
  QueryHandle h1 = doc.Register(QuerySelectLabel(3, 0));
  QueryHandle h2 = doc.Register(QuerySelectLabel(3, 1));
  QueryHandle h3 = doc.Register(QuerySelectLabel(3, 2));
  doc.Unregister(h2);
  EXPECT_TRUE(doc.IsRegistered(h1));
  EXPECT_FALSE(doc.IsRegistered(h2));
  EXPECT_TRUE(doc.IsRegistered(h3));
  // New handles are never recycled ids of live ones.
  QueryHandle h4 = doc.Register(QuerySelectLabel(3, 1));
  EXPECT_NE(h4, h1);
  EXPECT_NE(h4, h3);
  EXPECT_TRUE(doc.IsRegistered(h4));
  StaticEngine oracle(tree, QuerySelectLabel(3, 2));
  EXPECT_EQ(Answers(doc, h3), oracle.EnumerateAll());
}

// Long-lived documents with query churn (register, serve, unregister,
// repeat) must not accumulate registry state: handle slots recycle and
// released pipelines leave nothing behind, so the registry stays bounded
// by the live working set, not by the number of registrations or distinct
// queries ever seen — and once the cache has compiled every query, churn
// compiles nothing.
TEST(QueryRegistry, ChurnKeepsRegistryMetadataBounded) {
  Rng rng(71);
  UnrankedTree tree = RandomTree(30, 3, rng);
  QueryCache cache;
  DynamicDocument doc(tree, 3, &cache);
  uint64_t translations = 0;

  // 12 distinct (query, mode) combinations cycled 20 times, one live
  // registration at a time: 240 registrations total.
  for (int round = 0; round < 20; ++round) {
    for (Label a = 0; a < 3; ++a) {
      for (Label b = 0; b < 3; ++b) {
        if (a == b) continue;
        BoxEnumMode mode = (a + b) % 2 == 0 ? BoxEnumMode::kIndexed
                                            : BoxEnumMode::kNaive;
        DynamicDocument::QueryHandle h =
            doc.Register(QueryMarkedAncestor(3, a, b), mode);
        EXPECT_TRUE(doc.IsRegistered(h));
        doc.Unregister(h);
        EXPECT_FALSE(doc.IsRegistered(h));
      }
    }
    DocumentStats s = doc.stats();
    EXPECT_LE(s.handle_slots, 1u) << "one live handle -> one recycled slot";
    EXPECT_EQ(s.pipelines.size(), 0u) << "no registration, no pipeline";
    const QueryCache::Stats cs = cache.stats();
    EXPECT_EQ(cs.unreferenced_entries, cs.entries)
        << "no pipeline pins a plan between rounds";
    EXPECT_LE(cs.entries, QueryCache::kDefaultRetentionCap);
    if (round == 0) translations = cs.translations;
    EXPECT_EQ(cs.translations, translations) << "round " << round;
  }

  // A released query re-registers and still answers correctly against the
  // oracle.
  DynamicDocument::QueryHandle h = doc.Register(QueryMarkedAncestor(3, 1, 2));
  StaticEngine oracle(tree, QueryMarkedAncestor(3, 1, 2));
  EXPECT_EQ(Answers(doc, h), oracle.EnumerateAll());
}

// The same 240-registration churn pattern routed through an explicitly
// shared QueryCache across two documents: the per-document registry
// metadata stays bounded exactly as above, and the process-wide cache's
// entry and source tables stay bounded by its retention cap — not by the
// number of registrations ever made.
TEST(QueryRegistry, ChurnThroughSharedCacheStaysBounded) {
  Rng rng(73);
  UnrankedTree tree = RandomTree(30, 3, rng);
  QueryCache cache;
  cache.set_retention_cap(1);
  DynamicDocument doc1(tree, 3, &cache);
  DynamicDocument doc2(tree, 3, &cache);

  // 6 distinct queries cycled 20 times on both documents: 240
  // registrations, one live handle per document at a time.
  for (int round = 0; round < 20; ++round) {
    for (Label a = 0; a < 3; ++a) {
      for (Label b = 0; b < 3; ++b) {
        if (a == b) continue;
        DynamicDocument::QueryHandle h1 =
            doc1.Register(QueryMarkedAncestor(3, a, b));
        DynamicDocument::QueryHandle h2 =
            doc2.Register(QueryMarkedAncestor(3, a, b));
        doc1.Unregister(h1);
        doc2.Unregister(h2);
      }
    }
    for (DynamicDocument* doc : {&doc1, &doc2}) {
      DocumentStats s = doc->stats();
      EXPECT_LE(s.handle_slots, 1u);
      EXPECT_EQ(s.pipelines.size(), 0u) << "no registration, no pipeline";
    }
    QueryCache::Stats cs = cache.stats();
    // No document pins a plan between rounds, so the cache keeps at most
    // its own retention cap.
    EXPECT_LE(cs.entries, 1u);
    EXPECT_LE(cs.source_entries, cs.entries)
        << "sources are erased with their entry";
  }

  // The second document's registrations always hit the plan the first just
  // compiled (or retained): at least one cache hit per pair per round.
  QueryCache::Stats cs = cache.stats();
  EXPECT_GE(cs.source_hits, 120u);
  EXPECT_LT(cs.translations, 240u);
  EXPECT_GT(cs.evictions, 0u);

  // A fully evicted query recompiles through the cache and still answers
  // correctly.
  DynamicDocument::QueryHandle h = doc2.Register(QueryMarkedAncestor(3, 2, 0));
  StaticEngine oracle(tree, QueryMarkedAncestor(3, 2, 0));
  EXPECT_EQ(Answers(doc2, h), oracle.EnumerateAll());
}

}  // namespace
}  // namespace treenum

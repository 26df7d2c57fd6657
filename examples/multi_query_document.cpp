// Multi-query serving: several XPath-style queries tracking one edited
// tree through a shared DynamicDocument. The document owns the balanced
// term encoding — each edit maintains it once, regardless of how many
// queries are registered — and fans the changed path out to every query's
// pipeline.
#include <cstdio>
#include <vector>

#include "automata/query_library.h"
#include "core/document.h"
#include "util/random.h"

using namespace treenum;

int main() {
  Rng rng(11);
  UnrankedTree tree = RandomTree(20000, 3, rng);

  // One shared document over the 3-label alphabet {0, 1, 2}.
  DynamicDocument doc(tree, 3);

  // Four XPath-ish queries registered on it. Each gets its own circuit +
  // jump index; all share the document's term.
  struct Named {
    const char* name;
    DynamicDocument::QueryHandle id;
  };
  std::vector<Named> queries = {
      {"//1                 (select label-1 nodes)",
       doc.Register(QuerySelectLabel(3, 1))},
      {"//2//1              (label-1 under a label-2 ancestor)",
       doc.Register(QueryMarkedAncestor(3, 1, 2))},
      {"//0//1 pairs        (descendant pairs)",
       doc.Register(QueryDescendantPairs(3, 0, 1))},
      {"//2/0               (label-0 child of label-2)",
       doc.Register(QueryChildOfLabel(3, 0, 2))},
  };

  auto report = [&](const char* when) {
    std::printf("%s\n", when);
    for (const Named& nq : queries) {
      std::printf("  %-52s answers=%zu\n", nq.name,
                  doc.EnumerateAt(doc.CurrentSnapshot(), nq.id).size());
    }
  };
  report("initial tree:");

  // Sequential edits: the encoding is maintained once per edit, every
  // registered pipeline refreshes the same changed path.
  std::vector<NodeId> nodes = doc.tree().PreorderNodes();
  UpdateStats stats;
  for (int i = 0; i < 1000; ++i) {
    NodeId n = nodes[rng.Index(nodes.size())];
    stats += doc.Apply(Command::Relabel(n, static_cast<Label>(rng.Index(3))));
  }
  std::printf(
      "after 1000 relabels: boxes_recomputed=%zu (summed over %zu queries)\n",
      stats.boxes_recomputed, doc.num_queries());
  report("after relabels:");

  // Batched transaction: the changed-box set is merged once at the
  // document, then each query's pipeline refreshes it once.
  doc.BeginBatch();
  UpdateStats inserts;
  for (int i = 0; i < 256; ++i) {
    NodeId n = nodes[rng.Index(nodes.size())];
    inserts += doc.Apply(
        Command::InsertFirstChild(n, static_cast<Label>(rng.Index(3))));
  }
  UpdateStats commit = doc.CommitBatch();
  std::printf(
      "batched %zu inserts, one commit: boxes_recomputed=%zu\n",
      inserts.edits_applied, commit.boxes_recomputed);
  report("after batched inserts:");

  // A bad command is rejected before anything changes: the root is not a
  // deletable leaf, and the answers stay as they were.
  UpdateStats bad = doc.Apply(Command::DeleteLeaf(doc.tree().root()));
  std::printf("delete the root: %s\n", StatusName(bad.status));
  report("after the rejected delete:");

  // Query dedupe: re-registering an already-registered query (even under
  // a different construction of the same automaton) is admitted to the
  // existing pipeline — refresh cost stays per *distinct* query.
  DynamicDocument::QueryHandle dup = doc.Register(QuerySelectLabel(3, 1));
  std::printf(
      "\nregistered //1 again: handles=%zu, distinct pipelines=%zu "
      "(same object: %s)\n",
      doc.num_queries(), doc.num_pipelines(),
      &doc.pipeline(dup) == &doc.pipeline(queries[0].id) ? "yes" : "no");

  // Releasing the duplicate leaves the shared pipeline to queries[0];
  // releasing the last registration of //2/0 destroys its pipeline, while
  // the process-wide query cache keeps its compiled plan.
  doc.Unregister(dup);              // still referenced by queries[0] - shared
  doc.Unregister(queries[3].id);    // last registration -> pipeline destroyed
  DocumentStats reg = doc.stats();
  std::printf("after releases: pipelines=%zu (shared_hits=%zu)\n",
              reg.live_pipelines, reg.shared_hits);
  for (const DocumentStats::PipelineStats& ps : reg.pipelines) {
    std::printf("  pipeline: queries=%zu width=%zu\n", ps.queries, ps.width);
  }

  // Re-registering the released query is a cache hit: no compile work, only
  // a fresh pipeline over the current tree.
  const uint64_t translations = doc.query_cache().stats().translations;
  queries[3].id = doc.Register(QueryChildOfLabel(3, 0, 2));
  std::printf("re-registered //2/0: translations +%llu, pipelines=%zu\n",
              static_cast<unsigned long long>(
                  doc.query_cache().stats().translations - translations),
              doc.num_pipelines());
  report("after re-registration:");
  return 0;
}

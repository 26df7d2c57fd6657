// Dynamic aggregation: maintain the number of query answers under updates
// without enumerating (the §4 multiset-semantics remark turned into a
// feature). For unambiguous automata — all query-library queries are —
// the maintained run count equals the answer count, and each update
// refreshes it by recomputing only the O(log n) changed boxes.
#include <cstdio>

#include "automata/homogenize.h"
#include "automata/query_library.h"
#include "automata/translate.h"
#include "circuit/circuit.h"
#include "counting/run_count.h"
#include "falgebra/update.h"
#include "util/random.h"

using namespace treenum;

int main() {
  Rng rng(99);
  UnrankedTva query = QueryMarkedAncestor(3, /*marked=*/1, /*special=*/2);
  HomogenizedTva h = HomogenizeBinaryTva(TranslateUnrankedTva(query).tva);

  DynamicEncoding enc(RandomTree(20000, 3, rng), 3);
  AssignmentCircuit circuit(&enc.term(), &h.tva, &h.kind);
  circuit.BuildAll();
  RunCounter counter(&circuit);
  counter.BuildAll();

  std::printf("tree: %zu nodes, initial answer count: %llu\n",
              enc.tree().size(),
              static_cast<unsigned long long>(
                  counter.TotalAcceptingRuns(enc.term().root())));

  // A stream of relabelings; after each, the count is current again after
  // touching only the changed path.
  std::vector<NodeId> nodes = enc.tree().PreorderNodes();
  size_t total_boxes = 0;
  for (int i = 0; i < 10; ++i) {
    NodeId n = nodes[rng.Index(nodes.size())];
    Label l = static_cast<Label>(rng.Index(3));
    UpdateResult r = enc.Relabel(n, l);
    for (TermNodeId id : r.freed) {
      circuit.FreeBox(id);
      counter.FreeBoxCounts(id);
    }
    for (TermNodeId id : r.changed_bottom_up) {
      circuit.RebuildBox(id);
      counter.RebuildBoxCounts(id);
    }
    total_boxes += r.changed_bottom_up.size();
    std::printf("relabel node %u -> %c: count = %llu  (%zu boxes touched)\n",
                n, static_cast<char>('a' + l),
                static_cast<unsigned long long>(
                    counter.TotalAcceptingRuns(enc.term().root())),
                r.changed_bottom_up.size());
  }
  std::printf("average boxes touched per update: %.1f (tree has %zu nodes)\n",
              static_cast<double>(total_boxes) / 10.0, enc.tree().size());
  return 0;
}

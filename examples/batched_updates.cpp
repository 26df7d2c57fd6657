// Batched updates: the same edit script drives the paper's dynamic engine
// and its no-index variant, first as one transaction (BeginBatch / edits /
// CommitBatch) and then edit-by-edit. The batch coalesces the changed
// term-node sets, so boxes shared between edit paths — in particular the
// O(log n) root path — are refreshed once per batch. The static baseline
// preprocesses the edited tree afresh. Every row's answers are checked
// against naive materialization over the edited tree; the example exits
// with 1 if any row differs.
#include <cstdio>
#include <string>
#include <vector>

#include "automata/query_library.h"
#include "baseline/naive_engine.h"
#include "baseline/static_engine.h"
#include "core/tree_enumerator.h"
#include "util/random.h"

using namespace treenum;

int main() {
  Rng rng(7);
  UnrankedTva query = QueryMarkedAncestor(3, 1, 2);
  UnrankedTree tree = RandomTree(5000, 3, rng);

  // A batch of clustered edits, generated against a mirror so the same
  // script is valid for every engine.
  UnrankedTree mirror = tree;
  std::vector<Edit> batch;
  std::vector<NodeId> nodes = mirror.PreorderNodes();
  for (int i = 0; i < 32; ++i) {
    NodeId n = nodes[rng.Index(nodes.size())];
    Label l = static_cast<Label>(rng.Index(3));
    if (rng.Index(2) == 0) {
      mirror.Relabel(n, l);
      batch.push_back(Edit::Relabel(n, l));
    } else {
      mirror.InsertFirstChild(n, l);
      batch.push_back(Edit::InsertFirstChild(n, l));
    }
  }

  const std::vector<Assignment> expected =
      MaterializeAssignments(mirror, query);
  int status = 0;
  auto report = [&](const char* name, const std::string& boxes,
                    const std::vector<Assignment>& answers) {
    const bool agrees = answers == expected;
    std::printf("%-28s edits=%zu boxes_recomputed=%s answers=%zu%s\n", name,
                batch.size(), boxes.c_str(), answers.size(),
                agrees ? "" : "  DIFFERS FROM MATERIALIZATION");
    if (!agrees) status = 1;
  };

  for (BoxEnumMode mode : {BoxEnumMode::kIndexed, BoxEnumMode::kNaive}) {
    const bool indexed = mode == BoxEnumMode::kIndexed;
    TreeEnumerator batched(tree, query, mode);
    batched.BeginBatch();
    for (const Edit& e : batch) batched.document().ApplyEdit(e);
    const size_t boxes = batched.CommitBatch().boxes_recomputed;
    report(indexed ? "indexed (this paper), batch" : "no-index baseline, batch",
           std::to_string(boxes), batched.EnumerateAll());

    TreeEnumerator per_edit(tree, query, mode);
    size_t sum = 0;
    for (const Edit& e : batch) {
      sum += per_edit.document().ApplyEdit(e).boxes_recomputed;
    }
    report(indexed ? "indexed, per-edit" : "no-index baseline, per-edit",
           std::to_string(sum), per_edit.EnumerateAll());
  }
  report("static rebuild", "all", StaticEngine(mirror, query).EnumerateAll());
  return status;
}

#include "enumeration/index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>

#include "automata/homogenize.h"
#include "automata/query_library.h"
#include "automata/translate.h"
#include "falgebra/builder.h"
#include "falgebra/update.h"
#include "test_util.h"

namespace treenum {
namespace {

// --- naive reference implementations -------------------------------------

std::map<TermNodeId, size_t> PreorderNumbers(const Term& term) {
  std::map<TermNodeId, size_t> num;
  size_t next = 0;
  auto walk = [&](auto&& self, TermNodeId id) -> void {
    num[id] = next++;
    if (!term.IsLeaf(id)) {
      self(self, term.node(id).left);
      self(self, term.node(id).right);
    }
  };
  walk(walk, term.root());
  return num;
}

// Per alive box, its ⊤-collapse inputs derived from δ (CollapseInputs).
using CollapseMap =
    std::map<TermNodeId, std::vector<std::vector<CollapseInput>>>;

CollapseMap AllCollapseInputs(const AssignmentCircuit& c) {
  CollapseMap out;
  for (TermNodeId id = 0; id < c.term().id_bound(); ++id) {
    if (c.term().IsAlive(id)) out.emplace(id, CollapseInputs(c, id));
  }
  return out;
}

// The child ∪-gates, as (box, dense gate), that feed ∪-gate u of `box`.
std::vector<std::pair<TermNodeId, uint32_t>> ChildGatesFeeding(
    const AssignmentCircuit& c, const CollapseMap& collapse, TermNodeId box,
    uint32_t u) {
  const TermNode& t = c.term().node(box);
  std::vector<std::pair<TermNodeId, uint32_t>> out;
  for (const auto& [side, state] :
       collapse.at(box)[c.box(box).union_state(u)]) {
    const TermNodeId child = side == 0 ? t.left : t.right;
    out.emplace_back(child,
                     static_cast<uint32_t>(c.box(child).union_idx(state)));
  }
  return out;
}

TermNodeId NaiveLca(const Term& term, TermNodeId a, TermNodeId b) {
  std::vector<TermNodeId> ancestors;
  for (TermNodeId x = a; x != kNoTerm; x = term.node(x).parent) {
    ancestors.push_back(x);
  }
  for (TermNodeId y = b; y != kNoTerm; y = term.node(y).parent) {
    for (TermNodeId x : ancestors) {
      if (x == y) return y;
    }
  }
  return kNoTerm;
}

// Boxes containing var/×-gates ∪-reachable from gate `u` of `box`
// (the interesting boxes of {u}).
std::vector<TermNodeId> NaiveInteresting(const AssignmentCircuit& c,
                                         const CollapseMap& collapse,
                                         TermNodeId box, uint32_t u) {
  std::vector<TermNodeId> out;
  std::vector<std::pair<TermNodeId, uint32_t>> stack{{box, u}};
  std::set<std::pair<TermNodeId, uint32_t>> seen;
  while (!stack.empty()) {
    auto [b, g] = stack.back();
    stack.pop_back();
    if (!seen.emplace(b, g).second) continue;
    if (c.box(b).HasNonUnionInput(g)) out.push_back(b);
    for (const auto& input : ChildGatesFeeding(c, collapse, b, g)) {
      stack.push_back(input);
    }
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

struct Pipeline {
  HomogenizedTva h;
  Encoding enc;
  AssignmentCircuit circuit;
  EnumIndex index;

  Pipeline(const UnrankedTva& q, UnrankedTree tree)
      : h(HomogenizeBinaryTva(TranslateUnrankedTva(q).tva)),
        enc(EncodeTree(std::move(tree), q.num_labels())),
        circuit(&enc.term, &h.tva, &h.kind),
        index(&circuit) {
    circuit.BuildAll();
    index.BuildAll();
  }
};

void CheckIndexAgainstNaive(const AssignmentCircuit& circuit,
                            const EnumIndex& index) {
  const Term& term = circuit.term();
  ASSERT_EQ(index.ValidateStorage(), "");
  std::map<TermNodeId, size_t> pre = PreorderNumbers(term);
  const CollapseMap collapse = AllCollapseInputs(circuit);
  for (TermNodeId id = 0; id < term.id_bound(); ++id) {
    if (!term.IsAlive(id)) continue;
    const Box box = circuit.box(id);
    if (box.num_unions() == 0) continue;
    const BoxIndex bi = index.at(id);
    ASSERT_EQ(bi.num_unions(), box.num_unions());

    // Candidates sorted strictly by preorder.
    for (size_t i = 0; i + 1 < bi.num_cands(); ++i) {
      EXPECT_LT(pre.at(bi.cand_box(static_cast<int32_t>(i))),
                pre.at(bi.cand_box(static_cast<int32_t>(i + 1))));
    }

    for (uint32_t u = 0; u < box.num_unions(); ++u) {
      std::vector<TermNodeId> interesting =
          NaiveInteresting(circuit, collapse, id, u);
      ASSERT_FALSE(interesting.empty());
      // fib = preorder-first interesting box.
      TermNodeId first = interesting[0];
      for (TermNodeId b : interesting) {
        if (pre.at(b) < pre.at(first)) first = b;
      }
      EXPECT_EQ(bi.cand_box(bi.fib(u)), first) << "box " << id << " gate "
                                               << u;
      // span = lca of all interesting boxes.
      TermNodeId lca = interesting[0];
      for (TermNodeId b : interesting) lca = NaiveLca(term, lca, b);
      EXPECT_EQ(bi.cand_box(bi.span(u)), lca) << "box " << id << " gate "
                                              << u;
    }

    // Candidate lca table agrees with the naive lca.
    for (size_t a = 0; a < bi.num_cands(); ++a) {
      for (size_t b = 0; b < bi.num_cands(); ++b) {
        TermNodeId expected = NaiveLca(term, bi.cand_box(static_cast<int32_t>(a)),
                                       bi.cand_box(static_cast<int32_t>(b)));
        EXPECT_EQ(bi.cand_box(bi.Lca(static_cast<int32_t>(a),
                                     static_cast<int32_t>(b))),
                  expected);
      }
    }

    // Reachability relations: R(cand, B)[g', u] iff g' ∪⇝ u. Verify via
    // the naive closure from each gate u.
    for (uint32_t u = 0; u < box.num_unions(); ++u) {
      // Gates reachable from u by ∪-paths, per box.
      std::map<TermNodeId, std::set<uint32_t>> reach;
      std::vector<std::pair<TermNodeId, uint32_t>> stack{{id, u}};
      while (!stack.empty()) {
        auto [b, g] = stack.back();
        stack.pop_back();
        if (!reach[b].insert(g).second) continue;
        for (const auto& input : ChildGatesFeeding(circuit, collapse, b, g)) {
          stack.push_back(input);
        }
      }
      for (int32_t c = 0; c < static_cast<int32_t>(bi.num_cands()); ++c) {
        TermNodeId cbox = bi.cand_box(c);
        const BitMatrixView rel = bi.cand_rel(c);
        const auto it = reach.find(cbox);
        for (size_t g = 0; g < circuit.box(cbox).num_unions(); ++g) {
          bool expected =
              it != reach.end() && it->second.count(static_cast<uint32_t>(g));
          EXPECT_EQ(rel.Get(g, u), expected)
              << "box " << id << " cand box " << cbox << " g " << g << " u "
              << u;
        }
      }
    }
  }
}

TEST(Index, MatchesNaiveReferenceOnQueries) {
  Rng rng(83);
  UnrankedTva queries[] = {QuerySelectLabel(2, 1),
                           QueryMarkedAncestor(3, 1, 2),
                           QueryDescendantPairs(2, 0, 1)};
  for (const UnrankedTva& q : queries) {
    for (int trial = 0; trial < 6; ++trial) {
      Pipeline p(q, RandomTree(1 + rng.Index(40), q.num_labels(), rng));
      CheckIndexAgainstNaive(p.circuit, p.index);
    }
  }
}

TEST(Index, MatchesNaiveReferenceOnPathTrees) {
  Rng rng(89);
  Pipeline p(QueryMarkedAncestor(3, 1, 2), PathTree(30, 3, rng));
  CheckIndexAgainstNaive(p.circuit, p.index);
}

TEST(Index, MatchesNaiveReferenceOnRandomAutomata) {
  Rng rng(97);
  for (int trial = 0; trial < 10; ++trial) {
    UnrankedTva q = RandomUnrankedTva(rng, 3, 2, 1, 3, 8);
    Pipeline p(q, RandomTree(1 + rng.Index(25), 2, rng));
    CheckIndexAgainstNaive(p.circuit, p.index);
  }
}

// The one-pass lca fold that RebuildBoxIndex and the jump step apply to a
// set of gates' spans must equal the quadratic oracle — the minimum
// candidate index over all pairwise lcas Lca(span[g_i], span[g_j]), i <= j
// (self-pairs included) — on randomized indexes and random gate subsets.
int32_t SpanLocalPairwiseOracle(const BoxIndex& bi,
                                const std::vector<uint32_t>& gates) {
  int32_t best = bi.span(gates[0]);
  for (size_t i = 0; i < gates.size(); ++i) {
    for (size_t j = i; j < gates.size(); ++j) {
      best = std::min(best, bi.Lca(bi.span(gates[i]), bi.span(gates[j])));
    }
  }
  return best;
}

TEST(Index, SpanLocalFoldMatchesPairwiseOracle) {
  Rng rng(211);
  for (int trial = 0; trial < 8; ++trial) {
    UnrankedTva q = trial % 2 ? RandomUnrankedTva(rng, 3, 2, 1, 3, 8)
                              : QueryMarkedAncestor(3, 1, 2);
    Pipeline p(q, RandomTree(5 + rng.Index(40), q.num_labels(), rng));
    const Term& term = p.circuit.term();
    for (TermNodeId id = 0; id < term.id_bound(); ++id) {
      if (!term.IsAlive(id)) continue;
      size_t nu = p.circuit.box(id).num_unions();
      if (nu == 0) continue;
      const BoxIndex bi = p.index.at(id);
      for (int subset = 0; subset < 10; ++subset) {
        std::vector<uint32_t> gates;
        for (uint32_t u = 0; u < nu; ++u) {
          if (rng.Index(2)) gates.push_back(u);
        }
        if (gates.empty()) gates.push_back(static_cast<uint32_t>(rng.Index(nu)));
        int32_t fold = bi.span(gates[0]);
        for (size_t i = 1; i < gates.size(); ++i) {
          fold = bi.Lca(fold, bi.span(gates[i]));
        }
        EXPECT_EQ(fold, SpanLocalPairwiseOracle(bi, gates)) << "box " << id;
      }
    }
  }
}

TEST(Index, IncrementalRebuildMatchesFresh) {
  // Scripted relabels, inserts, leaf deletes and subtree moves/deletes,
  // refreshed box by box as EnumerationPipeline::Apply does; the index must
  // match the naive reference after every step, at w = 77 too.
  Rng rng(101);
  for (const UnrankedTva& q :
       {QuerySelectLabel(2, 1), QueryMarkedAncestor(3, 1, 2)}) {
    HomogenizedTva h = HomogenizeBinaryTva(TranslateUnrankedTva(q).tva);
    UnrankedTree tree = RandomTree(30, q.num_labels(), rng);
    DynamicEncoding dyn(tree, q.num_labels());
    AssignmentCircuit circuit(&dyn.term(), &h.tva, &h.kind);
    circuit.BuildAll();
    EnumIndex index(&circuit);
    index.BuildAll();
    serving::WorkloadOptions opts{q.num_labels()};
    opts.structural_fraction = 0.2;
    serving::CommandScript script(tree, 1000 + h.tva.num_states(), opts);

    for (int step = 0; step < 40; ++step) {
      const UpdateResult& r = ApplyToEncoding(script.Next(), dyn);
      for (TermNodeId id : r.freed) {
        if (dyn.term().IsAlive(id)) continue;
        circuit.FreeBox(id);
        index.FreeBoxIndex(id);
      }
      circuit.ReserveForRebuild(r.changed_bottom_up.size());
      index.ReserveForRebuild(r.changed_bottom_up.size());
      for (TermNodeId id : r.changed_bottom_up) {
        circuit.RebuildBox(id);
        index.RebuildBoxIndex(id);
      }
      SCOPED_TRACE("w " + std::to_string(h.tva.num_states()) + " step " +
                   std::to_string(step));
      CheckIndexAgainstNaive(circuit, index);
    }
  }
}

}  // namespace
}  // namespace treenum

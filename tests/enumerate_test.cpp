#include "enumeration/enumerate.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <utility>

#include "automata/homogenize.h"
#include "automata/query_library.h"
#include "automata/regex_spanner.h"
#include "circuit/assignment_circuit.h"
#include "core/tree_enumerator.h"
#include "core/word_enumerator.h"
#include "test_util.h"

namespace treenum {
namespace {

struct HHPipeline {
  HomogenizedTva h;
  Term term;
  AssignmentCircuit circuit;
  EnumIndex index;

  HHPipeline(const BinaryTva& raw, Rng& rng, size_t leaves, size_t labels)
      : h(HomogenizeBinaryTva(raw)),
        term(TermAlphabet{labels}),
        circuit(&term, &h.tva, &h.kind),
        index(&circuit) {
    term.set_root(BuildRandomHHTerm(term, rng, leaves, labels));
    circuit.BuildAll();
    index.BuildAll();
  }

  // All boxed sets of 1-state union gates at the root.
  std::vector<uint32_t> RootGamma() const {
    std::vector<uint32_t> g;
    const Box& b = circuit.box(term.root());
    for (size_t u = 0; u < b.num_unions(); ++u) {
      if (h.kind[b.union_state(u)] == 1) {
        g.push_back(static_cast<uint32_t>(u));
      }
    }
    return g;
  }
};

// Runs a cursor to completion; all assignments, sorted.
std::vector<Assignment> CollectAll(AssignmentCursor& cursor) {
  std::vector<Assignment> out;
  EnumOutput o;
  while (cursor.Next(&o)) out.push_back(o.ToAssignment());
  std::sort(out.begin(), out.end());
  return out;
}

// Expected S(Γ) via circuit materialization.
std::vector<Assignment> ExpectedOfGamma(const HHPipeline& p,
                                        const std::vector<uint32_t>& gamma) {
  std::set<Assignment> all;
  const Box& b = p.circuit.box(p.term.root());
  for (uint32_t u : gamma) {
    std::set<Assignment> s =
        MaterializeGamma(p.circuit, p.term.root(), b.union_state(u));
    all.insert(s.begin(), s.end());
  }
  return {all.begin(), all.end()};
}

TEST(Enumerate, IndexedMatchesMaterializationNoDuplicates) {
  Rng rng(111);
  for (int trial = 0; trial < 40; ++trial) {
    BinaryTva raw = RandomBinaryTvaOnHH(rng, 3, 2, 1, 4, 9);
    HHPipeline p(raw, rng, 1 + rng.Index(8), 2);
    std::vector<uint32_t> gamma = p.RootGamma();
    if (gamma.empty()) continue;
    AssignmentCursor cursor(&p.circuit, &p.index, BoxEnumMode::kIndexed,
                            p.term.root(), gamma);
    std::vector<Assignment> got;
    EnumOutput o;
    while (cursor.Next(&o)) got.push_back(o.ToAssignment());
    // No duplicates.
    std::vector<Assignment> sorted = got;
    std::sort(sorted.begin(), sorted.end());
    EXPECT_TRUE(std::adjacent_find(sorted.begin(), sorted.end()) ==
                sorted.end())
        << "duplicate produced, trial " << trial;
    EXPECT_EQ(sorted, ExpectedOfGamma(p, gamma)) << "trial " << trial;
  }
}

TEST(Enumerate, NaiveModeProducesSameSet) {
  Rng rng(113);
  for (int trial = 0; trial < 30; ++trial) {
    BinaryTva raw = RandomBinaryTvaOnHH(rng, 3, 2, 2, 5, 9);
    HHPipeline p(raw, rng, 1 + rng.Index(7), 2);
    std::vector<uint32_t> gamma = p.RootGamma();
    if (gamma.empty()) continue;
    AssignmentCursor indexed(&p.circuit, &p.index, BoxEnumMode::kIndexed,
                             p.term.root(), gamma);
    AssignmentCursor naive(&p.circuit, nullptr, BoxEnumMode::kNaive,
                           p.term.root(), gamma);
    EXPECT_EQ(CollectAll(indexed), CollectAll(naive)) << "trial " << trial;
  }
}

TEST(Enumerate, ProvenanceIsCorrect) {
  // Prov(S, Γ) = {g ∈ Γ | S ∈ S(g)} (Theorem 5.3), in both box-enum modes.
  Rng rng(127);
  for (int trial = 0; trial < 25; ++trial) {
    BinaryTva raw = RandomBinaryTvaOnHH(rng, 3, 2, 1, 4, 8);
    HHPipeline p(raw, rng, 1 + rng.Index(6), 2);
    std::vector<uint32_t> gamma = p.RootGamma();
    if (gamma.empty()) continue;
    // Materialize per-gate sets.
    const Box& b = p.circuit.box(p.term.root());
    std::vector<std::set<Assignment>> per_gate;
    for (uint32_t u : gamma) {
      per_gate.push_back(
          MaterializeGamma(p.circuit, p.term.root(), b.union_state(u)));
    }
    for (BoxEnumMode mode : {BoxEnumMode::kIndexed, BoxEnumMode::kNaive}) {
      AssignmentCursor cursor(&p.circuit, &p.index, mode, p.term.root(),
                              gamma);
      EnumOutput o;
      while (cursor.Next(&o)) {
        Assignment a = o.ToAssignment();
        for (size_t i = 0; i < gamma.size(); ++i) {
          bool in_prov = (o.provenance[i / 64] >> (i % 64)) & 1u;
          bool in_set = per_gate[i].count(a) > 0;
          EXPECT_EQ(in_prov, in_set) << "trial " << trial << " gate " << i
                                     << " a " << a.ToString();
        }
      }
    }
  }
}

// Γ of a pipeline's root: the ∪-gates of its final 1-states.
std::vector<uint32_t> FinalGamma(const EnumerationPipeline& p) {
  const Box b = p.circuit().box(p.circuit().term().root());
  std::vector<uint32_t> gamma;
  for (State q : p.automaton()->tva.final_states()) {
    if (p.automaton()->kind[q] == 1 && b.union_idx(q) != kNoGate) {
      gamma.push_back(static_cast<uint32_t>(b.union_idx(q)));
    }
  }
  return gamma;
}

// Two- and three-variable queries on documents of at least 64 leaves, so
// the ×-recursion keeps several levels on the cursor's stack at once.
struct DeepCase {
  std::string name;
  std::unique_ptr<TreeEnumerator> tree;  // exactly one of tree, word
  std::unique_ptr<WordEnumerator> word;

  const EnumerationPipeline& pipeline() const {
    return tree ? tree->pipeline() : word->pipeline();
  }
};

std::vector<DeepCase> DeepCases() {
  Rng rng(173);
  std::string letters;
  for (int i = 0; i < 96; ++i) {
    letters += static_cast<char>('a' + rng.Index(3));
  }
  std::vector<DeepCase> cases;
  cases.push_back({"descendant pairs",
                   std::make_unique<TreeEnumerator>(
                       RandomTree(160, 3, rng), QueryDescendantPairs(3, 0, 1)),
                   nullptr});
  cases.push_back(
      {"a..b..c spanner", nullptr,
       std::make_unique<WordEnumerator>(
           ToWord(letters),
           CompileRegexSpanner(".*<0:a>.*<1:b>.*<2:c>.*", 3, 3))});
  cases.push_back({"a..c spanner", nullptr,
                   std::make_unique<WordEnumerator>(
                       ToWord(letters),
                       CompileRegexSpanner(".*<0:a>.*<1:c>.*", 3, 2))});
  return cases;
}

TEST(Enumerate, DeepLevelStacksMatchMaterialization) {
  for (const DeepCase& c : DeepCases()) {
    const EnumerationPipeline& p = c.pipeline();
    const TermNodeId root = p.circuit().term().root();
    const std::vector<uint32_t> gamma = FinalGamma(p);
    ASSERT_FALSE(gamma.empty()) << c.name;
    std::set<Assignment> expected;
    const Box b = p.circuit().box(root);
    for (uint32_t u : gamma) {
      std::set<Assignment> s =
          MaterializeGamma(p.circuit(), root, b.union_state(u));
      expected.insert(s.begin(), s.end());
    }
    ASSERT_GT(expected.size(), 16u) << c.name;
    for (BoxEnumMode mode : {BoxEnumMode::kIndexed, BoxEnumMode::kNaive}) {
      AssignmentCursor cursor(&p.circuit(), &p.index(), mode, root, gamma);
      std::vector<Assignment> got = CollectAll(cursor);
      EXPECT_TRUE(std::adjacent_find(got.begin(), got.end()) == got.end())
          << c.name << ": duplicate produced";
      EXPECT_EQ(got, std::vector<Assignment>(expected.begin(), expected.end()))
          << c.name;
    }
  }
}

// A cursor abandoned after k answers and then Reset yields the same
// sequence — answers and provenance, in order — as a fresh cursor.
TEST(Enumerate, ResetAfterAbandonedEnumerationRestartsTheSequence) {
  using Answer = std::pair<std::vector<std::pair<VarMask, NodeId>>,
                           std::vector<uint64_t>>;
  for (const DeepCase& c : DeepCases()) {
    const EnumerationPipeline& p = c.pipeline();
    const TermNodeId root = p.circuit().term().root();
    const std::vector<uint32_t> gamma = FinalGamma(p);
    for (BoxEnumMode mode : {BoxEnumMode::kIndexed, BoxEnumMode::kNaive}) {
      auto drain = [](AssignmentCursor& cursor, size_t limit) {
        std::vector<Answer> seq;
        EnumOutput o;
        while (seq.size() < limit && cursor.Next(&o)) {
          seq.emplace_back(o.contributions, o.provenance);
        }
        return seq;
      };
      AssignmentCursor fresh(&p.circuit(), &p.index(), mode, root, gamma);
      const std::vector<Answer> want = drain(fresh, SIZE_MAX);
      const size_t fresh_steps = fresh.steps();
      AssignmentCursor reused(&p.circuit(), &p.index(), mode, root, gamma);
      for (size_t k : {size_t{0}, size_t{1}, size_t{7}, want.size() / 2,
                       want.size()}) {
        drain(reused, k);
        reused.Reset(root, gamma);
        EXPECT_EQ(drain(reused, SIZE_MAX), want)
            << c.name << " mode " << static_cast<int>(mode) << " k " << k;
        EXPECT_EQ(reused.steps(), fresh_steps) << c.name << " k " << k;
        reused.Reset(root, gamma);
      }
    }
  }
}

TEST(Enumerate, SingletonGammaSubsets) {
  // Enumerating each singleton {g} yields exactly S(g).
  Rng rng(131);
  for (int trial = 0; trial < 20; ++trial) {
    BinaryTva raw = RandomBinaryTvaOnHH(rng, 3, 2, 1, 4, 8);
    HHPipeline p(raw, rng, 1 + rng.Index(6), 2);
    const Box& b = p.circuit.box(p.term.root());
    for (size_t u = 0; u < b.num_unions(); ++u) {
      if (p.h.kind[b.union_state(u)] != 1) continue;
      AssignmentCursor cursor(&p.circuit, &p.index, BoxEnumMode::kIndexed,
                              p.term.root(),
                              {static_cast<uint32_t>(u)});
      std::set<Assignment> expected =
          MaterializeGamma(p.circuit, p.term.root(), b.union_state(u));
      std::vector<Assignment> want(expected.begin(), expected.end());
      EXPECT_EQ(CollectAll(cursor), want);
    }
  }
}

TEST(Enumerate, DelayStepsIndependentOfDepthOnPathChains) {
  // A long ⊕HH chain where only the far end has non-empty annotations:
  // the indexed cursor's per-answer step count must not grow with the chain
  // length, the naive one does.
  TermAlphabet alphabet(2);
  BinaryTva raw(2, alphabet.num_labels(), 1);
  // label 0 leaves: only empty annotation, state 0 (will homogenize to a
  // 0-state); label 1 leaf: annotated, state 1.
  raw.AddLeafInit(alphabet.TreeLeaf(0), 0, 0);
  raw.AddLeafInit(alphabet.TreeLeaf(1), 1, 1);
  raw.AddLeafInit(alphabet.TreeLeaf(1), 0, 0);
  Label op = alphabet.Op(TermOp::kConcatHH);
  raw.AddTransition(op, 0, 0, 0);
  raw.AddTransition(op, 0, 1, 1);
  raw.AddTransition(op, 1, 0, 1);
  raw.AddFinal(1);
  HomogenizedTva h = HomogenizeBinaryTva(raw);

  auto run = [&](size_t chain, BoxEnumMode mode) -> size_t {
    Term term(TermAlphabet{2});
    // left-deep chain: (((x ⊕ a) ⊕ a) ⊕ a) ... with x the annotated leaf.
    TermNodeId cur = term.NewLeaf(alphabet.TreeLeaf(1), 0);
    for (size_t i = 0; i < chain; ++i) {
      TermNodeId pad =
          term.NewLeaf(alphabet.TreeLeaf(0), static_cast<NodeId>(i + 1));
      cur = term.NewNode(TermOp::kConcatHH, cur, pad);
    }
    term.set_root(cur);
    AssignmentCircuit circuit(&term, &h.tva, &h.kind);
    circuit.BuildAll();
    EnumIndex index(&circuit);
    index.BuildAll();
    const Box& b = circuit.box(term.root());
    std::vector<uint32_t> gamma;
    for (size_t u = 0; u < b.num_unions(); ++u) {
      if (h.kind[b.union_state(u)] == 1) {
        gamma.push_back(static_cast<uint32_t>(u));
      }
    }
    AssignmentCursor cursor(&circuit, &index, mode, term.root(), gamma);
    EnumOutput o;
    size_t count = 0;
    while (cursor.Next(&o)) ++count;
    EXPECT_EQ(count, 1u);
    return cursor.steps();
  };

  size_t indexed_short = run(16, BoxEnumMode::kIndexed);
  size_t indexed_long = run(1024, BoxEnumMode::kIndexed);
  size_t naive_short = run(16, BoxEnumMode::kNaive);
  size_t naive_long = run(1024, BoxEnumMode::kNaive);
  // Indexed: constant-ish. Naive: grows linearly with the chain.
  EXPECT_LE(indexed_long, indexed_short + 8);
  EXPECT_GE(naive_long, naive_short + 500);
}

}  // namespace
}  // namespace treenum

#include "falgebra/term.h"

#include <gtest/gtest.h>

#include "falgebra/alphabet.h"

namespace treenum {
namespace {

TEST(TermAlphabet, LabelLayout) {
  TermAlphabet a(3);
  EXPECT_EQ(a.num_labels(), 11u);
  EXPECT_TRUE(a.IsTreeLeaf(a.TreeLeaf(2)));
  EXPECT_TRUE(a.IsContextLeaf(a.ContextLeaf(0)));
  EXPECT_TRUE(a.IsOp(a.Op(TermOp::kApplyVH)));
  EXPECT_EQ(a.BaseLabel(a.ContextLeaf(2)), 2u);
  EXPECT_EQ(a.BaseLabel(a.TreeLeaf(1)), 1u);
  EXPECT_EQ(a.OpOf(a.Op(TermOp::kApplyVV)), TermOp::kApplyVV);
}

TEST(TermAlphabet, OperatorTyping) {
  EXPECT_FALSE(OpYieldsContext(TermOp::kConcatHH));
  EXPECT_TRUE(OpYieldsContext(TermOp::kConcatHV));
  EXPECT_TRUE(OpYieldsContext(TermOp::kConcatVH));
  EXPECT_TRUE(OpYieldsContext(TermOp::kApplyVV));
  EXPECT_FALSE(OpYieldsContext(TermOp::kApplyVH));
  EXPECT_FALSE(OpLeftIsContext(TermOp::kConcatHV));
  EXPECT_TRUE(OpRightIsContext(TermOp::kConcatHV));
  EXPECT_TRUE(OpLeftIsContext(TermOp::kApplyVH));
  EXPECT_FALSE(OpRightIsContext(TermOp::kApplyVH));
}

// Builds the term  (a_□(0) ⊙VH (a_t(1) ⊕HH a_t(2)))  representing the tree
// with root node 0 and children 1, 2.
Term SmallTerm() {
  Term term(TermAlphabet{2});
  const TermAlphabet& a = term.alphabet();
  TermNodeId c = term.NewLeaf(a.ContextLeaf(0), 0);
  TermNodeId l1 = term.NewLeaf(a.TreeLeaf(1), 1);
  TermNodeId l2 = term.NewLeaf(a.TreeLeaf(1), 2);
  TermNodeId f = term.NewNode(TermOp::kConcatHH, l1, l2);
  TermNodeId root = term.NewNode(TermOp::kApplyVH, c, f);
  term.set_root(root);
  return term;
}

TEST(Term, CountersAndValidate) {
  Term term = SmallTerm();
  EXPECT_EQ(term.Validate(), "");
  const TermNode& root = term.node(term.root());
  EXPECT_EQ(root.size, 3u);
  EXPECT_EQ(root.height, 2u);
  EXPECT_FALSE(root.is_context);
}

TEST(Term, DecodeRepresentedTree) {
  Term term = SmallTerm();
  std::vector<NodeId> map;
  UnrankedTree t = term.Decode(&map);
  EXPECT_EQ(t.ToString(), "(a (b) (b))");
}

TEST(Term, DecodeDeepContextComposition) {
  // a_□(0) ⊙VV a_□(1) ⊙VH a_t(2)  =  (a (b (c))) with labels 0,1,2.
  Term term(TermAlphabet{3});
  const TermAlphabet& a = term.alphabet();
  TermNodeId c0 = term.NewLeaf(a.ContextLeaf(0), 0);
  TermNodeId c1 = term.NewLeaf(a.ContextLeaf(1), 1);
  TermNodeId t2 = term.NewLeaf(a.TreeLeaf(2), 2);
  TermNodeId vv = term.NewNode(TermOp::kApplyVV, c0, c1);
  TermNodeId root = term.NewNode(TermOp::kApplyVH, vv, t2);
  term.set_root(root);
  EXPECT_EQ(term.Validate(), "");
  UnrankedTree t = term.Decode();
  EXPECT_EQ(t.ToString(), "(a (b (c)))");
}

TEST(Term, DecodeSiblingAroundContext) {
  // (a_t(1) ⊕HV a_□(0)) ⊙VH a_t(2): tree 0 has child 2; node 1 is 0's left
  // sibling — the whole thing is a forest, so wrap under a root context.
  Term term(TermAlphabet{4});
  const TermAlphabet& a = term.alphabet();
  TermNodeId sib = term.NewLeaf(a.TreeLeaf(1), 1);
  TermNodeId ctx = term.NewLeaf(a.ContextLeaf(0), 0);
  TermNodeId hv = term.NewNode(TermOp::kConcatHV, sib, ctx);
  TermNodeId leaf = term.NewLeaf(a.TreeLeaf(2), 2);
  TermNodeId forest = term.NewNode(TermOp::kApplyVH, hv, leaf);
  TermNodeId top = term.NewLeaf(a.ContextLeaf(3), 3);
  TermNodeId root = term.NewNode(TermOp::kApplyVH, top, forest);
  term.set_root(root);
  EXPECT_EQ(term.Validate(), "");
  UnrankedTree t = term.Decode();
  EXPECT_EQ(t.ToString(), "(d (b) (a (c)))");
}

TEST(Term, ReplaceChildAndSplice) {
  Term term = SmallTerm();
  const TermAlphabet& a = term.alphabet();
  // Splice a new sibling right of leaf node 2's symbol.
  TermNodeId l2 = kNoTerm;
  for (TermNodeId id = 0; id < term.id_bound(); ++id) {
    if (term.IsAlive(id) && term.IsLeaf(id) && term.node(id).tree_node == 2) {
      l2 = id;
    }
  }
  ASSERT_NE(l2, kNoTerm);
  TermNodeId fresh = term.NewLeaf(a.TreeLeaf(0), 7);
  TermNodeId nn = term.SpliceOp(TermOp::kConcatHH, l2, fresh, false);
  term.RecomputeUp(nn);
  EXPECT_EQ(term.Validate(), "");
  EXPECT_EQ(term.Decode().ToString(), "(a (b) (b) (a))");
}

TEST(Term, ValidateCatchesTypeErrors) {
  Term term(TermAlphabet{2});
  const TermAlphabet& a = term.alphabet();
  TermNodeId l1 = term.NewLeaf(a.TreeLeaf(0), 0);
  TermNodeId l2 = term.NewLeaf(a.TreeLeaf(0), 1);
  TermNodeId n = term.NewNode(TermOp::kConcatHH, l1, l2);
  term.set_root(n);
  EXPECT_EQ(term.Validate(), "");
  term.SetLabel(l1, a.ContextLeaf(0));  // type now inconsistent
  EXPECT_NE(term.Validate(), "");
}

// EndEdit is the one tail of every encoding edit: it sweeps, re-points the
// leaf map at leaves path-copied under a pin, and keeps the last alive
// occurrence of each changed id, in order.
TEST(Term, EndEditKeepsLastAliveOccurrence) {
  Term term = SmallTerm();
  const TermNodeId root = term.root();
  const TermNodeId l1 = term.node(term.node(root).right).left;
  const TermNodeId l2 = term.node(term.node(root).right).right;
  // Indexed by tree node: 0, 1, 2 carry a_□(0), a_t(1), a_t(2).
  std::vector<TermNodeId> leaf_of = {term.node(root).left, l1, l2};
  const std::vector<TermNodeId> untouched = leaf_of;

  term.PinRoot(root);  // a published snapshot: the edit must path-copy
  term.BumpEpoch();
  term.BeginEdit();
  const TermNodeId l1_copy = term.EnsureMutable(l1);
  ASSERT_NE(l1_copy, l1);
  const TermNodeId root_copy = term.root();
  const TermNodeId f_copy = term.node(root_copy).right;
  ASSERT_NE(root_copy, root);
  // A subterm built and dropped within the edit dies at the sweep.
  const TermNodeId scratch =
      term.NewLeaf(term.alphabet().TreeLeaf(0), /*n=*/3);
  term.ReleaseDetached(scratch);

  std::vector<TermNodeId> freed;
  std::vector<TermNodeId> changed = {l1_copy, f_copy, scratch,
                                     l1_copy, f_copy, root_copy};
  term.EndEdit(freed, leaf_of, changed);

  EXPECT_EQ(freed, std::vector<TermNodeId>{scratch});
  EXPECT_FALSE(term.IsAlive(scratch));
  EXPECT_EQ(changed, (std::vector<TermNodeId>{l1_copy, f_copy, root_copy}));
  EXPECT_EQ(leaf_of[1], l1_copy);  // re-pointed at the copy
  EXPECT_EQ(leaf_of[0], untouched[0]);
  EXPECT_EQ(leaf_of[2], untouched[2]);
  // The pinned version still holds the original leaf.
  EXPECT_TRUE(term.IsAlive(l1));
  EXPECT_EQ(term.node(term.node(root).right).left, l1);

  term.UnpinRoot(root, &freed);
  EXPECT_FALSE(term.IsAlive(l1));
  EXPECT_EQ(term.ValidateStructure(nullptr), "");
}

}  // namespace
}  // namespace treenum

// Structural transactions: encoding-level correctness (SubtreeMove /
// SubtreeDelete / SubtreeExtract / GraftSubtree keep tree, term, and leaf
// bijection in sync, balanced, and structurally valid).
#include <gtest/gtest.h>

#include "core/document.h"
#include "falgebra/update.h"
#include "util/random.h"

namespace treenum {
namespace {

void ExpectSync(const DynamicEncoding& enc) {
  ASSERT_EQ(enc.term().Validate(), "");
  ASSERT_EQ(enc.term().ValidateStructure(&MaxAllowedHeight), "");
  ASSERT_TRUE(enc.CheckBalanced());
  UnrankedTree decoded = enc.term().Decode();
  ASSERT_TRUE(decoded == enc.tree())
      << "term decodes to " << decoded.ToString() << " but tree is "
      << enc.tree().ToString();
  for (NodeId n : enc.tree().PreorderNodes()) {
    TermNodeId leaf = enc.LeafOf(n);
    ASSERT_NE(leaf, kNoTerm);
    ASSERT_EQ(enc.term().node(leaf).tree_node, n);
  }
}

TEST(Structural, SubtreeMoveToFirstChildOfLeaf) {
  DynamicEncoding enc(UnrankedTree::Parse("(a (b (c) (d)) (e))"), 6);
  NodeId root = enc.tree().root();
  NodeId b = enc.tree().children(root)[0];
  NodeId e = enc.tree().children(root)[1];
  const UpdateResult& r = enc.SubtreeMove(b, e, /*as_first_child=*/true);
  EXPECT_FALSE(r.changed_bottom_up.empty());
  ExpectSync(enc);
  EXPECT_EQ(enc.tree().ToString(), "(a (e (b (c) (d))))");
}

TEST(Structural, SubtreeMoveToRightSibling) {
  DynamicEncoding enc(UnrankedTree::Parse("(a (b (c) (d)) (e) (f))"), 6);
  NodeId root = enc.tree().root();
  NodeId b = enc.tree().children(root)[0];
  NodeId f = enc.tree().children(root)[2];
  enc.SubtreeMove(b, f, /*as_first_child=*/false);
  ExpectSync(enc);
  EXPECT_EQ(enc.tree().ToString(), "(a (e) (f) (b (c) (d)))");
}

TEST(Structural, SubtreeMoveSoleChildClosesHole) {
  // Moving b away leaves a childless: its symbol must retype a_□ → a_t.
  DynamicEncoding enc(UnrankedTree::Parse("(a (b (c)) )"), 6);
  NodeId root = enc.tree().root();
  NodeId b = enc.tree().children(root)[0];
  NodeId c = enc.tree().children(b)[0];
  enc.SubtreeMove(c, root, /*as_first_child=*/true);
  ExpectSync(enc);
  EXPECT_EQ(enc.tree().ToString(), "(a (c) (b))");
}

// A move into the moved subtree, or of the root, is the encoding's
// precondition: SubtreeContains finds the first by marking the subtree, and
// the document rejects both before the encoding is touched.
TEST(Structural, SubtreeMoveRejectsDestinationInsideSubtree) {
  DynamicEncoding enc(UnrankedTree::Parse("(a (b (c)))"), 6);
  NodeId b = enc.tree().children(enc.tree().root())[0];
  NodeId c = enc.tree().children(b)[0];
  EXPECT_TRUE(enc.SubtreeContains(b, c));
  EXPECT_TRUE(enc.SubtreeContains(b, b));
  EXPECT_FALSE(enc.SubtreeContains(c, b));
  ExpectSync(enc);

  DynamicDocument doc(UnrankedTree::Parse("(a (b (c)))"), 6);
  const NodeId root = doc.tree().root();
  EXPECT_EQ(doc.Apply(Command::SubtreeMove(b, c)).status,
            Status::kInsideMovedSubtree);
  EXPECT_EQ(doc.Apply(Command::SubtreeMove(b, b)).status,
            Status::kInsideMovedSubtree);
  EXPECT_EQ(doc.Apply(Command::SubtreeMove(root, b)).status, Status::kIsRoot);
  EXPECT_EQ(doc.tree().ToString(), "(a (b (c)))");
  EXPECT_EQ(doc.term().ValidateStructure(&MaxAllowedHeight), "");
  EXPECT_TRUE(doc.term().Decode() == doc.tree());
}

TEST(Structural, SubtreeDeleteAndSoleChild) {
  DynamicEncoding enc(UnrankedTree::Parse("(a (b (c) (d)) (e (f)))"), 6);
  NodeId root = enc.tree().root();
  NodeId b = enc.tree().children(root)[0];
  const UpdateResult& r = enc.SubtreeDelete(b);
  EXPECT_FALSE(r.freed.empty());
  ExpectSync(enc);
  EXPECT_EQ(enc.tree().ToString(), "(a (e (f)))");
  // Deleting f leaves e childless (hole close).
  NodeId e = enc.tree().children(root)[0];
  NodeId f = enc.tree().children(e)[0];
  enc.SubtreeDelete(f);
  ExpectSync(enc);
  EXPECT_EQ(enc.tree().ToString(), "(a (e))");
}

TEST(Structural, SubtreeExtractRoundTripsThroughGraft) {
  DynamicEncoding enc(UnrankedTree::Parse("(a (b (c) (d (e))) (f))"), 6);
  NodeId root = enc.tree().root();
  NodeId b = enc.tree().children(root)[0];
  UnrankedTree cut(0);
  enc.SubtreeExtract(b, &cut);
  ExpectSync(enc);
  EXPECT_EQ(enc.tree().ToString(), "(a (f))");
  EXPECT_EQ(cut.ToString(), "(b (c) (d (e)))");
  NodeId f = enc.tree().children(root)[0];
  NodeId back = kNoNode;
  enc.GraftSubtree(cut, cut.root(), f, /*as_first_child=*/false, &back);
  ExpectSync(enc);
  ASSERT_NE(back, kNoNode);
  EXPECT_EQ(enc.tree().ToString(), "(a (f) (b (c) (d (e))))");
}

// Randomized workload: interleaved structural transactions and leaf edits
// must keep the tree/term/bijection in sync, balanced, and valid.
TEST(Structural, RandomizedTransactionsStaySynced) {
  Rng rng(20260808);
  DynamicEncoding enc(RandomTree(300, 4, rng), 4);
  for (int step = 0; step < 400; ++step) {
    std::vector<NodeId> nodes = enc.tree().PreorderNodes();
    NodeId pick = nodes[rng.Index(nodes.size())];
    switch (rng.Index(8)) {
      case 0:
        enc.Relabel(pick, static_cast<Label>(rng.Index(4)));
        break;
      case 1:
        enc.InsertFirstChild(pick, static_cast<Label>(rng.Index(4)));
        break;
      case 2:
        if (pick != enc.tree().root()) {
          enc.InsertRightSibling(pick, static_cast<Label>(rng.Index(4)));
        }
        break;
      case 3:
        if (pick != enc.tree().root() && enc.tree().IsLeaf(pick)) {
          enc.DeleteLeaf(pick);
        }
        break;
      case 4:
      case 5: {  // SubtreeMove
        if (pick == enc.tree().root()) break;
        // Destination: any node outside subtree(pick).
        std::vector<NodeId> in_sub{pick};
        for (size_t i = 0; i < in_sub.size(); ++i) {
          for (NodeId c : enc.tree().children(in_sub[i])) {
            in_sub.push_back(c);
          }
        }
        auto inside = [&](NodeId n) {
          for (NodeId s : in_sub) {
            if (s == n) return true;
          }
          return false;
        };
        std::vector<NodeId> cands;
        for (NodeId n : nodes) {
          if (!inside(n)) cands.push_back(n);
        }
        if (cands.empty()) break;
        NodeId dst = cands[rng.Index(cands.size())];
        bool as_first = rng.Index(2) == 0 || dst == enc.tree().root();
        enc.SubtreeMove(pick, dst, as_first);
        break;
      }
      case 6:
        if (pick != enc.tree().root() && enc.tree().size() > 10) {
          enc.SubtreeDelete(pick);
        }
        break;
      case 7: {  // Extract, then graft back somewhere else.
        if (pick == enc.tree().root() || enc.tree().size() <= 10) break;
        UnrankedTree cut(0);
        enc.SubtreeExtract(pick, &cut);
        std::vector<NodeId> rest = enc.tree().PreorderNodes();
        NodeId dst = rest[rng.Index(rest.size())];
        bool as_first = rng.Index(2) == 0 || dst == enc.tree().root();
        enc.GraftSubtree(cut, cut.root(), dst, as_first);
        break;
      }
    }
    if (step % 7 == 0) ExpectSync(enc);
  }
  ExpectSync(enc);
}

}  // namespace
}  // namespace treenum

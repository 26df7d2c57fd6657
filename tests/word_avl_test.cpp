#include "core/document.h"
#include "falgebra/word_avl.h"

#include <gtest/gtest.h>

#include "util/random.h"

namespace treenum {
namespace {

Word MakeWord(const std::string& s) {
  Word w;
  for (char c : s) w.push_back(static_cast<Label>(c - 'a'));
  return w;
}

TEST(WordAvl, BuildAndRead) {
  WordEncoding enc(MakeWord("abcab"), 3);
  EXPECT_EQ(enc.size(), 5u);
  EXPECT_EQ(enc.term().Validate(), "");
  EXPECT_EQ(enc.Current(), MakeWord("abcab"));
  for (size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(enc.LetterAt(i), MakeWord("abcab")[i]);
    EXPECT_EQ(enc.PositionOf(enc.PositionId(i)), i);
  }
}

TEST(WordAvl, Replace) {
  WordEncoding enc(MakeWord("aaaa"), 2);
  UpdateResult r = enc.Replace(2, 1);
  EXPECT_FALSE(r.changed_bottom_up.empty());
  EXPECT_EQ(enc.Current(), MakeWord("aaba"));
  EXPECT_EQ(enc.term().Validate(), "");
}

TEST(WordAvl, InsertEverywhere) {
  for (size_t pos = 0; pos <= 3; ++pos) {
    WordEncoding enc(MakeWord("aaa"), 2);
    enc.Insert(pos, 1);
    Word expected = MakeWord("aaa");
    expected.insert(expected.begin() + pos, 1);
    EXPECT_EQ(enc.Current(), expected) << "pos " << pos;
    EXPECT_TRUE(enc.CheckBalanced());
    EXPECT_EQ(enc.term().Validate(), "");
  }
}

TEST(WordAvl, EraseEverywhere) {
  for (size_t pos = 0; pos < 4; ++pos) {
    WordEncoding enc(MakeWord("abcd"), 4);
    enc.Erase(pos);
    Word expected = MakeWord("abcd");
    expected.erase(expected.begin() + pos);
    EXPECT_EQ(enc.Current(), expected) << "pos " << pos;
    EXPECT_TRUE(enc.CheckBalanced());
  }
}

// The encoding asserts that a letter remains; the document rejects the
// erase before calling in.
TEST(WordAvl, EraseLastLetterIsRejected) {
  DynamicDocument doc(MakeWord("a"), 2);
  EXPECT_EQ(doc.Apply(Command::Erase(0)).status, Status::kOutOfRange);
  EXPECT_EQ(doc.word_encoding().Current(), MakeWord("a"));
  EXPECT_TRUE(doc.word_encoding().CheckBalanced());
}

TEST(WordAvl, SequentialAppendStaysBalanced) {
  WordEncoding enc(MakeWord("a"), 2);
  for (int i = 0; i < 4000; ++i) enc.Insert(enc.size(), i % 2);
  EXPECT_TRUE(enc.CheckBalanced());
  EXPECT_EQ(enc.size(), 4001u);
  // AVL height bound: 1.44 log2(n) + 2.
  uint32_t h = enc.term().node(enc.term().root()).height;
  EXPECT_LE(h, 1.45 * std::log2(4001.0) + 2);
}

TEST(WordAvl, SequentialPrependStaysBalanced) {
  WordEncoding enc(MakeWord("a"), 2);
  for (int i = 0; i < 4000; ++i) enc.Insert(0, i % 2);
  EXPECT_TRUE(enc.CheckBalanced());
  EXPECT_EQ(enc.term().Validate(), "");
}

TEST(WordAvl, RandomEditScriptMatchesVector) {
  Rng rng(51);
  for (int trial = 0; trial < 10; ++trial) {
    Word ref = MakeWord("ab");
    WordEncoding enc(ref, 3);
    for (int step = 0; step < 300; ++step) {
      switch (rng.Index(3)) {
        case 0: {
          size_t pos = rng.Index(ref.size() + 1);
          Label l = static_cast<Label>(rng.Index(3));
          ref.insert(ref.begin() + pos, l);
          enc.Insert(pos, l);
          break;
        }
        case 1: {
          if (ref.size() > 1) {
            size_t pos = rng.Index(ref.size());
            ref.erase(ref.begin() + pos);
            enc.Erase(pos);
          }
          break;
        }
        case 2: {
          size_t pos = rng.Index(ref.size());
          Label l = static_cast<Label>(rng.Index(3));
          ref[pos] = l;
          enc.Replace(pos, l);
          break;
        }
      }
      ASSERT_TRUE(enc.CheckBalanced());
    }
    EXPECT_EQ(enc.Current(), ref);
    EXPECT_EQ(enc.term().Validate(), "");
  }
}

TEST(WordAvl, StableIdsSurviveEdits) {
  WordEncoding enc(MakeWord("abc"), 3);
  NodeId id_b = enc.PositionId(1);
  enc.Insert(0, 2);  // "cabc"
  enc.Insert(4, 2);  // "cabcc"
  EXPECT_EQ(enc.PositionOf(id_b), 2u);
  enc.Erase(0);  // "abcc"
  EXPECT_EQ(enc.PositionOf(id_b), 1u);
}

}  // namespace
}  // namespace treenum

// Information extraction on a dynamic text (the document-spanner scenario of
// §8): a regex-with-captures spanner runs over a log-like word, and the
// match set is maintained while the text is edited character by character.
#include <cstdio>
#include <string>

#include "automata/regex_spanner.h"
#include "core/word_enumerator.h"

using namespace treenum;

namespace {

std::string Render(const WordEnumerator& e) {
  std::string s;
  for (size_t i = 0; i < e.size(); ++i) {
    s += static_cast<char>('a' + e.encoding().LetterAt(i));
  }
  return s;
}

void Show(const WordEnumerator& e, const char* what) {
  std::printf("%s  text=\"%s\"\n", what, Render(e).c_str());
  for (const Assignment& a : e.EnumerateAllByPosition()) {
    std::printf("    match %s\n", a.ToString().c_str());
  }
}

}  // namespace

int main() {
  // Spanner: in a text over {a, b, c}, extract every position x of a 'b'
  // that is immediately followed by one or more 'c's ("error code" shape).
  Wva spanner = CompileRegexSpanner(".*<0:b>c+.*|.*<0:b>c+", 3, 1);

  WordEnumerator e(ToWord("abccabacc"), spanner);
  Show(e, "initial");

  // Edits: the word changes under the spanner.
  e.Replace(6, 1);  // 'a' -> 'b' at position 6: new match b@6 before "cc"
  Show(e, "after replace pos 6 -> b");

  e.Insert(4, 2);  // insert 'c' after the first "bcc"
  Show(e, "after insert c at pos 4");

  e.Erase(2);  // delete a 'c' of the first run
  Show(e, "after erase pos 2");

  std::printf("final matches: %zu\n", e.EnumerateAllByPosition().size());
  return 0;
}

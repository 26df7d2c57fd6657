#include "core/word_enumerator.h"

#include <algorithm>

namespace treenum {

WordEnumerator::WordEnumerator(const Word& w, const Wva& query,
                               BoxEnumMode mode)
    : doc_(w, query.num_labels()),
      pipe_(&doc_.pipeline(doc_.Register(query, mode))) {}

std::vector<Assignment> WordEnumerator::EnumerateAllByPosition() const {
  const WordEncoding& enc = doc_.word_encoding();
  std::vector<Assignment> out;
  for (const Assignment& a : EnumerateAll()) {
    Assignment b;
    for (const Singleton& s : a.singletons()) {
      b.Add(Singleton{s.var, static_cast<NodeId>(enc.PositionOf(s.node))});
    }
    b.Normalize();
    out.push_back(std::move(b));
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace treenum

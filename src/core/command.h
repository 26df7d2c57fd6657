// Command — every document mutation as one value, and the Status that
// applying it returns. A DynamicDocument changes in fifteen ways: the four
// edits of Definition 7.1, four subtree transactions, three word edits by
// position and four word range transactions. DynamicDocument::Apply takes
// each as one Command, checks it before anything changes, and on a non-ok
// Status drains, mutates and records nothing. The shard server queues the
// same value and CommandScript (serving/workload.h) emits it.
//
// A Command is trivially copyable: what it cannot hold by value (a grafted
// tree, appended letters, out-parameters) it holds as caller-owned
// pointers, which must stay valid until the command has been applied.
#ifndef TREENUM_CORE_COMMAND_H_
#define TREENUM_CORE_COMMAND_H_

#include <cstddef>
#include <cstdint>
#include <type_traits>

#include "automata/wva.h"
#include "trees/unranked_tree.h"

namespace treenum {

/// Why a command or a (un)registration was rejected; kOk if it was not.
enum class Status : uint8_t {
  kOk,
  kUnknownNode,         ///< A tree node id that is not alive.
  kUnknownLabel,        ///< A label outside the document alphabet.
  kUnknownHandle,       ///< A query handle that is not registered.
  /// A word position or range off the word, an empty range or Concat, or
  /// one that would leave the word empty.
  kOutOfRange,
  kNotALeaf,            ///< DeleteLeaf of an inner node.
  kIsRoot,              ///< The root deleted, moved or given a sibling.
  kInsideMovedSubtree,  ///< A move's destination inside the moved subtree.
  kWrongDocumentKind,   ///< A tree command or query on a word document.
  kWrongAlphabet,       ///< A query over another number of labels.
  kInBatch,             ///< (Un)registration inside a batch.
};

/// The enumerator's name without its `k` ("UnknownNode"), for messages.
inline const char* StatusName(Status s) {
  static constexpr const char* kNames[] = {
      "Ok", "UnknownNode", "UnknownLabel", "UnknownHandle", "OutOfRange",
      "NotALeaf", "IsRoot", "InsideMovedSubtree", "WrongDocumentKind",
      "WrongAlphabet", "InBatch"};
  return kNames[static_cast<size_t>(s)];
}

/// Where a structural transaction attaches the moved/grafted subtree
/// relative to its destination anchor.
enum class AttachWhere : uint8_t {
  kFirstChild,    ///< becomes the first child of the anchor
  kRightSibling,  ///< becomes the right sibling of the anchor (non-root)
};

/// Per-update cost report (for benchmarks), and the update's status. For
/// a batched transaction, boxes_recomputed counts the *unique* boxes
/// refreshed at commit.
struct UpdateStats {
  size_t boxes_recomputed = 0;
  size_t rebuilt_size = 0;  ///< Term nodes rebuilt by rebalancing (0 = none).
  size_t edits_applied = 0;  ///< Edits covered by this report (1 per edit op).
  Status status = Status::kOk;  ///< Of a sum: its first rejection.

  bool ok() const { return status == Status::kOk; }

  UpdateStats& operator+=(const UpdateStats& o) {
    boxes_recomputed += o.boxes_recomputed;
    rebuilt_size += o.rebuilt_size;
    edits_applied += o.edits_applied;
    if (ok()) status = o.status;
    return *this;
  }
};

/// One edit of Definition 7.1 as a value: the edit-script vocabulary of
/// DynamicDocument::ApplyEdit. Command::Of turns it into a Command.
struct Edit {
  enum class Kind : uint8_t {
    kRelabel, kInsertFirstChild, kInsertRightSibling, kDeleteLeaf
  };

  Kind kind = Kind::kRelabel;      ///< Which of the four edit ops.
  NodeId node = kNoNode;           ///< Target node.
  Label label = 0;                 ///< Unused by kDeleteLeaf.

  // Value forms of TreeEnumerator's named edits.
  static Edit Relabel(NodeId n, Label l) { return {Kind::kRelabel, n, l}; }
  static Edit InsertFirstChild(NodeId n, Label l) {
    return {Kind::kInsertFirstChild, n, l};
  }
  static Edit InsertRightSibling(NodeId n, Label l) {
    return {Kind::kInsertRightSibling, n, l};
  }
  static Edit DeleteLeaf(NodeId n) { return {Kind::kDeleteLeaf, n, 0}; }
};

/// One document mutation (see the file comment). Build it with the named
/// constructors; each documents what its kind requires.
struct Command {
  enum class Kind : uint8_t {
    // Tree edits of Definition 7.1, in Edit::Kind's order.
    kRelabel, kInsertFirstChild, kInsertRightSibling, kDeleteLeaf,
    // Tree transactions: one re-encoded region, one publish.
    kSubtreeMove, kSubtreeDelete, kSubtreeExtract, kGraftSubtree,
    // Word edits by logical position, then word transactions.
    kReplace, kInsert, kErase, kMoveRange, kEraseRange, kExtractRange, kConcat,
  };

  Kind kind = Kind::kRelabel;
  AttachWhere where = AttachWhere::kFirstChild;
  Label label = 0;
  NodeId node = kNoNode;  ///< Tree target; for a graft, the root in *src.
  NodeId dst = kNoNode;   ///< Tree destination anchor (move, graft).
  size_t pos = 0;         ///< Word position, or range begin.
  size_t end = 0;         ///< Word range end (exclusive).
  size_t to = 0;          ///< MoveRange destination in the remaining word.
  const UnrankedTree* src = nullptr;  ///< Graft source tree.
  const Word* word = nullptr;         ///< Concat letters.
  NodeId* new_node = nullptr;         ///< Out (optional): new node / root.
  UnrankedTree* tree_out = nullptr;   ///< Out (optional): extracted subtree.
  Word* word_out = nullptr;           ///< Out (optional): extracted factor.

  /// Changes the label of node `n`.
  static Command Relabel(NodeId n, Label l) {
    return {Kind::kRelabel, AttachWhere::kFirstChild, l, n};
  }
  /// Inserts a new first child under `n` (id reported via `new_node`).
  static Command InsertFirstChild(NodeId n, Label l,
                                  NodeId* new_node = nullptr) {
    return Of(Edit::InsertFirstChild(n, l), new_node);
  }
  /// Inserts a new right sibling of non-root `n` (id via `new_node`).
  static Command InsertRightSibling(NodeId n, Label l,
                                    NodeId* new_node = nullptr) {
    return Of(Edit::InsertRightSibling(n, l), new_node);
  }
  /// Deletes the non-root leaf `n`.
  static Command DeleteLeaf(NodeId n) { return Of(Edit::DeleteLeaf(n)); }
  /// The Command of an Edit value.
  static Command Of(const Edit& e, NodeId* new_node = nullptr) {
    static_assert(static_cast<int>(Edit::Kind::kDeleteLeaf) ==
                      static_cast<int>(Kind::kDeleteLeaf),
                  "Edit::Kind must be the first four Command kinds");
    Command c = Relabel(e.node, e.label);
    c.kind = static_cast<Kind>(e.kind);
    c.new_node = new_node;
    return c;
  }

  /// Moves the non-root subtree at `v` next to `dst`, outside the subtree.
  static Command SubtreeMove(NodeId v, NodeId dst,
                             AttachWhere where = AttachWhere::kFirstChild) {
    return {Kind::kSubtreeMove, where, 0, v, dst};
  }
  /// Deletes the whole non-root subtree at `v`.
  static Command SubtreeDelete(NodeId v) {
    return {Kind::kSubtreeDelete, AttachWhere::kFirstChild, 0, v};
  }
  /// Deletes the non-root subtree at `v`, copying it (fresh ids) to `*out`.
  static Command SubtreeExtract(NodeId v, UnrankedTree* out) {
    Command c = {Kind::kSubtreeExtract, AttachWhere::kFirstChild, 0, v};
    c.tree_out = out;
    return c;
  }
  /// Inserts a copy of `src`'s subtree at `src_root` next to `dst`; every
  /// label in it must be a document label.
  static Command GraftSubtree(const UnrankedTree* src, NodeId src_root,
                              NodeId dst,
                              AttachWhere where = AttachWhere::kFirstChild,
                              NodeId* new_root = nullptr) {
    Command c = {Kind::kGraftSubtree, where, 0, src_root, dst};
    c.src = src;
    c.new_node = new_root;
    return c;
  }

  /// Replaces the letter at position `pos`.
  static Command Replace(size_t pos, Label l) {
    return AtPos(Kind::kReplace, pos, pos, l);
  }
  /// Inserts letter `l` so that it becomes position `pos`.
  static Command Insert(size_t pos, Label l) {
    return AtPos(Kind::kInsert, pos, pos, l);
  }
  /// Erases the letter at position `pos`; one letter must remain.
  static Command Erase(size_t pos) { return AtPos(Kind::kErase, pos, pos); }
  /// Moves the non-empty factor [begin, end) so it starts at `dst` of the
  /// remaining word (position ids are preserved).
  static Command MoveRange(size_t begin, size_t end, size_t dst) {
    Command c = AtPos(Kind::kMoveRange, begin, end);
    c.to = dst;
    return c;
  }
  /// Erases the non-empty factor [begin, end); one letter must remain.
  static Command EraseRange(size_t begin, size_t end) {
    return AtPos(Kind::kEraseRange, begin, end);
  }
  /// Erases the non-empty factor [begin, end), assigning it to `*out`.
  static Command ExtractRange(size_t begin, size_t end, Word* out) {
    Command c = AtPos(Kind::kExtractRange, begin, end);
    c.word_out = out;
    return c;
  }
  /// Appends the non-empty word `*w`.
  static Command Concat(const Word* w) {
    Command c = AtPos(Kind::kConcat, 0, 0);
    c.word = w;
    return c;
  }

 private:
  static Command AtPos(Kind k, size_t begin, size_t end, Label l = 0) {
    return {k, AttachWhere::kFirstChild, l, kNoNode, kNoNode, begin, end};
  }
};

static_assert(std::is_trivially_copyable<Command>::value,
              "Command is queued and copied as a plain value");

}  // namespace treenum

#endif  // TREENUM_CORE_COMMAND_H_

// Workload generation, shared by the test suite and the benches.
//
// CommandScript is the one mirror-tree edit generator: it owns a mirror
// UnrankedTree per document and emits a reproducible stream of Commands
// (core/command.h) — Definition 7.1 edits and subtree moves and deletes.
// Each command is applied to the mirror as it is emitted, so it is valid
// there, and the same seed drives any number of replica documents or
// engines (S=1 vs S=8 determinism) or a document plus an oracle in
// lockstep with identical NodeIds.
//
// PoissonArrivals is the open-loop clock: exponential inter-arrival gaps at
// a fixed target rate, independent of service times, so queueing delay
// shows up in the recorded latencies instead of being hidden by
// closed-loop back-pressure.
#ifndef TREENUM_SERVING_WORKLOAD_H_
#define TREENUM_SERVING_WORKLOAD_H_

#include <cstdint>
#include <random>
#include <vector>

#include "core/command.h"
#include "serving/shard_server.h"
#include "trees/unranked_tree.h"
#include "util/random.h"

namespace treenum {
namespace serving {

/// Mix knobs for one document's command stream.
struct WorkloadOptions {
  size_t num_labels = 3;
  /// Fraction of commands that are whole-subtree transactions.
  double structural_fraction = 0.0;
  /// Structural deletes are suppressed when they would shrink the
  /// document below this size.
  size_t min_size = 8;
};

/// A leaf edit or a subtree move (the benchmark harness's; see Command).
struct DocCommand {
  enum class Kind : uint8_t { kEdit, kStructural };
  Kind kind = Kind::kEdit;
  Edit edit{};
  StructuralOp structural{};
};

/// Deterministic per-document command generator over a mirror tree.
class CommandScript {
 public:
  CommandScript(UnrankedTree mirror, uint64_t seed,
                const WorkloadOptions& opts);

  /// Generates the next command — an edit or, at structural_fraction, a
  /// subtree move or delete — and applies it to the mirror, so emitted
  /// NodeIds are valid on every document fed the same command sequence.
  Command Next();

  /// Like Next(), but one Definition 7.1 edit of a random alive node: a
  /// relabel, first-child insert, right-sibling insert or leaf delete (the
  /// last two fall back to a relabel where the mirror does not allow them).
  Edit NextEdit();
  /// Like NextEdit(), but always a relabel.
  Edit NextRelabel();

  /// The mirror after all emitted commands (reference state for oracles).
  const UnrankedTree& mirror() const { return mirror_; }

 private:
  bool NextStructural(Command* c);
  NodeId Pick();
  /// True iff `u` lies in the subtree rooted at `v` (parent walk).
  bool InSubtree(NodeId u, NodeId v) const;

  UnrankedTree mirror_;
  Rng rng_;
  WorkloadOptions opts_;
  std::vector<NodeId> pool_;  ///< Alive-ish node pool, purged lazily.
};

/// Open-loop arrival clock: exponential gaps at `rate_per_sec`.
class PoissonArrivals {
 public:
  PoissonArrivals(double rate_per_sec, uint64_t seed)
      : rng_(seed), exp_(rate_per_sec) {}

  /// Nanoseconds until the next arrival.
  uint64_t NextGapNs() {
    double gap_s = exp_(rng_.engine());
    return static_cast<uint64_t>(gap_s * 1e9);
  }

 private:
  Rng rng_;
  std::exponential_distribution<double> exp_;
};

}  // namespace serving
}  // namespace treenum

#endif  // TREENUM_SERVING_WORKLOAD_H_

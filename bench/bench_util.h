// Shared workloads and helpers for the benchmark suite. Edit scripts come
// from serving::CommandScript, included from serving/workload.h. Each bench
// binary regenerates one experiment; docs/BENCHMARKS.md documents the
// series and their JSON schema.
#ifndef TREENUM_BENCH_BENCH_UTIL_H_
#define TREENUM_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <cstdlib>
#include <initializer_list>
#include <utility>
#include <vector>

#include "automata/query_library.h"
#include "core/tree_enumerator.h"
#include "serving/workload.h"
#include "trees/unranked_tree.h"
#include "util/random.h"

namespace treenum {
namespace bench {

inline constexpr uint64_t kSeed = 0xBADC0FFEE;

/// Random tree workload with 3 labels (a/b/c) used across experiments.
inline UnrankedTree MakeTree(size_t n) {
  Rng rng(kSeed + n);
  return RandomTree(n, 3, rng);
}

/// Path-shaped adversarial workload.
inline UnrankedTree MakePath(size_t n) {
  Rng rng(kSeed + n);
  return PathTree(n, 3, rng);
}

/// The standard benchmark query: marked-ancestor (4 states, nontrivial
/// vertical information flow, answers sparse).
inline UnrankedTva StandardQuery() { return QueryMarkedAncestor(3, 1, 2); }

/// Machine-readable benchmark output: appends one JSON object per call to
/// the file named by $TREENUM_BENCH_JSON (no-op when unset), so CI can
/// collect a BENCH_*.json trajectory across PRs without parsing console
/// output. google-benchmark invokes each benchmark several times while
/// calibrating iteration counts, so the file holds several lines per
/// (bench, args) key; the final measured run comes last — consumers keep
/// the last line per key (or the one with the largest "iterations" field,
/// which benches should include). The binaries additionally support
/// --benchmark_format=json for the full report.
inline void EmitJson(
    const char* bench,
    std::initializer_list<std::pair<const char*, double>> fields) {
  const char* path = std::getenv("TREENUM_BENCH_JSON");
  if (!path) return;
  std::FILE* f = std::fopen(path, "a");
  if (!f) return;
  std::fprintf(f, "{\"bench\":\"%s\"", bench);
  for (const auto& [key, value] : fields) {
    std::fprintf(f, ",\"%s\":%.6g", key, value);
  }
  std::fprintf(f, "}\n");
  std::fclose(f);
}

/// Applies one command of a valid script; a rejection ends the bench run,
/// since its numbers would no longer measure the script.
inline UpdateStats MustApply(DynamicDocument& doc, const Command& c) {
  const UpdateStats s = doc.Apply(c);
  if (!s.ok()) {
    std::fprintf(stderr, "bench command rejected: %s\n", StatusName(s.status));
    std::abort();
  }
  return s;
}

/// Applies an edit script to `doc` as one batch.
inline void ApplyBatch(DynamicDocument& doc, const std::vector<Edit>& edits) {
  doc.BeginBatch();
  for (const Edit& e : edits) MustApply(doc, Command::Of(e));
  doc.CommitBatch();
}

/// Drains a cursor; returns the number of answers.
inline size_t Drain(const TreeEnumerator& e) {
  TreeEnumerator::Cursor c = e.Enumerate();
  Assignment a;
  size_t n = 0;
  while (c.Next(&a)) ++n;
  return n;
}

}  // namespace bench
}  // namespace treenum

#endif  // TREENUM_BENCH_BENCH_UTIL_H_

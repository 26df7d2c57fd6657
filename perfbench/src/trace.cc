#include "trace.h"

#include <cstdio>

#include "util/simd_kernels.h"

namespace perfbench {

const char* SpanName(Sp s) {
  static const char* const kNames[kNumSpans] = {
      "op.edit",
      "op.move",
      "op.batch",
      "op.read",
      "op.setup",
      "core.drain_retired",
      "core.publish",
      "core.pin",
      "core.coalesce",
      "automata.compile",
      "falgebra.encode",
      "falgebra.edit",
      "falgebra.move",
      "circuit.build_all",
      "circuit.rebuild_box",
      "circuit.free_box",
      "enumeration.index_build_all",
      "enumeration.rebuild_box_index",
      "enumeration.free_box_index",
      "counting.build_all",
      "counting.rebuild_box_counts",
      "counting.free_box_counts",
      "enumeration.cursor_setup",
      "enumeration.next",
      "trees.to_assignment",
  };
  return kNames[s];
}

bool Tracer::WriteSpans(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "row,op,name,parent,start_ns,end_ns\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f, "%zu,%llu,%s,%lld,%llu,%llu\n", i,
                 static_cast<unsigned long long>(s.op), SpanName(s.kind),
                 static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(s.start),
                 static_cast<unsigned long long>(s.end));
  }
  return std::fclose(f) == 0;
}

namespace {

double Per(double x, uint64_t n) {
  return n == 0 ? 0.0 : x / static_cast<double>(n);
}

}  // namespace

void LayerMetrics(const TraceSummary& s, Metrics* out) {
  const Tracer& t = *s.tracer;
  const ChainCounts& c = s.counts;
  auto ns = [&](Sp root, Sp kind) {
    return static_cast<double>(t.Get(root, kind).total_ns);
  };
  auto total_ns = [&](Sp kind) {
    return static_cast<double>(t.Total(kind).total_ns);
  };
  auto mean_ns = [&](Sp kind) {
    const Tracer::Agg a = t.Total(kind);
    return Per(static_cast<double>(a.total_ns), a.count);
  };

  out->Set("automata.compile_ms", total_ns(kAutomataCompile) / 1e6, "ms");
  out->Set("automata.cache_hit_frac", s.cache_hit_frac, "fraction");

  out->Set("falgebra.encode_build_ms", total_ns(kFalgebraEncode) / 1e6, "ms");
  out->Set("falgebra.edit_us", Per(ns(kOpEdit, kFalgebraEdit), c.edits) / 1e3,
           "us");
  out->Set("falgebra.changed_per_edit",
           Per(static_cast<double>(c.edit_changed), c.edits), "count");
  out->Set("falgebra.path_copies_per_edit",
           Per(static_cast<double>(c.edit_path_copies), c.edits), "count");
  out->Set("falgebra.rebuilt_per_edit",
           Per(static_cast<double>(c.edit_rebuilt), c.edits), "count");
  out->Set("falgebra.move_us", Per(total_ns(kFalgebraMove), c.moves) / 1e3,
           "us");

  out->Set("circuit.build_ms", total_ns(kCircuitBuild) / 1e6, "ms");
  out->Set("circuit.us_per_edit",
           Per(ns(kOpEdit, kCircuitRebuild) + ns(kOpEdit, kCircuitFree),
               c.edits) / 1e3,
           "us");
  out->Set("circuit.ns_per_box",
           Per(ns(kOpEdit, kCircuitRebuild),
               t.Get(kOpEdit, kCircuitRebuild).count),
           "ns");

  out->Set("enumeration.index_build_ms", total_ns(kIndexBuild) / 1e6, "ms");
  out->Set("enumeration.index_us_per_edit",
           Per(ns(kOpEdit, kIndexRebuild) + ns(kOpEdit, kIndexFree), c.edits) /
               1e3,
           "us");
  out->Set("enumeration.index_ns_per_box",
           Per(ns(kOpEdit, kIndexRebuild), t.Get(kOpEdit, kIndexRebuild).count),
           "ns");
  out->Set("enumeration.cursor_setup_us", mean_ns(kCursorSetup) / 1e3, "us");
  out->Set("enumeration.next_ns", mean_ns(kCursorNext), "ns");
  out->Set("enumeration.steps_per_answer",
           Per(static_cast<double>(c.cursor_steps), c.answers), "count");
  out->Set("enumeration.allocs_per_answer",
           Per(static_cast<double>(c.answer_allocs), c.answers), "count");
  out->Set("enumeration.bytes_per_answer",
           Per(static_cast<double>(c.answer_bytes), c.answers), "bytes");

  out->Set("trees.to_assignment_ns", mean_ns(kToAssignment), "ns");

  out->Set("counting.build_ms", total_ns(kCountBuild) / 1e6, "ms");
  out->Set("counting.us_per_edit",
           Per(ns(kOpEdit, kCountRebuild) + ns(kOpEdit, kCountFree), c.edits) /
               1e3,
           "us");

  out->Set("core.publish_us", Per(ns(kOpEdit, kCorePublish), c.edits) / 1e3,
           "us");
  out->Set("core.drain_us", Per(ns(kOpEdit, kCoreDrain), c.edits) / 1e3,
           "us");
  out->Set("core.pin_ns", mean_ns(kCorePin), "ns");
  out->Set("core.boxes_per_commit",
           Per(static_cast<double>(c.batch_boxes), c.batches), "count");
  out->Set("core.coalesce_frac",
           Per(static_cast<double>(c.batch_boxes), c.batch_changed),
           "fraction");
  // What the untraced edit costs beyond the layer calls the trace sees:
  // the document's own dispatch, plus (negative) the trace's overhead.
  const Tracer::Agg& edit_root = t.Get(kOpEdit, kOpEdit);
  const double layer_us =
      Per(static_cast<double>(edit_root.total_ns - edit_root.self_ns),
          c.edits) / 1e3;
  out->Set("core.residual_us", s.untraced_edit_mean_us - layer_us, "us");
  out->Set("trace.edit_p50_overhead_us",
           s.traced_edit_p50_us - s.untraced_edit_p50_us, "us");

  // The serving layer runs only on serving_mix, which sets these before
  // calling here; every other workload reports 0 (not exercised).
  static const char* const kServing[][2] = {
      {"serving.submit_ns", "ns"},          {"serving.commits_per_cmd", "fraction"},
      {"serving.steals_per_s", "1/s"},      {"serving.backlog_max", "count"},
      {"serving.register_p99_us", "us"},    {"serving.gen_late_p99_us", "us"},
      {"serving.commit_p99_us_at_8k", "us"},
      {"serving.commit_p99_us_at_20k", "us"}};
  for (const auto& entry : kServing) {
    bool present = false;
    for (const auto& m : out->items()) present |= m.name == entry[0];
    if (!present) out->Set(entry[0], 0.0, entry[1]);
  }

  out->Set("util.simd_tier",
           static_cast<double>(static_cast<int>(treenum::ActiveTier())),
           "tier");
}

}  // namespace perfbench

// perfbench — one seeded run of one workload against the treenum public
// API. Prints human-readable lines, then one JSON object as the last line
// of stdout: {"correct", "attempted", "failed", "metrics", "extra", "host",
// "failures"}. perfbench/run.py builds this binary and turns that object
// into the benchmark's result line.
//
//   perfbench --workload tree_edits|serving_mix
//             --seed N --seconds S [--smoke] [--spans PATH]
//
// The binary decides the mode: the untraced binary (perfbench) reports
// end-to-end metrics; the traced binary (perfbench_traced, with the
// allocation gauge linked) reports per-layer metrics and writes the span
// file.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>

#include "common.h"
#include "util/alloc_gauge.h"
#include "util/simd_kernels.h"
#include "workloads.h"

namespace {

using perfbench::Metrics;
using perfbench::RunConfig;
using perfbench::RunResult;

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S [--smoke] [--spans PATH]\n",
               why);
  return 2;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonMetrics(const Metrics& m) {
  std::string out = "{";
  bool first = true;
  char buf[64];
  for (const auto& item : m.items()) {
    if (!first) out += ",";
    first = false;
    const double v = std::isfinite(item.value) ? item.value : 0.0;
    std::snprintf(buf, sizeof buf, "%.17g", v);
    out += JsonString(item.name) + ":{\"value\":" + buf +
           ",\"unit\":" + JsonString(item.unit) + "}";
  }
  return out + "}";
}

}  // namespace

int main(int argc, char** argv) {
#ifndef NDEBUG
  std::fprintf(stderr, "perfbench: assertions are enabled; build Release\n");
  return 2;
#endif
  if (std::string(PERFBENCH_BUILD_TYPE) != "Release") {
    std::fprintf(stderr, "perfbench: build type is %s, not Release\n",
                 PERFBENCH_BUILD_TYPE);
    return 2;
  }

  RunConfig cfg;
  cfg.trace = treenum::AllocGaugeActive();
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (a == "--smoke") {
      cfg.smoke = true;
    } else if (a == "--workload" && (v = value())) {
      cfg.workload = v;
    } else if (a == "--seed" && (v = value())) {
      cfg.seed = std::strtoull(v, nullptr, 10);
    } else if (a == "--seconds" && (v = value())) {
      cfg.seconds = std::strtod(v, nullptr);
    } else if (a == "--spans" && (v = value())) {
      cfg.spans_path = v;
    } else {
      return Usage(("bad argument " + a).c_str());
    }
  }
  if (!(cfg.seconds > 0)) return Usage("--seconds must be positive");

  RunResult res;
  try {
    if (cfg.workload == "tree_edits") {
      perfbench::RunTreeEdits(cfg, &res);
    } else if (cfg.workload == "serving_mix") {
      perfbench::RunServingMix(cfg, &res);
    } else {
      return Usage(("unknown workload " + cfg.workload).c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", cfg.workload.c_str(),
                 e.what());
    return 1;
  }

  for (const auto& item : res.metrics.items()) {
    std::printf("%-34s %16.6g %s\n", item.name.c_str(), item.value,
                item.unit.c_str());
  }
  for (const auto& item : res.extra.items()) {
    std::printf("  (%s) %-27s %16.6g %s\n", "info", item.name.c_str(),
                item.value, item.unit.c_str());
  }
  for (const auto& f : res.failures) std::printf("FAILED: %s\n", f.c_str());

  std::string failures = "[";
  for (size_t i = 0; i < res.failures.size(); ++i) {
    if (i) failures += ",";
    failures += JsonString(res.failures[i]);
  }
  failures += "]";
  std::printf(
      "{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,\"metrics\":%s,"
      "\"extra\":%s,\"host\":{\"nproc\":%u,\"simd_tier\":%s,"
      "\"build_type\":%s,\"seed\":%llu,\"smoke\":%s},\"failures\":%s}\n",
      res.failed == 0 ? "true" : "false",
      static_cast<unsigned long long>(res.attempted),
      static_cast<unsigned long long>(res.failed),
      JsonMetrics(res.metrics).c_str(), JsonMetrics(res.extra).c_str(),
      std::thread::hardware_concurrency(),
      JsonString(treenum::TierName(treenum::ActiveTier())).c_str(),
      JsonString(PERFBENCH_BUILD_TYPE).c_str(),
      static_cast<unsigned long long>(cfg.seed), cfg.smoke ? "true" : "false",
      failures.c_str());
  return 0;
}

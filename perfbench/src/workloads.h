// The benchmark workloads. Each fills `result` with the end-to-end
// metrics (untraced run) or the per-layer metrics (traced run), and counts
// every operation attempted and every failed correctness check.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include "common.h"

namespace perfbench {

void RunTreeEdits(const RunConfig& cfg, RunResult* result);
void RunServingMix(const RunConfig& cfg, RunResult* result);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_

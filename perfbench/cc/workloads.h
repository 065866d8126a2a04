// The three benchmark workloads. Each fills `outcome` with the five
// end-to-end metrics (untraced run) or the per-layer metrics (traced
// run) and returns false when it could not produce a valid result.

#ifndef PERFBENCH_CC_WORKLOADS_H_
#define PERFBENCH_CC_WORKLOADS_H_

#include "common.h"

namespace perfbench {

bool RunPaperSteady(const Options& options, Outcome* outcome);
bool RunCrashRecover(const Options& options, Outcome* outcome);
bool RunRealCommit(const Options& options, Outcome* outcome);

}  // namespace perfbench

#endif  // PERFBENCH_CC_WORKLOADS_H_

// The three workloads. Each builds its own inputs from the options, runs
// its set-up, a warm-up and the timed section, checks every output, and
// fills the report: end-to-end metrics without --trace, per-layer metrics
// (from a separate traced pass) with it.
#pragma once

#include "harness.hpp"

namespace perfbench {

void run_table1(const Options& opt, Report& r);
void run_serve(const Options& opt, Report& r);
void run_train(const Options& opt, Report& r);

}  // namespace perfbench

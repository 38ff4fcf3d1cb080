// Benchmark entry point: perfbench --workload table1|serve|train --seed N
// --seconds S --trace 0|1 [--t0 UNIX_SECONDS] [--out-dir DIR]. Prints its
// result as the last line of stdout; all progress goes to stderr. run.py
// builds this binary and fixes the environment it runs in, the OpenMP team
// size included (see README.md).
#include <omp.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "harness.hpp"
#include "workloads.hpp"

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload table1|serve|train "
               "--seed N --seconds S --trace 0|1 [--t0 UNIX_S] "
               "[--out-dir DIR]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  for (int k = 1; k + 1 < argc; k += 2) {
    const std::string key = argv[k];
    const char* val = argv[k + 1];
    if (key == "--workload") {
      opt.workload = val;
    } else if (key == "--seed") {
      opt.seed = std::strtoull(val, nullptr, 10);
    } else if (key == "--seconds") {
      opt.seconds = std::atof(val);
    } else if (key == "--trace") {
      opt.trace = std::atoi(val) != 0;
    } else if (key == "--t0") {
      opt.t0_unix = std::atof(val);
    } else if (key == "--out-dir") {
      opt.out_dir = val;
    } else {
      return usage(("unknown option " + key).c_str());
    }
  }
  if (argc % 2 == 0) return usage("options come in pairs");
  if (opt.seconds <= 0.0) return usage("--seconds must be positive");
  // The team size comes from OMP_NUM_THREADS, which also sizes the serving
  // worker's team.
  opt.threads = omp_get_max_threads();
  if (opt.t0_unix <= 0.0) {  // not launched by run.py: time from here
    opt.t0_unix = std::chrono::duration<double>(
                      std::chrono::system_clock::now().time_since_epoch())
                      .count();
  }
  perfbench::Report report;
  try {
    if (opt.workload == "table1") {
      perfbench::run_table1(opt, report);
    } else if (opt.workload == "serve") {
      perfbench::run_serve(opt, report);
    } else if (opt.workload == "train") {
      perfbench::run_train(opt, report);
    } else {
      return usage(("unknown workload " + opt.workload).c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  if (opt.trace) perfbench::report_absent_layers(report);
  if (report.attempted() < 1) {
    std::fprintf(stderr, "perfbench: no operation attempted\n");
    return 1;
  }
  std::printf("%s\n", report.json().c_str());
  return 0;
}

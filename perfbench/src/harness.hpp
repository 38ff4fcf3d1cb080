// Shared plumbing of the benchmark program: command-line options, the
// result document, order statistics, the span tracer, process counters and
// the fixed set-up every workload builds on (presets, solver budget,
// dataset, model).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "adarnet/model.hpp"
#include "data/dataset.hpp"
#include "solver/rans.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Seconds elapsed since `t0`.
inline double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".bench_out";  ///< chrome trace files go here
  double t0_unix = 0.0;   ///< wall-clock start of the launching process
  int threads = 1;        ///< OpenMP team size (from OMP_NUM_THREADS)
};

/// The one JSON line the benchmark ends with, plus the operation tally.
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  [[nodiscard]] bool has(const std::string& name) const;
  void attempt(bool ok) {
    ++attempted_;
    if (!ok) ++failed_;
  }
  /// A correctness failure that is not tied to one operation.
  void fail_run(const std::string& why);
  [[nodiscard]] long long attempted() const { return attempted_; }
  [[nodiscard]] long long failed() const { return failed_; }
  [[nodiscard]] bool correct() const { return correct_; }
  [[nodiscard]] std::string json() const;

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>> m_;
  long long attempted_ = 0;
  long long failed_ = 0;
  bool correct_ = true;
};

/// Median (mean of the two middle values for an even count); 0 if empty.
double median(std::vector<double> v);
/// Linear-interpolated quantile q in [0, 1]; 0 if empty.
double quantile(std::vector<double> v, double q);

/// Every end-to-end time is the fastest of many repeats of an operation.
/// The shared host runs each vCPU at two or three speeds (the same 15 ms
/// kernel reads 14, 20 or 28 ms), flipping every 0.1 s to over 30 s, and
/// the slow share of a run changes from run to run. A fixed kernel timed
/// back to back for 150 s had a median per 20 s window that spread 23%
/// (IQR/median) and a minimum that spread 3.6%. The fastest repeat is the
/// program's speed on the host's fast state; it needs only one repeat to
/// land there, where a median needs half of them.
/// Per-operation walls of one run, grouped by kind of operation (a case
/// through one method, a request scenario, a training run).
class RoundTimes {
 public:
  void add(const std::string& kind, double wall_s) {
    walls_[kind].push_back(wall_s);
  }
  /// One round of the workload's mix: the sum over kinds of each kind's
  /// fastest wall.
  [[nodiscard]] double round_s() const;
  /// The fastest wall of one kind; 0 if it never ran.
  [[nodiscard]] double kind_s(const std::string& kind) const;
  /// The fewest samples any kind has.
  [[nodiscard]] std::size_t min_samples() const;

 private:
  std::map<std::string, std::vector<double>> walls_;
};

// --- tracing ----------------------------------------------------------------

/// In-memory span recorder. Spans are recorded only while enabled, from any
/// thread; write() emits chrome://tracing JSON ("X" complete events).
class Tracer {
 public:
  static Tracer& get();
  void set_enabled(bool on) { enabled_.store(on); }
  [[nodiscard]] bool enabled() const { return enabled_.load(); }
  void record(const std::string& name, Clock::time_point start,
              Clock::time_point end, std::uint64_t request = 0);
  bool write(const std::string& path) const;
  /// Per-name total, self (minus directly nested spans on the same thread)
  /// and count, printed as a table on stderr; returns the run time of
  /// [t0, t1] covered by no span.
  double summarize(Clock::time_point t0, Clock::time_point t1) const;

 private:
  struct Event {
    std::string name;
    Clock::time_point start;
    Clock::time_point end;
    std::uint64_t tid;
    std::uint64_t request;
  };
  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;
  std::vector<Event> events_;  // guarded by mu_
};

/// RAII span around one call into the library.
class Span {
 public:
  explicit Span(const char* name, std::uint64_t request = 0)
      : name_(name), request_(request), start_(Clock::now()) {}
  ~Span() {
    Tracer& t = Tracer::get();
    if (t.enabled()) t.record(name_, start_, Clock::now(), request_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  const char* name_;
  std::uint64_t request_;
  Clock::time_point start_;
};

/// Seconds from the launching process's start (Options::t0_unix, taken by
/// run.py just before it starts this binary) to now: the cold set-up time.
double setup_seconds(const Options& opt);

// --- process counters --------------------------------------------------------

double peak_rss_mb();
double cpu_seconds();
/// The thread of this process, other than the calling one, that has used
/// the most CPU time so far, from /proc/self/task; 0 if there is none.
int busiest_thread();
/// Value of a util::metrics counter (registering it if new).
long long counter(const std::string& name);
/// Reports 0 for every per-layer metric of the manifest the workload did
/// not report: those layers do not run in it (README.md lists which).
void report_absent_layers(Report& r);
/// Reports `cpu.utilization` for [wall] seconds of `threads`-way work that
/// started when cpu_seconds() read `cpu0`.
void report_cpu(Report& r, double cpu0, double wall, int threads);
/// Reports the nn.gemm.* layer metrics from the util::metrics registry.
void report_gemm(Report& r);
/// Reports the solver.*, mg.* and mesh.ghost_* layer metrics from the
/// util::metrics registry (accumulated since its last reset): ratios as
/// they are, phase times and iterations divided by `ops` (per operation).
void report_solver(Report& r, double ops);
/// Sizes the residual time series so one solve's history fits (called
/// before the solver registers them with the default capacity).
void reserve_residual_history();
/// Outer iterations of the last solve() that ended in a diverged attempt,
/// read from the residual time series since its last reset: every point up
/// to and including the last non-finite or >= 1e30 residual.
long long diverged_iterations_since_reset();

// --- host speed ----------------------------------------------------------------

/// The speed of the host the run lands on, as the median time of a fixed
/// stencil kernel of the benchmark's own, sampled during the run. A shared
/// VM runs the same code faster or slower for minutes at a time as its
/// neighbours' load comes and goes; this reading lets a reader tell such a
/// run from a change in the program. No metric is scaled by it.
class HostSpeed {
 public:
  /// Times `passes` runs of the kernel on the calling thread.
  void sample(int passes = 3);
  /// Median kernel time over the samples so far, in seconds.
  [[nodiscard]] double kernel_s() const;

 private:
  std::vector<double> samples_;
};

/// Spreads a run's timed calls over every vCPU the process may use. The
/// vCPUs slow down one at a time: two copies of a fixed kernel pinned to
/// two vCPUs read 20 ms on one and 14 ms on the other for seconds, then
/// swapped. The scheduler leaves a lone busy thread where it is, so a run
/// whose vCPU stayed slow throughout read slow on every repeat (one train
/// run: 29 one-epoch trainings at 1.00-1.03 s, against a fastest 0.75 s on
/// other runs). Pinned in turn to each vCPU, a run meets every vCPU's
/// fast spells, and the fastest repeat of each operation finds one.
class CpuRotation {
 public:
  CpuRotation();
  /// Pins thread `tid` (0: the calling thread) to the k-th allowed vCPU,
  /// modulo their count.
  void pin(std::size_t k, int tid = 0) const;
  /// Gives the calling thread every allowed vCPU back.
  void unpin() const;

 private:
  std::vector<int> cpus_;
};

/// Moves the thread that creates it to the next allowed vCPU every 250 ms
/// until it is destroyed, then gives it every vCPU back. A single long
/// computation, such as the set-up, so runs at the vCPUs' mean speed rather
/// than at the speed of whichever vCPU it started on.
class Roaming {
 public:
  Roaming();
  ~Roaming();
  Roaming(const Roaming&) = delete;
  Roaming& operator=(const Roaming&) = delete;

 private:
  CpuRotation cpus_;
  int tid_;
  std::atomic<bool> stop_{false};
  std::thread mover_;
};

// --- the fixed set-up --------------------------------------------------------

/// ADARNET_BENCH_SHRINK = 4 presets: channel 16x64, bodies 32x32, 4x4
/// patches.
adarnet::data::GridPreset wall_preset();
adarnet::data::GridPreset body_preset();
/// The solver budget of every table1 solve: tol 5e-4 (bench_solver_config)
/// with the iteration cap `max_outer`.
adarnet::solver::SolverConfig solver_config(int max_outer);
/// A fixed-seed dataset: one LR sample per flow family, LR solves capped.
adarnet::data::Dataset make_dataset();
/// A fresh model with the fixed initialisation seed (the serving replicas'
/// seed, 2023).
std::unique_ptr<adarnet::core::AdarNet> fresh_model();

constexpr unsigned kModelSeed = 2023;

}  // namespace perfbench

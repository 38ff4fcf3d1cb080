#include "harness.hpp"

#include <sched.h>
#include <unistd.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <map>
#include <sstream>
#include <thread>

#include "util/metrics.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace metrics = adarnet::util::metrics;

// --- Report -------------------------------------------------------------------

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  for (auto& [n, vu] : m_) {
    if (n == name) {
      vu = {value, unit};
      return;
    }
  }
  m_.push_back({name, {value, unit}});
}

bool Report::has(const std::string& name) const {
  return std::any_of(m_.begin(), m_.end(),
                     [&](const auto& m) { return m.first == name; });
}

void Report::fail_run(const std::string& why) {
  std::fprintf(stderr, "[perfbench] CHECK FAILED: %s\n", why.c_str());
  correct_ = false;
}

std::string Report::json() const {
  std::string out = "{\"correct\": ";
  out += correct_ ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted_);
  out += ", \"failed\": " + std::to_string(failed_);
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, vu] : m_) {
    char num[64];
    // %.17g keeps every digit the measurement has; JSON has no NaN/inf.
    std::snprintf(num, sizeof(num), "%.17g",
                  std::isfinite(vu.first) ? vu.first : 0.0);
    out += first ? "" : ", ";
    out += "\"" + name + "\": {\"value\": " + num + ", \"unit\": \"" +
           vu.second + "\"}";
    first = false;
  }
  out += "}}";
  return out;
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + frac * (v[hi] - v[lo]);
}

double RoundTimes::round_s() const {
  double sum = 0.0;
  for (const auto& [kind, walls] : walls_) {
    sum += *std::min_element(walls.begin(), walls.end());
  }
  return sum;
}

double RoundTimes::kind_s(const std::string& kind) const {
  const auto it = walls_.find(kind);
  return it == walls_.end()
             ? 0.0
             : *std::min_element(it->second.begin(), it->second.end());
}

std::size_t RoundTimes::min_samples() const {
  std::size_t n = walls_.empty() ? 0 : walls_.begin()->second.size();
  for (const auto& [kind, walls] : walls_) n = std::min(n, walls.size());
  return n;
}

// --- Tracer -------------------------------------------------------------------

Tracer& Tracer::get() {
  static Tracer t;
  return t;
}

void Tracer::record(const std::string& name, Clock::time_point start,
                    Clock::time_point end, std::uint64_t request) {
  const std::uint64_t tid =
      std::hash<std::thread::id>{}(std::this_thread::get_id());
  std::lock_guard<std::mutex> lock(mu_);
  events_.push_back({name, start, end, tid, request});
}

bool Tracer::write(const std::string& path) const {
  std::error_code ec;
  std::filesystem::create_directories(
      std::filesystem::path(path).parent_path(), ec);
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "[perfbench] cannot write %s\n", path.c_str());
    return false;
  }
  std::lock_guard<std::mutex> lock(mu_);
  const Clock::time_point origin =
      events_.empty() ? Clock::now() : events_.front().start;
  std::map<std::uint64_t, int> tids;
  out << "{\"traceEvents\": [";
  for (std::size_t k = 0; k < events_.size(); ++k) {
    const Event& e = events_[k];
    const auto [it, fresh] =
        tids.emplace(e.tid, static_cast<int>(tids.size()));
    (void)fresh;
    const auto us = [&](Clock::time_point t) {
      return std::chrono::duration<double, std::micro>(t - origin).count();
    };
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                  "\"tid\": %d, \"ts\": %.3f, \"dur\": %.3f, "
                  "\"args\": {\"request\": %llu}}",
                  k ? ", " : "", e.name.c_str(), it->second, us(e.start),
                  us(e.end) - us(e.start),
                  static_cast<unsigned long long>(e.request));
    out << buf;
  }
  out << "], \"displayTimeUnit\": \"ms\"}\n";
  std::fprintf(stderr, "[perfbench] chrome://tracing spans written to %s\n",
               path.c_str());
  return static_cast<bool>(out);
}

double Tracer::summarize(Clock::time_point t0, Clock::time_point t1) const {
  std::lock_guard<std::mutex> lock(mu_);
  struct Row {
    double total = 0.0;
    double self = 0.0;
    long long count = 0;
  };
  std::map<std::string, Row> rows;
  // Self time: a span minus the spans nested directly inside it on the
  // same thread. Sort each thread's spans by (start, longest first) and
  // walk them with a stack of open ancestors.
  std::vector<const Event*> sorted;
  sorted.reserve(events_.size());
  for (const Event& e : events_) sorted.push_back(&e);
  std::sort(sorted.begin(), sorted.end(), [](const Event* a, const Event* b) {
    if (a->tid != b->tid) return a->tid < b->tid;
    if (a->start != b->start) return a->start < b->start;
    return a->end > b->end;
  });
  const auto secs = [](Clock::duration d) {
    return std::chrono::duration<double>(d).count();
  };
  std::vector<const Event*> stack;
  // Union of top-level spans on any thread, for the outside-span remainder.
  std::vector<std::pair<Clock::time_point, Clock::time_point>> tops;
  for (const Event* e : sorted) {
    while (!stack.empty() &&
           (stack.back()->tid != e->tid || stack.back()->end <= e->start)) {
      stack.pop_back();
    }
    Row& row = rows[e->name];
    row.total += secs(e->end - e->start);
    row.self += secs(e->end - e->start);
    ++row.count;
    if (!stack.empty()) {
      rows[stack.back()->name].self -= secs(e->end - e->start);
    } else {
      tops.emplace_back(std::max(e->start, t0), std::min(e->end, t1));
    }
    stack.push_back(e);
  }
  std::sort(tops.begin(), tops.end());
  double covered = 0.0;
  Clock::time_point reach = t0;
  for (const auto& [a, b] : tops) {
    const Clock::time_point from = std::max(a, reach);
    if (b > from) {
      covered += secs(b - from);
      reach = b;
    }
  }
  const double outside = std::max(0.0, secs(t1 - t0) - covered);
  std::fprintf(stderr, "\n%-28s %12s %12s %8s\n", "span", "total_s",
               "self_s", "count");
  for (const auto& [name, row] : rows) {
    std::fprintf(stderr, "%-28s %12.4f %12.4f %8lld\n", name.c_str(),
                 row.total, row.self, row.count);
  }
  std::fprintf(stderr, "%-28s %12.4f\n\n", "(outside any span)", outside);
  return outside;
}

double setup_seconds(const Options& opt) {
  const double now = std::chrono::duration<double>(
                         std::chrono::system_clock::now().time_since_epoch())
                         .count();
  return now - opt.t0_unix;
}

// --- process counters ---------------------------------------------------------

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + 1e-6 * static_cast<double>(t.tv_usec);
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

namespace {

// Every per-layer metric of BENCHMARK.json, with its unit.
const std::pair<const char*, const char*> kPerLayer[] = {
    {"cpu.utilization", "ratio"},
    {"host.kernel_ms", "ms"},
    {"trace.overhead_pct", "%"},
    {"trace.outside_s", "s"},
    {"nn.gemm_flops", "count"},
    {"nn.gemm_gflops_per_s", "GFLOP/s"},
    {"solver.momentum_s", "s"},
    {"solver.rhie_chow_s", "s"},
    {"solver.pressure_s", "s"},
    {"solver.sa_s", "s"},
    {"solver.ghosts_s", "s"},
    {"solver.outer_iterations", "count"},
    {"solver.ns_per_cell_update", "ns"},
    {"solver.retry_iterations", "count"},
    {"mg.cycles_per_iteration", "count"},
    {"mesh.build_ms", "ms"},
    {"mesh.ghost_bytes_per_cell_update", "B"},
    {"mesh.exchange_us", "us"},
    {"adarnet.lr_s", "s"},
    {"adarnet.infer_s", "s"},
    {"adarnet.ps_s", "s"},
    {"adarnet.ladder_rungs", "count"},
    {"adarnet.iterations_saved", "count"},
    {"amr.stages", "count"},
    {"amr.intermediate_s", "s"},
    {"amr.final_s", "s"},
    {"amr.final_cells", "count"},
    {"setup.dataset_s", "s"},
    {"setup.train_s", "s"},
    {"serving.queue_ms", "ms"},
    {"serving.solve_ms", "ms"},
    {"serving.overhead_ms", "ms"},
    {"serving.degraded", "count"},
    {"train.epoch_s", "s"},
    {"train.skipped_steps", "count"},
};

}  // namespace

void report_absent_layers(Report& r) {
  for (const auto& [name, unit] : kPerLayer) {
    if (!r.has(name)) r.metric(name, 0.0, unit);
  }
}

int busiest_thread() {
  int best = 0;
  long long most = -1;
  const int self = static_cast<int>(gettid());
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::directory_iterator("/proc/self/task", ec)) {
    const int tid = std::atoi(entry.path().filename().c_str());
    if (tid == self) continue;
    std::ifstream in(entry.path() / "stat");
    std::string stat((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    // Fields after the parenthesised name: state is field 3, utime and
    // stime are fields 14 and 15.
    const std::size_t close = stat.rfind(')');
    if (close == std::string::npos) continue;
    std::istringstream rest(stat.substr(close + 2));
    std::string field;
    long long utime = 0;
    long long stime = 0;
    for (int k = 3; k <= 15 && rest >> field; ++k) {
      if (k == 14) utime = std::atoll(field.c_str());
      if (k == 15) stime = std::atoll(field.c_str());
    }
    if (utime + stime > most) {
      most = utime + stime;
      best = tid;
    }
  }
  return best;
}

long long counter(const std::string& name) {
  return metrics::counter(name).value();
}

void report_cpu(Report& r, double cpu0, double wall, int threads) {
  r.metric("cpu.utilization",
           (cpu_seconds() - cpu0) / (std::max(wall, 1e-9) * threads), "ratio");
}

void report_gemm(Report& r) {
  const double flops = static_cast<double>(counter("nn.gemm.flops"));
  const double ns = static_cast<double>(counter("nn.gemm.ns"));
  r.metric("nn.gemm_flops", flops, "count");
  r.metric("nn.gemm_gflops_per_s", ns > 0 ? flops / ns : 0.0, "GFLOP/s");
}

void report_solver(Report& r, double ops) {
  const auto s = [ops](const char* n) {
    return 1e-9 * static_cast<double>(counter(n)) / ops;
  };
  r.metric("solver.momentum_s", s("solver.momentum.ns"), "s");
  r.metric("solver.rhie_chow_s", s("solver.rhie_chow.ns"), "s");
  r.metric("solver.pressure_s", s("solver.pressure.ns"), "s");
  r.metric("solver.sa_s", s("solver.sa.ns"), "s");
  r.metric("solver.ghosts_s", s("solver.ghosts.ns"), "s");
  const double iters = static_cast<double>(counter("solver.iterations"));
  const double updates = static_cast<double>(counter("solver.cell_updates"));
  r.metric("solver.outer_iterations", iters / ops, "count");
  r.metric("solver.ns_per_cell_update",
           updates > 0 ? static_cast<double>(counter("solver.ns")) / updates
                       : 0.0,
           "ns");
  r.metric("mg.cycles_per_iteration",
           iters > 0 ? static_cast<double>(counter("solver.mg.cycles")) / iters
                     : 0.0,
           "count");
  r.metric("mesh.ghost_bytes_per_cell_update",
           updates > 0
               ? static_cast<double>(counter("solver.ghosts.bytes")) / updates
               : 0.0,
           "B");
}

namespace {
const char* const kResidualSeries[] = {"solver.residual.u", "solver.residual.v",
                                       "solver.residual.p",
                                       "solver.residual.nu_tilde"};
}  // namespace

void reserve_residual_history() {
  for (const char* name : kResidualSeries) metrics::series(name, 1 << 16);
}

long long diverged_iterations_since_reset() {
  std::vector<std::vector<metrics::TimeSeries::Point>> s;
  for (const char* name : kResidualSeries) {
    s.push_back(metrics::series(name).snapshot());
  }
  long long last = 0;
  const std::size_t n = s[2].size();
  for (std::size_t k = 0; k < n; ++k) {
    // Residuals::combined(): worst of continuity, mean momentum and SA,
    // non-finite mapped to 1e30 (the solver's divergence test).
    const double mom = 0.5 * (s[0][k].y + s[1][k].y);
    double worst = std::max({s[2][k].y, mom, s[3][k].y});
    if (!std::isfinite(s[2][k].y) || !std::isfinite(mom) ||
        !std::isfinite(s[3][k].y)) {
      worst = 1e30;
    }
    if (worst >= 1e30) last = static_cast<long long>(k) + 1;
  }
  return last;
}

// --- host speed -----------------------------------------------------------------

namespace {

// 400 Jacobi sweeps of a 5-point stencil over 256 x 256 doubles (512 KiB a
// grid): loads, FP adds and stores from L2, as in the solver's sweeps.
double stencil_kernel() {
  constexpr int n = 256;
  static std::vector<double> a(n * n, 1.0);
  static std::vector<double> b(n * n, 0.0);
  for (int sweep = 0; sweep < 400; ++sweep) {
    for (int i = 1; i < n - 1; ++i) {
      for (int j = 1; j < n - 1; ++j) {
        b[i * n + j] = 0.25 * (a[(i - 1) * n + j] + a[(i + 1) * n + j] +
                               a[i * n + j - 1] + a[i * n + j + 1]) +
                       1e-3;
      }
    }
    std::swap(a, b);
  }
  return a[n + 1];
}

}  // namespace

void HostSpeed::sample(int passes) {
  static volatile double sink = 0.0;
  for (int k = 0; k < passes; ++k) {
    const Clock::time_point t = Clock::now();
    sink = sink + stencil_kernel();
    samples_.push_back(since(t));
  }
}

double HostSpeed::kernel_s() const { return median(samples_); }

namespace {

void pin_to(const std::vector<int>& cpus, int tid = 0) {
  if (cpus.empty()) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int c : cpus) CPU_SET(c, &set);
  sched_setaffinity(tid, sizeof(set), &set);  // 0: the calling thread
}

}  // namespace

CpuRotation::CpuRotation() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &set)) cpus_.push_back(c);
    }
  }
}

void CpuRotation::pin(std::size_t k, int tid) const {
  if (!cpus_.empty()) pin_to({cpus_[k % cpus_.size()]}, tid);
}

void CpuRotation::unpin() const { pin_to(cpus_); }

Roaming::Roaming() : tid_(static_cast<int>(gettid())) {
  mover_ = std::thread([this] {
    for (std::size_t k = 0; !stop_.load(); ++k) {
      cpus_.pin(k, tid_);
      std::this_thread::sleep_for(std::chrono::milliseconds(250));
    }
  });
}

Roaming::~Roaming() {
  stop_.store(true);
  mover_.join();
  cpus_.unpin();
}

// --- the fixed set-up ---------------------------------------------------------

adarnet::data::GridPreset wall_preset() {
  return adarnet::data::shrink(adarnet::data::paper_wall_preset(), 4);
}

adarnet::data::GridPreset body_preset() {
  return adarnet::data::shrink(adarnet::data::paper_body_preset(), 4);
}

adarnet::solver::SolverConfig solver_config(int max_outer) {
  adarnet::solver::SolverConfig cfg;
  cfg.tol = 5e-4;
  cfg.max_outer = max_outer;
  return cfg;
}

adarnet::data::Dataset make_dataset() {
  adarnet::data::DatasetConfig cfg;
  cfg.channel_samples = 1;
  cfg.plate_samples = 1;
  cfg.ellipse_samples = 1;
  cfg.wall_preset = wall_preset();
  cfg.body_preset = body_preset();
  cfg.solver = solver_config(150);
  cfg.seed = 1234;
  return adarnet::data::generate_dataset(cfg);
}

std::unique_ptr<adarnet::core::AdarNet> fresh_model() {
  adarnet::util::Rng rng(kModelSeed);
  adarnet::core::AdarNetConfig cfg;
  cfg.ph = wall_preset().ph;
  cfg.pw = wall_preset().pw;
  return std::make_unique<adarnet::core::AdarNet>(cfg, rng);
}

}  // namespace perfbench

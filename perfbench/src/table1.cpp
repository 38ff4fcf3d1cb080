// table1: the paper's end-to-end claim at bench scale. ADARNet's
// lr + inf + ps against the iterative feature-based AMR solver on one
// wall-bounded case, the cylinder and one airfoil.
#include <omp.h>

#include <algorithm>
#include <cstdio>
#include <numeric>
#include <optional>

#include "adarnet/pipeline.hpp"
#include "adarnet/trainer.hpp"
#include "amr/driver.hpp"
#include "checks.hpp"
#include "data/cases.hpp"
#include "util/metrics.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace adarnet;

constexpr int kMaxOuter = 20;  // per solve: LR, ps, every AMR stage
constexpr int kTrainEpochs = 5;  // set-up training of the table1 model

std::vector<mesh::CaseSpec> table1_cases() {
  return {data::flat_plate_case(2.5e5, wall_preset()),
          data::cylinder_case(1e5, body_preset()),
          data::naca0012_case(2.5e4, body_preset())};
}

amr::AmrConfig amr_config() {
  amr::AmrConfig cfg;
  cfg.solver = solver_config(kMaxOuter);
  cfg.stage_max_outer = kMaxOuter;
  return cfg;
}

core::PipelineConfig pipeline_config(int max_outer) {
  core::PipelineConfig cfg;
  cfg.lr_solver = solver_config(max_outer);
  cfg.ps_solver = solver_config(max_outer);
  return cfg;
}

// Layer totals of one timed round, read from the public results.
struct RoundLayers {
  double lr_s = 0, infer_s = 0, ps_s = 0;
  long long rungs = 0, amr_stages = 0, amr_final_cells = 0;
  double amr_intermediate_s = 0, amr_final_s = 0;
};

std::string check_pipeline(const core::PipelineResult& p) {
  if (!p.mesh) return "pipeline returned no mesh";
  std::string why = checks::levels_in_range(checks::levels_of(p.map));
  if (why.empty()) why = checks::field_sane(*p.mesh, p.solution);
  if (why.empty()) why = checks::mass_conserved(*p.mesh, p.solution);
  return why;
}

std::string check_amr(const amr::AmrResult& a) {
  if (!a.mesh) return "AMR returned no mesh";
  std::string why = checks::two_to_one(checks::levels_of(a.final_map));
  if (why.empty()) why = checks::field_sane(*a.mesh, a.solution);
  if (why.empty()) why = checks::mass_conserved(*a.mesh, a.solution);
  return why;
}

// The team the determinism check compares with 1 thread: 2, within nproc.
// The timed solves run a team of 1 (README.md).
int check_team() { return std::min(2, omp_get_num_procs()); }

// One case solved at 1 thread and at check_team(); then the workload's team
// is restored.
std::string check_thread_determinism(const mesh::CaseSpec& spec, int threads) {
  const solver::SolverConfig cfg = solver_config(kMaxOuter);
  omp_set_num_threads(1);
  const field::FlowField one = data::solve_lr(spec, cfg);
  omp_set_num_threads(check_team());
  const field::FlowField many = data::solve_lr(spec, cfg);
  omp_set_num_threads(threads);
  return checks::bitwise_equal(one, many);
}

struct Round {
  double wall_s = 0.0;
};

Round run_round(core::AdarNet& model, const std::vector<mesh::CaseSpec>& cases,
                const std::vector<std::size_t>& order, int threads, Report& r,
                RoundTimes& times, RoundLayers& layers, HostSpeed& speed,
                std::size_t round) {
  const Span round_span("table1.round");
  const Clock::time_point t0 = Clock::now();
  const CpuRotation cpus;
  Round out;
  for (std::size_t idx : order) {
    const mesh::CaseSpec& spec = cases[idx];
    const Span case_span("table1.case");
    // Each case moves one vCPU on per round, so over four rounds each of
    // its two calls runs on every vCPU of a 4-vCPU host.
    cpus.pin(round + idx);
    speed.sample(1);
    Clock::time_point t = Clock::now();
    amr::AmrResult a;
    {
      const Span s("amr.run_amr");
      a = amr::run_amr(spec, amr_config());
    }
    times.add("amr " + spec.name, since(t));
    speed.sample(1);
    t = Clock::now();
    core::PipelineResult p;
    {
      const Span s("adarnet.run_adarnet_pipeline");
      p = core::run_adarnet_pipeline(model, spec, pipeline_config(kMaxOuter));
    }
    times.add("adarnet " + spec.name, since(t));

    const Span check_span("table1.check");
    // An operation fails when its output is rejected. No solve reaches tol
    // within the fixed budget, so convergence is reported, not checked
    // (README.md).
    const std::string amr_why = check_amr(a);
    const std::string ad_why = check_pipeline(p);
    if (!amr_why.empty()) {
      std::fprintf(stderr, "[table1] %s: AMR output: %s\n", spec.name.c_str(),
                   amr_why.c_str());
    }
    if (!ad_why.empty()) {
      std::fprintf(stderr, "[table1] %s: ADARNet output: %s\n",
                   spec.name.c_str(), ad_why.c_str());
    }
    r.attempt(amr_why.empty());
    r.attempt(ad_why.empty());
    std::fprintf(stderr,
                 "[table1] %-22s ADARNet %.3fs itc %d conv %d res %.3g "
                 "rung %s mass %.2g | AMR %.3fs itc %d conv %d mass %.2g\n",
                 spec.name.c_str(), p.ttc_seconds(),
                 p.lr_iterations + p.ps_iterations, p.converged, p.residual,
                 core::to_string(p.fallback_stage),
                 p.mesh ? checks::boundary_mass_imbalance(*p.mesh, p.solution)
                        : -1.0,
                 a.total_seconds, a.total_iterations, a.converged,
                 a.mesh ? checks::boundary_mass_imbalance(*a.mesh, a.solution)
                        : -1.0);

    layers.lr_s += p.lr_seconds;
    layers.infer_s += p.inf_seconds;
    layers.ps_s += p.ps_seconds;
    layers.rungs += p.ps_solves;
    layers.amr_stages += static_cast<long long>(a.stages.size());
    if (!a.stages.empty()) {
      for (std::size_t k = 0; k + 1 < a.stages.size(); ++k) {
        layers.amr_intermediate_s += a.stages[k].seconds;
      }
      layers.amr_final_s += a.stages.back().seconds;
      layers.amr_final_cells += a.stages.back().cells;
    }
  }
  {
    // The cylinder: the cheapest case, so the check costs a round little.
    const Span s("table1.determinism");
    cpus.unpin();  // the 2-thread team must not share one vCPU
    const std::string why = check_thread_determinism(cases[1], threads);
    if (!why.empty()) {
      std::fprintf(stderr, "[table1] 1 vs %d threads: %s\n", check_team(),
                   why.c_str());
    }
    r.attempt(why.empty());
  }
  out.wall_s = since(t0);
  return out;
}

// Traced-run diagnostics on the predicted meshes: mesh build, ghost
// exchange, retry iterations and the iterations the DNN start saves over a
// freestream start. The two solves run on the cylinder only, at
// bench_solver_config()'s cap of 2000: there the DNN-started solve
// converges (README.md), so the difference is one of iterations to
// convergence. At the workload's cap both starts stop at the cap.
void diagnostics(core::AdarNet& model, const std::vector<mesh::CaseSpec>& cases,
                 Report& r) {
  const solver::SolverConfig cfg = solver_config(kMaxOuter);
  const mesh::CaseSpec& solved = cases[1];
  std::vector<double> build_ms;
  double exchange_s = 0.0;
  long long exchanges = 0;
  long long retry = 0;
  long long saved = 0;
  for (const mesh::CaseSpec& spec : cases) {
    const Span diag("table1.diagnostics");
    const field::FlowField lr = data::solve_lr(spec, cfg);
    const core::InferenceResult inf = model.infer(lr);
    Clock::time_point t = Clock::now();
    std::unique_ptr<mesh::CompositeMesh> cmesh;
    mesh::CompositeField seed;
    {
      const Span s("mesh.to_composite");
      auto built = model.to_composite(inf, spec, lr);
      cmesh = std::move(built.first);
      seed = std::move(built.second);
    }
    build_ms.push_back(1e3 * since(t));
    solver::RansSolver solver(*cmesh, solver_config(2000));
    mesh::CompositeField f = seed;
    constexpr int kExchanges = 50;
    t = Clock::now();
    {
      const Span s("mesh.refresh_ghosts");
      for (int k = 0; k < kExchanges; ++k) solver.refresh_ghosts(f);
    }
    exchange_s += since(t);
    exchanges += kExchanges;
    if (spec.name != solved.name) continue;

    util::metrics::reset();
    solver::SolveStats dnn;
    {
      const Span s("solver.solve.dnn_start");
      dnn = solver.solve(f);
    }
    retry += diverged_iterations_since_reset();
    mesh::CompositeField fs = make_field(*cmesh);
    solver.initialize_freestream(fs);
    util::metrics::reset();
    solver::SolveStats free;
    {
      const Span s("solver.solve.freestream_start");
      free = solver.solve(fs);
    }
    retry += diverged_iterations_since_reset();
    saved += free.iterations - dnn.iterations;
  }
  r.metric("mesh.build_ms", median(build_ms), "ms");
  r.metric("mesh.exchange_us", 1e6 * exchange_s / exchanges, "us");
  r.metric("solver.retry_iterations", static_cast<double>(retry), "count");
  r.metric("adarnet.iterations_saved", static_cast<double>(saved), "count");
}

}  // namespace

void run_table1(const Options& opt, Report& r) {
  // The set-up is one long computation on the main thread; it roams over
  // the vCPUs (harness.hpp, Roaming).
  std::optional<Roaming> roaming(std::in_place);
  reserve_residual_history();
  const std::vector<mesh::CaseSpec> cases = table1_cases();
  // The seed fixes the order the cases run in within a round; the cases,
  // the model and the solver budget are fixed.
  std::vector<std::size_t> order(cases.size());
  std::iota(order.begin(), order.end(), 0);
  {
    util::Rng rng(opt.seed);
    std::shuffle(order.begin(), order.end(), rng.engine());
  }

  Clock::time_point t = Clock::now();
  const data::Dataset dataset = make_dataset();
  const double dataset_s = since(t);
  t = Clock::now();
  std::unique_ptr<core::AdarNet> model = fresh_model();
  {
    core::TrainConfig tcfg;
    tcfg.epochs = kTrainEpochs;
    tcfg.log_every = 0;
    util::Rng rng(kModelSeed);
    core::train(*model, dataset, tcfg, rng);
  }
  const double train_s = since(t);
  // Warm-up: every case through both methods on a short budget, so first-
  // use costs (allocator growth, OpenMP team start) stay out of the timing.
  for (const mesh::CaseSpec& spec : cases) {
    core::run_adarnet_pipeline(*model, spec, pipeline_config(10));
    amr::AmrConfig acfg = amr_config();
    acfg.solver.max_outer = 10;
    acfg.stage_max_outer = 10;
    amr::run_amr(spec, acfg);
  }
  roaming.reset();
  const double setup_s = setup_seconds(opt);

  util::metrics::reset();
  const double cpu0 = cpu_seconds();
  const Clock::time_point t0 = Clock::now();
  std::vector<Round> rounds;
  RoundTimes times;
  RoundLayers layers;
  HostSpeed speed;
  Clock::time_point traced_from = t0;
  // The traced run times one untraced round first: the overhead of tracing
  // is the traced rounds' wall minus that one's.
  while (rounds.size() < (opt.trace ? 2u : 1u) || since(t0) < opt.seconds) {
    if (opt.trace && rounds.size() == 1) {
      Tracer::get().set_enabled(true);
      traced_from = Clock::now();
    }
    rounds.push_back(run_round(*model, cases, order, opt.threads, r, times,
                               layers, speed, rounds.size()));
  }
  const double wall = since(t0);
  const Clock::time_point t1 = Clock::now();
  const double n = static_cast<double>(rounds.size());

  double adarnet_s = 0.0;
  double amr_s = 0.0;
  for (const mesh::CaseSpec& spec : cases) {
    adarnet_s += times.kind_s("adarnet " + spec.name);
    amr_s += times.kind_s("amr " + spec.name);
  }
  std::fprintf(stderr,
               "[table1] %zu round(s): ADARNet %.3fs AMR %.3fs (fastest per "
               "case, summed), host kernel %.2f ms\n",
               rounds.size(), adarnet_s, amr_s, 1e3 * speed.kernel_s());
  if (!opt.trace) {
    r.metric("setup_s", setup_s, "s");
    r.metric("peak_rss_mb", peak_rss_mb(), "MB");
    r.metric("round_s", times.round_s(), "s");
    return;
  }
  report_cpu(r, cpu0, wall, opt.threads);
  r.metric("host.kernel_ms", 1e3 * speed.kernel_s(), "ms");
  report_gemm(r);
  report_solver(r, n);
  r.metric("adarnet.lr_s", layers.lr_s / n, "s");
  r.metric("adarnet.infer_s", layers.infer_s / n, "s");
  r.metric("adarnet.ps_s", layers.ps_s / n, "s");
  r.metric("adarnet.ladder_rungs", static_cast<double>(layers.rungs) / n,
           "count");
  r.metric("amr.stages", static_cast<double>(layers.amr_stages) / n, "count");
  r.metric("amr.intermediate_s", layers.amr_intermediate_s / n, "s");
  r.metric("amr.final_s", layers.amr_final_s / n, "s");
  r.metric("amr.final_cells", static_cast<double>(layers.amr_final_cells) / n,
           "count");
  r.metric("setup.dataset_s", dataset_s, "s");
  r.metric("setup.train_s", train_s, "s");

  std::vector<double> traced;
  for (std::size_t k = 1; k < rounds.size(); ++k) {
    traced.push_back(rounds[k].wall_s);
  }
  r.metric("trace.overhead_pct",
           100.0 * (median(traced) / rounds.front().wall_s - 1.0), "%");
  r.metric("trace.outside_s", Tracer::get().summarize(traced_from, t1), "s");
  diagnostics(*model, cases, r);
  Tracer::get().write(opt.out_dir + "/trace_table1.json");
}

}  // namespace perfbench

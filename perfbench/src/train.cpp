// train: fixed-epoch training of the model on a fixed dataset, from the
// fixed initialisation seed. nn forward/backward and the PDE loss; no
// solver in the timed section.
#include <cmath>
#include <cstdio>
#include <optional>

#include "adarnet/pde_loss.hpp"
#include "adarnet/ranker.hpp"
#include "adarnet/trainer.hpp"
#include "checks.hpp"
#include "field/interp.hpp"
#include "nn/loss.hpp"
#include "util/metrics.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace adarnet;

constexpr int kEpochs = 1;
// The gradient check's draws (see check_decoder_gradients).
constexpr std::uint64_t kGradSeed = 209;
constexpr int kGradTries = 8;
constexpr float kGradStep = 1e-2f;

// The hybrid objective, evaluated independently of the trainer: scorer MSE
// against the physics-derived score target, plus per patch the decoder's
// data MSE in the LR space and lambda times its PDE residual.
double objective(core::AdarNet& model, const data::Dataset& ds,
                 double lambda_pde) {
  const int ph = model.config().ph;
  const int pw = model.config().pw;
  const data::NormStats& stats = model.stats();
  double scorer = 0.0;
  double data_sum = 0.0;
  double pde_sum = 0.0;
  long patches = 0;
  for (const data::Sample& sample : ds.samples) {
    const mesh::CaseSpec& spec = sample.spec;
    const nn::Tensor lr_norm = data::to_tensor(sample.lr, stats);
    const nn::Tensor target = core::score_target(sample.lr, ph, pw);
    scorer += nn::mse_loss(model.scorer().forward(lr_norm).scores, target);
    for (const core::Bin& bin : core::rank(target, model.config().bins)) {
      if (bin.patch_ids.empty()) continue;
      const nn::Tensor out = model.decoder().forward(model.make_decoder_batch(
          lr_norm, bin.patch_ids, bin.level, target.w(), target.h()));
      const int hh = ph << bin.level;
      const int ww = pw << bin.level;
      const std::size_t plane = static_cast<std::size_t>(hh) * ww;
      const core::PdeOptions pde{spec.nu, spec.lx / (spec.base_nx << bin.level),
                                 spec.ly / (spec.base_ny << bin.level)};
      for (int s = 0; s < out.n(); ++s) {
        const int id = bin.patch_ids[static_cast<std::size_t>(s)];
        const int pi = id / spec.npx();
        const int pj = id % spec.npx();
        field::FlowField phys(hh, ww);
        for (int c = 0; c < field::kNumFlowVars; ++c) {
          const float* o =
              out.data() + (static_cast<std::size_t>(s) * out.c() + c) * plane;
          field::Grid2Dd pred(hh, ww);
          for (std::size_t k = 0; k < plane; ++k) {
            pred[k] = o[k];
            phys.channel(c)[k] = stats.decode(c, o[k]);
          }
          const field::Grid2Dd down =
              bin.level == 0
                  ? pred
                  : field::resize(pred, ph, pw, field::Interp::kBicubic);
          for (int i = 0; i < ph; ++i) {
            for (int j = 0; j < pw; ++j) {
              const double d =
                  down(i, j) -
                  stats.encode(c, sample.lr.channel(c)(pi * ph + i, pj * pw + j));
              data_sum += d * d / (ph * pw * field::kNumFlowVars);
            }
          }
        }
        pde_sum += core::pde_residual_value(phys, pde);
        ++patches;
      }
    }
  }
  return scorer / static_cast<double>(ds.samples.size()) +
         (data_sum + lambda_pde * pde_sum) / static_cast<double>(patches);
}

// Backprop against finite differences of L = sum(w * decoder(x)) on one bin
// batch of the first sample, for one entry of every decoder parameter
// tensor. The entries and w are drawn from kGradSeed. A ReLU whose
// pre-activation lies within the step of zero bends L inside the step:
// units whose receptive field is all zero sit exactly at their bias, and a
// trained bias can be a few 1e-4 from zero. There the one-sided quotients
// disagree and no quotient is a reference for backprop, so such an entry
// is redrawn (up to kGradTries per tensor) and the central quotient of the
// first smooth entry is the reference.
std::string check_decoder_gradients(core::AdarNet& model,
                                    const data::Dataset& ds) {
  const data::Sample& sample = ds.samples.front();
  const int ph = model.config().ph;
  const int pw = model.config().pw;
  const nn::Tensor lr_norm = data::to_tensor(sample.lr, model.stats());
  const nn::Tensor target = core::score_target(sample.lr, ph, pw);
  const core::Bin* pick = nullptr;
  const std::vector<core::Bin> bins = core::rank(target, model.config().bins);
  for (const core::Bin& bin : bins) {
    if (!bin.patch_ids.empty()) {
      pick = &bin;
      break;
    }
  }
  const nn::Tensor batch = model.make_decoder_batch(
      lr_norm, pick->patch_ids, pick->level, target.w(), target.h());
  core::Decoder& dec = model.decoder();
  util::Rng rng(kGradSeed);
  nn::Tensor out = dec.forward(batch, /*train=*/true);
  nn::Tensor w(out.n(), out.c(), out.h(), out.w());
  for (std::size_t k = 0; k < w.numel(); ++k) w[k] = rng.uniformf(-1.f, 1.f);
  const std::vector<nn::Parameter*> params = dec.parameters();
  for (nn::Parameter* p : params) p->zero_grad();
  dec.backward(w);
  const auto loss = [&] {
    const nn::Tensor o = dec.forward(batch, /*train=*/true);
    double acc = 0.0;
    for (std::size_t k = 0; k < o.numel(); ++k) {
      acc += static_cast<double>(w[k]) * o[k];
    }
    return acc;
  };
  const double base = loss();
  struct Quotients {
    double backprop, forward, backward, central;
  };
  const auto draw = [&](nn::Parameter* p) {
    const auto e = static_cast<std::size_t>(rng.uniform_int(
        0, static_cast<std::int64_t>(p->value.numel()) - 1));
    const float orig = p->value[e];
    const float h = kGradStep * std::max(1.0f, std::abs(orig));
    p->value[e] = orig + h;
    const double up = loss();
    const double hi = p->value[e];
    p->value[e] = orig - h;
    const double down = loss();
    const double lo = p->value[e];
    p->value[e] = orig;
    return Quotients{p->grad[e], (up - base) / (hi - orig),
                     (base - down) / (orig - lo), (up - down) / (hi - lo)};
  };
  std::vector<Quotients> picked;
  for (nn::Parameter* p : params) picked.push_back(draw(p));
  double scale = 0.0;
  for (const Quotients& q : picked) scale = std::max(scale, std::abs(q.central));
  std::vector<double> analytic, central;
  int redrawn = 0;
  for (std::size_t t = 0; t < params.size(); ++t) {
    int tries = 1;
    while (!checks::smooth_across_step(picked[t].forward, picked[t].backward,
                                       scale)) {
      ++redrawn;
      if (tries++ == kGradTries) {
        return "decoder parameter tensor " + std::to_string(t) + ": no entry "
               "without a kink within the step in " +
               std::to_string(kGradTries) + " draws";
      }
      picked[t] = draw(params[t]);
    }
    analytic.push_back(picked[t].backprop);
    central.push_back(picked[t].central);
  }
  std::fprintf(stderr, "[train] gradient check: %zu tensors, %d draw(s) "
               "within a step of a kink redrawn\n", params.size(), redrawn);
  return checks::gradients_agree(analytic, central);
}

}  // namespace

void run_train(const Options& opt, Report& r) {
  // The set-up is one long computation on the main thread; it roams over
  // the vCPUs (harness.hpp, Roaming).
  std::optional<Roaming> roaming(std::in_place);
  Clock::time_point t = Clock::now();
  const data::Dataset dataset = make_dataset();
  const double dataset_s = since(t);
  core::TrainConfig tcfg;
  tcfg.epochs = kEpochs;
  tcfg.log_every = 0;
  // The objective of the untrained model, under the dataset's normalisation
  // (train() installs it before the first step).
  double before = 0.0;
  {
    std::unique_ptr<core::AdarNet> m = fresh_model();
    m->stats() = dataset.stats;
    before = objective(*m, dataset, tcfg.lambda_pde);
  }
  // Warm-up: one epoch on a scratch model, outside the timing.
  {
    std::unique_ptr<core::AdarNet> m = fresh_model();
    core::TrainConfig warm = tcfg;
    warm.epochs = 1;
    util::Rng rng(kModelSeed);
    core::train(*m, dataset, warm, rng);
  }
  roaming.reset();
  const double setup_s = setup_seconds(opt);

  util::metrics::reset();
  const double cpu0 = cpu_seconds();
  const Clock::time_point t0 = Clock::now();
  std::vector<double> walls;
  RoundTimes times;
  std::size_t untraced = 0;
  Clock::time_point traced_from = t0;
  long long skipped = 0;
  HostSpeed speed;
  const double samples_per_run =
      static_cast<double>(dataset.samples.size() * kEpochs);
  // One operation = one training run from the fixed seed, then its check.
  // The first run gets the full checks. Every later run starts from the
  // same model and seed, so it must end with bitwise the same parameters,
  // and shares the first run's verdict. The traced run does its first
  // operation untraced, as the reference for the tracing overhead.
  std::vector<float> first_params;
  std::string first_why;
  const CpuRotation cpus;
  while (walls.size() < (opt.trace ? 2u : 1u) || since(t0) < opt.seconds) {
    if (opt.trace && walls.size() == 1) {
      untraced = 1;
      Tracer::get().set_enabled(true);
      traced_from = Clock::now();
    }
    std::unique_ptr<core::AdarNet> model = fresh_model();
    util::Rng rng(kModelSeed);
    cpus.pin(walls.size());
    speed.sample(1);
    const Clock::time_point ts = Clock::now();
    core::TrainStats st;
    {
      const Span span("core.train");
      st = core::train(*model, dataset, tcfg, rng);
    }
    const double wall = since(ts);
    walls.push_back(wall);
    times.add("train", wall);
    skipped += st.skipped_steps;
    std::fprintf(stderr, "[train] run %zu: %.3fs, %.3f samples/s\n",
                 walls.size(), wall, samples_per_run / wall);

    const Span span("train.check");
    std::vector<float> params;
    for (const nn::Parameter* p : model->parameters()) {
      params.insert(params.end(), p->value.data(),
                    p->value.data() + p->value.numel());
    }
    std::string why;
    if (walls.size() == 1) {
      first_params = params;
      first_why = check_decoder_gradients(*model, dataset);
      if (first_why.empty()) {
        first_why = checks::objective_decreased(
            before, objective(*model, dataset, tcfg.lambda_pde));
      }
      why = first_why;
    } else {
      why = checks::same_parameters(first_params, params);
      if (why.empty()) why = first_why;
    }
    if (!why.empty()) std::fprintf(stderr, "[train] %s\n", why.c_str());
    r.attempt(why.empty());
  }
  const Clock::time_point t1 = Clock::now();
  const double wall = since(t0);

  std::fprintf(stderr,
               "[train] %zu run(s): fastest %.3fs (%.3f samples/s), host kernel "
               "%.2f ms\n",
               walls.size(), times.round_s(),
               samples_per_run / times.round_s(), 1e3 * speed.kernel_s());
  if (!opt.trace) {
    r.metric("setup_s", setup_s, "s");
    r.metric("peak_rss_mb", peak_rss_mb(), "MB");
    r.metric("round_s", times.round_s(), "s");
    return;
  }
  report_cpu(r, cpu0, wall, opt.threads);
  r.metric("host.kernel_ms", 1e3 * speed.kernel_s(), "ms");
  report_gemm(r);
  const double epochs = static_cast<double>(counter("train.epochs"));
  r.metric("train.epoch_s",
           epochs > 0 ? 1e-9 * static_cast<double>(counter("train.epoch.ns")) /
                            epochs
                      : 0.0,
           "s");
  r.metric("train.skipped_steps", static_cast<double>(skipped), "count");
  r.metric("setup.dataset_s", dataset_s, "s");
  const std::vector<double> traced(walls.begin() + untraced, walls.end());
  r.metric("trace.overhead_pct", 100.0 * (median(traced) / walls.front() - 1.0),
           "%");
  r.metric("trace.outside_s", Tracer::get().summarize(traced_from, t1), "s");
  Tracer::get().write(opt.out_dir + "/trace_train.json");
}

}  // namespace perfbench

// Self-test of the benchmark's output checks: each check accepts a sound
// output and rejects the same output deliberately corrupted. Exits 0 when
// every case behaves, 1 otherwise. Run: python3 perfbench/run.py --selftest
#include <cmath>
#include <cstdio>
#include <limits>
#include <string>

#include "checks.hpp"
#include "data/cases.hpp"
#include "harness.hpp"
#include "solver/rans.hpp"

namespace {

using namespace adarnet;
namespace checks = perfbench::checks;

int g_failures = 0;

// `why` is a check's verdict; `want_pass` what it should be.
void expect(const char* name, const std::string& why, bool want_pass) {
  const bool ok = why.empty() == want_pass;
  std::printf("%s  %-52s %s\n", ok ? "ok  " : "FAIL", name,
              why.empty() ? "(accepted)" : why.c_str());
  if (!ok) ++g_failures;
}

struct Solved {
  std::unique_ptr<mesh::CompositeMesh> mesh;
  mesh::CompositeField f;
};

Solved solve_uniform(const mesh::CaseSpec& spec, int iterations) {
  Solved s;
  s.mesh = std::make_unique<mesh::CompositeMesh>(
      spec, mesh::RefinementMap(spec.npy(), spec.npx(), 0));
  s.f = mesh::make_field(*s.mesh);
  solver::RansSolver solver(*s.mesh, perfbench::solver_config(iterations));
  solver.initialize_freestream(s.f);
  solver.iterate(s.f, iterations);
  solver.refresh_ghosts(s.f);
  return s;
}

void mass_and_field_checks() {
  const mesh::CaseSpec spec = data::cylinder_case(1e5, perfbench::body_preset());
  const Solved s = solve_uniform(spec, 40);
  expect("mass: solved cylinder field", checks::mass_conserved(*s.mesh, s.f),
         true);
  expect("field: solved cylinder field", checks::field_sane(*s.mesh, s.f),
         true);

  // Mass injected: 20% of u_ref added at every outlet face.
  mesh::CompositeField inj = s.f;
  for (int pi = 0; pi < s.mesh->npy(); ++pi) {
    const int pj = s.mesh->npx() - 1;
    const auto& pm = s.mesh->patch(pi, pj);
    auto& U = inj.U[static_cast<std::size_t>(pi * s.mesh->npx() + pj)];
    for (int i = 1; i <= pm.ny; ++i) {
      U(i, pm.nx) += 0.2 * spec.u_ref;
      U(i, pm.nx + 1) += 0.2 * spec.u_ref;
    }
  }
  expect("mass: outlet velocity raised by 0.2 u_ref",
         checks::mass_conserved(*s.mesh, inj), false);

  // Locate one interior solid cell and one interior fluid cell.
  int sk = -1, si = 0, sj = 0;
  for (int k = 0; k < s.mesh->patch_count() && sk < 0; ++k) {
    const auto& pm = s.mesh->patch_flat(k);
    for (int i = 1; i <= pm.ny && sk < 0; ++i) {
      for (int j = 1; j <= pm.nx && sk < 0; ++j) {
        if (pm.solid(i, j) != 0) {
          sk = k;
          si = i;
          sj = j;
        }
      }
    }
  }
  const auto at = [](mesh::CompositeScalar& c, int k) -> field::Grid2Dd& {
    return c[static_cast<std::size_t>(k)];
  };
  if (sk < 0) {
    expect("field: cylinder mesh has a solid cell", "no solid cell", true);
  } else {
    mesh::CompositeField moving = s.f;
    at(moving.U, sk)(si, sj) = 0.1;
    expect("field: solid cell with U = 0.1",
           checks::field_sane(*s.mesh, moving), false);
  }
  mesh::CompositeField nan = s.f;
  at(nan.p, 0)(1, 1) = std::numeric_limits<double>::quiet_NaN();
  expect("field: NaN pressure", checks::field_sane(*s.mesh, nan), false);
  mesh::CompositeField neg = s.f;
  at(neg.nuTilda, 0)(1, 1) = -1e-6;
  expect("field: negative nuTilda", checks::field_sane(*s.mesh, neg), false);
}

void map_checks() {
  checks::LevelGrid g{2, 3, {0, 1, 2, 0, 1, 1}};
  expect("map: balanced levels", checks::two_to_one(g), true);
  expect("map: levels in [0, 3]", checks::levels_in_range(g), true);
  checks::LevelGrid jump = g;
  jump.level[3] = 2;  // (1, 0) = 2 next to (0, 0) = 0
  expect("map: 0 next to 2", checks::two_to_one(jump), false);
  checks::LevelGrid deep = g;
  deep.level[2] = 4;
  expect("map: level 4", checks::levels_in_range(deep), false);
  checks::LevelGrid negative = g;
  negative.level[0] = -1;
  expect("map: level -1", checks::levels_in_range(negative), false);
}

void determinism_checks() {
  field::FlowField a(4, 4);
  for (int c = 0; c < field::kNumFlowVars; ++c) a.channel(c).fill(0.25 * c);
  field::FlowField b = a;
  expect("determinism: identical fields", checks::bitwise_equal(a, b), true);
  b.channel(2)[5] = std::nextafter(b.channel(2)[5], 1.0);
  expect("determinism: one value one ulp off", checks::bitwise_equal(a, b),
         false);
}

void response_checks() {
  const std::string body =
      "{\"case\": \"cylinder\", \"trace_id\": \"ab12\", \"re\": 100000, "
      "\"service_stage\": \"full\", \"fallback_stage\": \"none\", "
      "\"converged\": false, \"cancelled\": false, \"deadline_hit\": true, "
      "\"cache\": false, \"iterations\": 12, \"residual\": 0.0123456789, "
      "\"umax\": 1.23456789, \"umean\": 0.9, \"queue_s\": 0.001, "
      "\"solve_s\": 0.2}\n";
  checks::SolveSummary ref;
  ref.status = 200;
  ref.stage = "full";
  ref.iterations = 12;
  ref.residual = checks::render(0.0123456789);
  ref.umax = checks::render(1.23456789);
  expect("serve: response equal to the direct call",
         checks::response_matches(checks::parse_response(200, body), ref),
         true);
  checks::SolveSummary iters = checks::parse_response(200, body);
  iters.iterations = 13;
  expect("serve: iterations altered", checks::response_matches(iters, ref),
         false);
  checks::SolveSummary resid = checks::parse_response(200, body);
  resid.residual = "0.0123456788";
  expect("serve: residual altered in the last digit",
         checks::response_matches(resid, ref), false);
  checks::SolveSummary umax = checks::parse_response(200, body);
  umax.umax = "1.2345679";
  expect("serve: umax altered", checks::response_matches(umax, ref), false);
  expect("serve: status 503",
         checks::response_matches(checks::parse_response(503, body), ref),
         false);
  std::string capped = body;
  capped.replace(capped.find("\"full\""), 6, "\"capped\"");
  expect("serve: stage capped",
         checks::response_matches(checks::parse_response(200, capped), ref),
         false);
  expect("serve: umax 1.2 u_ref", checks::umax_plausible(1.2, 1.0), true);
  expect("serve: umax 10 u_ref", checks::umax_plausible(10.0, 1.0), false);
}

void train_checks() {
  const std::vector<double> fd = {0.5, -0.25, 1e-4, 2.0, -1.5, 0.0};
  std::vector<double> good = fd;
  for (double& g : good) g *= 1.01;
  expect("train: gradients within 1%", checks::gradients_agree(good, fd),
         true);
  std::vector<double> bad = good;
  bad[1] += 0.2;  // one entry perturbed
  expect("train: one gradient entry perturbed",
         checks::gradients_agree(bad, fd), false);
  // Quotients of a conv bias 2.7e-4 below the kink of the units it feeds
  // (one-sided 0.00866 and 0.01725 over a 1e-2 step), and of an entry away
  // from any kink.
  expect("train: one-sided quotients across a ReLU kink",
         checks::smooth_across_step(0.00866, 0.01725, 0.022) ? ""
                                                             : "kink",
         false);
  expect("train: one-sided quotients of a smooth entry",
         checks::smooth_across_step(0.0177986, 0.0177878, 0.022) ? ""
                                                                 : "kink",
         true);
  const std::vector<float> w = {0.5f, -1.25f, 3.0f};
  std::vector<float> w_off = w;
  w_off[1] = std::nextafter(w_off[1], 0.0f);
  expect("train: same parameters", checks::same_parameters(w, w), true);
  expect("train: one parameter one ulp off",
         checks::same_parameters(w, w_off), false);
  expect("train: objective 0.9 -> 0.5", checks::objective_decreased(0.9, 0.5),
         true);
  expect("train: objective 0.9 -> 0.95",
         checks::objective_decreased(0.9, 0.95), false);
}

}  // namespace

int main() {
  mass_and_field_checks();
  map_checks();
  determinism_checks();
  response_checks();
  train_checks();
  std::printf("%s: %d case(s) misbehaved\n", g_failures ? "FAILED" : "PASSED",
              g_failures);
  return g_failures ? 1 : 0;
}

#include "checks.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace perfbench::checks {

using adarnet::mesh::CompositeField;
using adarnet::mesh::CompositeMesh;
using adarnet::mesh::RefinementMap;

double boundary_mass_imbalance(const CompositeMesh& mesh,
                               const CompositeField& f) {
  double net = 0.0;
  double inflow = 0.0;
  const auto face = [&](double outward) {
    net += outward;
    if (outward < 0.0) inflow -= outward;
  };
  for (int pi = 0; pi < mesh.npy(); ++pi) {
    for (int pj = 0; pj < mesh.npx(); ++pj) {
      const int k = pi * mesh.npx() + pj;
      const auto& pm = mesh.patch(pi, pj);
      const auto& U = f.U[static_cast<std::size_t>(k)];
      const auto& V = f.V[static_cast<std::size_t>(k)];
      if (pj == 0) {
        for (int i = 1; i <= pm.ny; ++i) {
          face(-0.5 * (U(i, 0) + U(i, 1)) * pm.dy);
        }
      }
      if (pj == mesh.npx() - 1) {
        for (int i = 1; i <= pm.ny; ++i) {
          face(0.5 * (U(i, pm.nx) + U(i, pm.nx + 1)) * pm.dy);
        }
      }
      if (pi == 0) {
        for (int j = 1; j <= pm.nx; ++j) {
          face(-0.5 * (V(0, j) + V(1, j)) * pm.dx);
        }
      }
      if (pi == mesh.npy() - 1) {
        for (int j = 1; j <= pm.nx; ++j) {
          face(0.5 * (V(pm.ny, j) + V(pm.ny + 1, j)) * pm.dx);
        }
      }
    }
  }
  return inflow > 0.0 ? std::abs(net) / inflow : INFINITY;
}

std::string mass_conserved(const CompositeMesh& mesh,
                           const CompositeField& f) {
  const double imb = boundary_mass_imbalance(mesh, f);
  if (imb <= kMaxMassImbalance) return "";
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "boundary mass imbalance %.3g of the inflow exceeds %.3g",
                imb, kMaxMassImbalance);
  return buf;
}

std::string field_sane(const CompositeMesh& mesh, const CompositeField& f) {
  for (int k = 0; k < mesh.patch_count(); ++k) {
    const auto& pm = mesh.patch_flat(k);
    const auto u = static_cast<std::size_t>(k);
    for (int i = 1; i <= pm.ny; ++i) {
      for (int j = 1; j <= pm.nx; ++j) {
        const double U = f.U[u](i, j);
        const double V = f.V[u](i, j);
        const double nt = f.nuTilda[u](i, j);
        if (!std::isfinite(U) || !std::isfinite(V) ||
            !std::isfinite(f.p[u](i, j)) || !std::isfinite(nt)) {
          return "non-finite value in patch " + std::to_string(k);
        }
        if (nt < 0.0) {
          return "negative nuTilda in patch " + std::to_string(k);
        }
        if (pm.solid(i, j) != 0 && (U != 0.0 || V != 0.0)) {
          return "nonzero velocity in a solid cell of patch " +
                 std::to_string(k);
        }
      }
    }
  }
  return "";
}

LevelGrid levels_of(const RefinementMap& map) {
  LevelGrid g{map.npy(), map.npx(), {}};
  for (int i = 0; i < map.npy(); ++i) {
    for (int j = 0; j < map.npx(); ++j) g.level.push_back(map.level(i, j));
  }
  return g;
}

std::string two_to_one(const LevelGrid& g) {
  for (int i = 0; i < g.npy; ++i) {
    for (int j = 0; j < g.npx; ++j) {
      const int l = g.at(i, j);
      if ((i + 1 < g.npy && std::abs(l - g.at(i + 1, j)) > 1) ||
          (j + 1 < g.npx && std::abs(l - g.at(i, j + 1)) > 1)) {
        return "2:1 balance broken at patch (" + std::to_string(i) + ", " +
               std::to_string(j) + ")";
      }
    }
  }
  return "";
}

std::string levels_in_range(const LevelGrid& g) {
  for (std::size_t k = 0; k < g.level.size(); ++k) {
    if (g.level[k] < 0 || g.level[k] > adarnet::mesh::kMaxLevel) {
      return "level " + std::to_string(g.level[k]) + " out of range at patch " +
             std::to_string(k);
    }
  }
  return "";
}

std::string bitwise_equal(const adarnet::field::FlowField& a,
                          const adarnet::field::FlowField& b) {
  for (int c = 0; c < adarnet::field::kNumFlowVars; ++c) {
    const auto& x = a.channel(c);
    const auto& y = b.channel(c);
    if (x.ny() != y.ny() || x.nx() != y.nx()) return "shapes differ";
    for (std::size_t k = 0; k < x.size(); ++k) {
      // Compare representations, so -0.0 vs 0.0 and NaN payloads count.
      if (std::memcmp(&x[k], &y[k], sizeof(double)) != 0) {
        return std::string("channel ") + adarnet::field::kFlowVarNames[c] +
               " differs at value " + std::to_string(k);
      }
    }
  }
  return "";
}

std::string same_parameters(const std::vector<float>& a,
                            const std::vector<float>& b) {
  if (a.size() != b.size()) return "parameter counts differ";
  for (std::size_t k = 0; k < a.size(); ++k) {
    if (std::memcmp(&a[k], &b[k], sizeof(float)) != 0) {
      return "parameter " + std::to_string(k) + " differs";
    }
  }
  return "";
}

namespace {

// Raw token after "key": in a flat JSON object (strings unquoted).
std::string raw_value(const std::string& body, const std::string& key) {
  const std::string pat = "\"" + key + "\":";
  std::size_t at = body.find(pat);
  if (at == std::string::npos) return "";
  at += pat.size();
  while (at < body.size() && body[at] == ' ') ++at;
  if (at < body.size() && body[at] == '"') {
    const std::size_t end = body.find('"', at + 1);
    return end == std::string::npos ? "" : body.substr(at + 1, end - at - 1);
  }
  std::size_t end = at;
  while (end < body.size() && body[end] != ',' && body[end] != '}' &&
         body[end] != ' ' && body[end] != '\n') {
    ++end;
  }
  return body.substr(at, end - at);
}

}  // namespace

SolveSummary parse_response(int status, const std::string& body) {
  SolveSummary s;
  s.status = status;
  s.stage = raw_value(body, "service_stage");
  const std::string it = raw_value(body, "iterations");
  s.iterations = it.empty() ? -1 : std::atoi(it.c_str());
  s.residual = raw_value(body, "residual");
  s.umax = raw_value(body, "umax");
  return s;
}

std::string render(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

std::string response_matches(const SolveSummary& got,
                             const SolveSummary& ref) {
  if (got.status != 200) return "status " + std::to_string(got.status);
  if (got.stage != "full") return "service stage \"" + got.stage + "\"";
  if (got.iterations != ref.iterations) {
    return "iterations " + std::to_string(got.iterations) + " != direct " +
           std::to_string(ref.iterations);
  }
  if (got.residual != ref.residual) {
    return "residual " + got.residual + " != direct " + ref.residual;
  }
  if (got.umax != ref.umax) {
    return "umax " + got.umax + " != direct " + ref.umax;
  }
  return "";
}

std::string umax_plausible(double umax, double u_ref) {
  if (std::isfinite(umax) && umax >= 0.5 * u_ref && umax <= 3.0 * u_ref) {
    return "";
  }
  return "umax " + render(umax) + " outside [0.5, 3] x u_ref " + render(u_ref);
}

namespace {

bool gradients_close(double a, double b, double scale) {
  return std::isfinite(a) && std::isfinite(b) &&
         std::abs(a - b) <= 0.05 * std::max(std::abs(a), std::abs(b)) +
                                0.02 * scale;
}

}  // namespace

std::string gradients_agree(const std::vector<double>& analytic,
                            const std::vector<double>& finite_diff) {
  if (analytic.size() != finite_diff.size() || analytic.empty()) {
    return "gradient sample sizes differ";
  }
  double scale = 0.0;
  for (double g : finite_diff) scale = std::max(scale, std::abs(g));
  for (std::size_t k = 0; k < analytic.size(); ++k) {
    const double a = analytic[k];
    const double d = finite_diff[k];
    if (!gradients_close(a, d, scale)) {
      return "parameter sample " + std::to_string(k) + ": backprop " +
             render(a) + " vs finite difference " + render(d);
    }
  }
  return "";
}

bool smooth_across_step(double forward, double backward, double scale) {
  return gradients_close(forward, backward, scale);
}

std::string objective_decreased(double before, double after) {
  if (std::isfinite(after) && after < before) return "";
  return "objective " + render(after) + " after training is not below " +
         render(before);
}

}  // namespace perfbench::checks

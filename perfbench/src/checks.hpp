// Output checks of the benchmark. Each returns "" when the output has the
// property, else the reason it does not. They are pure functions of the
// output (and, where one exists, an independently computed reference), so
// checks_test.cpp can show each one rejecting a deliberately corrupted
// input.
#pragma once

#include <string>
#include <vector>

#include "field/flow_field.hpp"
#include "mesh/composite.hpp"
#include "mesh/refinement_map.hpp"

namespace perfbench::checks {

/// Net mass flux out through the domain boundary divided by the inflow,
/// integrated from the field's boundary faces (face value = mean of the
/// interior cell and its ghost, so the ghosts must be refreshed).
double boundary_mass_imbalance(const adarnet::mesh::CompositeMesh& mesh,
                               const adarnet::mesh::CompositeField& f);
/// Relative boundary mass imbalance allowed for a returned field.
constexpr double kMaxMassImbalance = 0.05;
std::string mass_conserved(const adarnet::mesh::CompositeMesh& mesh,
                           const adarnet::mesh::CompositeField& f);

/// Every interior value finite, nuTilda >= 0, U = V = 0 in solid cells.
std::string field_sane(const adarnet::mesh::CompositeMesh& mesh,
                       const adarnet::mesh::CompositeField& f);

/// The patch levels of a refinement map, row-major.
struct LevelGrid {
  int npy = 0;
  int npx = 0;
  std::vector<int> level;
  [[nodiscard]] int at(int i, int j) const {
    return level[static_cast<std::size_t>(i) * npx + j];
  }
};
LevelGrid levels_of(const adarnet::mesh::RefinementMap& map);
/// Face-adjacent patches differ by at most one level.
std::string two_to_one(const LevelGrid& g);
/// Every patch level lies in [0, kMaxLevel].
std::string levels_in_range(const LevelGrid& g);

/// Bitwise equality of two uniform fields.
std::string bitwise_equal(const adarnet::field::FlowField& a,
                          const adarnet::field::FlowField& b);

/// Bitwise equality of two parameter snapshots (every tensor's values,
/// concatenated in parameters() order).
std::string same_parameters(const std::vector<float>& a,
                            const std::vector<float>& b);

/// The summary a POST /solve response carries, as the benchmark reads it
/// from the response body or computes it from a direct library call.
struct SolveSummary {
  int status = 0;
  std::string stage;
  int iterations = -1;
  std::string residual;  ///< "%.9g", the response's own rendering
  std::string umax;      ///< "%.9g"
};
/// Parses the fields above out of a response body (status set by caller).
SolveSummary parse_response(int status, const std::string& body);
/// "%.9g" of v, as the service renders numbers.
std::string render(double v);
/// Status 200, stage "full", and iterations/residual/umax equal to `ref`.
std::string response_matches(const SolveSummary& got,
                             const SolveSummary& ref);
/// umax within [0.5, 3] x u_ref.
std::string umax_plausible(double umax, double u_ref);

/// Backprop gradients agree with central finite differences: for each
/// sampled parameter |a - f| <= 0.05 max(|a|, |f|) + 0.02 max_k |f_k|.
std::string gradients_agree(const std::vector<double>& analytic,
                            const std::vector<double>& finite_diff);
/// The loss is smooth across a finite-difference step: its forward and
/// backward one-sided quotients agree to the gradients_agree tolerance, with
/// `scale` in place of max_k |f_k|. Where a ReLU's pre-activation lies
/// within the step of zero the two sides have different slopes, and no
/// quotient over that step is a reference for backprop.
bool smooth_across_step(double forward, double backward, double scale);

/// The training objective went down.
std::string objective_decreased(double before, double after);

}  // namespace perfbench::checks

// Exact solver for identity-plus-rank-one quadratic programs over simplex
// sets — the structure of both routing blocks of the UFC ADMM:
//
//     min  (c/2) (v . x)^2 + (rho/2) ||x||^2 + g . x
//     s.t. x >= 0  and  sum x = total   (simplex)
//       or x >= 0  and  sum x <= cap    (capped simplex)
//
// with c >= 0, rho > 0 and v >= 0 entrywise (v is a latency row or the ones
// vector). KKT gives x_i = max(0, (theta - g_i - c s v_i) / rho) with two
// scalars: the sum multiplier theta and the coupling s = v . x.
//
// For a fixed s, theta(s) is a simplex threshold (Condat's O(n) scan,
// math/projections.hpp), and the gap F(s) = v . x(theta(s), s) - s is
// piecewise linear and strictly decreasing, with a breakpoint wherever a
// coordinate enters or leaves the active set S. Once S is known, (theta, s)
// solve a 2x2 linear system in closed form:
//
//   simplex:  s = (rho total vbar - M_gv) / (rho + c M_vv),
//             theta = gbar + rho total / |S| + c vbar s,
//   free:     s = -sum_S g_i v_i / (rho + c sum_S v_i^2)   (theta = 0),
//
// where gbar, vbar are the means of g and v over S and M_vv, M_gv their
// centred second moments (the cancellation-free form of the determinant
// |S|(c sum v^2 + rho) - c (sum v)^2 >= |S| rho > 0). The solver evaluates S
// at a point of a bracket [lo, hi] around the root of F, solves that piece
// and accepts the result when the KKT sign conditions hold for it; otherwise
// it moves to the piece's root (if inside the bracket) or bisects, down to
// adjacent doubles, since a piece can be narrower than any fixed tolerance.
// There are finitely many pieces, and a bracket that shrinks to adjacent
// doubles falls back to its midpoint. No sorting and, once the scratch is
// warm, no allocation.
//
// A caller that knows roughly where the coupling lies (an ADMM block knows
// v . x of the previous iterate) passes it as `coupling_hint`. That point is
// probed first, and its piece is kept only when it is certified strictly:
// every coordinate clears the KKT sign test by more than the rounding slack,
// so no other piece can certify and the cold search would return the same
// bits. Anything else (no hint, a wrong piece, a borderline certificate)
// runs the cold search from s = 0. On the seed-42 paper week the hint cuts
// the lambda-row solves from 3.5 probes to 1.1 on average.
//
// On the simplex, g is shifted by its minimum before thresholds are formed
// (which changes only theta), so a total far below the rounding of g keeps
// its sum.
//
// Used as the "exact" inner method of the ADMM blocks (ablated against
// FISTA) and as an independent oracle in the block tests. The nested
// bisection it replaced is kept in rank_one_qp_reference.cpp as the
// cross-validation baseline.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "math/vector.hpp"

namespace ufc {

struct RankOneQp {
  double curvature = 0.0;  ///< c >= 0.
  Vec direction;           ///< v, entrywise >= 0.
  double tikhonov = 1.0;   ///< rho > 0.
  Vec linear;              ///< g, same size as direction.
};

/// Reusable buffers of the *_into solvers. Both grow to the problem size on
/// the first solve and are never reallocated for problems no larger.
struct RankOneQpScratch {
  std::vector<double> thresholds;  ///< -(g_i + c s v_i) at the probed s.
  std::vector<double> selection;   ///< Condat's candidate/waiting lists.
  /// Active-set probes made through this scratch so far: a deterministic
  /// work count that the solver only increments, never reads.
  std::uint64_t probes = 0;
};

/// Exact minimizer over {x >= 0, sum x = total}, written into `out` (sized
/// n) without allocating once `scratch` is warm. Requires total >= 0.
/// `coupling_hint` is a guess of v . x at the optimum, probed first; a
/// non-positive or non-finite hint means none. The result is the same, bit
/// for bit, for every hint and every scratch state.
void solve_rank_one_qp_simplex_into(const RankOneQp& qp, double total,
                                    std::span<double> out,
                                    RankOneQpScratch& scratch,
                                    double coupling_hint = 0.0);

/// Exact minimizer over {x >= 0, sum x <= cap}, written into `out` (sized n)
/// with the same `coupling_hint` as the simplex form. Requires cap >= 0.
void solve_rank_one_qp_capped_into(const RankOneQp& qp, double cap,
                                   std::span<double> out,
                                   RankOneQpScratch& scratch,
                                   double coupling_hint = 0.0);

/// The nested bisection the closed form replaced (rank_one_qp_reference.cpp):
/// an independent method for cross-validation in tests, not a solver path.
Vec solve_rank_one_qp_simplex_reference(const RankOneQp& qp, double total);
Vec solve_rank_one_qp_capped_reference(const RankOneQp& qp, double cap);

/// Objective value at x (for tests and verification).
double rank_one_qp_value(const RankOneQp& qp, const Vec& x);

}  // namespace ufc

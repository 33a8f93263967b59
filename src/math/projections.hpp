// Euclidean projections onto the feasible sets of the UFC program.
//
//  - box            [lo, hi]^n                       (mu blocks)
//  - simplex        {x >= 0, sum x  = total}         (lambda rows, eq. (4))
//  - capped simplex {x >= 0, sum x <= cap}           (a columns, eq. (14))
//  - affine sum     {x : sum x = total}              (Dykstra component)
//  - halfspace      {x : <a, x> <= b}                (Dykstra component)
//
// Two simplex algorithms are provided. The classic O(n log n)
// sort-and-threshold method (Held/Wolfe/Crowder) lives in
// projections_reference.cpp and is the bit-pinned reference: find tau such
// that sum max(v_i - tau, 0) = total via a descending sort and prefix scan.
// Condat's O(n) method (L. Condat, "Fast projection onto the simplex and the
// l1 ball", Math. Prog. 158, 2016, Alg. 2) computes the same projection with
// a single filtering scan plus a pruning sweep; tau may differ from the
// reference by a few ulps because the threshold is accumulated incrementally
// instead of via a sorted prefix sum. Solvers pick one via SimplexProjection.
#pragma once

#include <span>
#include <vector>

#include "math/vector.hpp"

namespace ufc {

/// Which simplex-projection algorithm the block solvers use. Both compute
/// the exact Euclidean projection onto the same set; they differ in
/// complexity and in floating-point rounding of the threshold tau (a few
/// ulps), so only SortThreshold reproduces the pinned hexfloat baselines.
enum class SimplexProjection {
  SortThreshold,  ///< O(n log n) sorted-prefix reference (default).
  Condat,         ///< Condat's O(n) filtering scan.
};

/// Clamps each entry of v into [lo, hi]. Requires lo <= hi.
Vec project_box(Vec v, double lo, double hi);

/// Projects v onto {x >= 0, sum x = total}. Requires total >= 0.
Vec project_simplex(const Vec& v, double total);

/// Projects v onto {x >= 0, sum x <= cap}. Requires cap >= 0.
Vec project_capped_simplex(const Vec& v, double cap);

/// Allocation-free simplex projection writing into `out` (out may alias v).
/// `sort_scratch` is reused across calls and grows to v.size() once.
/// Bit-identical to project_simplex on the same inputs. Sort-based
/// reference implementation (projections_reference.cpp).
void project_simplex_into(std::span<const double> v, double total,
                          std::span<double> out,
                          std::vector<double>& sort_scratch);

/// Allocation-free capped-simplex projection (out may alias v); bit-identical
/// to project_capped_simplex on the same inputs. Sort-based reference
/// implementation (projections_reference.cpp).
void project_capped_simplex_into(std::span<const double> v, double cap,
                                 std::span<double> out,
                                 std::vector<double>& sort_scratch);

/// Condat O(n) simplex projection (out may alias v). Same support and the
/// same projection as project_simplex_into up to a few ulps of tau; not
/// bit-identical to the sort-based reference in general. `scratch` is
/// reused across calls and grows to v.size() once (no sorting happens in
/// it; the name parallels sort_scratch so BlockWorkspace can share one
/// buffer between the two algorithms).
void project_simplex_condat_into(std::span<const double> v, double total,
                                 std::span<double> out,
                                 std::vector<double>& scratch);

/// Condat's threshold alone: the tau with sum max(v_i - tau, 0) = total,
/// without forming the projection. project_simplex_condat_into returns
/// max(v - tau, 0) for exactly this tau (for total > 0); the exact rank-one
/// QP solver (opt/rank_one_qp.hpp) uses it to find its active set. Same
/// scratch contract as project_simplex_condat_into. At total == 0 this is
/// max_i v_i.
double simplex_threshold_condat(std::span<const double> v, double total,
                                std::vector<double>& scratch);

/// Condat O(n) capped-simplex projection (out may alias v). The inactive-cap
/// branch is bit-identical to the reference; the active-cap branch delegates
/// to project_simplex_condat_into.
void project_capped_simplex_condat_into(std::span<const double> v, double cap,
                                        std::span<double> out,
                                        std::vector<double>& scratch);

/// Projects v onto the affine set {x : sum x = total}.
Vec project_affine_sum(Vec v, double total);

/// Projects v onto the halfspace {x : dot(a, x) <= b}. Requires a != 0.
Vec project_halfspace(Vec v, const Vec& a, double b);

/// Returns max(0, x) element-wise (projection onto the nonnegative orthant).
Vec project_nonnegative(Vec v);

}  // namespace ufc

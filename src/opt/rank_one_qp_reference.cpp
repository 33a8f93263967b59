// Nested-bisection rank-one QP solver.
//
// This is the cross-validation REFERENCE for the closed-form solver in
// rank_one_qp.cpp: an inner sort-and-threshold solve for theta inside an
// outer bisection on the coupling s, run to machine precision. It is slow
// (each outer step sorts a fresh vector and allocates a Vec) and is kept
// only so tests can check the closed form against an independent method;
// no solver path calls it. It is the one file under src/opt where std::sort
// is allowed (see the no-sort-in-hot-path lint rule).
#include <algorithm>
#include <cmath>
#include <vector>

#include "opt/rank_one_qp.hpp"
#include "util/contract.hpp"

namespace ufc {

namespace {

void check(const RankOneQp& qp) {
  UFC_EXPECTS(qp.curvature >= 0.0);
  UFC_EXPECTS(qp.tikhonov > 0.0);
  UFC_EXPECTS(!qp.direction.empty());
  UFC_EXPECTS(qp.linear.size() == qp.direction.size());
  for (double v : qp.direction) UFC_EXPECTS(v >= 0.0);
}

/// x_i(theta, s) = max(0, (theta - g_i - c s v_i) / rho).
Vec primal_point(const RankOneQp& qp, double theta, double s) {
  const std::size_t n = qp.direction.size();
  Vec x(n);
  for (std::size_t i = 0; i < n; ++i)
    x[i] = std::max(
        0.0, (theta - qp.linear[i] - qp.curvature * s * qp.direction[i]) /
                 qp.tikhonov);
  return x;
}

/// Exact theta with sum x(theta, s) = total (sort-and-threshold).
double solve_theta(const RankOneQp& qp, double s, double total) {
  const std::size_t n = qp.direction.size();
  std::vector<double> thresholds(n);
  for (std::size_t i = 0; i < n; ++i)
    thresholds[i] = qp.linear[i] + qp.curvature * s * qp.direction[i];
  std::sort(thresholds.begin(), thresholds.end());

  // With the k smallest thresholds active:
  //   theta = (rho * total + sum_{i<k} t_i) / k,
  // valid iff t_{k-1} < theta and (k == n or theta <= t_k).
  double prefix = 0.0;
  for (std::size_t k = 1; k <= n; ++k) {
    prefix += thresholds[k - 1];
    const double theta =
        (qp.tikhonov * total + prefix) / static_cast<double>(k);
    const bool above_last = theta > thresholds[k - 1];
    const bool below_next = (k == n) || (theta <= thresholds[k]);
    if (above_last && below_next) return theta;
  }
  // total == 0 degenerates to theta = min threshold (empty active set).
  return thresholds.front();
}

/// Outer consistency gap F(s) = v . x(theta(s), s) - s for the simplex case
/// (theta re-solved per s) or the free case (theta = 0).
double consistency_gap(const RankOneQp& qp, double s, bool fixed_sum,
                       double total) {
  const double theta = fixed_sum ? solve_theta(qp, s, total) : 0.0;
  const Vec x = primal_point(qp, theta, s);
  return dot(qp.direction, x) - s;
}

/// Bisection on the strictly decreasing gap over [0, s_hi].
double solve_coupling(const RankOneQp& qp, double s_hi, bool fixed_sum,
                      double total) {
  if (s_hi <= 0.0) return 0.0;
  double lo = 0.0;
  double hi = s_hi;
  if (consistency_gap(qp, lo, fixed_sum, total) <= 0.0) return lo;
  for (int k = 0; k < 200 && (hi - lo) > 1e-15 * (1.0 + s_hi); ++k) {
    const double mid = 0.5 * (lo + hi);
    if (consistency_gap(qp, mid, fixed_sum, total) > 0.0)
      lo = mid;
    else
      hi = mid;
  }
  return 0.5 * (lo + hi);
}

}  // namespace

Vec solve_rank_one_qp_simplex_reference(const RankOneQp& qp, double total) {
  check(qp);
  UFC_EXPECTS(total >= 0.0);
  const std::size_t n = qp.direction.size();
  // ufc-lint: allow(float-equal) — exact-zero guard: zero budget pins x = 0.
  if (total == 0.0) return Vec(n, 0.0);

  double s = 0.0;
  if (qp.curvature > 0.0) {
    double v_max = 0.0;
    for (double v : qp.direction) v_max = std::max(v_max, v);
    s = solve_coupling(qp, total * v_max, /*fixed_sum=*/true, total);
  }
  return primal_point(qp, solve_theta(qp, s, total), s);
}

Vec solve_rank_one_qp_capped_reference(const RankOneQp& qp, double cap) {
  check(qp);
  UFC_EXPECTS(cap >= 0.0);
  const std::size_t n = qp.direction.size();
  // ufc-lint: allow(float-equal) — exact-zero guard: zero cap pins x = 0.
  if (cap == 0.0) return Vec(n, 0.0);

  // First try the sum constraint inactive (theta = 0).
  double s = 0.0;
  if (qp.curvature > 0.0) {
    // x is entrywise decreasing in s, so s = v . x(s=0) brackets the root.
    const double s_hi = dot(qp.direction, primal_point(qp, 0.0, 0.0));
    s = solve_coupling(qp, s_hi, /*fixed_sum=*/false, 0.0);
  }
  Vec x = primal_point(qp, 0.0, s);
  if (sum(x) <= cap) return x;
  // The cap binds: identical to the simplex problem at total = cap.
  return solve_rank_one_qp_simplex_reference(qp, cap);
}

}  // namespace ufc

#include "admm/blocks.hpp"

#include <algorithm>
#include <cmath>

#include "math/projections.hpp"
#include "opt/rank_one_qp.hpp"
#include "opt/projected_gradient.hpp"
#include "opt/scalar.hpp"
#include "util/contract.hpp"
#include "util/restrict.hpp"

namespace ufc::admm {

namespace {

/// Runs the plain-PG ablation inner solver. The FISTA default goes through
/// the allocation-free fista_minimize_ws path instead; Exact is dispatched
/// before reaching here.
Vec run_projected_gradient(const Vec& x0,
                           const std::function<Vec(const Vec&)>& gradient,
                           const std::function<Vec(const Vec&)>& project,
                           double lipschitz,
                           const InnerSolverOptions& options) {
  PgOptions pg;
  pg.max_iterations = options.fista.max_iterations;
  pg.tolerance = options.fista.tolerance;
  return projected_gradient(x0, gradient, project, lipschitz, pg).x;
}

}  // namespace

void solve_lambda_block_into(const LambdaBlockInputs& in,
                             std::span<const double> warm_start,
                             std::span<double> out, BlockWorkspace& ws,
                             const InnerSolverOptions& options) {
  UFC_EXPECTS(in.utility != nullptr);
  UFC_EXPECTS(in.rho > 0.0);
  UFC_EXPECTS(in.arrival >= 0.0);
  const std::size_t n = in.latency_row.size();
  UFC_EXPECTS(in.a_row.size() == n && in.varphi_row.size() == n);
  UFC_EXPECTS(warm_start.size() == n);
  UFC_EXPECTS(out.size() == n);

  // A front-end with no arrivals routes nothing.
  if (in.arrival <= 0.0) {
    std::fill(out.begin(), out.end(), 0.0);
    return;
  }

  // Exact path: with the paper's quadratic utility the sub-problem is
  //   (w/A)(lambda . L)^2 + (rho/2)||lambda||^2 - (varphi + rho a).lambda
  // over the simplex — an identity-plus-rank-one QP.
  if (options.method == InnerMethod::Exact && in.utility->is_quadratic()) {
    RankOneQp& qp = ws.qp;  // coefficient buffers reused across solves
    qp.curvature = 2.0 * in.latency_weight / in.arrival;
    qp.direction.assign(in.latency_row);
    qp.tikhonov = in.rho;
    qp.linear.resize(n);
    // The previous iterate's coupling lambda . L starts the search.
    double coupling = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      qp.linear[j] = -in.varphi_row[j] - in.rho * in.a_row[j];
      coupling += in.latency_row[j] * warm_start[j];
    }
    solve_rank_one_qp_simplex_into(qp, in.arrival, out, ws.qp_scratch,
                                   coupling);
    return;
  }

  // Gradient of
  //   f(lambda) = -w A u(l) - sum_j varphi_j lambda_j
  //               + (rho/2) sum_j (a_j - lambda_j)^2,
  // with l = dot(lambda, L) / A:
  //   df/dlambda_j = -w u'(l) L_j - varphi_j - rho (a_j - lambda_j).

  // Hessian = (w |u''| / A) L L^T + rho I  =>  exact Lipschitz bound.
  double latency_norm_sq = 0.0;
  double latency_max = 0.0;
  for (double l : in.latency_row) {
    latency_norm_sq += l * l;
    latency_max = std::max(latency_max, l);
  }
  const double curvature = in.utility->max_curvature(latency_max);
  const double lipschitz =
      in.latency_weight * curvature * latency_norm_sq / in.arrival + in.rho;

  if (options.method == InnerMethod::ProjectedGradient) {
    auto gradient = [&](const Vec& lambda) {
      double weighted = 0.0;
      for (std::size_t j = 0; j < n; ++j)
        weighted += lambda[j] * in.latency_row[j];
      const double avg_latency = weighted / in.arrival;
      const double uprime = in.utility->derivative(avg_latency);
      Vec g(n);
      for (std::size_t j = 0; j < n; ++j) {
        g[j] = -in.latency_weight * uprime * in.latency_row[j] -
               in.varphi_row[j] - in.rho * (in.a_row[j] - lambda[j]);
      }
      return g;
    };
    auto project = [&](const Vec& x) { return project_simplex(x, in.arrival); };
    const Vec solution = run_projected_gradient(Vec(warm_start), gradient,
                                                project, lipschitz, options);
    std::copy(solution.begin(), solution.end(), out.begin());
    return;
  }

  // FISTA (default, and the Exact fallback for non-quadratic utilities):
  // allocation-free against the workspace. The gradient writes into a
  // workspace buffer that never aliases the inputs, so the pointers are
  // hoisted with UFC_RESTRICT and both loops (one reduction, one branchless
  // elementwise write) auto-vectorize; the arithmetic order matches the
  // span-indexed form bit for bit.
  auto gradient_into = [&](const Vec& lambda, Vec& g) {
    const double* UFC_RESTRICT lam = lambda.data();
    const double* UFC_RESTRICT lat = in.latency_row.data();
    const double* UFC_RESTRICT varphi = in.varphi_row.data();
    const double* UFC_RESTRICT a = in.a_row.data();
    double* UFC_RESTRICT grad = g.data();
    double weighted = 0.0;
    for (std::size_t j = 0; j < n; ++j) weighted += lam[j] * lat[j];
    const double avg_latency = weighted / in.arrival;
    const double uprime = in.utility->derivative(avg_latency);
    for (std::size_t j = 0; j < n; ++j) {
      grad[j] = -in.latency_weight * uprime * lat[j] - varphi[j] -
                in.rho * (a[j] - lam[j]);
    }
  };
  auto project_in_place = [&](Vec& x) {
    if (options.projection == SimplexProjection::Condat) {
      project_simplex_condat_into(x.span(), in.arrival, x.span(),
                                  ws.sort_scratch);
    } else {
      project_simplex_into(x.span(), in.arrival, x.span(), ws.sort_scratch);
    }
  };
  fista_minimize_ws(warm_start, gradient_into, project_in_place, lipschitz,
                    options.fista, ws.fista);
  std::copy(ws.fista.x.begin(), ws.fista.x.end(), out.begin());
}

double solve_mu_block(const MuBlockInputs& in) {
  UFC_EXPECTS(in.rho > 0.0);
  UFC_EXPECTS(in.mu_max >= 0.0);
  // Minimize (p0 - phi) mu + (rho/2)(c - mu)^2 over [0, mu_max],
  // c = alpha + beta * sum_i a_ij - nu. Unconstrained optimum:
  //   mu* = c + (phi - p0) / rho, then clamp.
  const double c = in.alpha + in.beta * in.a_col_sum - in.nu;
  const double unconstrained = c + (in.phi - in.fuel_cell_price) / in.rho;
  return std::clamp(unconstrained, 0.0, in.mu_max);
}

double solve_nu_block(const NuBlockInputs& in) {
  UFC_EXPECTS(in.emission_cost != nullptr);
  UFC_EXPECTS(in.rho > 0.0);
  UFC_EXPECTS(in.carbon_tons_per_mwh >= 0.0);

  const double c = in.alpha + in.beta * in.a_col_sum - in.mu;
  const double kappa = in.carbon_tons_per_mwh;

  // Derivative of V(kappa nu) + (p - phi) nu + (rho/2)(c - nu)^2:
  //   h(nu) = kappa V'(kappa nu) + p - phi + rho (nu - c),
  // monotone nondecreasing (V convex), so bisection finds the minimizer.
  auto h = [&](double nu) {
    return kappa * in.emission_cost->derivative(kappa * nu) + in.grid_price -
           in.phi + in.rho * (nu - c);
  };

  if (h(0.0) >= 0.0) return 0.0;
  // h(hi) > 0 for hi = max(0, c + (phi - p)/rho) + 1 because V' >= 0.
  const double hi = std::max(0.0, c + (in.phi - in.grid_price) / in.rho) + 1.0;
  return monotone_root(h, 0.0, hi);
}

void solve_a_block_into(const ABlockInputs& in,
                        std::span<const double> warm_start,
                        std::span<double> out, BlockWorkspace& ws,
                        const InnerSolverOptions& options) {
  UFC_EXPECTS(in.rho > 0.0);
  UFC_EXPECTS(in.capacity >= 0.0);
  const std::size_t m = in.varphi_col.size();
  UFC_EXPECTS(in.lambda_col.size() == m);
  UFC_EXPECTS(warm_start.size() == m);
  UFC_EXPECTS(out.size() == m);

  // Exact path: the a sub-problem is always an identity-plus-rank-one QP,
  //   (rho beta^2 / 2)(1 . a)^2 + (rho/2)||a||^2 + g . a,  with
  //   g_i = phi beta + varphi_i + rho beta (alpha - mu - nu) - rho lambda_i.
  if (options.method == InnerMethod::Exact) {
    const double shift = in.alpha - in.mu - in.nu;
    RankOneQp& qp = ws.qp;
    qp.curvature = in.rho * in.beta * in.beta;
    qp.direction.resize(m);
    qp.direction.fill(1.0);
    qp.tikhonov = in.rho;
    qp.linear.resize(m);
    // The previous iterate's coupling sum_i a_i starts the search.
    double coupling = 0.0;
    for (std::size_t i = 0; i < m; ++i) {
      qp.linear[i] = in.phi * in.beta + in.varphi_col[i] +
                     in.rho * in.beta * shift - in.rho * in.lambda_col[i];
      coupling += warm_start[i];
    }
    solve_rank_one_qp_capped_into(qp, in.capacity, out, ws.qp_scratch,
                                  coupling);
    return;
  }

  // Gradient of
  //   f(a) = phi beta sum_i a_i + sum_i varphi_i a_i
  //          + (rho/2)(alpha + beta sum_i a_i - mu - nu)^2
  //          + (rho/2) sum_i (a_i - lambda_i)^2:
  //   df/da_i = phi beta + varphi_i + rho beta (alpha + beta S - mu - nu)
  //             + rho (a_i - lambda_i),  S = sum_i a_i.

  // Hessian = rho (I + beta^2 1 1^T)  =>  L = rho (1 + beta^2 M).
  const double lipschitz =
      in.rho * (1.0 + in.beta * in.beta * static_cast<double>(m));

  if (options.method == InnerMethod::ProjectedGradient) {
    auto gradient = [&](const Vec& a) {
      double a_sum = 0.0;
      for (double x : a) a_sum += x;
      const double balance = in.alpha + in.beta * a_sum - in.mu - in.nu;
      Vec g(m);
      for (std::size_t i = 0; i < m; ++i) {
        g[i] = in.phi * in.beta + in.varphi_col[i] +
               in.rho * in.beta * balance + in.rho * (a[i] - in.lambda_col[i]);
      }
      return g;
    };
    auto project = [&](const Vec& x) {
      return project_capped_simplex(x, in.capacity);
    };
    const Vec solution = run_projected_gradient(Vec(warm_start), gradient,
                                                project, lipschitz, options);
    std::copy(solution.begin(), solution.end(), out.begin());
    return;
  }

  // FISTA (default): allocation-free against the workspace. Same
  // restrict-hoisting as the lambda block; bit-identical arithmetic.
  auto gradient_into = [&](const Vec& a, Vec& g) {
    const double* UFC_RESTRICT av = a.data();
    const double* UFC_RESTRICT varphi = in.varphi_col.data();
    const double* UFC_RESTRICT lam = in.lambda_col.data();
    double* UFC_RESTRICT grad = g.data();
    double a_sum = 0.0;
    for (std::size_t i = 0; i < m; ++i) a_sum += av[i];
    const double balance = in.alpha + in.beta * a_sum - in.mu - in.nu;
    for (std::size_t i = 0; i < m; ++i) {
      grad[i] = in.phi * in.beta + varphi[i] + in.rho * in.beta * balance +
                in.rho * (av[i] - lam[i]);
    }
  };
  auto project_in_place = [&](Vec& x) {
    if (options.projection == SimplexProjection::Condat) {
      project_capped_simplex_condat_into(x.span(), in.capacity, x.span(),
                                         ws.sort_scratch);
    } else {
      project_capped_simplex_into(x.span(), in.capacity, x.span(),
                                  ws.sort_scratch);
    }
  };
  fista_minimize_ws(warm_start, gradient_into, project_in_place, lipschitz,
                    options.fista, ws.fista);
  std::copy(ws.fista.x.begin(), ws.fista.x.end(), out.begin());
}

// ufc-lint: allow(expects-reach) — pure arithmetic on scalars already
// validated by the solver; this is the per-datacenter inner-loop dual update.
double update_phi(double phi, double rho, double alpha, double beta,
                  double a_col_sum, double mu, double nu) {
  return phi + rho * (alpha + beta * a_col_sum - mu - nu);
}

// ufc-lint: allow(expects-reach) — same as update_phi: validated-scalar
// arithmetic on the hot path.
double update_varphi(double varphi, double rho, double a, double lambda) {
  return varphi + rho * (a - lambda);
}

}  // namespace ufc::admm

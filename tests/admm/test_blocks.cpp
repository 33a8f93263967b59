// Per-block sub-problem correctness: each block minimizer is checked against
// brute force and/or the first-order fixed-point condition on randomized
// inputs.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "admm/blocks.hpp"
#include "math/projections.hpp"
#include "model/emission.hpp"
#include "model/utility.hpp"
#include "opt/kkt.hpp"
#include "util/rng.hpp"

namespace ufc::admm {
namespace {

// The block solvers write into caller-owned buffers; these return the
// minimizer as a Vec, solved through a fresh workspace.
Vec lambda_block(const LambdaBlockInputs& in, const Vec& warm_start,
                 const InnerSolverOptions& options) {
  Vec out(in.latency_row.size());
  BlockWorkspace ws;
  solve_lambda_block_into(in, warm_start.span(), out.span(), ws, options);
  return out;
}

Vec a_block(const ABlockInputs& in, const Vec& warm_start,
            const InnerSolverOptions& options) {
  Vec out(in.varphi_col.size());
  BlockWorkspace ws;
  solve_a_block_into(in, warm_start.span(), out.span(), ws, options);
  return out;
}

InnerSolverOptions tight_inner() {
  InnerSolverOptions options;
  options.fista.tolerance = 1e-12;
  options.fista.max_iterations = 5000;
  return options;
}

double lambda_block_objective(const LambdaBlockInputs& in, const Vec& lambda) {
  double weighted = 0.0;
  for (std::size_t j = 0; j < lambda.size(); ++j)
    weighted += lambda[j] * in.latency_row[j];
  const double avg_latency = weighted / in.arrival;
  double obj = -in.latency_weight * in.arrival * in.utility->value(avg_latency);
  for (std::size_t j = 0; j < lambda.size(); ++j)
    obj += -in.varphi_row[j] * lambda[j] +
           0.5 * in.rho * (in.a_row[j] - lambda[j]) * (in.a_row[j] - lambda[j]);
  return obj;
}

TEST(LambdaBlock, TwoDatacenterBruteForce) {
  QuadraticUtility utility;
  // Named storage: the input spans are non-owning views.
  const Vec latency{0.010, 0.030}, a_row{0.4, 0.6}, varphi_row{0.02, -0.05};
  LambdaBlockInputs in;
  in.arrival = 1.0;
  in.latency_row = latency.span();
  in.a_row = a_row.span();
  in.varphi_row = varphi_row.span();
  in.rho = 1.0;
  in.latency_weight = 10.0;
  in.utility = &utility;

  const Vec solution = lambda_block(in, Vec{0.5, 0.5}, tight_inner());
  EXPECT_NEAR(solution[0] + solution[1], 1.0, 1e-9);

  double best = 1e100, best_x = 0.0;
  for (int k = 0; k <= 100000; ++k) {
    const double x = k / 100000.0;
    const double v = lambda_block_objective(in, Vec{x, 1.0 - x});
    if (v < best) {
      best = v;
      best_x = x;
    }
  }
  EXPECT_NEAR(solution[0], best_x, 1e-4);
  EXPECT_LE(lambda_block_objective(in, solution), best + 1e-9);
}

TEST(LambdaBlock, ZeroArrivalReturnsZeros) {
  QuadraticUtility utility;
  const Vec latency{0.01, 0.02}, a_row{0.0, 0.0}, varphi_row{0.0, 0.0};
  LambdaBlockInputs in;
  in.arrival = 0.0;
  in.latency_row = latency.span();
  in.a_row = a_row.span();
  in.varphi_row = varphi_row.span();
  in.utility = &utility;
  const Vec solution = lambda_block(in, Vec{0.0, 0.0}, tight_inner());
  EXPECT_DOUBLE_EQ(solution[0], 0.0);
  EXPECT_DOUBLE_EQ(solution[1], 0.0);
}

class LambdaBlockProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LambdaBlockProperty, SatisfiesFirstOrderConditions) {
  Rng rng(GetParam());
  QuadraticUtility utility;
  const std::size_t n = 2 + static_cast<std::size_t>(rng.uniform_int(0, 4));
  Vec latency(n), a_row(n), varphi_row(n);
  for (std::size_t j = 0; j < n; ++j) {
    latency[j] = rng.uniform(0.002, 0.05);
    a_row[j] = rng.uniform(0.0, 1.0);
    varphi_row[j] = rng.uniform(-0.5, 0.5);
  }
  LambdaBlockInputs in;
  in.arrival = rng.uniform(0.2, 3.0);
  in.latency_row = latency.span();
  in.a_row = a_row.span();
  in.varphi_row = varphi_row.span();
  in.rho = rng.uniform(0.1, 20.0);
  in.latency_weight = 10.0;
  in.utility = &utility;

  const Vec solution = lambda_block(in, Vec(n, 0.0), tight_inner());

  auto gradient = [&](const Vec& lambda) {
    const double avg_latency = dot(lambda, latency) / in.arrival;
    const double uprime = utility.derivative(avg_latency);
    Vec g(n);
    for (std::size_t j = 0; j < n; ++j)
      g[j] = -in.latency_weight * uprime * in.latency_row[j] -
             in.varphi_row[j] - in.rho * (in.a_row[j] - lambda[j]);
    return g;
  };
  auto project = [&](const Vec& x) { return project_simplex(x, in.arrival); };
  const auto check = check_first_order_optimality(solution, gradient, project,
                                                  1e-7, 1e-6, in.arrival);
  EXPECT_TRUE(check.passed) << "residual " << check.residual;
}

INSTANTIATE_TEST_SUITE_P(Seeds, LambdaBlockProperty,
                         ::testing::Range<std::uint64_t>(1, 17));

TEST(MuBlock, InteriorOptimum) {
  MuBlockInputs in;
  in.alpha = 1.0;
  in.beta = 0.5;
  in.a_col_sum = 2.0;  // c = 1 + 1 - 0.5 = 1.5
  in.nu = 0.5;
  in.phi = 0.2;
  in.rho = 2.0;
  in.fuel_cell_price = 0.4;
  in.mu_max = 10.0;
  // mu* = c + (phi - p0)/rho = 1.5 + (0.2 - 0.4)/2 = 1.4.
  EXPECT_NEAR(solve_mu_block(in), 1.4, 1e-12);
}

TEST(MuBlock, ClampsAtZeroAndCapacity) {
  MuBlockInputs in;
  in.alpha = 0.1;
  in.beta = 0.0;
  in.a_col_sum = 0.0;
  in.nu = 0.0;
  in.rho = 1.0;
  in.mu_max = 0.5;

  in.phi = -100.0;  // pushes mu* far negative
  in.fuel_cell_price = 1.0;
  EXPECT_DOUBLE_EQ(solve_mu_block(in), 0.0);

  in.phi = +100.0;  // pushes mu* far above capacity
  EXPECT_DOUBLE_EQ(solve_mu_block(in), 0.5);
}

class MuBlockProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MuBlockProperty, MatchesGoldenSectionOnRandomInputs) {
  Rng rng(GetParam() + 50);
  MuBlockInputs in;
  in.alpha = rng.uniform(0.0, 2.0);
  in.beta = rng.uniform(0.0, 1.0);
  in.a_col_sum = rng.uniform(0.0, 3.0);
  in.nu = rng.uniform(0.0, 2.0);
  in.phi = rng.uniform(-5.0, 5.0);
  in.rho = rng.uniform(0.1, 10.0);
  in.fuel_cell_price = rng.uniform(0.0, 3.0);
  in.mu_max = rng.uniform(0.1, 4.0);

  const double mu = solve_mu_block(in);
  EXPECT_GE(mu, 0.0);
  EXPECT_LE(mu, in.mu_max);

  auto objective = [&](double m) {
    const double c = in.alpha + in.beta * in.a_col_sum - in.nu;
    return (in.fuel_cell_price - in.phi) * m + 0.5 * in.rho * (c - m) * (c - m);
  };
  // Grid search confirms optimality.
  double best = objective(mu);
  for (int k = 0; k <= 2000; ++k) {
    const double m = in.mu_max * k / 2000.0;
    EXPECT_GE(objective(m), best - 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MuBlockProperty,
                         ::testing::Range<std::uint64_t>(1, 13));

TEST(NuBlock, AffineTaxClosedFormAgreement) {
  AffineCarbonTax tax(25.0);
  NuBlockInputs in;
  in.alpha = 1.0;
  in.beta = 0.2;
  in.a_col_sum = 5.0;  // c = 1 + 1 - mu
  in.mu = 0.5;
  in.phi = 0.3;
  in.rho = 2.0;
  in.grid_price = 40.0;
  in.carbon_tons_per_mwh = 0.5;
  in.emission_cost = &tax;
  // c = 1.5; nu* = c - (kappa*r + p - phi)/rho = 1.5 - (12.5 + 40 - 0.3)/2.
  const double expected = std::max(0.0, 1.5 - (12.5 + 40.0 - 0.3) / 2.0);
  EXPECT_NEAR(solve_nu_block(in), expected, 1e-9);
}

TEST(NuBlock, LargePhiGivesInteriorSolution) {
  AffineCarbonTax tax(10.0);
  NuBlockInputs in;
  in.alpha = 2.0;
  in.beta = 0.0;
  in.a_col_sum = 0.0;
  in.mu = 0.0;
  in.phi = 50.0;
  in.rho = 4.0;
  in.grid_price = 30.0;
  in.carbon_tons_per_mwh = 0.2;
  in.emission_cost = &tax;
  // nu* = c + (phi - p - kappa r)/rho = 2 + (50 - 30 - 2)/4 = 6.5.
  EXPECT_NEAR(solve_nu_block(in), 6.5, 1e-8);
}

class NuBlockProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(NuBlockProperty, OptimalForEveryEmissionPolicy) {
  Rng rng(GetParam() + 99);
  // Try all four policy families on the same random sub-problem.
  const AffineCarbonTax affine(rng.uniform(0.0, 60.0));
  const CapAndTradeCost cap(rng.uniform(0.0, 1.0), rng.uniform(0.0, 80.0));
  const SteppedCarbonTax stepped({0.2, 0.6}, {5.0, 20.0, 60.0});
  const QuadraticEmissionCost quadratic(rng.uniform(0.0, 30.0),
                                        rng.uniform(0.0, 10.0));
  const EmissionCostFunction* policies[] = {&affine, &cap, &stepped,
                                            &quadratic};

  NuBlockInputs in;
  in.alpha = rng.uniform(0.0, 2.0);
  in.beta = rng.uniform(0.0, 0.5);
  in.a_col_sum = rng.uniform(0.0, 4.0);
  in.mu = rng.uniform(0.0, 1.0);
  in.phi = rng.uniform(-20.0, 60.0);
  in.rho = rng.uniform(0.5, 10.0);
  in.grid_price = rng.uniform(5.0, 100.0);
  in.carbon_tons_per_mwh = rng.uniform(0.1, 1.0);

  for (const auto* policy : policies) {
    in.emission_cost = policy;
    const double nu = solve_nu_block(in);
    EXPECT_GE(nu, 0.0);

    auto objective = [&](double v) {
      const double c = in.alpha + in.beta * in.a_col_sum - in.mu;
      return policy->value(in.carbon_tons_per_mwh * v) +
             (in.grid_price - in.phi) * v + 0.5 * in.rho * (c - v) * (c - v);
    };
    const double f_star = objective(nu);
    // Dense scan over a generous range confirms global optimality.
    for (int k = 0; k <= 3000; ++k) {
      const double v = 20.0 * k / 3000.0;
      EXPECT_GE(objective(v), f_star - 1e-6)
          << "policy " << policy->name() << " nu* " << nu << " beaten at " << v;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, NuBlockProperty,
                         ::testing::Range<std::uint64_t>(1, 13));

double a_block_objective(const ABlockInputs& in, const Vec& a) {
  double a_sum = 0.0;
  for (double x : a) a_sum += x;
  const double balance = in.alpha + in.beta * a_sum - in.mu - in.nu;
  double obj = in.phi * in.beta * a_sum + 0.5 * in.rho * balance * balance;
  for (std::size_t i = 0; i < a.size(); ++i)
    obj += in.varphi_col[i] * a[i] +
           0.5 * in.rho * (a[i] - in.lambda_col[i]) * (a[i] - in.lambda_col[i]);
  return obj;
}

class ABlockProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ABlockProperty, SatisfiesFirstOrderConditions) {
  Rng rng(GetParam() + 7);
  const std::size_t m = 2 + static_cast<std::size_t>(rng.uniform_int(0, 6));
  Vec varphi_col(m), lambda_col(m);
  for (std::size_t i = 0; i < m; ++i) {
    varphi_col[i] = rng.uniform(-1.0, 1.0);
    lambda_col[i] = rng.uniform(0.0, 1.0);
  }
  ABlockInputs in;
  in.alpha = rng.uniform(0.0, 2.0);
  in.beta = rng.uniform(0.0, 1.0);
  in.mu = rng.uniform(0.0, 1.0);
  in.nu = rng.uniform(0.0, 1.0);
  in.phi = rng.uniform(-3.0, 3.0);
  in.varphi_col = varphi_col.span();
  in.lambda_col = lambda_col.span();
  in.rho = rng.uniform(0.2, 10.0);
  in.capacity = rng.uniform(0.5, 3.0);

  const Vec solution = a_block(in, Vec(m, 0.0), tight_inner());

  // Feasibility.
  double total = 0.0;
  for (double x : solution) {
    EXPECT_GE(x, -1e-12);
    total += x;
  }
  EXPECT_LE(total, in.capacity + 1e-9);

  // First-order fixed point.
  auto gradient = [&](const Vec& a) {
    double a_sum = 0.0;
    for (double x : a) a_sum += x;
    const double balance = in.alpha + in.beta * a_sum - in.mu - in.nu;
    Vec g(m);
    for (std::size_t i = 0; i < m; ++i)
      g[i] = in.phi * in.beta + in.varphi_col[i] + in.rho * in.beta * balance +
             in.rho * (a[i] - in.lambda_col[i]);
    return g;
  };
  auto project = [&](const Vec& x) {
    return project_capped_simplex(x, in.capacity);
  };
  const auto check = check_first_order_optimality(solution, gradient, project,
                                                  1e-7, 1e-6, in.capacity);
  EXPECT_TRUE(check.passed) << "residual " << check.residual;

  // Also beat a handful of random feasible points.
  const double f_star = a_block_objective(in, solution);
  for (int k = 0; k < 50; ++k) {
    Vec x(m);
    double s = 0.0;
    for (auto& e : x) {
      e = rng.uniform(0.0, 1.0);
      s += e;
    }
    const double scale = rng.uniform(0.0, 1.0) * in.capacity / std::max(s, 1e-12);
    for (auto& e : x) e *= scale;
    EXPECT_GE(a_block_objective(in, x), f_star - 1e-8);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ABlockProperty,
                         ::testing::Range<std::uint64_t>(1, 17));

TEST(DualUpdates, MatchDefinitions) {
  EXPECT_DOUBLE_EQ(update_phi(1.0, 2.0, 0.5, 0.2, 3.0, 0.4, 0.1),
                   1.0 + 2.0 * (0.5 + 0.6 - 0.4 - 0.1));
  EXPECT_DOUBLE_EQ(update_varphi(0.5, 2.0, 1.2, 1.0), 0.5 + 2.0 * 0.2);
}

TEST(InnerSolverAblation, FistaAndPgAgree) {
  QuadraticUtility utility;
  const Vec latency{0.01, 0.02, 0.04}, a_row{0.3, 0.3, 0.4},
      varphi_row{0.05, -0.02, 0.0};
  LambdaBlockInputs in;
  in.arrival = 1.0;
  in.latency_row = latency.span();
  in.a_row = a_row.span();
  in.varphi_row = varphi_row.span();
  in.rho = 2.0;
  in.latency_weight = 10.0;
  in.utility = &utility;

  InnerSolverOptions fista = tight_inner();
  InnerSolverOptions pg = tight_inner();
  pg.method = InnerMethod::ProjectedGradient;
  pg.fista.max_iterations = 50000;
  InnerSolverOptions exact = tight_inner();
  exact.method = InnerMethod::Exact;

  const Vec a = lambda_block(in, Vec(3, 0.0), fista);
  const Vec b = lambda_block(in, Vec(3, 0.0), pg);
  const Vec c = lambda_block(in, Vec(3, 0.0), exact);
  EXPECT_LT(max_abs_diff(a, b), 1e-7);
  EXPECT_LT(max_abs_diff(a, c), 1e-7);
}

TEST(InnerSolverAblation, ExactMatchesFistaOnABlock) {
  Rng rng(123);
  for (int trial = 0; trial < 10; ++trial) {
    const std::size_t m = 2 + static_cast<std::size_t>(rng.uniform_int(0, 6));
    Vec varphi_col(m), lambda_col(m);
    for (std::size_t i = 0; i < m; ++i) {
      varphi_col[i] = rng.uniform(-1.0, 1.0);
      lambda_col[i] = rng.uniform(0.0, 1.0);
    }
    ABlockInputs in;
    in.alpha = rng.uniform(0.0, 2.0);
    in.beta = rng.uniform(0.0, 1.0);
    in.mu = rng.uniform(0.0, 1.0);
    in.nu = rng.uniform(0.0, 1.0);
    in.phi = rng.uniform(-3.0, 3.0);
    in.varphi_col = varphi_col.span();
    in.lambda_col = lambda_col.span();
    in.rho = rng.uniform(0.2, 10.0);
    in.capacity = rng.uniform(0.5, 3.0);

    InnerSolverOptions exact = tight_inner();
    exact.method = InnerMethod::Exact;
    const Vec a = a_block(in, Vec(m, 0.0), tight_inner());
    const Vec b = a_block(in, Vec(m, 0.0), exact);
    EXPECT_LT(max_abs_diff(a, b), 1e-6) << "trial " << trial;
  }
}

TEST(InnerSolverAblation, ExactFallsBackForNonQuadraticUtility) {
  // Exponential utility is not a QP: the exact method must fall back to
  // FISTA and still produce the right answer.
  ExponentialUtility utility(0.02);
  const Vec latency{0.01, 0.03}, a_row{0.5, 0.5}, varphi_row{0.0, 0.0};
  LambdaBlockInputs in;
  in.arrival = 1.0;
  in.latency_row = latency.span();
  in.a_row = a_row.span();
  in.varphi_row = varphi_row.span();
  in.rho = 2.0;
  in.latency_weight = 10.0;
  in.utility = &utility;

  InnerSolverOptions exact = tight_inner();
  exact.method = InnerMethod::Exact;
  const Vec a = lambda_block(in, Vec(2, 0.0), tight_inner());
  const Vec b = lambda_block(in, Vec(2, 0.0), exact);
  EXPECT_LT(max_abs_diff(a, b), 1e-9);
}

}  // namespace
}  // namespace ufc::admm

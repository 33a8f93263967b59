#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "math/projections.hpp"
#include "opt/fista.hpp"
#include "opt/rank_one_qp.hpp"
#include "util/contract.hpp"
#include "util/rng.hpp"

namespace ufc {
namespace {

// The exact solvers write into caller-owned buffers; these return the
// minimizer as a Vec, solved through a fresh scratch and without a hint.
Vec solve_simplex(const RankOneQp& qp, double total) {
  Vec out(qp.direction.size());
  RankOneQpScratch scratch;
  solve_rank_one_qp_simplex_into(qp, total, out.span(), scratch);
  return out;
}

Vec solve_capped(const RankOneQp& qp, double cap) {
  Vec out(qp.direction.size());
  RankOneQpScratch scratch;
  solve_rank_one_qp_capped_into(qp, cap, out.span(), scratch);
  return out;
}

RankOneQp random_qp(Rng& rng, std::size_t n) {
  RankOneQp qp;
  qp.curvature = rng.uniform(0.0, 50.0);
  qp.tikhonov = rng.uniform(0.1, 20.0);
  qp.direction = Vec(n);
  qp.linear = Vec(n);
  for (std::size_t i = 0; i < n; ++i) {
    qp.direction[i] = rng.uniform(0.0, 0.1);
    qp.linear[i] = rng.uniform(-5.0, 5.0);
  }
  return qp;
}

Vec fista_reference_simplex(const RankOneQp& qp, double total) {
  auto gradient = [&](const Vec& x) {
    const double s = dot(qp.direction, x);
    Vec g = qp.linear;
    for (std::size_t i = 0; i < x.size(); ++i)
      g[i] += qp.curvature * s * qp.direction[i] + qp.tikhonov * x[i];
    return g;
  };
  auto project = [&](const Vec& x) { return project_simplex(x, total); };
  const double lipschitz =
      qp.curvature * dot(qp.direction, qp.direction) + qp.tikhonov;
  FistaOptions options;
  options.tolerance = 1e-13;
  options.max_iterations = 50000;
  return fista_minimize(Vec(qp.direction.size(), 0.0), gradient, project,
                        lipschitz, options)
      .x;
}

TEST(RankOneQp, PureTikhonovHasClosedForm) {
  // c = 0: minimize (rho/2)||x||^2 + g.x over simplex == projection of -g/rho.
  RankOneQp qp;
  qp.curvature = 0.0;
  qp.tikhonov = 2.0;
  qp.direction = Vec{0.0, 0.0, 0.0};
  qp.linear = Vec{-4.0, -2.0, 6.0};
  const Vec x = solve_simplex(qp, 1.0);
  const Vec expected = project_simplex(Vec{2.0, 1.0, -3.0}, 1.0);
  EXPECT_LT(max_abs_diff(x, expected), 1e-10);
}

TEST(RankOneQp, ZeroTotalReturnsZeros) {
  RankOneQp qp;
  qp.curvature = 1.0;
  qp.tikhonov = 1.0;
  qp.direction = Vec{1.0, 2.0};
  qp.linear = Vec{0.0, 0.0};
  const Vec x = solve_simplex(qp, 0.0);
  EXPECT_DOUBLE_EQ(x[0], 0.0);
  EXPECT_DOUBLE_EQ(x[1], 0.0);
  const Vec y = solve_capped(qp, 0.0);
  EXPECT_DOUBLE_EQ(y[0], 0.0);
}

class RankOneQpSimplexProperty
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RankOneQpSimplexProperty, MatchesFistaToHighPrecision) {
  Rng rng(GetParam());
  const std::size_t n = 2 + static_cast<std::size_t>(rng.uniform_int(0, 8));
  const RankOneQp qp = random_qp(rng, n);
  const double total = rng.uniform(0.1, 10.0);

  const Vec exact = solve_simplex(qp, total);
  // Feasibility.
  double s = 0.0;
  for (double v : exact) {
    EXPECT_GE(v, -1e-12);
    s += v;
  }
  EXPECT_NEAR(s, total, 1e-9 * std::max(1.0, total));
  // Optimality vs the iterative reference.
  const Vec reference = fista_reference_simplex(qp, total);
  EXPECT_LE(rank_one_qp_value(qp, exact),
            rank_one_qp_value(qp, reference) + 1e-8);
  EXPECT_LT(max_abs_diff(exact, reference), 1e-5 * std::max(1.0, total));
}

INSTANTIATE_TEST_SUITE_P(Seeds, RankOneQpSimplexProperty,
                         ::testing::Range<std::uint64_t>(1, 21));

class RankOneQpCappedProperty
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RankOneQpCappedProperty, FeasibleAndBeatsRandomFeasiblePoints) {
  Rng rng(GetParam() + 400);
  const std::size_t n = 2 + static_cast<std::size_t>(rng.uniform_int(0, 8));
  const RankOneQp qp = random_qp(rng, n);
  const double cap = rng.uniform(0.1, 10.0);

  const Vec exact = solve_capped(qp, cap);
  double s = 0.0;
  for (double v : exact) {
    EXPECT_GE(v, -1e-12);
    s += v;
  }
  EXPECT_LE(s, cap + 1e-9);

  const double f_star = rank_one_qp_value(qp, exact);
  for (int k = 0; k < 200; ++k) {
    Vec x(n);
    double total = 0.0;
    for (auto& e : x) {
      e = rng.uniform(0.0, 1.0);
      total += e;
    }
    const double scale = rng.uniform(0.0, 1.0) * cap / std::max(total, 1e-12);
    for (auto& e : x) e *= scale;
    EXPECT_GE(rank_one_qp_value(qp, x), f_star - 1e-8);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RankOneQpCappedProperty,
                         ::testing::Range<std::uint64_t>(1, 21));

TEST(RankOneQp, CappedReducesToSimplexWhenCapBinds) {
  Rng rng(9);
  const RankOneQp qp = [&] {
    RankOneQp q = random_qp(rng, 4);
    // Strongly negative linear term pushes mass against the cap.
    for (std::size_t i = 0; i < 4; ++i) q.linear[i] = -10.0 - q.linear[i];
    return q;
  }();
  const double cap = 0.5;
  const Vec capped = solve_capped(qp, cap);
  const Vec simplex = solve_simplex(qp, cap);
  EXPECT_LT(max_abs_diff(capped, simplex), 1e-9);
  EXPECT_NEAR(sum(capped), cap, 1e-9);
}

TEST(RankOneQp, CappedStaysInteriorWhenOptimal) {
  // Positive linear costs keep the optimum at zero, far from the cap.
  RankOneQp qp;
  qp.curvature = 1.0;
  qp.tikhonov = 1.0;
  qp.direction = Vec{1.0, 1.0};
  qp.linear = Vec{3.0, 4.0};
  const Vec x = solve_capped(qp, 100.0);
  EXPECT_NEAR(x[0], 0.0, 1e-12);
  EXPECT_NEAR(x[1], 0.0, 1e-12);
}

// ---------------------------------------------------------------------------
// Closed form vs the nested-bisection reference (rank_one_qp_reference.cpp).

double max_abs(const Vec& x) {
  double m = 0.0;
  for (double e : x) m = std::max(m, std::abs(e));
  return m;
}

/// KKT sign conditions of a candidate x. With s = v . x, the gradient
/// d_i = g_i + c s v_i + rho x_i equals one multiplier theta on the support
/// and is at least theta off it; theta = 0 when the cap is slack and
/// theta <= 0 when it binds.
void expect_kkt(const RankOneQp& qp, const Vec& x, bool capped, double bound) {
  const std::size_t n = x.size();
  const double s = dot(qp.direction, x);
  Vec d(n);
  for (std::size_t i = 0; i < n; ++i)
    d[i] = qp.linear[i] + qp.curvature * s * qp.direction[i] +
           qp.tikhonov * x[i];
  const double tol = 1e-9 * (1.0 + max_abs(d) + max_abs(qp.linear));
  const std::size_t top = static_cast<std::size_t>(
      std::max_element(x.begin(), x.end()) - x.begin());
  double theta = x[top] > 0.0 ? d[top] : 0.0;
  const bool slack = capped && sum(x) < bound * (1.0 - 1e-12);
  if (slack) theta = 0.0;
  if (capped && !slack) {
    EXPECT_LE(theta, tol);
  }
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_GE(x[i], 0.0) << "coordinate " << i;
    if (x[i] > 1e-12 * std::max(1.0, bound)) {
      EXPECT_NEAR(d[i], theta, tol) << "coordinate " << i;
    } else {
      EXPECT_GE(d[i], theta - tol) << "coordinate " << i;
    }
  }
}

/// Closed form against the reference: objective within 1e-12 relative, x
/// within 1e-9 max(1, bound), both feasible and the closed form KKT.
void expect_matches_reference(const RankOneQp& qp, double bound,
                              bool capped) {
  const Vec x = capped ? solve_capped(qp, bound)
                       : solve_simplex(qp, bound);
  const Vec r = capped ? solve_rank_one_qp_capped_reference(qp, bound)
                       : solve_rank_one_qp_simplex_reference(qp, bound);
  const double fx = rank_one_qp_value(qp, x);
  const double fr = rank_one_qp_value(qp, r);
  EXPECT_NEAR(fx, fr, 1e-12 * std::max(1.0, std::abs(fr)));
  EXPECT_LE(max_abs_diff(x, r), 1e-9 * std::max(1.0, bound));
  if (capped) {
    EXPECT_LE(sum(x), bound * (1.0 + 1e-12));
  } else {
    EXPECT_NEAR(sum(x), bound, 1e-12 * std::max(1.0, bound));
  }
  expect_kkt(qp, x, capped, bound);
}

class RankOneQpClosedFormProperty
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RankOneQpClosedFormProperty, MatchesReferenceOnRandomInputs) {
  Rng rng(GetParam() + 900);
  const std::size_t n = static_cast<std::size_t>(rng.uniform_int(1, 64));
  const RankOneQp qp = random_qp(rng, n);
  const double bound = rng.uniform(0.0, 10.0);
  expect_matches_reference(qp, bound, /*capped=*/false);
  expect_matches_reference(qp, bound, /*capped=*/true);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RankOneQpClosedFormProperty,
                         ::testing::Range<std::uint64_t>(1, 41));

TEST(RankOneQpClosedForm, TiedThresholdsAndZeroDirections) {
  // Equal g on coordinates with equal v tie their thresholds for every s;
  // zero v entries never feel the coupling.
  RankOneQp qp;
  qp.curvature = 3.0;
  qp.tikhonov = 0.5;
  qp.direction = Vec{0.0, 0.04, 0.04, 0.0, 0.1, 0.04};
  qp.linear = Vec{1.0, 1.0, 1.0, 1.0, -2.0, 1.0};
  for (double bound : {0.01, 1.0, 7.5}) {
    expect_matches_reference(qp, bound, false);
    expect_matches_reference(qp, bound, true);
  }
  qp.direction = Vec{0.0, 0.0, 0.0, 0.0, 0.0, 0.0};
  for (double bound : {0.01, 1.0, 7.5}) {
    expect_matches_reference(qp, bound, false);
    expect_matches_reference(qp, bound, true);
  }
  Rng rng(77);
  for (int trial = 0; trial < 50; ++trial) {
    RankOneQp q;
    q.curvature = rng.uniform(0.0, 20.0);
    q.tikhonov = rng.uniform(0.1, 2.0);
    const std::size_t n = static_cast<std::size_t>(rng.uniform_int(2, 12));
    q.direction = Vec(n);
    q.linear = Vec(n);
    for (std::size_t i = 0; i < n; ++i) {
      q.direction[i] = 0.05 * static_cast<double>(rng.uniform_int(0, 2));
      q.linear[i] = static_cast<double>(rng.uniform_int(-2, 2));
    }
    const double bound = rng.uniform(0.0, 5.0);
    expect_matches_reference(q, bound, false);
    expect_matches_reference(q, bound, true);
  }
}

TEST(RankOneQpClosedForm, ZeroCurvatureAndSingleCoordinate) {
  Rng rng(5);
  RankOneQp qp = random_qp(rng, 7);
  qp.curvature = 0.0;
  expect_matches_reference(qp, 2.5, false);
  expect_matches_reference(qp, 2.5, true);

  RankOneQp one;
  one.curvature = 4.0;
  one.tikhonov = 0.7;
  one.direction = Vec{0.03};
  one.linear = Vec{-1.5};
  const Vec x = solve_simplex(one, 3.0);
  EXPECT_DOUBLE_EQ(x[0], 3.0);
  expect_matches_reference(one, 3.0, false);
  // Capped, n = 1: the free optimum -g / (rho + c v^2) when below the cap.
  const Vec y = solve_capped(one, 100.0);
  EXPECT_NEAR(y[0], 1.5 / (0.7 + 4.0 * 0.03 * 0.03), 1e-12);
  expect_matches_reference(one, 100.0, true);
  expect_matches_reference(one, 0.5, true);
}

TEST(RankOneQpClosedForm, ZeroTotalAndZeroCap) {
  Rng rng(6);
  const RankOneQp qp = random_qp(rng, 5);
  RankOneQpScratch scratch;
  Vec out(5, 1.0);
  solve_rank_one_qp_simplex_into(qp, 0.0, out.span(), scratch);
  EXPECT_EQ(max_abs(out), 0.0);
  out.fill(1.0);
  solve_rank_one_qp_capped_into(qp, 0.0, out.span(), scratch);
  EXPECT_EQ(max_abs(out), 0.0);
}

TEST(RankOneQpClosedForm, CapExactlyAtTheUnconstrainedSum) {
  Rng rng(11);
  for (int trial = 0; trial < 20; ++trial) {
    RankOneQp qp = random_qp(rng, 8);
    for (std::size_t i = 0; i < 8; ++i) qp.linear[i] -= 5.0;  // mass > 0
    const Vec free = solve_capped(qp, 1e6);
    const double cap = sum(free);
    ASSERT_GT(cap, 0.0);
    expect_matches_reference(qp, cap, true);
    EXPECT_LE(max_abs_diff(solve_capped(qp, cap), free),
              1e-9 * std::max(1.0, cap));
  }
}

/// `base` plus a fourth coordinate, with direction v4, whose threshold
/// equals the optimal theta of `base` at `total`: it sits on the active-set
/// breakpoint with x_4 = 0, and the other three keep their solution.
RankOneQp add_coordinate_on_the_breakpoint(const RankOneQp& base,
                                           double total, double v4) {
  const Vec x3 = solve_simplex(base, total);
  const double s = dot(base.direction, x3);
  const std::size_t top = static_cast<std::size_t>(
      std::max_element(x3.begin(), x3.end()) - x3.begin());
  const double theta = base.linear[top] +
                       base.curvature * s * base.direction[top] +
                       base.tikhonov * x3[top];
  RankOneQp qp;
  qp.curvature = base.curvature;
  qp.tikhonov = base.tikhonov;
  qp.direction = Vec{base.direction[0], base.direction[1], base.direction[2],
                     v4};
  qp.linear = Vec{base.linear[0], base.linear[1], base.linear[2],
                  theta - base.curvature * s * v4};
  return qp;
}

/// Three coordinates with negative linear terms: a base for the breakpoint
/// fixture.
RankOneQp breakpoint_base(Rng& rng) {
  RankOneQp base = random_qp(rng, 3);
  for (std::size_t i = 0; i < 3; ++i)
    base.linear[i] = -std::abs(base.linear[i]);
  return base;
}

TEST(RankOneQpClosedForm, OptimumOnAnActiveSetBreakpoint) {
  // Solve on three coordinates, then add a fourth whose threshold equals the
  // optimal theta exactly: it sits on the breakpoint with x_4 = 0, and the
  // solution of the other three is unchanged.
  //
  // The reference's sorted threshold scan can reject every support size
  // when theta meets a threshold to the last ulp, and its fallback then
  // loses the sum; that happens here, so the reference is compared only
  // where its answer is feasible. The constructed answer is the oracle.
  Rng rng(21);
  int compared = 0;
  for (int trial = 0; trial < 20; ++trial) {
    const RankOneQp base = breakpoint_base(rng);
    const double total = rng.uniform(0.5, 5.0);
    const Vec x3 = solve_simplex(base, total);
    const RankOneQp qp =
        add_coordinate_on_the_breakpoint(base, total, rng.uniform(0.0, 0.1));
    const Vec x4 = solve_simplex(qp, total);
    EXPECT_NEAR(x4[3], 0.0, 1e-9 * total);
    for (std::size_t i = 0; i < 3; ++i)
      EXPECT_NEAR(x4[i], x3[i], 1e-9 * total);
    EXPECT_NEAR(sum(x4), total, 1e-12 * total);
    expect_kkt(qp, x4, /*capped=*/false, total);
    const Vec r = solve_rank_one_qp_simplex_reference(qp, total);
    if (std::abs(sum(r) - total) > 1e-9 * total) continue;
    ++compared;
    expect_matches_reference(qp, total, false);
  }
  EXPECT_GE(compared, 15);
}

TEST(RankOneQpClosedForm, PaperShapedLatencyRowsOnTheSimplex) {
  // lambda block at M = 10, N = 4: c = 2 w / A, v = latencies in seconds,
  // g = -varphi - rho a, total = A.
  Rng rng(31);
  for (int trial = 0; trial < 200; ++trial) {
    const double arrival = rng.uniform(100.0, 12000.0);
    const double rho = 0.3;
    RankOneQp qp;
    qp.curvature = 2.0 * 10.0 / arrival;
    qp.tikhonov = rho;
    qp.direction = Vec(4);
    qp.linear = Vec(4);
    for (std::size_t j = 0; j < 4; ++j) {
      qp.direction[j] = rng.uniform(0.005, 0.06);
      qp.linear[j] = -rng.uniform(-5.0, 5.0) -
                     rho * rng.uniform(0.0, arrival / 2.0);
    }
    expect_matches_reference(qp, arrival, false);
  }
}

TEST(RankOneQpClosedForm, PaperShapedOnesColumnsCapped) {
  // a block at M = 10: v = 1, c = rho beta^2, cap = S_j servers.
  Rng rng(41);
  for (int trial = 0; trial < 200; ++trial) {
    const double rho = 0.3;
    const double beta = rng.uniform(1e-4, 3e-4);
    RankOneQp qp;
    qp.curvature = rho * beta * beta;
    qp.tikhonov = rho;
    qp.direction = Vec(10, 1.0);
    qp.linear = Vec(10);
    const double shift = rng.uniform(-2.0, 2.0);
    for (std::size_t i = 0; i < 10; ++i)
      qp.linear[i] = rng.uniform(-30.0, 30.0) + rho * beta * shift -
                     rho * rng.uniform(0.0, 3000.0);
    const double cap = rng.uniform(1.7e4, 2.3e4) *
                       (trial % 3 == 0 ? 0.01 : 1.0);  // some caps bind
    expect_matches_reference(qp, cap, true);
  }
}

TEST(RankOneQpClosedForm, TinyTotalKeepsItsSum) {
  // Regression: thresholds near 1000 used to swallow rho * total, returning
  // x = 0 for total = 1e-14 and a sum 14% off for total = 1e-12.
  for (double curvature : {0.0, 5.0}) {
    for (double total : {1e-14, 1e-12}) {
      RankOneQp qp;
      qp.curvature = curvature;
      qp.tikhonov = 0.3;
      qp.direction = Vec{0.01, 0.02, 0.03};
      qp.linear = Vec{1000.0, 1001.0, 1002.0};
      const Vec x = solve_simplex(qp, total);
      EXPECT_NEAR(sum(x), total, 1e-12 * total)
          << "c = " << curvature << ", total = " << total;
      for (double e : x) EXPECT_GE(e, 0.0);
    }
  }
}

TEST(RankOneQpClosedForm, StiffCouplingKeepsItsSum) {
  // One active coordinate with c v^2 total far above rho total: x = total.
  // Forming theta = rho total + c v^2 total and subtracting c s v again
  // would leave only the rounding of c v^2 total (a 3e-5 relative error).
  RankOneQp qp;
  qp.curvature = 1e6;
  qp.tikhonov = 2.5e-4;
  qp.direction = Vec{6.7, 0.03};
  qp.linear = Vec{-100.0, 0.0};
  const double total = 1e-6;
  const Vec x = solve_simplex(qp, total);
  EXPECT_NEAR(x[0], total, 1e-12 * total);
  EXPECT_EQ(x[1], 0.0);
}

/// A stiff problem from randomized stress (c = 8.3e4, rho = 1.2e-4,
/// total = 1.7e-7). The optimum has coordinates 12 and 13 active, but that
/// active set holds only on an s-interval about 2e-16 wide.
RankOneQp narrow_piece_qp() {
  RankOneQp qp;
  qp.curvature = 0x1.445a646fdc9f7p+16;
  qp.tikhonov = 0x1.023a1287af41ap-13;
  qp.linear = Vec{-0x1.3797782f3d19ep-4, 0x1.62f9a2369b16cp-2,
                  -0x1.d1e1a7e83cddfp-2, -0x1.dc50ac8b1be9ap-2,
                  0x1.73dd1170bf4b4p-3, -0x1.c5b311b7bdea4p-2,
                  0x1.3636cb3983d73p-2, 0x1.95a9eb4f429b1p-8,
                  -0x1.9dd50cfa7d31fp-2, 0x1.e75531684ec99p-2,
                  0x1.0f87088738cb6p-2, 0x1.834e699585242p-2,
                  -0x1.287c9a8a4fbf4p-1, -0x1.280b618f80507p-1};
  qp.direction = Vec{0.0, 0x1.3e250261ac22dp-9, 0x1.49566b1dc9ae3p-5,
                     0x1.274d52c81e537p+0, 0.0, 0x1.d0160b33a7b8ep-10,
                     0x1.6ba3c75ee6293p-11, 0x1.7aef4addbb0efp-10, 0.0,
                     0x1.16935a84981eap-9, 0x1.5b456ad3c3f2dp-7, 0.0,
                     0x1.468afa8916f92p+0, 0x1.2cf9fbda9c536p-8};
  return qp;
}
constexpr double kNarrowPieceTotal = 0x1.7307ed9a54ad2p-23;

TEST(RankOneQpClosedForm, FindsAPieceNarrowerThanAnyFixedTolerance) {
  // A search that stops at a fixed 1e-15 bracket never probes the optimal
  // piece of this fixture and settles 37% off (the reference bisection is 3%
  // off). The expected values come from an exact rational solve of the KKT
  // system.
  const RankOneQp qp = narrow_piece_qp();
  const double total = kNarrowPieceTotal;
  const Vec x = solve_simplex(qp, total);
  // Inputs of size 0.5 carry rounding of ~1e-16, which rho total = 2e-11
  // turns into a few 1e-6 relative.
  for (std::size_t i = 0; i < 12; ++i) EXPECT_EQ(x[i], 0.0) << i;
  EXPECT_NEAR(x[12], 5.815864273735914e-09, 1e-5 * total);
  EXPECT_NEAR(x[13], 1.6695889451308319e-07, 1e-5 * total);
  EXPECT_NEAR(sum(x), total, 1e-5 * total);
}

TEST(RankOneQpClosedForm, IntoMatchesWrapperWithoutReallocating) {
  Rng rng(51);
  RankOneQpScratch scratch;
  Vec out(12);
  const RankOneQp warm = random_qp(rng, 12);
  solve_rank_one_qp_capped_into(warm, 3.0, out.span(), scratch);
  solve_rank_one_qp_simplex_into(warm, 3.0, out.span(), scratch);
  const double* thresholds = scratch.thresholds.data();
  const double* selection = scratch.selection.data();
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t n = static_cast<std::size_t>(rng.uniform_int(1, 12));
    const RankOneQp qp = random_qp(rng, n);
    const double bound = rng.uniform(0.1, 5.0);
    Vec x(n);
    solve_rank_one_qp_simplex_into(qp, bound, x.span(), scratch);
    EXPECT_EQ(x.raw(), solve_simplex(qp, bound).raw());
    solve_rank_one_qp_capped_into(qp, bound, x.span(), scratch);
    EXPECT_EQ(x.raw(), solve_capped(qp, bound).raw());
    EXPECT_EQ(scratch.thresholds.data(), thresholds);
    EXPECT_EQ(scratch.selection.data(), selection);
  }
}

// ---------------------------------------------------------------------------
// Coupling hints: probed first, and never allowed to change a bit.

std::vector<std::uint64_t> bits(const Vec& x) {
  std::vector<std::uint64_t> out;
  for (double e : x) out.push_back(std::bit_cast<std::uint64_t>(e));
  return out;
}

/// Solves with `hint` in a fresh scratch and returns its probe count in
/// `probes`.
Vec solve_with_hint(const RankOneQp& qp, double bound, bool capped,
                    double hint, std::uint64_t& probes) {
  RankOneQpScratch scratch;
  Vec x(qp.direction.size());
  if (capped) {
    solve_rank_one_qp_capped_into(qp, bound, x.span(), scratch, hint);
  } else {
    solve_rank_one_qp_simplex_into(qp, bound, x.span(), scratch, hint);
  }
  probes = scratch.probes;
  return x;
}

Vec solve_with_hint(const RankOneQp& qp, double bound, bool capped,
                    double hint) {
  std::uint64_t probes = 0;
  return solve_with_hint(qp, bound, capped, hint, probes);
}

/// Couplings at which the piece of the optimum x ends. With S the support of
/// x, coordinate i meets the simplex threshold where
///   |S| (g_i + c s v_i) = sum_S g + c s sum_S v + rho bound,
/// and the zero threshold of the free search where g_i + c s v_i = 0.
std::vector<double> breakpoints(const RankOneQp& qp, double bound,
                                const Vec& x) {
  const double c = qp.curvature;
  double count = 0.0;
  double g_sum = 0.0;
  double v_sum = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    if (!(x[i] > 0.0)) continue;
    count += 1.0;
    g_sum += qp.linear[i];
    v_sum += qp.direction[i];
  }
  std::vector<double> out;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double g = qp.linear[i];
    const double v = qp.direction[i];
    out.push_back((g_sum + qp.tikhonov * bound - count * g) /
                  (c * (count * v - v_sum)));
    out.push_back(-g / (c * v));
  }
  std::erase_if(out, [](double s) { return !(s > 0.0 && std::isfinite(s)); });
  return out;
}

/// Solves the simplex and the capped problem with no hint, then with hints
/// at the optimum, next to it, on the piece's breakpoints, at random points
/// of the feasible range and at values that are no coupling at all; every
/// hinted solve must return the cold solve's bits.
void expect_hints_keep_the_bits(const RankOneQp& qp, double bound, Rng& rng) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const double upper = bound * max_abs(qp.direction);
  for (bool capped : {false, true}) {
    const Vec cold = solve_with_hint(qp, bound, capped, 0.0);
    const double optimum = dot(qp.direction, cold);
    std::vector<double> hints = {
        optimum, std::nextafter(optimum, 0.0), std::nextafter(optimum, kInf),
        -0.0, -1.0, -optimum, std::numeric_limits<double>::quiet_NaN(), kInf,
        -kInf, upper, std::nextafter(upper, kInf), 2.0 * upper + 1.0, 1e300,
        std::numeric_limits<double>::denorm_min()};
    for (double s : breakpoints(qp, bound, cold)) {
      hints.push_back(s);
      hints.push_back(std::nextafter(s, 0.0));
      hints.push_back(std::nextafter(s, kInf));
    }
    for (int k = 0; k < 4; ++k) hints.push_back(rng.uniform(0.0, upper));
    for (double hint : hints) {
      EXPECT_EQ(bits(solve_with_hint(qp, bound, capped, hint)), bits(cold))
          << (capped ? "capped" : "simplex") << ", hint " << hint;
    }
  }
}

TEST(RankOneQpCouplingHint, RandomInputsKeepTheColdBits) {
  for (std::uint64_t seed = 1; seed <= 48; ++seed) {
    Rng rng(seed + 1300);
    const std::size_t n = static_cast<std::size_t>(rng.uniform_int(1, 64));
    const RankOneQp qp = random_qp(rng, n);
    expect_hints_keep_the_bits(qp, rng.uniform(0.0, 10.0), rng);
  }
  // Paper-shaped lambda rows (M = 10, N = 4) and a columns (v = 1).
  Rng rng(1400);
  for (int trial = 0; trial < 40; ++trial) {
    const double arrival = rng.uniform(100.0, 12000.0);
    RankOneQp row;
    row.curvature = 2.0 * 10.0 / arrival;
    row.tikhonov = 0.3;
    row.direction = Vec(4);
    row.linear = Vec(4);
    for (std::size_t j = 0; j < 4; ++j) {
      row.direction[j] = rng.uniform(0.005, 0.06);
      row.linear[j] = -rng.uniform(-5.0, 5.0) -
                      0.3 * rng.uniform(0.0, arrival / 2.0);
    }
    expect_hints_keep_the_bits(row, arrival, rng);
    const double beta = rng.uniform(1e-4, 3e-4);
    RankOneQp column;
    column.curvature = 0.3 * beta * beta;
    column.tikhonov = 0.3;
    column.direction = Vec(10, 1.0);
    column.linear = Vec(10);
    for (std::size_t i = 0; i < 10; ++i)
      column.linear[i] =
          rng.uniform(-30.0, 30.0) - 0.3 * rng.uniform(0.0, 3000.0);
    expect_hints_keep_the_bits(
        column, rng.uniform(1.7e4, 2.3e4) * (trial % 3 == 0 ? 0.01 : 1.0),
        rng);
  }
}

TEST(RankOneQpCouplingHint, DegenerateFixturesKeepTheColdBits) {
  Rng rng(1500);
  // Tied thresholds and zero directions.
  RankOneQp tied;
  tied.curvature = 3.0;
  tied.tikhonov = 0.5;
  tied.direction = Vec{0.0, 0.04, 0.04, 0.0, 0.1, 0.04};
  tied.linear = Vec{1.0, 1.0, 1.0, 1.0, -2.0, 1.0};
  for (double bound : {0.0, 0.01, 1.0, 7.5})
    expect_hints_keep_the_bits(tied, bound, rng);
  tied.direction = Vec(6, 0.0);
  for (double bound : {0.01, 1.0, 7.5})
    expect_hints_keep_the_bits(tied, bound, rng);
  for (int trial = 0; trial < 50; ++trial) {
    RankOneQp q;
    q.curvature = rng.uniform(0.0, 20.0);
    q.tikhonov = rng.uniform(0.1, 2.0);
    const std::size_t n = static_cast<std::size_t>(rng.uniform_int(2, 12));
    q.direction = Vec(n);
    q.linear = Vec(n);
    for (std::size_t i = 0; i < n; ++i) {
      q.direction[i] = 0.05 * static_cast<double>(rng.uniform_int(0, 2));
      q.linear[i] = static_cast<double>(rng.uniform_int(-2, 2));
    }
    expect_hints_keep_the_bits(q, rng.uniform(0.0, 5.0), rng);
  }
  // Zero v on the whole support, positive v off it: the optimal coupling is
  // exactly 0, which the cold search returns from its first probe.
  for (int trial = 0; trial < 20; ++trial) {
    RankOneQp q = random_qp(rng, 6);
    for (std::size_t i = 0; i < 3; ++i) {
      q.direction[i] = 0.0;
      q.linear[i] = rng.uniform(-5.0, -4.0);
      q.direction[i + 3] = rng.uniform(0.01, 0.1);
      q.linear[i + 3] = rng.uniform(50.0, 60.0);
    }
    expect_hints_keep_the_bits(q, rng.uniform(0.1, 3.0), rng);
  }
  // c = 0.
  RankOneQp flat = random_qp(rng, 7);
  flat.curvature = 0.0;
  expect_hints_keep_the_bits(flat, 2.5, rng);
  // n = 1.
  RankOneQp one;
  one.curvature = 4.0;
  one.tikhonov = 0.7;
  one.direction = Vec{0.03};
  one.linear = Vec{-1.5};
  for (double bound : {0.5, 3.0, 100.0})
    expect_hints_keep_the_bits(one, bound, rng);
  // The optimum exactly on an active-set breakpoint.
  for (int trial = 0; trial < 20; ++trial) {
    const RankOneQp base = breakpoint_base(rng);
    const double total = rng.uniform(0.5, 5.0);
    expect_hints_keep_the_bits(
        add_coordinate_on_the_breakpoint(base, total, rng.uniform(0.0, 0.1)),
        total, rng);
  }
  // The optimal piece about 2e-16 wide.
  expect_hints_keep_the_bits(narrow_piece_qp(), kNarrowPieceTotal, rng);
  // Totals far below the rounding of g, and a stiff coupling.
  RankOneQp tiny;
  tiny.curvature = 5.0;
  tiny.tikhonov = 0.3;
  tiny.direction = Vec{0.01, 0.02, 0.03};
  tiny.linear = Vec{1000.0, 1001.0, 1002.0};
  for (double bound : {1e-14, 1e-12})
    expect_hints_keep_the_bits(tiny, bound, rng);
  RankOneQp stiff;
  stiff.curvature = 1e6;
  stiff.tikhonov = 2.5e-4;
  stiff.direction = Vec{6.7, 0.03};
  stiff.linear = Vec{-100.0, 0.0};
  expect_hints_keep_the_bits(stiff, 1e-6, rng);
}

TEST(RankOneQpCouplingHint, HintAtTheOptimumCertifiesInOneProbe) {
  int checked = 0;
  for (std::uint64_t seed = 1; seed <= 48; ++seed) {
    Rng rng(seed + 1600);
    const std::size_t n = static_cast<std::size_t>(rng.uniform_int(2, 64));
    const RankOneQp qp = random_qp(rng, n);
    const double bound = rng.uniform(0.1, 10.0);
    // The simplex, and the capped problem with a cap that never binds.
    for (bool capped : {false, true}) {
      const double b = capped ? 1e6 : bound;
      std::uint64_t cold_probes = 0;
      const Vec cold = solve_with_hint(qp, b, capped, 0.0, cold_probes);
      const double optimum = dot(qp.direction, cold);
      EXPECT_GE(cold_probes, 1u);
      if (!(optimum > 0.0)) continue;
      std::uint64_t probes = 0;
      const Vec x = solve_with_hint(qp, b, capped, optimum, probes);
      EXPECT_EQ(probes, 1u) << "seed " << seed << (capped ? " capped" : "");
      EXPECT_EQ(bits(x), bits(cold));
      ++checked;
    }
  }
  EXPECT_GE(checked, 80);
}

TEST(RankOneQpCouplingHint, ProbeCounterAccumulatesAndZeroBoundsProbeNothing) {
  Rng rng(1700);
  const RankOneQp qp = random_qp(rng, 9);
  RankOneQpScratch scratch;
  Vec x(9);
  solve_rank_one_qp_simplex_into(qp, 0.0, x.span(), scratch, 1.0);
  solve_rank_one_qp_capped_into(qp, 0.0, x.span(), scratch, 1.0);
  EXPECT_EQ(scratch.probes, 0u);
  std::uint64_t first = 0;
  std::uint64_t second = 0;
  (void)solve_with_hint(qp, 2.0, false, 0.0, first);
  (void)solve_with_hint(qp, 3.0, true, 0.0, second);
  solve_rank_one_qp_simplex_into(qp, 2.0, x.span(), scratch);
  solve_rank_one_qp_capped_into(qp, 3.0, x.span(), scratch);
  EXPECT_EQ(scratch.probes, first + second);
}

TEST(RankOneQp, InvalidInputsThrow) {
  RankOneQp qp;
  qp.direction = Vec{1.0};
  qp.linear = Vec{0.0};
  qp.tikhonov = 0.0;
  EXPECT_THROW(solve_simplex(qp, 1.0), ContractViolation);
  qp.tikhonov = 1.0;
  qp.curvature = -1.0;
  EXPECT_THROW(solve_simplex(qp, 1.0), ContractViolation);
  qp.curvature = 1.0;
  qp.direction = Vec{-1.0};
  EXPECT_THROW(solve_capped(qp, 1.0), ContractViolation);
  qp.direction = Vec{1.0};
  EXPECT_THROW(solve_simplex(qp, -1.0), ContractViolation);
  RankOneQpScratch scratch;
  Vec wrong_size(2);
  EXPECT_THROW(solve_rank_one_qp_simplex_into(qp, 1.0, wrong_size.span(),
                                              scratch),
               ContractViolation);
  EXPECT_THROW(solve_rank_one_qp_capped_into(qp, 1.0, wrong_size.span(),
                                             scratch),
               ContractViolation);
}

}  // namespace
}  // namespace ufc

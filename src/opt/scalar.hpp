// One-dimensional convex minimization.
//
// The nu-minimization step (19) of the paper is a scalar convex problem
//   min_{nu >= 0} V(C*nu) + c1*nu + (rho/2)(c0 - nu)^2 .
// The nu block solves it for every convex V, affine included, by bisecting
// on the (monotone nondecreasing) derivative, which handles subdifferential
// jumps of piecewise V (e.g. stepped carbon taxes) by converging onto the
// kink. monotone_root is a template over its callable, so that bisection
// calls its derivative directly rather than through std::function.
#pragma once

#include <functional>

#include "util/contract.hpp"

namespace ufc {

struct ScalarMinimizeOptions {
  int max_iterations = 200;
  double tolerance = 1e-12;  ///< Interval width at which to stop.
};

/// Minimizes a convex function on [lo, hi], given any selection `derivative`
/// from its subdifferential (must be monotone nondecreasing in x).
/// Returns the minimizer.
double minimize_convex_scalar(const std::function<double(double)>& derivative,
                              double lo, double hi,
                              const ScalarMinimizeOptions& options = {});

/// Golden-section search for a unimodal function on [lo, hi] when no
/// derivative is available. Returns the approximate minimizer.
double golden_section_minimize(const std::function<double(double)>& f,
                               double lo, double hi,
                               const ScalarMinimizeOptions& options = {});

/// Bisection root of a monotone nondecreasing function on [lo, hi].
/// If g(lo) >= 0 returns lo; if g(hi) <= 0 returns hi.
template <class Function>
double monotone_root(const Function& g, double lo, double hi,
                     const ScalarMinimizeOptions& options = {}) {
  UFC_EXPECTS(lo <= hi);
  if (g(lo) >= 0.0) return lo;
  if (g(hi) <= 0.0) return hi;
  double a = lo;
  double b = hi;
  for (int k = 0; k < options.max_iterations && (b - a) > options.tolerance;
       ++k) {
    const double mid = 0.5 * (a + b);
    if (g(mid) >= 0.0)
      b = mid;
    else
      a = mid;
  }
  return 0.5 * (a + b);
}

}  // namespace ufc

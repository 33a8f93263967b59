#include "opt/scalar.hpp"

#include <cmath>

#include "util/contract.hpp"

namespace ufc {

double minimize_convex_scalar(const std::function<double(double)>& derivative,
                              double lo, double hi,
                              const ScalarMinimizeOptions& options) {
  UFC_EXPECTS(lo <= hi);
  UFC_EXPECTS(options.max_iterations > 0);
  // For convex f, f' is nondecreasing; the minimizer over [lo, hi] is the
  // projection of the root of f' onto the interval.
  return monotone_root(derivative, lo, hi, options);
}

double golden_section_minimize(const std::function<double(double)>& f,
                               double lo, double hi,
                               const ScalarMinimizeOptions& options) {
  UFC_EXPECTS(lo <= hi);
  constexpr double inv_phi = 0.6180339887498949;  // 1/phi
  double a = lo;
  double b = hi;
  double x1 = b - inv_phi * (b - a);
  double x2 = a + inv_phi * (b - a);
  double f1 = f(x1);
  double f2 = f(x2);
  for (int k = 0; k < options.max_iterations && (b - a) > options.tolerance;
       ++k) {
    if (f1 <= f2) {
      b = x2;
      x2 = x1;
      f2 = f1;
      x1 = b - inv_phi * (b - a);
      f1 = f(x1);
    } else {
      a = x1;
      x1 = x2;
      f1 = f2;
      x2 = a + inv_phi * (b - a);
      f2 = f(x2);
    }
  }
  return 0.5 * (a + b);
}

}  // namespace ufc

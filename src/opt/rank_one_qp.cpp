#include "opt/rank_one_qp.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>

#include "math/projections.hpp"
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

/// Bound on probes. Every probe either lands on a piece not seen before or
/// halves the bracket, and halving from the first bracket down to adjacent
/// doubles takes about a hundred steps on any sensibly scaled problem.
constexpr int kMaxProbes = 200;

/// Relative slack of the KKT sign test. A coordinate whose gap
/// theta - g_i - c s v_i lies within a few roundings of zero sits on a
/// breakpoint, where the pieces on both sides give the same solution.
constexpr double kKktSlack = 64.0 * std::numeric_limits<double>::epsilon();

/// Sums of one active set S that fix the linear piece of F through it.
struct Piece {
  double count = 0.0;   ///< |S|.
  double g_mean = 0.0;  ///< Mean of g over S.
  double v_mean = 0.0;  ///< Mean of v over S.
  double m_gv = 0.0;    ///< sum_S (g_i - gbar)(v_i - vbar).
  double m_vv = 0.0;    ///< sum_S (v_i - vbar)^2.
  double gap = 0.0;     ///< F(s) = v . x(theta(s), s) - s at the probe.
};

/// A KKT point, stored so that the multiplier gap of coordinate i is
///   theta - g_i - c s v_i = level - g_i + c s (v_ref - v_i),
/// i.e. theta = level + c s v_ref. A closed-form piece takes v_ref = vbar:
/// the large terms c s vbar and c s v_i then cancel exactly in v_ref - v_i
/// instead of after rounding.
struct Root {
  double level = 0.0;
  double v_ref = 0.0;
  double s = 0.0;
};

/// Finds the coupling s of one problem: on the simplex (theta re-solved per
/// s, g shifted by its minimum) or with the sum constraint inactive
/// (theta = 0, g as given). Works entirely in `scratch`.
class CouplingSearch {
 public:
  CouplingSearch(const RankOneQp& qp, bool fixed_sum, double total,
                 RankOneQpScratch& scratch)
      : g_(qp.linear.data()),
        v_(qp.direction.data()),
        n_(qp.direction.size()),
        c_(qp.curvature),
        rho_(qp.tikhonov),
        fixed_sum_(fixed_sum),
        total_(total),
        mass_(qp.tikhonov * total),
        selection_(scratch.selection),
        probes_(scratch.probes) {
    scratch.thresholds.resize(n_);
    y_ = scratch.thresholds.data();
    if (fixed_sum_) shift_ = *std::min_element(g_, g_ + n_);
  }

  /// `hint` is probed first when it could be the coupling (see
  /// certify_hint); otherwise the search starts cold at s = 0.
  Root locate(double hint) {
    if (!(c_ > 0.0)) {
      probe(0.0);
      return {theta_at_probe(), 0.0, 0.0};
    }
    Root hinted;
    if (certify_hint(hint, hinted)) return hinted;
    double lo = 0.0;
    double hi = 0.0;
    double p = 0.0;
    for (int k = 0; k < kMaxProbes; ++k) {
      const Piece piece = probe(p);
      if (k == 0) {
        // F(0) = v . x(theta(0), 0) >= 0; zero means no coupling at all.
        if (!(piece.gap > 0.0)) return {theta_at_probe(), 0.0, 0.0};
        // On the simplex s = v . x <= total max v; with theta = 0, x shrinks
        // as s grows, so s <= v . x(0, 0) = F(0).
        hi = fixed_sum_ ? simplex_bound() : piece.gap;
      }
      (piece.gap > 0.0 ? lo : hi) = p;
      Root root;
      const bool solved = solve_piece(piece, root);
      const double slack = kKktSlack * hi;
      if (solved && root.s >= lo - slack && root.s <= hi + slack &&
          optimal(root, /*strict=*/false))
        return root;
      // Jump to this piece's root when it is inside the bracket: the next
      // probe then lands on the piece that holds it, or shrinks the bracket.
      // Otherwise bisect, down to adjacent doubles: a piece can be far
      // narrower than any fixed tolerance (its width scales with
      // rho total / c), and only probing inside it reveals its active set.
      const double mid = 0.5 * (lo + hi);
      if (!(mid > lo && mid < hi)) break;
      p = (solved && root.s > lo && root.s < hi) ? root.s : mid;
    }
    // The bracket shrank to adjacent doubles without a certified piece.
    const double s = 0.5 * (lo + hi);
    probe(s);
    return {theta_at_probe(), 0.0, s};
  }

  /// x_i = max(0, (theta - g_i - c s v_i) / rho), g shifted as the search.
  void write(const Root& root, std::span<double> out) const {
    for (std::size_t i = 0; i < n_; ++i)
      out[i] = std::max(0.0, multiplier_gap(root, i) / rho_);
  }

 private:
  double theta_at_probe() const { return fixed_sum_ ? -tau_ : 0.0; }

  /// On the simplex s = v . x <= total max v.
  double simplex_bound() const {
    return total_ * *std::max_element(v_, v_ + n_);
  }

  /// Probes the piece at `hint` and keeps its KKT point when that point is
  /// certified strictly: the root is finite, positive and (on the simplex)
  /// at most total max v, and every coordinate clears the sign test by more
  /// than its slack. The active set is then the same on a neighbourhood of
  /// the root, no neighbouring piece can certify too, and the cold search
  /// would end on this piece with the same sums, hence the same bits. A
  /// root at s = 0 is left to the cold search, which returns it by another
  /// formula.
  bool certify_hint(double hint, Root& root) {
    const double upper = fixed_sum_ ? simplex_bound()
                                    : std::numeric_limits<double>::infinity();
    if (!(hint > 0.0 && hint <= upper) || !std::isfinite(hint)) return false;
    if (!solve_piece(probe(hint), root)) return false;
    return std::isfinite(root.s) && root.s > 0.0 && root.s <= upper &&
           optimal(root, /*strict=*/true);
  }

  double multiplier_gap(const Root& root, std::size_t i) const {
    return (root.level - (g_[i] - shift_)) +
           c_ * root.s * (root.v_ref - v_[i]);
  }

  /// Evaluates the active set S(p) = {i : y_i > tau} at coupling p, where
  /// y_i = -(g_i + c p v_i) and theta(p) = -tau, and returns its piece.
  Piece probe(double p) {
    ++probes_;
    for (std::size_t i = 0; i < n_; ++i)
      y_[i] = -((g_[i] - shift_) + c_ * p * v_[i]);
    tau_ = fixed_sum_ ? simplex_threshold_condat({y_, n_}, mass_, selection_)
                      : 0.0;
    Piece piece;
    double g_sum = 0.0;
    double v_sum = 0.0;
    double vx = 0.0;
    for (std::size_t i = 0; i < n_; ++i) {
      if (!(y_[i] > tau_)) continue;
      piece.count += 1.0;
      g_sum += g_[i] - shift_;
      v_sum += v_[i];
      vx += v_[i] * (y_[i] - tau_);
    }
    piece.gap = vx / rho_ - p;
    if (!(piece.count > 0.0)) return piece;
    // Centred moments in a second pass: the simplex determinant's
    // |S| sum v^2 - (sum v)^2 cancels badly when the v_i on S are close.
    piece.g_mean = g_sum / piece.count;
    piece.v_mean = v_sum / piece.count;
    for (std::size_t i = 0; i < n_; ++i) {
      if (!(y_[i] > tau_)) continue;
      const double dv = v_[i] - piece.v_mean;
      piece.m_vv += dv * dv;
      piece.m_gv += ((g_[i] - shift_) - piece.g_mean) * dv;
    }
    return piece;
  }

  /// The KKT point of the piece's 2x2 system (see rank_one_qp.hpp).
  bool solve_piece(const Piece& piece, Root& root) const {
    if (!(piece.count > 0.0)) return false;
    if (!fixed_sum_) {
      // sum_S g v = M_gv + |S| gbar vbar, sum_S v^2 = M_vv + |S| vbar^2.
      const double gv = piece.m_gv + piece.count * piece.g_mean * piece.v_mean;
      const double vv = piece.m_vv + piece.count * piece.v_mean * piece.v_mean;
      root.s = -gv / (rho_ + c_ * vv);
      return true;
    }
    root.s = (mass_ * piece.v_mean - piece.m_gv) / (rho_ + c_ * piece.m_vv);
    root.level = piece.g_mean + mass_ / piece.count;
    root.v_ref = piece.v_mean;
    return true;
  }

  /// KKT sign conditions at `root` for the active set of the last probe:
  /// theta - g_i - c s v_i >= 0 on S and <= 0 off S, up to a slack of a few
  /// roundings. `strict` demands instead that each gap clears zero by more
  /// than that slack, on the right side.
  bool optimal(const Root& root, bool strict) const {
    for (std::size_t i = 0; i < n_; ++i) {
      const double gap = multiplier_gap(root, i);
      const double slack =
          kKktSlack * (std::abs(root.level) + std::abs(g_[i] - shift_) +
                       c_ * std::abs(root.s) * (root.v_ref + v_[i]));
      const bool active = y_[i] > tau_;
      const bool fails = strict ? (active ? !(gap > slack) : !(gap < -slack))
                                : (active ? gap < -slack : gap > slack);
      if (fails) return false;
    }
    return true;
  }

  const double* g_;
  const double* v_;
  std::size_t n_;
  double c_;
  double rho_;
  bool fixed_sum_;
  double total_;
  double mass_;  ///< rho * total (simplex only).
  double shift_ = 0.0;
  std::vector<double>& selection_;
  std::uint64_t& probes_;
  double* y_ = nullptr;
  double tau_ = 0.0;
};

/// Simplex solve for an already checked problem and total > 0.
void simplex_into(const RankOneQp& qp, double total, std::span<double> out,
                  RankOneQpScratch& scratch, double coupling_hint) {
  CouplingSearch search(qp, /*fixed_sum=*/true, total, scratch);
  search.write(search.locate(coupling_hint), out);
}

}  // namespace

void solve_rank_one_qp_simplex_into(const RankOneQp& qp, double total,
                                    std::span<double> out,
                                    RankOneQpScratch& scratch,
                                    double coupling_hint) {
  check(qp);
  UFC_EXPECTS(total >= 0.0);
  UFC_EXPECTS(out.size() == qp.direction.size());
  // ufc-lint: allow(float-equal) — exact-zero guard: zero budget pins x = 0.
  if (total == 0.0) {
    std::fill(out.begin(), out.end(), 0.0);
    return;
  }
  simplex_into(qp, total, out, scratch, coupling_hint);
}

void solve_rank_one_qp_capped_into(const RankOneQp& qp, double cap,
                                   std::span<double> out,
                                   RankOneQpScratch& scratch,
                                   double coupling_hint) {
  check(qp);
  UFC_EXPECTS(cap >= 0.0);
  UFC_EXPECTS(out.size() == qp.direction.size());
  // ufc-lint: allow(float-equal) — exact-zero guard: zero cap pins x = 0.
  if (cap == 0.0) {
    std::fill(out.begin(), out.end(), 0.0);
    return;
  }
  // First try the sum constraint inactive (theta = 0).
  CouplingSearch search(qp, /*fixed_sum=*/false, 0.0, scratch);
  search.write(search.locate(coupling_hint), out);
  double used = 0.0;
  for (double x : out) used += x;
  if (used <= cap) return;
  // The cap binds: identical to the simplex problem at total = cap.
  simplex_into(qp, cap, out, scratch, coupling_hint);
}

double rank_one_qp_value(const RankOneQp& qp, const Vec& x) {
  UFC_EXPECTS(x.size() == qp.direction.size());
  const double coupling = dot(qp.direction, x);
  return 0.5 * qp.curvature * coupling * coupling +
         0.5 * qp.tikhonov * dot(x, x) + dot(qp.linear, x);
}

}  // namespace ufc

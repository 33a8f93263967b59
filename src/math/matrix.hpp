// Dense row-major matrix, used for M x N routing variables (lambda, a),
// per-pair latencies L_ij and dual variables phi_ij.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "math/vector.hpp"
#include "util/contract.hpp"

namespace ufc {

class Mat {
 public:
  Mat() = default;
  Mat(std::size_t rows, std::size_t cols, double fill = 0.0);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t size() const { return data_.size(); }

  // Inline for the same reason as Vec::operator[]; the contract stays on.
  double& operator()(std::size_t r, std::size_t c) {
    UFC_EXPECTS(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }
  double operator()(std::size_t r, std::size_t c) const {
    UFC_EXPECTS(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }

  /// Row r as a copy.
  Vec row(std::size_t r) const;
  /// Column c as a copy.
  Vec col(std::size_t c) const;
  /// Row r as a view (rows are contiguous in the row-major layout); no copy.
  std::span<const double> row_span(std::size_t r) const;
  std::span<double> row_span(std::size_t r);
  /// Copies column c into `out` (resized to rows()); columns are strided, so
  /// a view is impossible — this is the allocation-free alternative to col().
  void col_into(std::size_t c, Vec& out) const;
  /// Overwrites row r.
  void set_row(std::size_t r, std::span<const double> values);
  /// Overwrites column c.
  void set_col(std::size_t c, std::span<const double> values);

  double row_sum(std::size_t r) const;
  double col_sum(std::size_t c) const;

  /// Writes the transpose into `out` (resized to cols() x rows()). Uses a
  /// cache-blocked kernel so both source rows and destination rows stay in
  /// cache: this is how the per-datacenter pass of the ADM-G engine obtains
  /// contiguous column views without striding row-major memory. `out` must
  /// not alias *this.
  void transpose_into(Mat& out) const;

  void fill(double value);

  Mat& operator+=(const Mat& other);
  Mat& operator-=(const Mat& other);
  Mat& operator*=(double scalar);

  const std::vector<double>& raw() const { return data_; }
  double* data() { return data_.data(); }
  const double* data() const { return data_.data(); }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

/// Frobenius norm of the element-wise difference.
double max_abs_diff(const Mat& a, const Mat& b);
double frobenius_norm(const Mat& m);
double sum(const Mat& m);

}  // namespace ufc

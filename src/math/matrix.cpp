#include "math/matrix.hpp"

#include <algorithm>
#include <cmath>

#include "util/contract.hpp"

namespace ufc {

// ufc-lint: allow(expects-reach) — total: every shape, the empty one
// included, and every fill value make a valid matrix.
Mat::Mat(std::size_t rows, std::size_t cols, double fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

Vec Mat::row(std::size_t r) const {
  UFC_EXPECTS(r < rows_);
  Vec out(cols_);
  for (std::size_t c = 0; c < cols_; ++c) out[c] = data_[r * cols_ + c];
  return out;
}

Vec Mat::col(std::size_t c) const {
  UFC_EXPECTS(c < cols_);
  Vec out(rows_);
  for (std::size_t r = 0; r < rows_; ++r) out[r] = data_[r * cols_ + c];
  return out;
}

std::span<const double> Mat::row_span(std::size_t r) const {
  UFC_EXPECTS(r < rows_);
  return {data_.data() + r * cols_, cols_};
}

std::span<double> Mat::row_span(std::size_t r) {
  UFC_EXPECTS(r < rows_);
  return {data_.data() + r * cols_, cols_};
}

void Mat::col_into(std::size_t c, Vec& out) const {
  UFC_EXPECTS(c < cols_);
  out.resize(rows_);
  for (std::size_t r = 0; r < rows_; ++r) out[r] = data_[r * cols_ + c];
}

void Mat::set_row(std::size_t r, std::span<const double> values) {
  UFC_EXPECTS(r < rows_);
  UFC_EXPECTS(values.size() == cols_);
  for (std::size_t c = 0; c < cols_; ++c) data_[r * cols_ + c] = values[c];
}

void Mat::set_col(std::size_t c, std::span<const double> values) {
  UFC_EXPECTS(c < cols_);
  UFC_EXPECTS(values.size() == rows_);
  for (std::size_t r = 0; r < rows_; ++r) data_[r * cols_ + c] = values[r];
}

double Mat::row_sum(std::size_t r) const {
  UFC_EXPECTS(r < rows_);
  double total = 0.0;
  for (std::size_t c = 0; c < cols_; ++c) total += data_[r * cols_ + c];
  return total;
}

double Mat::col_sum(std::size_t c) const {
  UFC_EXPECTS(c < cols_);
  double total = 0.0;
  for (std::size_t r = 0; r < rows_; ++r) total += data_[r * cols_ + c];
  return total;
}

void Mat::transpose_into(Mat& out) const {
  UFC_EXPECTS(&out != this);
  if (out.rows_ != cols_ || out.cols_ != rows_) out = Mat(cols_, rows_);
  // 32x32 tiles (8 KiB) keep one row stripe of the source and one column
  // stripe of the destination resident in L1 together, so every cache line
  // touched is fully consumed before eviction.
  constexpr std::size_t kBlock = 32;
  for (std::size_t rb = 0; rb < rows_; rb += kBlock) {
    const std::size_t rend = std::min(rows_, rb + kBlock);
    for (std::size_t cb = 0; cb < cols_; cb += kBlock) {
      const std::size_t cend = std::min(cols_, cb + kBlock);
      for (std::size_t r = rb; r < rend; ++r)
        for (std::size_t c = cb; c < cend; ++c)
          out.data_[c * rows_ + r] = data_[r * cols_ + c];
    }
  }
}

// ufc-lint: allow(expects-reach) — total: any value fills any matrix.
void Mat::fill(double value) {
  std::fill(data_.begin(), data_.end(), value);
}

Mat& Mat::operator+=(const Mat& other) {
  UFC_EXPECTS(rows_ == other.rows_ && cols_ == other.cols_);
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += other.data_[i];
  return *this;
}

Mat& Mat::operator-=(const Mat& other) {
  UFC_EXPECTS(rows_ == other.rows_ && cols_ == other.cols_);
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] -= other.data_[i];
  return *this;
}

// ufc-lint: allow(expects-reach) — total: any scalar scales any matrix.
Mat& Mat::operator*=(double scalar) {
  for (auto& x : data_) x *= scalar;
  return *this;
}

double max_abs_diff(const Mat& a, const Mat& b) {
  UFC_EXPECTS(a.rows() == b.rows() && a.cols() == b.cols());
  double m = 0.0;
  for (std::size_t i = 0; i < a.raw().size(); ++i)
    m = std::max(m, std::abs(a.raw()[i] - b.raw()[i]));
  return m;
}

// ufc-lint: allow(expects-reach) — total reduction, defined for any matrix
// including the empty one.
double frobenius_norm(const Mat& m) {
  double total = 0.0;
  for (double x : m.raw()) total += x * x;
  return std::sqrt(total);
}

// ufc-lint: allow(expects-reach) — total reduction.
double sum(const Mat& m) {
  double total = 0.0;
  for (double x : m.raw()) total += x;
  return total;
}

}  // namespace ufc

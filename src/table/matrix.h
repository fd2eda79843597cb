#ifndef TABSKETCH_TABLE_MATRIX_H_
#define TABSKETCH_TABLE_MATRIX_H_

#include <cstddef>
#include <span>
#include <vector>

#include "util/logging.h"

namespace tabsketch::table {

class TableView;

/// Dense row-major matrix of doubles: the in-memory representation of tabular
/// data (e.g. rows = collection stations, columns = time bins).
///
/// This is the owning storage type; non-owning rectangular windows over it are
/// expressed as TableView. Copyable and movable.
class Matrix {
 public:
  /// Empty 0x0 matrix.
  Matrix() = default;

  /// Zero-initialized rows x cols matrix.
  Matrix(size_t rows, size_t cols)
      : rows_(rows), cols_(cols), values_(rows * cols, 0.0) {}

  /// Builds from row-major values; `values.size()` must equal rows*cols.
  Matrix(size_t rows, size_t cols, std::vector<double> values);

  Matrix(const Matrix&) = default;
  Matrix& operator=(const Matrix&) = default;
  Matrix(Matrix&&) = default;
  Matrix& operator=(Matrix&&) = default;

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  size_t size() const { return values_.size(); }
  bool empty() const { return values_.empty(); }

  double& At(size_t r, size_t c) {
    TABSKETCH_DCHECK(r < rows_ && c < cols_)
        << "(" << r << "," << c << ") out of " << rows_ << "x" << cols_;
    return values_[r * cols_ + c];
  }
  double At(size_t r, size_t c) const {
    TABSKETCH_DCHECK(r < rows_ && c < cols_)
        << "(" << r << "," << c << ") out of " << rows_ << "x" << cols_;
    return values_[r * cols_ + c];
  }

  double& operator()(size_t r, size_t c) { return At(r, c); }
  double operator()(size_t r, size_t c) const { return At(r, c); }

  /// Row r as a contiguous span of cols() doubles.
  std::span<double> Row(size_t r) {
    TABSKETCH_DCHECK(r < rows_);
    return {values_.data() + r * cols_, cols_};
  }
  std::span<const double> Row(size_t r) const {
    TABSKETCH_DCHECK(r < rows_);
    return {values_.data() + r * cols_, cols_};
  }

  /// All values in row-major order.
  std::span<double> Values() { return values_; }
  std::span<const double> Values() const { return values_; }

  /// Sets every entry to `value`.
  void Fill(double value);

  /// View covering the whole matrix.
  TableView View() const;

  /// View of the rectangle with top-left (row, col) spanning rows x cols
  /// entries. Bounds-checked.
  TableView Window(size_t row, size_t col, size_t rows, size_t cols) const;

  friend bool operator==(const Matrix& a, const Matrix& b) {
    return a.rows_ == b.rows_ && a.cols_ == b.cols_ && a.values_ == b.values_;
  }

 private:
  size_t rows_ = 0;
  size_t cols_ = 0;
  std::vector<double> values_;
};

/// Non-owning read-only rectangular window into a Matrix (a "subtable" in the
/// paper's terminology). Cheap to copy; the parent Matrix must outlive it.
class TableView {
 public:
  /// Empty view.
  TableView() = default;

  /// View of `rows` x `cols` starting at `origin` with row stride
  /// `row_stride` (the parent's column count).
  TableView(const double* origin, size_t rows, size_t cols, size_t row_stride)
      : origin_(origin), rows_(rows), cols_(cols), row_stride_(row_stride) {}

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  size_t size() const { return rows_ * cols_; }
  bool empty() const { return size() == 0; }
  /// Distance in doubles between the starts of consecutive rows.
  size_t row_stride() const { return row_stride_; }

  double At(size_t r, size_t c) const {
    TABSKETCH_DCHECK(r < rows_ && c < cols_)
        << "(" << r << "," << c << ") out of " << rows_ << "x" << cols_;
    return origin_[r * row_stride_ + c];
  }
  double operator()(size_t r, size_t c) const { return At(r, c); }

  /// Row r as a contiguous span (rows of a view are always contiguous).
  std::span<const double> Row(size_t r) const {
    TABSKETCH_DCHECK(r < rows_);
    return {origin_ + r * row_stride_, cols_};
  }

  /// Copies the view into an owning row-major Matrix.
  Matrix ToMatrix() const;

  /// Copies the view into `out` in row-major order ("linearized in some
  /// consistent way", paper Section 3.2). `out` is resized to size().
  void Linearize(std::vector<double>* out) const;

 private:
  const double* origin_ = nullptr;
  size_t rows_ = 0;
  size_t cols_ = 0;
  size_t row_stride_ = 0;
};

}  // namespace tabsketch::table

#endif  // TABSKETCH_TABLE_MATRIX_H_

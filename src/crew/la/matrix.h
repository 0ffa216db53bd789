#ifndef CREW_LA_MATRIX_H_
#define CREW_LA_MATRIX_H_

#include <cstddef>
#include <vector>

#include "crew/common/dcheck.h"
#include "crew/la/vector_ops.h"

namespace crew::la {

/// Dense row-major matrix of doubles.
///
/// Deliberately minimal: the library needs matrix-vector products, Gram
/// matrices and factorizations for ridge regression and truncated SVD; it is
/// not a general-purpose BLAS.
class Matrix {
 public:
  Matrix() : rows_(0), cols_(0) {}
  Matrix(int rows, int cols, double fill = 0.0)
      : rows_(rows), cols_(cols),
        data_(static_cast<size_t>(rows) * cols, fill) {}

  int rows() const { return rows_; }
  int cols() const { return cols_; }

  double& At(int r, int c) {
    CREW_DCHECK_BOUNDS(r, rows_);
    CREW_DCHECK_BOUNDS(c, cols_);
    return data_[static_cast<size_t>(r) * cols_ + c];
  }
  double At(int r, int c) const {
    CREW_DCHECK_BOUNDS(r, rows_);
    CREW_DCHECK_BOUNDS(c, cols_);
    return data_[static_cast<size_t>(r) * cols_ + c];
  }

  /// Pointer to the start of row `r` (contiguous, `cols()` entries).
  double* Row(int r) {
    CREW_DCHECK_BOUNDS(r, rows_);
    return data_.data() + static_cast<size_t>(r) * cols_;
  }
  const double* Row(int r) const {
    CREW_DCHECK_BOUNDS(r, rows_);
    return data_.data() + static_cast<size_t>(r) * cols_;
  }

  /// Copies row `r` into a Vec.
  Vec RowVec(int r) const;

  /// Sets row `r` from `v` (size must equal cols()).
  void SetRow(int r, const Vec& v);

  /// this * x  (x.size() == cols()), one RowDots over all rows.
  Vec MatVec(const Vec& x) const;

  /// this^T * x  (x.size() == rows()).
  Vec MatTVec(const Vec& x) const;

  /// Matrix product this * other.
  Matrix MatMul(const Matrix& other) const;

  /// this^T * this, a cols() x cols() Gram matrix.
  Matrix Gram() const;

  Matrix Transposed() const;

  const std::vector<double>& data() const { return data_; }
  std::vector<double>& data() { return data_; }

 private:
  int rows_;
  int cols_;
  std::vector<double> data_;
};

/// Dot products of `n` rows with one vector `x` of length `d`, computed
/// together:
///
///   double s = init ? init[k] : 0.0;
///   for (int j = 0; j < d; ++j) s += rows[k][j] * x[j];
///   out[k] = s;
///
/// Each row keeps exactly that order of operations, so every result is
/// bit-identical to the scalar loop above. What changes is that up to eight
/// rows share one pass over `x`, each with its own accumulator: the chains
/// are independent, so their adds overlap instead of each waiting on the
/// one before (the compiler may not reorder a single chain's sum).
///
/// This overload takes the rows by pointer (gathered rows, e.g. embedding
/// rows by token id); `out` must not alias a row or `x`.
void RowDots(const double* const* rows, int n, const double* x, int d,
             const double* init, double* out);

/// RowDots over `n` rows stored `stride` doubles apart starting at `rows`
/// (a row-major block such as a Matrix's data).
void RowDots(const double* rows, size_t stride, int n, const double* x, int d,
             const double* init, double* out);

/// Solves the symmetric positive-definite system A x = b via Cholesky.
/// Returns false if A is not (numerically) positive definite.
bool CholeskySolve(const Matrix& a, const Vec& b, Vec* x);

}  // namespace crew::la

#endif  // CREW_LA_MATRIX_H_

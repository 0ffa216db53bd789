#include "crew/la/matrix.h"

#include <cmath>

#include "crew/common/dcheck.h"

namespace crew::la {
namespace {

// One pass over `x` for rows [first, first + N): N independent chains, each
// summed in the scalar loop's order. `row_at(k)` yields row k's pointer.
template <int N, typename RowAt>
void DotBlock(const RowAt& row_at, int first, const double* x, int d,
              const double* init, double* out) {
  const double* r[N];
  double s[N];
  for (int k = 0; k < N; ++k) {
    r[k] = row_at(first + k);
    s[k] = init != nullptr ? init[first + k] : 0.0;
  }
  for (int j = 0; j < d; ++j) {
    const double xj = x[j];
    for (int k = 0; k < N; ++k) s[k] += r[k][j] * xj;
  }
  for (int k = 0; k < N; ++k) out[first + k] = s[k];
}

template <typename RowAt>
void RowDotsImpl(const RowAt& row_at, int n, const double* x, int d,
                 const double* init, double* out) {
  int first = 0;
  for (; first + 8 <= n; first += 8) {
    DotBlock<8>(row_at, first, x, d, init, out);
  }
  switch (n - first) {
    case 7: DotBlock<7>(row_at, first, x, d, init, out); break;
    case 6: DotBlock<6>(row_at, first, x, d, init, out); break;
    case 5: DotBlock<5>(row_at, first, x, d, init, out); break;
    case 4: DotBlock<4>(row_at, first, x, d, init, out); break;
    case 3: DotBlock<3>(row_at, first, x, d, init, out); break;
    case 2: DotBlock<2>(row_at, first, x, d, init, out); break;
    case 1: DotBlock<1>(row_at, first, x, d, init, out); break;
    default: break;
  }
}

}  // namespace

void RowDots(const double* const* rows, int n, const double* x, int d,
             const double* init, double* out) {
  RowDotsImpl([rows](int k) { return rows[k]; }, n, x, d, init, out);
}

void RowDots(const double* rows, size_t stride, int n, const double* x, int d,
             const double* init, double* out) {
  RowDotsImpl([rows, stride](int k) { return rows + k * stride; }, n, x, d,
              init, out);
}

Vec Matrix::RowVec(int r) const {
  CREW_DCHECK(r >= 0 && r < rows_);
  return Vec(Row(r), Row(r) + cols_);
}

void Matrix::SetRow(int r, const Vec& v) {
  CREW_DCHECK(static_cast<int>(v.size()) == cols_);
  double* dst = Row(r);
  for (int c = 0; c < cols_; ++c) dst[c] = v[c];
}

Vec Matrix::MatVec(const Vec& x) const {
  CREW_DCHECK(static_cast<int>(x.size()) == cols_);
  Vec out(rows_, 0.0);
  RowDots(data_.data(), cols_, rows_, x.data(), cols_, nullptr, out.data());
  return out;
}

Vec Matrix::MatTVec(const Vec& x) const {
  CREW_DCHECK(static_cast<int>(x.size()) == rows_);
  Vec out(cols_, 0.0);
  for (int r = 0; r < rows_; ++r) {
    const double* row = Row(r);
    const double xr = x[r];
    if (xr == 0.0) continue;
    for (int c = 0; c < cols_; ++c) out[c] += row[c] * xr;
  }
  return out;
}

Matrix Matrix::MatMul(const Matrix& other) const {
  CREW_CHECK(cols_ == other.rows_);
  Matrix out(rows_, other.cols_);
  for (int r = 0; r < rows_; ++r) {
    const double* arow = Row(r);
    double* orow = out.Row(r);
    for (int k = 0; k < cols_; ++k) {
      const double a = arow[k];
      if (a == 0.0) continue;
      const double* brow = other.Row(k);
      for (int c = 0; c < other.cols_; ++c) orow[c] += a * brow[c];
    }
  }
  return out;
}

Matrix Matrix::Gram() const {
  Matrix out(cols_, cols_);
  for (int r = 0; r < rows_; ++r) {
    const double* row = Row(r);
    for (int i = 0; i < cols_; ++i) {
      const double ri = row[i];
      if (ri == 0.0) continue;
      double* orow = out.Row(i);
      for (int j = 0; j < cols_; ++j) orow[j] += ri * row[j];
    }
  }
  return out;
}

Matrix Matrix::Transposed() const {
  Matrix out(cols_, rows_);
  for (int r = 0; r < rows_; ++r) {
    for (int c = 0; c < cols_; ++c) out.At(c, r) = At(r, c);
  }
  return out;
}

bool CholeskySolve(const Matrix& a, const Vec& b, Vec* x) {
  CREW_CHECK(a.rows() == a.cols());
  CREW_CHECK(static_cast<int>(b.size()) == a.rows());
  const int n = a.rows();
  Matrix l(n, n);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j <= i; ++j) {
      double s = a.At(i, j);
      for (int k = 0; k < j; ++k) s -= l.At(i, k) * l.At(j, k);
      if (i == j) {
        if (s <= 0.0) return false;
        l.At(i, i) = std::sqrt(s);
      } else {
        l.At(i, j) = s / l.At(j, j);
      }
    }
  }
  // Forward substitution: L y = b.
  Vec y(n, 0.0);
  for (int i = 0; i < n; ++i) {
    double s = b[i];
    for (int k = 0; k < i; ++k) s -= l.At(i, k) * y[k];
    y[i] = s / l.At(i, i);
  }
  // Back substitution: L^T x = y.
  x->assign(n, 0.0);
  for (int i = n - 1; i >= 0; --i) {
    double s = y[i];
    for (int k = i + 1; k < n; ++k) s -= l.At(k, i) * (*x)[k];
    (*x)[i] = s / l.At(i, i);
  }
  return true;
}

}  // namespace crew::la

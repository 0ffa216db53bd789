#include "crew/la/matrix.h"

#include <gtest/gtest.h>

#include <cstring>
#include <limits>

#include "crew/common/rng.h"

namespace crew::la {
namespace {

Matrix Make2x3() {
  Matrix m(2, 3);
  m.At(0, 0) = 1;
  m.At(0, 1) = 2;
  m.At(0, 2) = 3;
  m.At(1, 0) = 4;
  m.At(1, 1) = 5;
  m.At(1, 2) = 6;
  return m;
}

TEST(MatrixTest, RowAccess) {
  Matrix m = Make2x3();
  EXPECT_EQ(m.RowVec(1), (Vec{4, 5, 6}));
  m.SetRow(0, {7, 8, 9});
  EXPECT_EQ(m.RowVec(0), (Vec{7, 8, 9}));
}

TEST(MatrixTest, MatVec) {
  Matrix m = Make2x3();
  EXPECT_EQ(m.MatVec({1, 0, -1}), (Vec{-2, -2}));
}

// The scalar per-row loop RowDots promises to reproduce bit for bit.
void ScalarRowDots(const std::vector<const double*>& rows, const double* x,
                   int d, const double* init, double* out) {
  for (size_t k = 0; k < rows.size(); ++k) {
    double s = init != nullptr ? init[k] : 0.0;
    for (int j = 0; j < d; ++j) s += rows[k][j] * x[j];
    out[k] = s;
  }
}

// Fills `v` from U(-1, 1); with `special`, about one entry in six is -0.0,
// +inf, -inf or NaN instead.
void FillWithSpecials(Rng& rng, bool special, double* v, size_t n) {
  const double kSpecials[] = {-0.0, std::numeric_limits<double>::infinity(),
                              -std::numeric_limits<double>::infinity(),
                              std::numeric_limits<double>::quiet_NaN()};
  for (size_t i = 0; i < n; ++i) {
    v[i] = rng.Uniform(-1.0, 1.0);
    if (special && rng.UniformInt(6) == 0) v[i] = kSpecials[rng.UniformInt(4)];
  }
}

bool SameBytes(const Vec& a, const Vec& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

TEST(RowDotsTest, BitIdenticalToScalarLoop) {
  Rng rng(5);
  for (int h : {0, 1, 7, 8, 9, 16, 24, 33}) {
    for (int d : {0, 1, 5, 66, 231}) {
      for (bool special : {false, true}) {
        Matrix w(h, d);
        Vec x(d), init(h);
        FillWithSpecials(rng, special, w.data().data(), w.data().size());
        FillWithSpecials(rng, special, x.data(), x.size());
        FillWithSpecials(rng, special, init.data(), init.size());
        // Contiguous rows in order, and the same rows gathered in reverse.
        std::vector<const double*> rows(h);
        for (int k = 0; k < h; ++k) {
          rows[k] = w.data().data() + static_cast<size_t>(k) * d;
        }
        const std::vector<const double*> reversed(rows.rbegin(), rows.rend());
        for (bool with_init : {false, true}) {
          SCOPED_TRACE(::testing::Message()
                       << "h=" << h << " d=" << d << " special=" << special
                       << " init=" << with_init);
          const double* init_ptr = with_init ? init.data() : nullptr;
          Vec want(h), got(h, 7.0);
          ScalarRowDots(rows, x.data(), d, init_ptr, want.data());
          RowDots(w.data().data(), d, h, x.data(), d, init_ptr, got.data());
          EXPECT_TRUE(SameBytes(got, want));
          if (!with_init) {
            EXPECT_TRUE(SameBytes(w.MatVec(x), want));
          }

          ScalarRowDots(reversed, x.data(), d, init_ptr, want.data());
          std::fill(got.begin(), got.end(), 7.0);
          RowDots(reversed.data(), h, x.data(), d, init_ptr, got.data());
          EXPECT_TRUE(SameBytes(got, want));
        }
      }
    }
  }
}

TEST(MatrixTest, MatTVec) {
  Matrix m = Make2x3();
  EXPECT_EQ(m.MatTVec({1, 1}), (Vec{5, 7, 9}));
}

TEST(MatrixTest, MatMul) {
  Matrix m = Make2x3();
  Matrix id(3, 3);
  for (int i = 0; i < 3; ++i) id.At(i, i) = 1.0;
  Matrix p = m.MatMul(id);
  EXPECT_EQ(p.RowVec(0), m.RowVec(0));
  EXPECT_EQ(p.RowVec(1), m.RowVec(1));
}

TEST(MatrixTest, GramMatchesTransposeProduct) {
  Matrix m = Make2x3();
  Matrix g = m.Gram();
  Matrix expected = m.Transposed().MatMul(m);
  ASSERT_EQ(g.rows(), 3);
  ASSERT_EQ(g.cols(), 3);
  for (int i = 0; i < 3; ++i) {
    for (int j = 0; j < 3; ++j) {
      EXPECT_DOUBLE_EQ(g.At(i, j), expected.At(i, j));
    }
  }
}

TEST(MatrixTest, TransposedTwiceIsIdentity) {
  Matrix m = Make2x3();
  Matrix t = m.Transposed().Transposed();
  for (int r = 0; r < 2; ++r) {
    for (int c = 0; c < 3; ++c) EXPECT_DOUBLE_EQ(t.At(r, c), m.At(r, c));
  }
}

TEST(CholeskyTest, SolvesKnownSystem) {
  // A = [[4,2],[2,3]], b = [10, 8] -> x = [1.75, 1.5]
  Matrix a(2, 2);
  a.At(0, 0) = 4;
  a.At(0, 1) = 2;
  a.At(1, 0) = 2;
  a.At(1, 1) = 3;
  Vec x;
  ASSERT_TRUE(CholeskySolve(a, {10, 8}, &x));
  EXPECT_NEAR(x[0], 1.75, 1e-12);
  EXPECT_NEAR(x[1], 1.5, 1e-12);
}

TEST(CholeskyTest, RejectsIndefinite) {
  Matrix a(2, 2);
  a.At(0, 0) = 1;
  a.At(0, 1) = 2;
  a.At(1, 0) = 2;
  a.At(1, 1) = 1;  // eigenvalues 3, -1
  Vec x;
  EXPECT_FALSE(CholeskySolve(a, {1, 1}, &x));
}

class CholeskyPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(CholeskyPropertyTest, SolvesRandomSpdSystems) {
  const int n = GetParam();
  Rng rng(900 + n);
  // SPD via B^T B + n*I.
  Matrix b(n, n);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) b.At(i, j) = rng.Normal();
  }
  Matrix a = b.Gram();
  for (int i = 0; i < n; ++i) a.At(i, i) += n;
  Vec rhs(n);
  for (int i = 0; i < n; ++i) rhs[i] = rng.Normal();
  Vec x;
  ASSERT_TRUE(CholeskySolve(a, rhs, &x));
  const Vec residual = a.MatVec(x);
  for (int i = 0; i < n; ++i) EXPECT_NEAR(residual[i], rhs[i], 1e-8);
}

INSTANTIATE_TEST_SUITE_P(Sizes, CholeskyPropertyTest,
                         ::testing::Values(1, 2, 3, 5, 10, 25, 50));

}  // namespace
}  // namespace crew::la

//===- tests/LinalgKernelEquivalenceTests.cpp - fit kernel bit-identity ---===//
//
// Part of the OPPROX reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//
//
// The QR, Cholesky and ridge kernels in src/linalg interleave independent
// reductions through simd::axpy but promise the exact floating-point
// results of the textbook loops. This file keeps those textbook loops as
// the oracle -- column-by-column Householder QR with the rank verdict
// taken after the last column, row-order Cholesky, and the ridge normal
// equations over the full At.multiply(A) Gram -- and checks the library
// against them bit for bit on every SIMD tier the host supports.
//
//===----------------------------------------------------------------------===//

#include "linalg/Decompositions.h"
#include "linalg/LeastSquares.h"
#include "linalg/Matrix.h"
#include "ml/PolynomialFeatures.h"
#include "support/Random.h"
#include "support/Simd.h"
#include <cmath>
#include <cstring>
#include <functional>
#include <gtest/gtest.h>

using namespace opprox;

namespace {

//===----------------------------------------------------------------------===//
// Oracle: the reference loops
//===----------------------------------------------------------------------===//

/// Column-by-column Householder QR: each reflector dot product is a
/// serial loop down one column, every column is factorized, and the rank
/// verdict is taken once at the end.
struct ReferenceQr {
  Matrix Factors;
  std::vector<double> TauDiag;
  bool FullRank = true;

  explicit ReferenceQr(const Matrix &A) : Factors(A) {
    size_t M = A.rows(), N = A.cols();
    TauDiag.resize(N, 0.0);
    for (size_t K = 0; K < N; ++K) {
      double Norm = 0.0;
      for (size_t I = K; I < M; ++I)
        Norm = std::hypot(Norm, Factors.at(I, K));
      if (Norm == 0.0) {
        FullRank = false;
        TauDiag[K] = 0.0;
        continue;
      }
      if (Factors.at(K, K) < 0)
        Norm = -Norm;
      for (size_t I = K; I < M; ++I)
        Factors.at(I, K) /= Norm;
      Factors.at(K, K) += 1.0;
      for (size_t J = K + 1; J < N; ++J) {
        double S = 0.0;
        for (size_t I = K; I < M; ++I)
          S += Factors.at(I, K) * Factors.at(I, J);
        S = -S / Factors.at(K, K);
        for (size_t I = K; I < M; ++I)
          Factors.at(I, J) += S * Factors.at(I, K);
      }
      TauDiag[K] = -Norm;
    }
    double MaxDiag = 0.0;
    for (double D : TauDiag)
      MaxDiag = std::max(MaxDiag, std::fabs(D));
    for (double D : TauDiag)
      if (std::fabs(D) <= 1e-12 * std::max(MaxDiag, 1.0))
        FullRank = false;
  }

  /// First column whose diagonal is negligible against the running
  /// maximum -- where the library's early exit fires -- or cols() when
  /// none is.
  size_t exitColumn() const {
    double MaxSoFar = 0.0;
    for (size_t K = 0; K < TauDiag.size(); ++K) {
      MaxSoFar = std::max(MaxSoFar, std::fabs(TauDiag[K]));
      if (std::fabs(TauDiag[K]) <= 1e-12 * std::max(MaxSoFar, 1.0))
        return K;
    }
    return TauDiag.size();
  }

  std::optional<std::vector<double>> solve(std::vector<double> Y) const {
    if (!FullRank)
      return std::nullopt;
    size_t M = Factors.rows(), N = Factors.cols();
    for (size_t K = 0; K < N; ++K) {
      double S = 0.0;
      for (size_t I = K; I < M; ++I)
        S += Factors.at(I, K) * Y[I];
      S = -S / Factors.at(K, K);
      for (size_t I = K; I < M; ++I)
        Y[I] += S * Factors.at(I, K);
    }
    std::vector<double> X(N, 0.0);
    for (size_t KPlus1 = N; KPlus1 > 0; --KPlus1) {
      size_t K = KPlus1 - 1;
      double Sum = Y[K];
      for (size_t J = K + 1; J < N; ++J)
        Sum -= Factors.at(K, J) * X[J];
      X[K] = Sum / TauDiag[K];
    }
    return X;
  }

  Matrix rFactor() const {
    size_t N = Factors.cols();
    Matrix R(N, N);
    for (size_t I = 0; I < N; ++I) {
      R.at(I, I) = TauDiag[I];
      for (size_t J = I + 1; J < N; ++J)
        R.at(I, J) = Factors.at(I, J);
    }
    return R;
  }
};

/// Row-order Cholesky: entry (I, J) is A(I, J) minus a serial dot
/// product over K < J.
std::optional<Matrix> referenceCholesky(const Matrix &A) {
  size_t N = A.rows();
  Matrix L(N, N);
  for (size_t I = 0; I < N; ++I) {
    for (size_t J = 0; J <= I; ++J) {
      double Sum = A.at(I, J);
      for (size_t K = 0; K < J; ++K)
        Sum -= L.at(I, K) * L.at(J, K);
      if (I == J) {
        if (Sum <= 0.0)
          return std::nullopt;
        L.at(I, I) = std::sqrt(Sum);
      } else {
        L.at(I, J) = Sum / L.at(J, J);
      }
    }
  }
  return L;
}

/// Ridge over the full Gram product At.multiply(A).
std::vector<double> referenceRidge(const Matrix &A,
                                   const std::vector<double> &B,
                                   double Lambda) {
  size_t N = A.cols();
  Matrix At = A.transposed();
  Matrix AtA = At.multiply(A);
  for (size_t I = 0; I < N; ++I)
    AtA.at(I, I) += Lambda;
  std::vector<double> AtB = At.multiply(B);
  std::optional<Matrix> L = referenceCholesky(AtA);
  double Penalty = Lambda;
  while (!L) {
    Penalty *= 10.0;
    Matrix Regularized = AtA;
    for (size_t I = 0; I < N; ++I)
      Regularized.at(I, I) += Penalty;
    L = referenceCholesky(Regularized);
  }
  return choleskySolve(*L, AtB);
}

//===----------------------------------------------------------------------===//
// Helpers
//===----------------------------------------------------------------------===//

bool sameBits(const std::vector<double> &A, const std::vector<double> &B) {
  return A.size() == B.size() &&
         (A.empty() ||
          std::memcmp(A.data(), B.data(), A.size() * sizeof(double)) == 0);
}

bool sameBits(const Matrix &A, const Matrix &B) {
  if (A.rows() != B.rows() || A.cols() != B.cols())
    return false;
  for (size_t R = 0; R < A.rows(); ++R)
    if (std::memcmp(A.rowData(R), B.rowData(R), A.cols() * sizeof(double)))
      return false;
  return true;
}

/// Runs \p Body once per SIMD tier this build and CPU support, then
/// restores the tier that was active.
void forEachTier(const std::function<void()> &Body) {
  simd::Tier Original = simd::activeTier();
  for (simd::Tier T :
       {simd::Tier::Generic, simd::Tier::Avx2, simd::Tier::Neon}) {
    if (!simd::tierSupported(T))
      continue;
    ASSERT_EQ(simd::setActiveTier(T), T);
    SCOPED_TRACE(simd::tierName(T));
    Body();
  }
  simd::setActiveTier(Original);
}

std::vector<double> gaussianVector(size_t N, Rng &R) {
  std::vector<double> V(N);
  for (double &X : V)
    X = R.gaussian();
  return V;
}

Matrix gaussianMatrix(size_t Rows, size_t Cols, Rng &R) {
  Matrix A(Rows, Cols);
  for (size_t I = 0; I < Rows; ++I)
    for (size_t J = 0; J < Cols; ++J)
      A.at(I, J) = R.gaussian();
  return A;
}

/// Checks QrDecomposition and solveLeastSquares against the oracle and
/// returns the oracle's exit column.
size_t expectQrMatches(const Matrix &A, const std::vector<double> &B) {
  ReferenceQr Ref(A);
  QrDecomposition Qr(A);
  EXPECT_EQ(Qr.isFullRank(), Ref.FullRank);
  std::optional<std::vector<double>> X = Qr.solve(B);
  std::optional<std::vector<double>> XRef = Ref.solve(B);
  EXPECT_EQ(X.has_value(), XRef.has_value());
  if (X && XRef) {
    EXPECT_TRUE(sameBits(*X, *XRef)) << A.rows() << "x" << A.cols();
  }
  if (Ref.FullRank) {
    EXPECT_TRUE(sameBits(Qr.rFactor(), Ref.rFactor()))
        << A.rows() << "x" << A.cols();
  }
  std::optional<std::vector<double>> Ls = solveLeastSquares(A, B);
  EXPECT_EQ(Ls.has_value(), XRef.has_value());
  if (Ls && XRef) {
    EXPECT_TRUE(sameBits(*Ls, *XRef));
  }
  return Ref.exitColumn();
}

void expectCholeskyMatches(const Matrix &A) {
  std::optional<Matrix> L = cholesky(A);
  std::optional<Matrix> LRef = referenceCholesky(A);
  ASSERT_EQ(L.has_value(), LRef.has_value()) << A.rows() << "x" << A.cols();
  if (L) {
    EXPECT_TRUE(sameBits(*L, *LRef)) << A.rows() << "x" << A.cols();
  }
}

void expectRidgeMatches(const Matrix &A, const std::vector<double> &B,
                        double Lambda) {
  EXPECT_TRUE(sameBits(solveRidge(A, B, Lambda), referenceRidge(A, B, Lambda)))
      << A.rows() << "x" << A.cols() << " lambda " << Lambda;
}

/// Every kernel on one least-squares problem: QR when A is tall enough,
/// ridge always, and Cholesky on the regularized Gram.
size_t expectAllMatch(const Matrix &A, const std::vector<double> &B) {
  size_t Exit = A.cols();
  if (A.rows() >= A.cols())
    Exit = expectQrMatches(A, B);
  for (double Lambda : {1e-6, 1e-2})
    expectRidgeMatches(A, B, Lambda);
  Matrix AtA = A.transposed().multiply(A);
  for (size_t I = 0; I < A.cols(); ++I)
    AtA.at(I, I) += 1e-6;
  expectCholeskyMatches(AtA);
  return Exit;
}

/// Design matrix of PolynomialFeatures(NumFeatures, Degree) over rows
/// whose features are drawn from \p Levels -- the discrete approximation
/// levels the profiler samples.
Matrix polynomialDesign(size_t Rows, size_t NumFeatures, int Degree,
                        const std::vector<double> &Levels, Rng &R) {
  PolynomialFeatures Basis(NumFeatures, Degree);
  Matrix A(Rows, Basis.numTerms());
  std::vector<double> X(NumFeatures);
  for (size_t I = 0; I < Rows; ++I) {
    for (double &V : X)
      V = Levels[R.below(Levels.size())];
    std::vector<double> Terms = Basis.expand(X);
    for (size_t T = 0; T < Terms.size(); ++T)
      A.at(I, T) = Terms[T];
  }
  return A;
}

} // namespace

//===----------------------------------------------------------------------===//
// Tests
//===----------------------------------------------------------------------===//

TEST(LinalgKernelEquivalenceTest, RandomFullRank) {
  forEachTier([] {
    Rng R(101);
    const std::pair<size_t, size_t> Shapes[] = {
        {1, 1},  {5, 1},   {6, 2},   {7, 3},   {9, 4},   {10, 5},
        {17, 6}, {20, 7},  {40, 9},  {64, 13}, {50, 50}, {300, 35},
        {90, 56}};
    for (auto [M, N] : Shapes) {
      Matrix A = gaussianMatrix(M, N, R);
      EXPECT_EQ(expectAllMatch(A, gaussianVector(M, R)), N) << M << "x" << N;
    }
  });
}

TEST(LinalgKernelEquivalenceTest, EveryTailWidth) {
  // Widths 1..13 put every residue of N-K-1 mod 4 (and mod 2) through the
  // vector bodies and scalar tails of the QR update and Cholesky columns.
  forEachTier([] {
    Rng R(202);
    for (size_t N = 1; N <= 13; ++N)
      for (size_t Extra : {0, 1, 3, 8}) {
        size_t M = N + Extra;
        Matrix A = gaussianMatrix(M, N, R);
        EXPECT_EQ(expectAllMatch(A, gaussianVector(M, R)), N);
      }
  });
}

TEST(LinalgKernelEquivalenceTest, PolynomialDesignsOverDiscreteLevels) {
  // Discrete levels make high-degree monomials exact combinations of
  // lower ones, so the rank-deficiency exit fires at columns spread over
  // the whole basis -- early, midway and on the last column.
  size_t Early = 0, Midway = 0, Last = 0, Full = 0;
  forEachTier([&] {
    Early = Midway = Last = Full = 0;
    Rng R(303);
    const std::vector<std::vector<double>> LevelSets = {
        {0, 1},
        {0, 1, 2},
        {-1, 0, 1, 2},
        {0, 0.25, 0.5, 0.75, 1},
        {-1.5, -0.5, 0.5, 1.5, 2.5, 3.5}};
    for (size_t NumFeatures = 1; NumFeatures <= 4; ++NumFeatures)
      for (int Degree = 1; Degree <= 6; ++Degree)
        for (const std::vector<double> &Levels : LevelSets) {
          if (PolynomialFeatures::countTerms(NumFeatures, Degree) > 210)
            continue;
          size_t Terms = PolynomialFeatures::countTerms(NumFeatures, Degree);
          for (size_t Rows : {Terms + 5, 2 * Terms + 7}) {
            Matrix A = polynomialDesign(Rows, NumFeatures, Degree, Levels, R);
            size_t Exit = expectAllMatch(A, gaussianVector(Rows, R));
            if (Exit == Terms)
              ++Full;
            else if (Exit == Terms - 1)
              ++Last;
            else if (3 * Exit < Terms)
              ++Early;
            else
              ++Midway;
          }
        }
  });
  EXPECT_GT(Early, 0u);
  EXPECT_GT(Midway, 0u);
  EXPECT_GT(Last, 0u);
  EXPECT_GT(Full, 0u);
}

TEST(LinalgKernelEquivalenceTest, Underdetermined) {
  forEachTier([] {
    Rng R(404);
    for (auto [M, N] : {std::pair<size_t, size_t>{1, 2}, {3, 6}, {5, 9},
                        {10, 21}, {40, 56}, {100, 126}}) {
      Matrix A = gaussianMatrix(M, N, R);
      std::vector<double> B = gaussianVector(M, R);
      EXPECT_FALSE(solveLeastSquares(A, B).has_value());
      expectAllMatch(A, B);
    }
    // A polynomial basis wider than its sample set, as small CV folds of
    // high-degree candidates produce.
    Matrix A = polynomialDesign(60, 4, 5, {0, 1, 2, 3}, R);
    expectAllMatch(A, gaussianVector(60, R));
  });
}

TEST(LinalgKernelEquivalenceTest, ExactZeros) {
  forEachTier([] {
    Rng R(505);
    for (auto [M, N] : {std::pair<size_t, size_t>{8, 5}, {30, 11},
                        {12, 20}, {70, 33}}) {
      // Sparse entries, signed zeros included: the Gram skips A(K,R) == 0
      // products, which must not change any sum the oracle forms.
      Matrix A = gaussianMatrix(M, N, R);
      for (size_t I = 0; I < M; ++I)
        for (size_t J = 0; J < N; ++J)
          if (R.chance(0.5))
            A.at(I, J) = R.chance(0.5) ? 0.0 : -0.0;
      expectAllMatch(A, gaussianVector(M, R));
      // A zero column: its QR norm is exactly 0.
      Matrix Z = gaussianMatrix(M, N, R);
      for (size_t I = 0; I < M; ++I)
        Z.at(I, N / 2) = 0.0;
      size_t Exit = expectAllMatch(Z, gaussianVector(M, R));
      if (M >= N) {
        EXPECT_LE(Exit, N / 2);
      }
      // Zero rows and a zero right-hand side.
      Matrix Rows = gaussianMatrix(M, N, R);
      for (size_t J = 0; J < N; ++J)
        Rows.at(0, J) = Rows.at(M - 1, J) = 0.0;
      expectAllMatch(Rows, std::vector<double>(M, 0.0));
    }
    // The all-zero matrix: QR exits on the first column and ridge returns
    // the zero vector.
    expectAllMatch(Matrix(6, 4), gaussianVector(6, R));
  });
}

TEST(LinalgKernelEquivalenceTest, LastColumnDependent) {
  forEachTier([] {
    Rng R(606);
    for (size_t N : {2, 5, 8, 13, 30}) {
      Matrix A = gaussianMatrix(N + 4, N, R);
      for (size_t I = 0; I < A.rows(); ++I)
        A.at(I, N - 1) = 2.0 * A.at(I, 0) - A.at(I, (N - 1) / 2);
      EXPECT_EQ(expectAllMatch(A, gaussianVector(A.rows(), R)), N - 1);
    }
  });
}

TEST(LinalgKernelEquivalenceTest, RankVerdictAtTheThreshold) {
  forEachTier([] {
    Rng R(808);
    // A column that is a combination of earlier ones up to a perturbation
    // of scale Eps: the verdict flips between 1e-13 and 1e-11.
    size_t Deficient = 0, Full = 0;
    for (double Eps : {1e-15, 1e-14, 1e-13, 1e-11, 1e-10, 1e-8}) {
      Matrix A = gaussianMatrix(12, 6, R);
      for (size_t I = 0; I < A.rows(); ++I)
        A.at(I, 3) = A.at(I, 0) - 0.5 * A.at(I, 1) + Eps * R.gaussian();
      size_t Exit = expectQrMatches(A, gaussianVector(A.rows(), R));
      ++(Exit == A.cols() ? Full : Deficient);
    }
    EXPECT_GT(Deficient, 0u);
    EXPECT_GT(Full, 0u);
    // A small leading column passes against the running maximum, but a
    // much larger later column makes it negligible: only the check after
    // the last column sees the deficiency.
    Matrix Scaled = gaussianMatrix(10, 4, R);
    for (size_t I = 0; I < Scaled.rows(); ++I) {
      Scaled.at(I, 0) *= 1e-3;
      Scaled.at(I, 3) *= 1e11;
    }
    EXPECT_EQ(expectQrMatches(Scaled, gaussianVector(10, R)), 4u);
    EXPECT_FALSE(QrDecomposition(Scaled).isFullRank());
  });
}

TEST(LinalgKernelEquivalenceTest, CholeskyRejectsAtTheSamePivot) {
  forEachTier([] {
    Rng R(707);
    // Indefinite: eigenvalues of mixed sign.
    expectCholeskyMatches(Matrix::fromRows({{1, 2}, {2, 1}}));
    expectCholeskyMatches(
        Matrix::fromRows({{4, 2, 1}, {2, 5, 3}, {1, 3, -2}}));
    // Semidefinite: a zero pivot.
    expectCholeskyMatches(Matrix::fromRows({{1, 1}, {1, 1}}));
    // Gaussian SPD Grams with a negated diagonal entry at every position,
    // so the first non-positive pivot moves through the matrix.
    for (size_t N : {1, 3, 6, 11, 24}) {
      Matrix G = gaussianMatrix(N + 2, N, R);
      Matrix Spd = G.transposed().multiply(G);
      expectCholeskyMatches(Spd);
      for (size_t P = 0; P < N; ++P) {
        Matrix Bad = Spd;
        Bad.at(P, P) = -Bad.at(P, P);
        expectCholeskyMatches(Bad);
      }
    }
  });
}

TEST(LinalgKernelEquivalenceTest, RidgeEscalatesIdentically) {
  // A huge collinear Gram swamps a tiny penalty, so the first Cholesky
  // attempt fails on rounding and the penalty escalates.
  forEachTier([] {
    Matrix A = Matrix::fromRows({{1e8, 1e8, 1e8},
                                 {2e8, 2e8, 2e8},
                                 {-3e8, -3e8, -3e8},
                                 {5e7, 5e7, 5e7}});
    std::vector<double> B = {1, 2, 3, 4};
    expectRidgeMatches(A, B, 1e-30);
    expectRidgeMatches(A, B, 1e-300);
  });
}

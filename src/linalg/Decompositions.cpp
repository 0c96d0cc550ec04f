//===- linalg/Decompositions.cpp ------------------------------------------===//
//
// Part of the OPPROX reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "linalg/Decompositions.h"
#include "support/Simd.h"
#include <algorithm>
#include <cmath>

using namespace opprox;

QrDecomposition::QrDecomposition(const Matrix &A) : Factors(A) {
  size_t M = A.rows(), N = A.cols();
  assert(M >= N && "QR requires at least as many rows as columns");
  TauDiag.resize(N, 0.0);
  // Reflector dot products of the current column against every column to
  // its right, indexed by column.
  std::vector<double> S(N);
  double MaxDiag = 0.0;

  for (size_t K = 0; K < N; ++K) {
    // Compute the norm of the k-th column below (and including) the
    // diagonal.
    double Norm = 0.0;
    for (size_t I = K; I < M; ++I)
      Norm = std::hypot(Norm, Factors.at(I, K));
    // Rank check: a tiny diagonal of R relative to the largest one means
    // numerically rank deficient. MaxDiag only grows, so a column that
    // fails against the running maximum fails against the final one too
    // and the rest of the factorization cannot change the verdict.
    MaxDiag = std::max(MaxDiag, std::fabs(Norm));
    if (std::fabs(Norm) <= 1e-12 * std::max(MaxDiag, 1.0)) {
      FullRank = false;
      return;
    }
    // LINPACK convention: give Norm the sign of the diagonal so the
    // Householder vector's leading entry lands in (1, 2] -- no
    // cancellation.
    if (Factors.at(K, K) < 0)
      Norm = -Norm;
    for (size_t I = K; I < M; ++I)
      Factors.at(I, K) /= Norm;
    Factors.at(K, K) += 1.0;

    // Apply the reflector to the remaining columns. Row by row, every
    // S[J] accumulates F(I,K) * F(I,J) in ascending I exactly like a
    // per-column dot product; the rows only interleave the independent
    // sums so the inner loop runs across contiguous columns.
    size_t Rest = N - K - 1;
    std::fill(S.begin() + K + 1, S.end(), 0.0);
    for (size_t I = K; I < M; ++I) {
      double *Row = Factors.rowData(I);
      simd::axpy(S.data() + K + 1, Row[K], Row + K + 1, Rest);
    }
    for (size_t J = K + 1; J < N; ++J)
      S[J] = -S[J] / Factors.at(K, K);
    for (size_t I = K; I < M; ++I) {
      double *Row = Factors.rowData(I);
      simd::axpy(Row + K + 1, Row[K], S.data() + K + 1, Rest);
    }
    // The R diagonal this reflector produced.
    TauDiag[K] = -Norm;
  }

  // Later columns may raise MaxDiag past what an earlier one was checked
  // against.
  for (double D : TauDiag)
    if (std::fabs(D) <= 1e-12 * std::max(MaxDiag, 1.0))
      FullRank = false;
}

std::vector<double>
QrDecomposition::applyQTranspose(const std::vector<double> &B) const {
  size_t M = Factors.rows(), N = Factors.cols();
  assert(B.size() == M && "rhs length mismatch");
  std::vector<double> Y = B;
  for (size_t K = 0; K < N; ++K) {
    if (TauDiag[K] == 0.0)
      continue;
    double S = 0.0;
    for (size_t I = K; I < M; ++I)
      S += Factors.at(I, K) * Y[I];
    S = -S / Factors.at(K, K);
    for (size_t I = K; I < M; ++I)
      Y[I] += S * Factors.at(I, K);
  }
  return Y;
}

std::optional<std::vector<double>>
QrDecomposition::solveUpper(const std::vector<double> &Y) const {
  size_t N = Factors.cols();
  assert(Y.size() >= N && "rhs too short");
  std::vector<double> X(N, 0.0);
  for (size_t KPlus1 = N; KPlus1 > 0; --KPlus1) {
    size_t K = KPlus1 - 1;
    if (TauDiag[K] == 0.0)
      return std::nullopt;
    double Sum = Y[K];
    for (size_t J = K + 1; J < N; ++J)
      Sum -= Factors.at(K, J) * X[J];
    X[K] = Sum / TauDiag[K];
  }
  return X;
}

std::optional<std::vector<double>>
QrDecomposition::solve(const std::vector<double> &B) const {
  if (!FullRank)
    return std::nullopt;
  return solveUpper(applyQTranspose(B));
}

Matrix QrDecomposition::rFactor() const {
  size_t N = Factors.cols();
  Matrix R(N, N);
  for (size_t I = 0; I < N; ++I) {
    R.at(I, I) = TauDiag[I];
    for (size_t J = I + 1; J < N; ++J)
      R.at(I, J) = Factors.at(I, J);
  }
  return R;
}

std::optional<Matrix> opprox::cholesky(const Matrix &A) {
  assert(A.rows() == A.cols() && "Cholesky needs a square matrix");
  size_t N = A.rows();
  // Left-looking column order over a column-major copy of L: column J
  // starts as A's lower column J and subtracts L(J,K) * L(J..,K) for K
  // ascending. Each entry sees the same subtraction sequence as the
  // row-by-row dot product A(I,J) - sum_K L(I,K) L(J,K), since
  // Sum + (-a)*b rounds exactly like Sum - a*b.
  std::vector<double> Cols(N * N, 0.0);
  for (size_t J = 0; J < N; ++J) {
    double *Sum = Cols.data() + J * N;
    for (size_t I = J; I < N; ++I)
      Sum[I] = A.at(I, J);
    for (size_t K = 0; K < J; ++K) {
      const double *LK = Cols.data() + K * N;
      simd::axpy(Sum + J, -LK[J], LK + J, N - J);
    }
    if (Sum[J] <= 0.0)
      return std::nullopt;
    double Diag = std::sqrt(Sum[J]);
    Sum[J] = Diag;
    for (size_t I = J + 1; I < N; ++I)
      Sum[I] /= Diag;
  }
  Matrix L(N, N);
  for (size_t J = 0; J < N; ++J)
    for (size_t I = J; I < N; ++I)
      L.at(I, J) = Cols[J * N + I];
  return L;
}

std::vector<double> opprox::choleskySolve(const Matrix &L,
                                          const std::vector<double> &B) {
  size_t N = L.rows();
  assert(B.size() == N && "rhs length mismatch");
  // Forward substitution: L y = b.
  std::vector<double> Y(N);
  for (size_t I = 0; I < N; ++I) {
    double Sum = B[I];
    for (size_t K = 0; K < I; ++K)
      Sum -= L.at(I, K) * Y[K];
    Y[I] = Sum / L.at(I, I);
  }
  // Back substitution: L^T x = y.
  std::vector<double> X(N);
  for (size_t IPlus1 = N; IPlus1 > 0; --IPlus1) {
    size_t I = IPlus1 - 1;
    double Sum = Y[I];
    for (size_t K = I + 1; K < N; ++K)
      Sum -= L.at(K, I) * X[K];
    X[I] = Sum / L.at(I, I);
  }
  return X;
}

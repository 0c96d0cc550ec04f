//===- linalg/LeastSquares.cpp --------------------------------------------===//
//
// Part of the OPPROX reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "linalg/LeastSquares.h"
#include "linalg/Decompositions.h"
#include "support/Simd.h"

using namespace opprox;

std::optional<std::vector<double>>
opprox::solveLeastSquares(const Matrix &A, const std::vector<double> &B) {
  assert(A.rows() == B.size() && "rhs length mismatch");
  if (A.rows() < A.cols())
    return std::nullopt;
  QrDecomposition Qr(A);
  return Qr.solve(B);
}

std::vector<double> opprox::solveRidge(const Matrix &A,
                                       const std::vector<double> &B,
                                       double Lambda) {
  assert(A.rows() == B.size() && "rhs length mismatch");
  assert(Lambda > 0.0 && "ridge penalty must be positive");
  size_t M = A.rows(), N = A.cols();
  // Normal equations: (A^T A + Lambda I) x = A^T B. Cholesky reads only
  // the lower triangle, so only that half of the Gram is accumulated (the
  // upper half stays zero): row R sums A(K,R) * A(K,C) for C <= R over K
  // ascending, skipping A(K,R) == 0 -- the exact sequence a full A^T A
  // product gives those entries.
  Matrix AtA(N, N);
  for (size_t R = 0; R < N; ++R) {
    double *GramRow = AtA.rowData(R);
    for (size_t K = 0; K < M; ++K) {
      const double *ARow = A.rowData(K);
      if (ARow[R] != 0.0)
        simd::axpy(GramRow, ARow[R], ARow, R + 1);
    }
  }
  for (size_t R = 0; R < N; ++R)
    AtA.at(R, R) += Lambda;
  // A^T B accumulates B[K] * A(K,R) over K ascending, as a row-by-row
  // dot product of A^T with B would.
  std::vector<double> AtB(N, 0.0);
  for (size_t K = 0; K < M; ++K)
    simd::axpy(AtB.data(), B[K], A.rowData(K), N);
  std::optional<Matrix> L = cholesky(AtA);
  // Lambda > 0 makes AtA positive definite up to rounding; if rounding
  // still defeats Cholesky, escalate the penalty rather than crash.
  double Penalty = Lambda;
  while (!L) {
    Penalty *= 10.0;
    Matrix Regularized = AtA;
    for (size_t I = 0; I < N; ++I)
      Regularized.at(I, I) += Penalty;
    L = cholesky(Regularized);
  }
  return choleskySolve(*L, AtB);
}

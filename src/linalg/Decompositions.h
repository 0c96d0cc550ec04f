//===- linalg/Decompositions.h - QR and Cholesky ---------------*- C++ -*-===//
//
// Part of the OPPROX reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Householder QR and Cholesky factorizations. QR backs the least-squares
/// solver used by polynomial regression; Cholesky backs the ridge normal
/// equations and doubles as a positive-definiteness check.
///
/// Both kernels run their inner loops through simd::axpy over contiguous
/// rows (QR) or columns (Cholesky) but keep every scalar reduction in its
/// reference order: each reflector dot product sums over rows in
/// ascending order, and each Cholesky entry subtracts its products in
/// ascending K. Only independent sums are interleaved, so the results
/// equal the textbook column-by-column loops bit for bit on every SIMD
/// tier (docs/ARCHITECTURE.md, "Model-fit kernels").
///
//===----------------------------------------------------------------------===//

#ifndef OPPROX_LINALG_DECOMPOSITIONS_H
#define OPPROX_LINALG_DECOMPOSITIONS_H

#include "linalg/Matrix.h"
#include <optional>

namespace opprox {

/// Householder QR of an m x n matrix with m >= n. Stores the factors in
/// compact form and exposes the operations least-squares needs.
class QrDecomposition {
public:
  /// Factorizes \p A (copied). Requires A.rows() >= A.cols().
  /// Factorization stops at the first column whose R diagonal is
  /// certainly negligible (see isFullRank()), so the factors are
  /// unspecified when !isFullRank().
  explicit QrDecomposition(const Matrix &A);

  /// True when A had (numerically) full column rank: every R diagonal
  /// exceeds 1e-12 * max(1, largest |R diagonal|) in magnitude.
  bool isFullRank() const { return FullRank; }

  /// Applies Q^T to \p B (length m), returning a length-m vector.
  std::vector<double> applyQTranspose(const std::vector<double> &B) const;

  /// Solves R x = y for the top n entries of \p Y by back substitution.
  /// Returns std::nullopt when R is singular.
  std::optional<std::vector<double>>
  solveUpper(const std::vector<double> &Y) const;

  /// Convenience: least-squares solution of A x ~= B, or nullopt when A is
  /// rank deficient.
  std::optional<std::vector<double>>
  solve(const std::vector<double> &B) const;

  /// Reconstructs the explicit R factor (n x n upper triangle). Only
  /// meaningful when isFullRank().
  Matrix rFactor() const;

private:
  Matrix Factors;              // Householder vectors below diag, R on/above.
  std::vector<double> TauDiag; // Diagonal of R (signed).
  bool FullRank = true;
};

/// Cholesky factorization A = L L^T of a symmetric positive-definite
/// matrix; only A's lower triangle is read. Returns std::nullopt when A
/// is not positive definite, i.e. at the first non-positive pivot.
std::optional<Matrix> cholesky(const Matrix &A);

/// Solves A x = B given the Cholesky factor \p L of A.
std::vector<double> choleskySolve(const Matrix &L,
                                  const std::vector<double> &B);

} // namespace opprox

#endif // OPPROX_LINALG_DECOMPOSITIONS_H

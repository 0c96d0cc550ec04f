//===- linalg/LeastSquares.h - OLS and ridge solvers -----------*- C++ -*-===//
//
// Part of the OPPROX reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Least-squares solvers behind polynomial regression (paper Sec. 3.6).
/// Ordinary least squares via Householder QR with a ridge fallback: the
/// exhaustive+sparse sampling of approximation levels often produces
/// collinear polynomial features, and a small L2 penalty keeps the fit
/// well-posed instead of failing.
///
//===----------------------------------------------------------------------===//

#ifndef OPPROX_LINALG_LEASTSQUARES_H
#define OPPROX_LINALG_LEASTSQUARES_H

#include "linalg/Matrix.h"
#include <optional>

namespace opprox {

/// Minimizes ||A x - B||_2 via QR. Returns std::nullopt when A is rank
/// deficient (use ridge in that case).
std::optional<std::vector<double>> solveLeastSquares(const Matrix &A,
                                                     const std::vector<double> &B);

/// Minimizes ||A x - B||^2 + Lambda ||x||^2 via the normal equations with
/// Cholesky. Lambda > 0 guarantees a solution for any A. Only the lower
/// half of A^T A is formed; its entries are bit-identical to the full
/// product's.
std::vector<double> solveRidge(const Matrix &A, const std::vector<double> &B,
                               double Lambda);

} // namespace opprox

#endif // OPPROX_LINALG_LEASTSQUARES_H

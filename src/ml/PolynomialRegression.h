//===- ml/PolynomialRegression.h - Polynomial regression -------*- C++ -*-===//
//
// Part of the OPPROX reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Polynomial regression (paper Sec. 3.6): raw features are standardized,
/// expanded into the monomial basis of a chosen total degree, and fit by
/// least squares (QR with a small ridge fallback for collinear bases).
///
//===----------------------------------------------------------------------===//

#ifndef OPPROX_ML_POLYNOMIALREGRESSION_H
#define OPPROX_ML_POLYNOMIALREGRESSION_H

#include "linalg/Matrix.h"
#include "ml/Dataset.h"
#include "ml/PolynomialFeatures.h"
#include "support/AlignedBuffer.h"
#include "support/Error.h"
#include <memory>

namespace opprox {

class Json;

/// A fitted polynomial regression model.
class PolynomialRegression {
public:
  struct Options {
    /// Total degree of the monomial basis.
    int Degree = 2;
    /// Ridge penalty used when plain least squares is rank deficient.
    double Ridge = 1e-6;
    /// Standardize raw features to zero mean / unit variance before
    /// expansion; improves conditioning for high degrees.
    bool Standardize = true;
  };

  /// Fits on \p Data. Requires at least one sample; degenerate bases fall
  /// back to ridge so fitting always succeeds.
  static PolynomialRegression fit(const Dataset &Data, const Options &Opts);

  /// Predicts the target for one raw feature vector.
  double predict(const std::vector<double> &X) const;

  /// Caller-owned workspace for the batch paths: 64-byte-aligned
  /// structure-of-arrays columns (see docs/ARCHITECTURE.md, "Optimizer
  /// hot path"). Reusing one across calls makes the batch path
  /// allocation-free once the buffers have grown to the largest batch
  /// shape.
  struct Scratch {
    AlignedBuffer<double> Z;      ///< numInputs standardized columns.
    AlignedBuffer<double> Gather; ///< Stages one column of row-major input.
    AlignedBuffer<double> Term;   ///< One term-product column.
  };

  /// Predicts every row of \p X (one raw feature vector per row) into
  /// \p Out, resized to X.rows(). Rows are transposed into per-feature
  /// columns and evaluated by the columnar kernel; each row's result is
  /// bit-identical to predict() on that row, independent of batch size,
  /// composition, or SIMD dispatch tier.
  void predictBatch(const Matrix &X, std::vector<double> &Out,
                    Scratch &S) const;

  /// The structure-of-arrays entry point: \p Cols holds numInputs()
  /// contiguous raw (unstandardized) feature columns, column F starting
  /// at Cols + F * Stride, each \p N values long. Standardizes every
  /// column and evaluates the monomial sum per point; bit-identical to
  /// predict() on each point, for any stride and any SIMD tier.
  void predictBatchColumns(const double *Cols, size_t Stride, size_t N,
                           std::vector<double> &Out, Scratch &S) const;

  /// Predictions for every sample of \p Data.
  std::vector<double> predictAll(const Dataset &Data) const;

  /// R^2 of this model on \p Data (can be negative on unseen data).
  double r2(const Dataset &Data) const;

  int degree() const { return Opts.Degree; }
  const std::vector<double> &coefficients() const { return Coefficients; }
  size_t numInputs() const { return Mean.size(); }

  /// Artifact serialization. The monomial basis is not stored; it is
  /// rebuilt from (numInputs, degree), so predictions round-trip
  /// bit-identically from the standardization vectors and coefficients.
  Json toJson() const;
  static Expected<PolynomialRegression> fromJson(const Json &Value);

private:
  PolynomialRegression(Options Opts, size_t NumInputs)
      : Opts(Opts), Basis(NumInputs, Opts.Degree) {}

  std::vector<double> standardize(const std::vector<double> &X) const;

  Options Opts;
  PolynomialFeatures Basis;
  std::vector<double> Mean;     // Per-raw-feature standardization mean.
  std::vector<double> Scale;    // Per-raw-feature standardization scale.
  std::vector<double> Coefficients; // One per basis term.
};

} // namespace opprox

#endif // OPPROX_ML_POLYNOMIALREGRESSION_H

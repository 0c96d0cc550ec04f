//===- ml/ModelSelection.h - OPPROX model-building policy ------*- C++ -*-===//
//
// Part of the OPPROX reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The model-construction policy of paper Sec. 3.7:
///   1. MIC-filter features with no association to the target;
///   2. escalate the polynomial degree until 10-fold cross-validated R^2
///      reaches the target (or the degree cap);
///   3. when even the best degree misses the target, split the samples
///      into magnitude-ordered subcategories of the most informative
///      feature and fit one sub-model per subcategory;
///   4. wrap everything with an empirical confidence interval so callers
///      can ask for conservative bounds (Sec. 3.6).
///
//===----------------------------------------------------------------------===//

#ifndef OPPROX_ML_MODELSELECTION_H
#define OPPROX_ML_MODELSELECTION_H

#include "ml/ConfidenceInterval.h"
#include "ml/Dataset.h"
#include "ml/PolynomialRegression.h"
#include "support/AlignedBuffer.h"
#include "support/Random.h"
#include <limits>

namespace opprox {

struct ModelSelectOptions {
  /// Cross-validated R^2 considered "good" (paper uses > 0.9).
  double TargetR2 = 0.9;
  /// Degrees tried, lowest first (paper saw 2..6 selected).
  int MinDegree = 1;
  int MaxDegree = 6;
  /// Folds for cross-validation (paper: 10).
  size_t Folds = 10;
  /// Features whose MIC with the target falls below this are dropped.
  /// Set to 0 to disable filtering.
  double MicThreshold = 0.05;
  /// Maximum subcategories when splitting poorly-modeled data.
  size_t MaxSubcategories = 3;
  /// Minimum samples per subcategory; fewer and we refuse to split.
  size_t MinSubcategorySamples = 20;
};

class ThreadPool;
class Json;

/// A trained predictor: possibly several polynomial sub-models selected by
/// a split feature, plus feature filtering and a confidence interval.
class SelectedModel {
public:
  /// Trains per the Sec. 3.7 policy. \p Rng drives fold shuffling. A
  /// non-null \p Pool parallelizes the cross-validation folds (identical
  /// result either way; when called from inside a pool task the folds
  /// simply stay serial within that task).
  static SelectedModel train(const Dataset &Data,
                             const ModelSelectOptions &Opts, Rng &Rng,
                             ThreadPool *Pool = nullptr);

  /// Point prediction for a raw (unfiltered) feature vector.
  double predict(const std::vector<double> &X) const;

  /// Caller-owned workspace for predictBatch; reuse across calls to keep
  /// the batch path allocation-free at steady state. The batch flows
  /// through as 64-byte-aligned per-feature columns end to end (see
  /// docs/ARCHITECTURE.md, "Optimizer hot path").
  struct BatchScratch {
    AlignedBuffer<double> Filtered; ///< keptFeatures raw columns.
    AlignedBuffer<double> GroupX;   ///< Columns gathered for one submodel.
    std::vector<size_t> GroupRows;  ///< Original indices of gathered rows.
    std::vector<double> GroupOut;   ///< Submodel outputs before scatter.
    PolynomialRegression::Scratch Poly;
  };

  /// Predicts every row of \p X (one raw feature vector per row) into
  /// \p Out, resized to X.rows(). Rows are MIC-filtered into contiguous
  /// per-feature columns, routed to their subcategory sub-model, and
  /// evaluated in per-submodel columnar batches; each row's result is
  /// bit-identical to predict() on that row.
  void predictBatch(const Matrix &X, std::vector<double> &Out,
                    BatchScratch &S) const;

  /// Conservative bounds using the training-residual distribution.
  double upperBound(const std::vector<double> &X, double P) const {
    return Interval.upperBound(predict(X), P);
  }
  double lowerBound(const std::vector<double> &X, double P) const {
    return Interval.lowerBound(predict(X), P);
  }

  /// Cross-validated R^2 achieved during selection.
  double cvR2() const { return BestCvR2; }

  /// Degree of the (first) selected polynomial.
  int degree() const;

  /// Indices of the raw features kept after MIC filtering.
  const std::vector<size_t> &keptFeatures() const { return KeptFeatures; }

  size_t numSubmodels() const { return Submodels.size(); }

  const ConfidenceInterval &confidence() const { return Interval; }

  /// Artifact serialization: MIC feature mask, subcategory split,
  /// sub-models, confidence interval, and the selection-time CV score.
  Json toJson() const;
  static Expected<SelectedModel> fromJson(const Json &Value);

private:
  std::vector<double> filterFeatures(const std::vector<double> &X) const;
  size_t submodelFor(const std::vector<double> &Filtered) const;

  std::vector<size_t> KeptFeatures;
  // Submodel I handles filtered SplitFeature values < SplitBoundaries[I];
  // the last submodel handles everything above. Empty boundaries means a
  // single model.
  size_t SplitFeature = 0;
  std::vector<double> SplitBoundaries;
  std::vector<PolynomialRegression> Submodels;
  ConfidenceInterval Interval;
  double BestCvR2 = -std::numeric_limits<double>::infinity();
};

} // namespace opprox

#endif // OPPROX_ML_MODELSELECTION_H

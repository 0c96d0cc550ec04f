//===- ml/ModelSelection.cpp ----------------------------------------------===//
//
// Part of the OPPROX reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "ml/ModelSelection.h"
#include "ml/CrossValidation.h"
#include "ml/Mic.h"
#include "support/Json.h"
#include "support/Statistics.h"
#include "support/StringUtils.h"
#include "support/Telemetry.h"
#include "support/ThreadPool.h"
#include <algorithm>
#include <numeric>

using namespace opprox;

/// Picks the best degree by cross-validated R^2, stopping early once the
/// target is reached. Returns (degree, cvR2).
static std::pair<int, double> pickDegree(const Dataset &Data,
                                         const ModelSelectOptions &Opts,
                                         Rng &Rng, ThreadPool *Pool) {
  int BestDegree = Opts.MinDegree;
  double BestR2 = -1e18;
  for (int Degree = Opts.MinDegree; Degree <= Opts.MaxDegree; ++Degree) {
    // Guard against combinatorial blow-up of the basis.
    if (PolynomialFeatures::countTerms(Data.numFeatures(), Degree) >
        std::max<size_t>(Data.numSamples(), 64))
      break;
    PolynomialRegression::Options FitOpts;
    FitOpts.Degree = Degree;
    double R2 = crossValidatedR2(Data, FitOpts, Opts.Folds, Rng, Pool);
    if (R2 > BestR2) {
      BestR2 = R2;
      BestDegree = Degree;
    }
    if (R2 >= Opts.TargetR2)
      break;
  }
  return {BestDegree, BestR2};
}

SelectedModel SelectedModel::train(const Dataset &Data,
                                   const ModelSelectOptions &Opts, Rng &Rng,
                                   ThreadPool *Pool) {
  assert(!Data.empty() && "cannot train on empty data");
  SelectedModel Model;

  // Step 1: MIC feature filtering. Keep every feature whose association
  // with the target clears the threshold; if none does (pathological),
  // keep them all rather than fit a constant.
  std::vector<double> MicScores(Data.numFeatures(), 1.0);
  if (Opts.MicThreshold > 0.0) {
    for (size_t F = 0; F < Data.numFeatures(); ++F)
      MicScores[F] = mic(Data.featureColumn(F), Data.targets());
  }
  for (size_t F = 0; F < Data.numFeatures(); ++F)
    if (MicScores[F] >= Opts.MicThreshold)
      Model.KeptFeatures.push_back(F);
  if (Model.KeptFeatures.empty()) {
    Model.KeptFeatures.resize(Data.numFeatures());
    std::iota(Model.KeptFeatures.begin(), Model.KeptFeatures.end(), 0);
  }
  {
    static Counter &Kept =
        MetricsRegistry::global().counter("ml.mic.features_kept");
    static Counter &Dropped =
        MetricsRegistry::global().counter("ml.mic.features_dropped");
    Kept.add(Model.KeptFeatures.size());
    Dropped.add(Data.numFeatures() - Model.KeptFeatures.size());
  }
  Dataset Filtered = Data.selectFeatures(Model.KeptFeatures);

  // Step 2: degree escalation with cross-validation.
  auto [Degree, CvR2] = pickDegree(Filtered, Opts, Rng, Pool);
  Model.BestCvR2 = CvR2;

  PolynomialRegression::Options FitOpts;
  FitOpts.Degree = Degree;

  // Step 3: subcategory splitting when the global model is weak. Split
  // along the filtered feature with the highest MIC into magnitude-ordered
  // subsets (Sec. 3.7: "splits the values of a feature put in magnitude
  // order into k subsets").
  bool TrySplit =
      CvR2 < Opts.TargetR2 && Opts.MaxSubcategories >= 2 &&
      Filtered.numSamples() >=
          Opts.MaxSubcategories * Opts.MinSubcategorySamples &&
      Filtered.numFeatures() >= 1;
  if (TrySplit) {
    // Most informative kept feature.
    size_t BestF = 0;
    double BestMic = -1.0;
    for (size_t F = 0; F < Model.KeptFeatures.size(); ++F) {
      double Score = MicScores[Model.KeptFeatures[F]];
      if (Score > BestMic) {
        BestMic = Score;
        BestF = F;
      }
    }
    std::vector<double> Column = Filtered.featureColumn(BestF);
    std::vector<double> Sorted = Column;
    std::sort(Sorted.begin(), Sorted.end());
    size_t K = Opts.MaxSubcategories;
    std::vector<double> Boundaries;
    for (size_t I = 1; I < K; ++I) {
      double Boundary = Sorted[I * Sorted.size() / K];
      if (Boundaries.empty() || Boundary > Boundaries.back())
        Boundaries.push_back(Boundary);
    }
    if (!Boundaries.empty()) {
      // Partition rows by boundary.
      std::vector<std::vector<size_t>> Parts(Boundaries.size() + 1);
      for (size_t I = 0; I < Column.size(); ++I) {
        size_t Part = Boundaries.size();
        for (size_t B = 0; B < Boundaries.size(); ++B) {
          if (Column[I] < Boundaries[B]) {
            Part = B;
            break;
          }
        }
        Parts[Part].push_back(I);
      }
      bool AllViable = true;
      for (const auto &Part : Parts)
        AllViable = AllViable && Part.size() >= Opts.MinSubcategorySamples;
      if (AllViable) {
        Model.SplitFeature = BestF;
        Model.SplitBoundaries = Boundaries;
        for (const auto &Part : Parts)
          Model.Submodels.push_back(
              PolynomialRegression::fit(Filtered.selectRows(Part), FitOpts));
      }
    }
  }

  // Single global model when no split happened.
  if (Model.Submodels.empty())
    Model.Submodels.push_back(PolynomialRegression::fit(Filtered, FitOpts));

  // Step 4: the confidence interval comes from *out-of-fold* residuals
  // (each sample predicted by a model that never saw it). Training
  // residuals would be optimistically small and the optimizer, which
  // picks the most favourable-looking configurations, would
  // systematically bust its QoS budget (winner's curse).
  std::vector<double> Residuals;
  Residuals.reserve(Data.numSamples());
  if (Data.numSamples() >= 6) {
    for (const std::vector<size_t> &TestFold :
         kFoldIndices(Data.numSamples(), Opts.Folds, Rng)) {
      std::vector<bool> InTest(Data.numSamples(), false);
      for (size_t I : TestFold)
        InTest[I] = true;
      std::vector<size_t> TrainIdx;
      for (size_t I = 0; I < Data.numSamples(); ++I)
        if (!InTest[I])
          TrainIdx.push_back(I);
      if (TrainIdx.empty())
        continue;
      PolynomialRegression FoldModel =
          PolynomialRegression::fit(Filtered.selectRows(TrainIdx), FitOpts);
      for (size_t I : TestFold)
        Residuals.push_back(FoldModel.predict(Filtered.sample(I)) -
                            Data.target(I));
    }
  } else {
    for (size_t I = 0; I < Data.numSamples(); ++I)
      Residuals.push_back(Model.predict(Data.sample(I)) - Data.target(I));
  }
  Model.Interval = ConfidenceInterval::fromResiduals(Residuals);
  return Model;
}

std::vector<double>
SelectedModel::filterFeatures(const std::vector<double> &X) const {
  std::vector<double> Filtered;
  Filtered.reserve(KeptFeatures.size());
  for (size_t F : KeptFeatures) {
    assert(F < X.size() && "feature vector too short");
    Filtered.push_back(X[F]);
  }
  return Filtered;
}

size_t SelectedModel::submodelFor(const std::vector<double> &Filtered) const {
  if (SplitBoundaries.empty())
    return 0;
  double Value = Filtered[SplitFeature];
  for (size_t B = 0; B < SplitBoundaries.size(); ++B)
    if (Value < SplitBoundaries[B])
      return B;
  return SplitBoundaries.size();
}

double SelectedModel::predict(const std::vector<double> &X) const {
  assert(!Submodels.empty() && "predict on untrained model");
  std::vector<double> Filtered = filterFeatures(X);
  return Submodels[submodelFor(Filtered)].predict(Filtered);
}

void SelectedModel::predictBatch(const Matrix &X, std::vector<double> &Out,
                                 BatchScratch &S) const {
  assert(!Submodels.empty() && "predict on untrained model");
  size_t N = X.rows();
  size_t NumKept = KeptFeatures.size();
  size_t Stride = AlignedBuffer<double>::paddedStride(N);
  // MIC filter as a transpose: kept feature F becomes the contiguous
  // column Filtered + F * Stride, which the polynomial kernels consume
  // directly.
  double *Filtered = S.Filtered.ensure(NumKept * Stride);
  for (size_t F = 0; F < NumKept; ++F) {
    assert(KeptFeatures[F] < X.cols() && "feature vector too short");
    double *Dst = Filtered + F * Stride;
    for (size_t R = 0; R < N; ++R)
      Dst[R] = X.at(R, KeptFeatures[F]);
  }
  if (SplitBoundaries.empty()) {
    Submodels.front().predictBatchColumns(Filtered, Stride, N, Out, S.Poly);
    return;
  }
  // Subcategory models: gather each sub-model's points into contiguous
  // columns, evaluate, and scatter results back. Point results do not
  // depend on which other points share the batch, so this matches the
  // scalar path bit for bit.
  Out.resize(N);
  const double *SplitCol = Filtered + SplitFeature * Stride;
  for (size_t M = 0; M < Submodels.size(); ++M) {
    S.GroupRows.clear();
    for (size_t R = 0; R < N; ++R) {
      double Value = SplitCol[R];
      size_t Part = SplitBoundaries.size();
      for (size_t B = 0; B < SplitBoundaries.size(); ++B) {
        if (Value < SplitBoundaries[B]) {
          Part = B;
          break;
        }
      }
      if (Part == M)
        S.GroupRows.push_back(R);
    }
    if (S.GroupRows.empty())
      continue;
    size_t GroupN = S.GroupRows.size();
    size_t GroupStride = AlignedBuffer<double>::paddedStride(GroupN);
    double *GroupX = S.GroupX.ensure(NumKept * GroupStride);
    for (size_t F = 0; F < NumKept; ++F) {
      const double *Src = Filtered + F * Stride;
      double *Dst = GroupX + F * GroupStride;
      for (size_t I = 0; I < GroupN; ++I)
        Dst[I] = Src[S.GroupRows[I]];
    }
    Submodels[M].predictBatchColumns(GroupX, GroupStride, GroupN, S.GroupOut,
                                     S.Poly);
    for (size_t I = 0; I < GroupN; ++I)
      Out[S.GroupRows[I]] = S.GroupOut[I];
  }
}

int SelectedModel::degree() const {
  assert(!Submodels.empty() && "degree of untrained model");
  return Submodels.front().degree();
}

Json SelectedModel::toJson() const {
  Json Out = Json::object();
  Out.set("kept_features", Json::numberArray(KeptFeatures));
  Out.set("split_feature", SplitFeature);
  Out.set("split_boundaries", Json::numberArray(SplitBoundaries));
  Json Models = Json::array();
  for (const PolynomialRegression &Sub : Submodels)
    Models.push(Sub.toJson());
  Out.set("submodels", std::move(Models));
  Out.set("confidence", Interval.toJson());
  Out.set("cv_r2", BestCvR2);
  return Out;
}

Expected<SelectedModel> SelectedModel::fromJson(const Json &Value) {
  Expected<std::vector<size_t>> Kept = getSizeVector(Value, "kept_features");
  if (!Kept)
    return Kept.error();
  Expected<size_t> SplitFeature = getSize(Value, "split_feature");
  if (!SplitFeature)
    return SplitFeature.error();
  Expected<std::vector<double>> Boundaries =
      getNumberVector(Value, "split_boundaries");
  if (!Boundaries)
    return Boundaries.error();
  Expected<const Json *> Submodels = getArray(Value, "submodels");
  if (!Submodels)
    return Submodels.error();
  Expected<const Json *> Confidence = getObject(Value, "confidence");
  if (!Confidence)
    return Confidence.error();
  Expected<double> CvR2 = getNumber(Value, "cv_r2");
  if (!CvR2)
    return CvR2.error();

  SelectedModel Model;
  Model.KeptFeatures = std::move(*Kept);
  Model.SplitFeature = *SplitFeature;
  Model.SplitBoundaries = std::move(*Boundaries);
  Model.BestCvR2 = *CvR2;
  for (size_t I = 0; I < (*Submodels)->size(); ++I) {
    Expected<PolynomialRegression> Sub =
        PolynomialRegression::fromJson((*Submodels)->at(I));
    if (!Sub)
      return Error(format("submodel %zu: %s", I,
                          Sub.error().message().c_str()));
    Model.Submodels.push_back(std::move(*Sub));
  }
  Expected<ConfidenceInterval> Interval =
      ConfidenceInterval::fromJson(**Confidence);
  if (!Interval)
    return Interval.error();
  Model.Interval = std::move(*Interval);

  // Cross-validate the structural invariants predict() relies on so a
  // corrupted artifact fails load, not prediction.
  if (Model.Submodels.empty())
    return Error("selected model has no submodels");
  if (Model.Submodels.size() != Model.SplitBoundaries.size() + 1)
    return Error(format("selected model has %zu submodels but %zu split "
                        "boundaries",
                        Model.Submodels.size(),
                        Model.SplitBoundaries.size()));
  if (!Model.SplitBoundaries.empty() &&
      Model.SplitFeature >= Model.KeptFeatures.size())
    return Error("split feature index out of range");
  for (const PolynomialRegression &Sub : Model.Submodels)
    if (Sub.numInputs() != Model.KeptFeatures.size())
      return Error("submodel input arity does not match kept features");
  return Model;
}

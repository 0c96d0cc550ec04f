//===- ml/PolynomialRegression.cpp ----------------------------------------===//
//
// Part of the OPPROX reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "ml/PolynomialRegression.h"
#include "linalg/LeastSquares.h"
#include "support/Json.h"
#include "support/Simd.h"
#include "support/Statistics.h"
#include "support/StringUtils.h"
#include "support/Telemetry.h"
#include <cmath>

using namespace opprox;

PolynomialRegression PolynomialRegression::fit(const Dataset &Data,
                                               const Options &Opts) {
  assert(!Data.empty() && "cannot fit on an empty dataset");
  static Counter &RidgeFallbacks =
      MetricsRegistry::global().counter("ml.fit.ridge_fallbacks");
  size_t NumInputs = Data.numFeatures();
  PolynomialRegression Model(Opts, NumInputs);

  // Standardization statistics.
  Model.Mean.assign(NumInputs, 0.0);
  Model.Scale.assign(NumInputs, 1.0);
  if (Opts.Standardize) {
    for (size_t F = 0; F < NumInputs; ++F) {
      RunningStats S;
      for (const auto &Row : Data.samples())
        S.add(Row[F]);
      Model.Mean[F] = S.mean();
      double Sd = S.stddev();
      Model.Scale[F] = Sd > 1e-12 ? Sd : 1.0;
    }
  }

  // Design matrix in the expanded basis.
  size_t N = Data.numSamples();
  size_t Terms = Model.Basis.numTerms();
  Matrix A(N, Terms);
  for (size_t I = 0; I < N; ++I) {
    std::vector<double> Expanded =
        Model.Basis.expand(Model.standardize(Data.sample(I)));
    for (size_t T = 0; T < Terms; ++T)
      A.at(I, T) = Expanded[T];
  }

  if (N >= Terms) {
    if (std::optional<std::vector<double>> Beta =
            solveLeastSquares(A, Data.targets())) {
      Model.Coefficients = std::move(*Beta);
      return Model;
    }
  }
  // Underdetermined or rank deficient: ridge keeps the fit well-posed.
  RidgeFallbacks.add();
  Model.Coefficients = solveRidge(A, Data.targets(), Opts.Ridge);
  return Model;
}

std::vector<double>
PolynomialRegression::standardize(const std::vector<double> &X) const {
  assert(X.size() == Mean.size() && "feature count mismatch");
  std::vector<double> Z(X.size());
  for (size_t F = 0; F < X.size(); ++F)
    Z[F] = (X[F] - Mean[F]) / Scale[F];
  return Z;
}

double PolynomialRegression::predict(const std::vector<double> &X) const {
  std::vector<double> Expanded = Basis.expand(standardize(X));
  double Sum = 0.0;
  for (size_t T = 0; T < Expanded.size(); ++T)
    Sum += Coefficients[T] * Expanded[T];
  return Sum;
}

void PolynomialRegression::predictBatch(const Matrix &X,
                                        std::vector<double> &Out,
                                        Scratch &S) const {
  assert(X.cols() == Mean.size() && "feature count mismatch");
  size_t N = X.rows();
  size_t NumInputs = Mean.size();
  size_t Stride = AlignedBuffer<double>::paddedStride(N);
  // Transpose the row-major batch into raw feature columns, then run
  // the columnar pipeline. The gather stages one contiguous column at a
  // time so standardization stays a vector op.
  double *Z = S.Z.ensure(NumInputs * Stride);
  double *Staged = S.Gather.ensure(Stride);
  for (size_t F = 0; F < NumInputs; ++F) {
    for (size_t R = 0; R < N; ++R)
      Staged[R] = X.at(R, F);
    // Same expression as standardize(); keeps the batch path bit-exact.
    simd::standardize(Z + F * Stride, Staged, Mean[F], Scale[F], N);
  }
  Out.resize(N);
  Basis.evaluateColumns(Z, Stride, N, Coefficients.data(), Out.data(),
                        S.Term.ensure(Stride));
}

void PolynomialRegression::predictBatchColumns(const double *Cols,
                                               size_t Stride, size_t N,
                                               std::vector<double> &Out,
                                               Scratch &S) const {
  size_t NumInputs = Mean.size();
  size_t ZStride = AlignedBuffer<double>::paddedStride(N);
  double *Z = S.Z.ensure(NumInputs * ZStride);
  for (size_t F = 0; F < NumInputs; ++F)
    simd::standardize(Z + F * ZStride, Cols + F * Stride, Mean[F], Scale[F],
                      N);
  Out.resize(N);
  Basis.evaluateColumns(Z, ZStride, N, Coefficients.data(), Out.data(),
                        S.Term.ensure(ZStride));
}

std::vector<double>
PolynomialRegression::predictAll(const Dataset &Data) const {
  std::vector<double> Out;
  Out.reserve(Data.numSamples());
  for (const auto &Row : Data.samples())
    Out.push_back(predict(Row));
  return Out;
}

double PolynomialRegression::r2(const Dataset &Data) const {
  return r2Score(Data.targets(), predictAll(Data));
}

Json PolynomialRegression::toJson() const {
  Json Out = Json::object();
  Out.set("degree", Opts.Degree);
  Out.set("ridge", Opts.Ridge);
  Out.set("standardize", Opts.Standardize);
  Out.set("mean", Json::numberArray(Mean));
  Out.set("scale", Json::numberArray(Scale));
  Out.set("coefficients", Json::numberArray(Coefficients));
  return Out;
}

Expected<PolynomialRegression>
PolynomialRegression::fromJson(const Json &Value) {
  Expected<long> Degree = getInt(Value, "degree");
  if (!Degree)
    return Degree.error();
  Expected<double> Ridge = getNumber(Value, "ridge");
  if (!Ridge)
    return Ridge.error();
  Expected<bool> Standardize = getBool(Value, "standardize");
  if (!Standardize)
    return Standardize.error();
  Expected<std::vector<double>> Mean = getNumberVector(Value, "mean");
  if (!Mean)
    return Mean.error();
  Expected<std::vector<double>> Scale = getNumberVector(Value, "scale");
  if (!Scale)
    return Scale.error();
  Expected<std::vector<double>> Coefficients =
      getNumberVector(Value, "coefficients");
  if (!Coefficients)
    return Coefficients.error();

  if (*Degree < 0 || *Degree > 64)
    return Error(format("polynomial degree %ld out of range", *Degree));
  if (Mean->size() != Scale->size())
    return Error("mean/scale length mismatch in polynomial model");
  size_t Terms =
      PolynomialFeatures::countTerms(Mean->size(), static_cast<int>(*Degree));
  if (Terms > 4096)
    return Error(format("polynomial basis of %zu terms exceeds the supported "
                        "maximum",
                        Terms));
  if (Coefficients->size() != Terms)
    return Error(format("polynomial model expects %zu coefficients, found "
                        "%zu",
                        Terms, Coefficients->size()));
  for (double S : *Scale)
    if (S == 0.0)
      return Error("zero standardization scale in polynomial model");

  Options Opts;
  Opts.Degree = static_cast<int>(*Degree);
  Opts.Ridge = *Ridge;
  Opts.Standardize = *Standardize;
  PolynomialRegression Model(Opts, Mean->size());
  Model.Mean = std::move(*Mean);
  Model.Scale = std::move(*Scale);
  Model.Coefficients = std::move(*Coefficients);
  return Model;
}

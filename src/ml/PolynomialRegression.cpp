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

namespace {
/// Bounds of x^e over [Lo, Hi] in real arithmetic.
void powerBounds(double Lo, double Hi, int E, double &PLo, double &PHi) {
  if (E == 0) {
    PLo = PHi = 1.0;
    return;
  }
  double PowLo = std::pow(Lo, E);
  double PowHi = std::pow(Hi, E);
  if (E % 2 != 0) { // Odd powers are monotone.
    PLo = PowLo;
    PHi = PowHi;
  } else if (Lo >= 0.0) {
    PLo = PowLo;
    PHi = PowHi;
  } else if (Hi <= 0.0) {
    PLo = PowHi;
    PHi = PowLo;
  } else { // Interval straddles zero: even power touches 0.
    PLo = 0.0;
    PHi = std::max(PowLo, PowHi);
  }
}

/// Interval product (ALo,AHi) * (BLo,BHi).
void intervalMul(double &ALo, double &AHi, double BLo, double BHi) {
  double P1 = ALo * BLo, P2 = ALo * BHi, P3 = AHi * BLo, P4 = AHi * BHi;
  ALo = std::min(std::min(P1, P2), std::min(P3, P4));
  AHi = std::max(std::max(P1, P2), std::max(P3, P4));
}
} // namespace

std::pair<double, double>
PolynomialRegression::boundsOver(const std::vector<double> &Lo,
                                 const std::vector<double> &Hi) const {
  assert(Lo.size() == Mean.size() && Hi.size() == Mean.size() &&
         "box arity mismatch");
  size_t NumInputs = Mean.size();
  std::vector<double> ZLo(NumInputs), ZHi(NumInputs);
  for (size_t F = 0; F < NumInputs; ++F) {
    assert(Lo[F] <= Hi[F] && "inverted box");
    // Scale is strictly positive (enforced at fit and load time), so the
    // affine map preserves interval orientation.
    ZLo[F] = (Lo[F] - Mean[F]) / Scale[F];
    ZHi[F] = (Hi[F] - Mean[F]) / Scale[F];
  }

  double SumLo = 0.0, SumHi = 0.0;
  // Total |coefficient| * |term| mass, bounding the magnitude of every
  // partial sum the scalar evaluation can form; the rounding slack below
  // scales with it.
  double AbsMass = 0.0;
  for (size_t T = 0; T < Basis.numTerms(); ++T) {
    const std::vector<int> &Exp = Basis.exponents(T);
    double TLo = 1.0, THi = 1.0;
    for (size_t F = 0; F < NumInputs; ++F) {
      if (Exp[F] == 0)
        continue;
      double PLo, PHi;
      powerBounds(ZLo[F], ZHi[F], Exp[F], PLo, PHi);
      intervalMul(TLo, THi, PLo, PHi);
    }
    double C = Coefficients[T];
    SumLo += C >= 0.0 ? C * TLo : C * THi;
    SumHi += C >= 0.0 ? C * THi : C * TLo;
    AbsMass += std::fabs(C) * std::max(std::fabs(TLo), std::fabs(THi));
  }
  // The interval math above is real-valued; the scalar evaluation rounds
  // at every operation. Its accumulated error is bounded by roughly
  // numTerms * machine-epsilon * AbsMass (~1e-12 * AbsMass for the
  // largest supported basis); 1e-9 * AbsMass leaves a 1000x margin.
  double Slack = 1e-9 * AbsMass + 1e-12;
  return {SumLo - Slack, SumHi + Slack};
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

//===- tests/MlTests.cpp - ML building-block tests ------------------------===//
//
// Part of the OPPROX reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "ml/ConfidenceInterval.h"
#include "ml/CrossValidation.h"
#include "ml/Dataset.h"
#include "ml/DecisionTree.h"
#include "ml/Mic.h"
#include "ml/PolynomialFeatures.h"
#include "ml/PolynomialRegression.h"
#include "support/AlignedBuffer.h"
#include "support/Json.h"
#include "support/Simd.h"
#include "support/Telemetry.h"
#include <cmath>
#include <cstring>
#include <gtest/gtest.h>
#include <set>

using namespace opprox;

//===----------------------------------------------------------------------===//
// Dataset
//===----------------------------------------------------------------------===//

TEST(DatasetTest, AddAndAccess) {
  Dataset D({"a", "b"});
  D.addSample({1, 2}, 10);
  D.addSample({3, 4}, 20);
  EXPECT_EQ(D.numSamples(), 2u);
  EXPECT_EQ(D.numFeatures(), 2u);
  EXPECT_DOUBLE_EQ(D.target(1), 20);
  EXPECT_EQ(D.featureColumn(1), (std::vector<double>{2, 4}));
  EXPECT_EQ(D.featureIndex("b"), 1u);
}

TEST(DatasetTest, SelectFeaturesAndRows) {
  Dataset D({"a", "b", "c"});
  D.addSample({1, 2, 3}, 1);
  D.addSample({4, 5, 6}, 2);
  Dataset F = D.selectFeatures({2, 0});
  EXPECT_EQ(F.featureNames(), (std::vector<std::string>{"c", "a"}));
  EXPECT_EQ(F.sample(1), (std::vector<double>{6, 4}));
  Dataset R = D.selectRows({1});
  EXPECT_EQ(R.numSamples(), 1u);
  EXPECT_DOUBLE_EQ(R.target(0), 2);
}

//===----------------------------------------------------------------------===//
// PolynomialFeatures
//===----------------------------------------------------------------------===//

TEST(PolyFeatTest, TermCounts) {
  EXPECT_EQ(PolynomialFeatures::countTerms(2, 2), 6u);   // 1,x,y,x2,xy,y2.
  EXPECT_EQ(PolynomialFeatures::countTerms(3, 1), 4u);
  EXPECT_EQ(PolynomialFeatures::countTerms(1, 5), 6u);
  EXPECT_EQ(PolynomialFeatures::countTerms(4, 0), 1u);
  PolynomialFeatures B(2, 2);
  EXPECT_EQ(B.numTerms(), 6u);
}

TEST(PolyFeatTest, ExpandMatchesMonomials) {
  PolynomialFeatures B(2, 2);
  std::vector<double> E = B.expand({2.0, 3.0});
  // Every monomial of degree <= 2 must appear exactly once.
  std::multiset<double> Got(E.begin(), E.end());
  std::multiset<double> Want = {1, 2, 3, 4, 6, 9};
  EXPECT_EQ(Got, Want);
}

TEST(PolyFeatTest, DegreeZeroIsConstant) {
  PolynomialFeatures B(3, 0);
  EXPECT_EQ(B.numTerms(), 1u);
  EXPECT_EQ(B.expand({5, 6, 7}), (std::vector<double>{1.0}));
}

TEST(PolyFeatTest, TermNames) {
  PolynomialFeatures B(2, 2);
  std::set<std::string> Names;
  for (size_t T = 0; T < B.numTerms(); ++T)
    Names.insert(B.termName(T, {"u", "v"}));
  EXPECT_TRUE(Names.count("1"));
  EXPECT_TRUE(Names.count("u*v"));
  EXPECT_TRUE(Names.count("v^2"));
}

//===----------------------------------------------------------------------===//
// PolynomialRegression
//===----------------------------------------------------------------------===//

namespace {
Dataset makeQuadratic(size_t N, double Noise, uint64_t Seed) {
  Rng R(Seed);
  Dataset D({"x", "y"});
  for (size_t I = 0; I < N; ++I) {
    double X = R.uniform(-2, 2), Y = R.uniform(-2, 2);
    double T = 3 + 2 * X - Y + 0.5 * X * Y + X * X;
    D.addSample({X, Y}, T + (Noise > 0 ? R.gaussian(0, Noise) : 0.0));
  }
  return D;
}
} // namespace

TEST(PolyRegTest, RecoversNoiselessQuadratic) {
  Dataset D = makeQuadratic(100, 0.0, 1);
  PolynomialRegression::Options O;
  O.Degree = 2;
  PolynomialRegression M = PolynomialRegression::fit(D, O);
  EXPECT_NEAR(M.r2(D), 1.0, 1e-9);
  EXPECT_NEAR(M.predict({1, 1}), 5.5, 1e-8);
  EXPECT_NEAR(M.predict({-1, 2}), 3 - 2 - 2 - 1 + 1, 1e-8);
}

TEST(PolyRegTest, StandardizationDoesNotChangeFit) {
  Dataset D = makeQuadratic(80, 0.1, 2);
  PolynomialRegression::Options O;
  O.Degree = 2;
  PolynomialRegression A = PolynomialRegression::fit(D, O);
  O.Standardize = false;
  PolynomialRegression B = PolynomialRegression::fit(D, O);
  EXPECT_NEAR(A.predict({0.5, -0.5}), B.predict({0.5, -0.5}), 1e-6);
}

TEST(PolyRegTest, UnderdeterminedFallsBackToRidge) {
  // 3 samples, degree 2 over 2 features = 6 terms: must not crash.
  Dataset D({"x", "y"});
  D.addSample({0, 0}, 1);
  D.addSample({1, 0}, 2);
  D.addSample({0, 1}, 3);
  PolynomialRegression::Options O;
  O.Degree = 2;
  PolynomialRegression M = PolynomialRegression::fit(D, O);
  // Ridge interpolates the training points closely.
  EXPECT_NEAR(M.predict({1, 0}), 2.0, 0.2);
}

TEST(PolyRegTest, RidgeFallbacksAreCounted) {
  Counter &Fallbacks =
      MetricsRegistry::global().counter("ml.fit.ridge_fallbacks");
  uint64_t Before = Fallbacks.value();
  PolynomialRegression::Options O;
  O.Degree = 2;
  // A well-posed fit registers the counter without bumping it.
  PolynomialRegression::fit(makeQuadratic(40, 0.0, 4), O);
  EXPECT_EQ(Fallbacks.value(), Before);
  Json Snapshot = MetricsRegistry::global().snapshotJson();
  const Json *Counters = Snapshot.find("counters");
  ASSERT_NE(Counters, nullptr);
  EXPECT_NE(Counters->find("ml.fit.ridge_fallbacks"), nullptr);
  // Underdetermined: 3 samples for 6 terms.
  Dataset Few({"x", "y"});
  Few.addSample({0, 0}, 1);
  Few.addSample({1, 0}, 2);
  Few.addSample({0, 1}, 3);
  PolynomialRegression::fit(Few, O);
  EXPECT_EQ(Fallbacks.value(), Before + 1);
  // Rank deficient: a binary feature makes x^2 equal x.
  Dataset Binary({"x", "y"});
  Rng R(5);
  for (int I = 0; I < 20; ++I)
    Binary.addSample({double(I % 2), R.uniform(-1, 1)}, R.uniform());
  PolynomialRegression::fit(Binary, O);
  EXPECT_EQ(Fallbacks.value(), Before + 2);
}

TEST(PolyRegTest, LinearDegreeUnderfitsQuadratic) {
  Dataset D = makeQuadratic(100, 0.0, 3);
  PolynomialRegression::Options O;
  O.Degree = 1;
  PolynomialRegression M = PolynomialRegression::fit(D, O);
  EXPECT_LT(M.r2(D), 0.95);
}

TEST(PolyRegTest, PredictAllMatchesPredict) {
  Dataset D = makeQuadratic(20, 0.0, 4);
  PolynomialRegression::Options O;
  O.Degree = 2;
  PolynomialRegression M = PolynomialRegression::fit(D, O);
  std::vector<double> All = M.predictAll(D);
  for (size_t I = 0; I < D.numSamples(); ++I)
    EXPECT_DOUBLE_EQ(All[I], M.predict(D.sample(I)));
}

TEST(PolyRegTest, PredictBatchMatchesPredictBitwise) {
  Dataset D = makeQuadratic(60, 0.05, 7);
  PolynomialRegression::Options O;
  O.Degree = 3;
  PolynomialRegression M = PolynomialRegression::fit(D, O);

  Rng R(8);
  size_t N = 37; // Deliberately not a round batch size.
  Matrix X(N, 2);
  for (size_t I = 0; I < N; ++I) {
    X.at(I, 0) = R.uniform(-3, 3);
    X.at(I, 1) = R.uniform(-3, 3);
  }
  PolynomialRegression::Scratch S;
  std::vector<double> Out;
  M.predictBatch(X, Out, S);
  ASSERT_EQ(Out.size(), N);
  for (size_t I = 0; I < N; ++I) {
    double Scalar = M.predict({X.at(I, 0), X.at(I, 1)});
    EXPECT_EQ(std::memcmp(&Out[I], &Scalar, sizeof(double)), 0)
        << "row " << I << ": " << Out[I] << " vs " << Scalar;
  }

  // Batch composition must not change bits: the same row evaluated in a
  // batch of one gives the identical double.
  Matrix One(1, 2);
  One.at(0, 0) = X.at(5, 0);
  One.at(0, 1) = X.at(5, 1);
  std::vector<double> Single;
  M.predictBatch(One, Single, S);
  EXPECT_EQ(std::memcmp(&Single[0], &Out[5], sizeof(double)), 0);
}

TEST(PolyRegTest, SimdTiersMatchGenericBitwise) {
  // The vector kernels use the same expressions as the generic loops
  // (independent lanes, two-rounding axpy, no FMA), so every tier must
  // produce the generic bits exactly -- across degrees, batch sizes with
  // unaligned tails, and both batch entry points. On a host whose best
  // tier is already Generic this degenerates to a self-comparison; the
  // CI AVX2 leg carries the real cross-tier check.
  const simd::Tier Best = simd::activeTier();
  for (int Degree : {1, 2, 3, 4}) {
    Dataset D = makeQuadratic(70, 0.05, 11 + static_cast<uint64_t>(Degree));
    PolynomialRegression::Options O;
    O.Degree = Degree;
    PolynomialRegression M = PolynomialRegression::fit(D, O);

    for (size_t N : {1u, 3u, 5u, 7u, 8u, 13u, 31u, 100u}) {
      Rng R(1000 * static_cast<uint64_t>(Degree) + N);
      Matrix X(N, 2);
      for (size_t I = 0; I < N; ++I) {
        X.at(I, 0) = R.uniform(-3, 3);
        X.at(I, 1) = R.uniform(-3, 3);
      }

      PolynomialRegression::Scratch SG, SB;
      std::vector<double> OutG, OutB;
      ASSERT_EQ(simd::setActiveTier(simd::Tier::Generic),
                simd::Tier::Generic);
      M.predictBatch(X, OutG, SG);
      simd::setActiveTier(Best);
      M.predictBatch(X, OutB, SB);
      ASSERT_EQ(OutG.size(), N);
      ASSERT_EQ(OutB.size(), N);
      for (size_t I = 0; I < N; ++I)
        EXPECT_EQ(std::memcmp(&OutG[I], &OutB[I], sizeof(double)), 0)
            << "degree " << Degree << ", batch " << N << ", row " << I;

      // The columnar entry point, fed deliberately misaligned columns
      // (offset by one double) so the unaligned loads are exercised.
      size_t Stride = N + 1;
      std::vector<double> Cols(1 + 2 * Stride);
      for (size_t I = 0; I < N; ++I) {
        Cols[1 + I] = X.at(I, 0);
        Cols[1 + Stride + I] = X.at(I, 1);
      }
      std::vector<double> ColG, ColB;
      simd::setActiveTier(simd::Tier::Generic);
      M.predictBatchColumns(Cols.data() + 1, Stride, N, ColG, SG);
      simd::setActiveTier(Best);
      M.predictBatchColumns(Cols.data() + 1, Stride, N, ColB, SB);
      for (size_t I = 0; I < N; ++I) {
        EXPECT_EQ(std::memcmp(&ColG[I], &ColB[I], sizeof(double)), 0)
            << "columns, degree " << Degree << ", batch " << N;
        EXPECT_EQ(std::memcmp(&ColG[I], &OutG[I], sizeof(double)), 0)
            << "columns vs rows, degree " << Degree << ", batch " << N;
      }
    }
  }
  simd::setActiveTier(Best);
}

/// Degree sweep: exact recovery of a 1-D polynomial of each degree.
class PolyDegreeTest : public testing::TestWithParam<int> {};

TEST_P(PolyDegreeTest, ExactRecoveryAtMatchingDegree) {
  int Degree = GetParam();
  Rng R(static_cast<uint64_t>(Degree));
  Dataset D({"x"});
  for (int I = 0; I < 80; ++I) {
    double X = R.uniform(-1.5, 1.5);
    double T = 0;
    for (int K = 0; K <= Degree; ++K)
      T += std::pow(X, K) * (K + 1);
    D.addSample({X}, T);
  }
  PolynomialRegression::Options O;
  O.Degree = Degree;
  PolynomialRegression M = PolynomialRegression::fit(D, O);
  EXPECT_GT(M.r2(D), 1.0 - 1e-8) << "degree " << Degree;
}

INSTANTIATE_TEST_SUITE_P(Degrees, PolyDegreeTest, testing::Range(1, 7));

//===----------------------------------------------------------------------===//
// Cross-validation
//===----------------------------------------------------------------------===//

TEST(CvTest, FoldsPartitionIndices) {
  Rng R(5);
  auto Folds = kFoldIndices(23, 5, R);
  EXPECT_EQ(Folds.size(), 5u);
  std::set<size_t> All;
  for (const auto &Fold : Folds) {
    EXPECT_FALSE(Fold.empty());
    for (size_t I : Fold) {
      EXPECT_TRUE(All.insert(I).second) << "duplicate index";
      EXPECT_LT(I, 23u);
    }
  }
  EXPECT_EQ(All.size(), 23u);
}

TEST(CvTest, FoldsClampToSampleCount) {
  Rng R(5);
  auto Folds = kFoldIndices(3, 10, R);
  EXPECT_EQ(Folds.size(), 3u);
}

TEST(CvTest, CleanDataScoresHigh) {
  Dataset D = makeQuadratic(150, 0.02, 6);
  PolynomialRegression::Options O;
  O.Degree = 2;
  Rng R(7);
  EXPECT_GT(crossValidatedR2(D, O, 10, R), 0.99);
}

TEST(CvTest, WrongDegreeScoresLower) {
  Dataset D = makeQuadratic(150, 0.02, 8);
  PolynomialRegression::Options O;
  O.Degree = 1;
  Rng R(7);
  EXPECT_LT(crossValidatedR2(D, O, 10, R), 0.95);
}

TEST(CvTest, TrainTestSplitDisjointAndComplete) {
  Rng R(9);
  std::vector<size_t> Train, Test;
  trainTestSplit(100, 0.3, R, Train, Test);
  EXPECT_EQ(Test.size(), 30u);
  EXPECT_EQ(Train.size(), 70u);
  std::set<size_t> All(Train.begin(), Train.end());
  for (size_t I : Test)
    EXPECT_TRUE(All.insert(I).second);
  EXPECT_EQ(All.size(), 100u);
}

//===----------------------------------------------------------------------===//
// ConfidenceInterval
//===----------------------------------------------------------------------===//

TEST(ConfidenceTest, HalfWidthQuantiles) {
  // |residuals| = 1..10.
  std::vector<double> R;
  for (int I = 1; I <= 10; ++I)
    R.push_back(I % 2 ? I : -I);
  ConfidenceInterval CI = ConfidenceInterval::fromResiduals(R);
  EXPECT_DOUBLE_EQ(CI.halfWidth(1.0), 10.0);
  EXPECT_DOUBLE_EQ(CI.halfWidth(0.5), 5.0);
  EXPECT_DOUBLE_EQ(CI.halfWidth(0.0), 0.0);
}

TEST(ConfidenceTest, BoundsBracketPrediction) {
  ConfidenceInterval CI = ConfidenceInterval::fromResiduals({1, -2, 3});
  EXPECT_DOUBLE_EQ(CI.upperBound(10.0, 1.0), 13.0);
  EXPECT_DOUBLE_EQ(CI.lowerBound(10.0, 1.0), 7.0);
}

TEST(ConfidenceTest, EmptyResidualsAreZeroWidth) {
  ConfidenceInterval CI;
  EXPECT_DOUBLE_EQ(CI.halfWidth(0.99), 0.0);
}

TEST(ConfidenceTest, CoverageProperty) {
  // Gaussian residuals: the p=0.9 half width must cover ~90% of a fresh
  // sample from the same distribution.
  Rng R(11);
  std::vector<double> Residuals;
  for (int I = 0; I < 2000; ++I)
    Residuals.push_back(R.gaussian(0, 2));
  ConfidenceInterval CI = ConfidenceInterval::fromResiduals(Residuals);
  double HW = CI.halfWidth(0.9);
  size_t Covered = 0;
  for (int I = 0; I < 2000; ++I)
    Covered += std::fabs(R.gaussian(0, 2)) <= HW;
  EXPECT_NEAR(static_cast<double>(Covered) / 2000, 0.9, 0.03);
}

//===----------------------------------------------------------------------===//
// DecisionTree
//===----------------------------------------------------------------------===//

TEST(TreeTest, PureLabelsYieldSingleLeaf) {
  std::vector<std::vector<double>> X = {{1}, {2}, {3}};
  std::vector<int> Y = {7, 7, 7};
  DecisionTree T = DecisionTree::fit(X, Y);
  EXPECT_EQ(T.numNodes(), 1u);
  EXPECT_EQ(T.predict({99}), 7);
}

TEST(TreeTest, SimpleThresholdSplit) {
  std::vector<std::vector<double>> X = {{1}, {2}, {3}, {10}, {11}, {12}};
  std::vector<int> Y = {0, 0, 0, 1, 1, 1};
  DecisionTree T = DecisionTree::fit(X, Y);
  EXPECT_EQ(T.predict({0}), 0);
  EXPECT_EQ(T.predict({20}), 1);
  EXPECT_EQ(T.depth(), 1u);
  EXPECT_EQ(T.numLeaves(), 2u);
}

TEST(TreeTest, LearnsConjunctionWithTwoLevels) {
  // a AND b requires two nested splits (greedy CART cannot learn XOR,
  // but conjunctions it handles exactly).
  std::vector<std::vector<double>> X;
  std::vector<int> Y;
  for (double A : {0.0, 0.3, 0.7, 1.0})
    for (double B : {0.0, 0.3, 0.7, 1.0}) {
      X.push_back({A, B});
      Y.push_back(A > 0.5 && B > 0.5 ? 1 : 0);
    }
  DecisionTree T = DecisionTree::fit(X, Y);
  EXPECT_DOUBLE_EQ(T.accuracy(X, Y), 1.0);
  EXPECT_GE(T.depth(), 2u);
}

TEST(TreeTest, MaxDepthLimitsTree) {
  Rng R(13);
  std::vector<std::vector<double>> X;
  std::vector<int> Y;
  for (int I = 0; I < 200; ++I) {
    double A = R.uniform(), B = R.uniform();
    X.push_back({A, B});
    Y.push_back(static_cast<int>(A * 4) ^ static_cast<int>(B * 4));
  }
  DecisionTree::Options O;
  O.MaxDepth = 2;
  DecisionTree T = DecisionTree::fit(X, Y, O);
  EXPECT_LE(T.depth(), 2u);
}

TEST(TreeTest, MinSamplesLeafRespected) {
  std::vector<std::vector<double>> X = {{1}, {2}, {3}, {4}};
  std::vector<int> Y = {0, 1, 0, 1};
  DecisionTree::Options O;
  O.MinSamplesLeaf = 3;
  DecisionTree T = DecisionTree::fit(X, Y, O);
  // No split can give both sides >= 3 samples out of 4.
  EXPECT_EQ(T.numNodes(), 1u);
}

TEST(TreeTest, MultiClassSeparable) {
  std::vector<std::vector<double>> X;
  std::vector<int> Y;
  for (int C = 0; C < 4; ++C)
    for (int I = 0; I < 10; ++I) {
      X.push_back({C * 10.0 + I * 0.1, 0.0});
      Y.push_back(C);
    }
  DecisionTree T = DecisionTree::fit(X, Y);
  EXPECT_DOUBLE_EQ(T.accuracy(X, Y), 1.0);
  EXPECT_EQ(T.predict({15.0, 0.0}), 1);
}

TEST(TreeTest, DumpMentionsFeatureNames) {
  std::vector<std::vector<double>> X = {{1, 0}, {5, 0}};
  std::vector<int> Y = {0, 1};
  DecisionTree T = DecisionTree::fit(X, Y);
  std::string Dump = T.dump({"speed", "mass"});
  EXPECT_NE(Dump.find("speed"), std::string::npos);
  EXPECT_NE(Dump.find("leaf"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// MIC
//===----------------------------------------------------------------------===//

namespace {
std::pair<std::vector<double>, std::vector<double>> micSeries(
    uint64_t Seed, const char *Kind) {
  Rng R(Seed);
  std::vector<double> X, Y;
  for (int I = 0; I < 400; ++I) {
    double XV = R.uniform(-3, 3);
    X.push_back(XV);
    if (std::string(Kind) == "independent")
      Y.push_back(R.uniform(-3, 3));
    else if (std::string(Kind) == "linear")
      Y.push_back(2 * XV + 1);
    else if (std::string(Kind) == "quadratic")
      Y.push_back(XV * XV);
    else
      Y.push_back(std::sin(2 * XV));
  }
  return {X, Y};
}
} // namespace

TEST(MicTest, IndependentNearZero) {
  auto [X, Y] = micSeries(1, "independent");
  EXPECT_LT(mic(X, Y), 0.25);
}

TEST(MicTest, LinearNearOne) {
  auto [X, Y] = micSeries(2, "linear");
  EXPECT_GT(mic(X, Y), 0.9);
}

TEST(MicTest, QuadraticHigh) {
  auto [X, Y] = micSeries(3, "quadratic");
  EXPECT_GT(mic(X, Y), 0.7);
}

TEST(MicTest, SineHigherThanNoise) {
  auto [X, Y] = micSeries(4, "sine");
  auto [XN, YN] = micSeries(5, "independent");
  EXPECT_GT(mic(X, Y), mic(XN, YN) + 0.2);
}

TEST(MicTest, ConstantSeriesZero) {
  std::vector<double> X(100, 1.0), Y;
  Rng R(6);
  for (int I = 0; I < 100; ++I)
    Y.push_back(R.uniform());
  EXPECT_DOUBLE_EQ(mic(X, Y), 0.0);
}

TEST(MicTest, TinySampleZero) {
  EXPECT_DOUBLE_EQ(mic({1, 2, 3}, {1, 2, 3}), 0.0);
}

TEST(MicTest, EqualFrequencyBinsBalanced) {
  std::vector<double> V;
  for (int I = 0; I < 12; ++I)
    V.push_back(I);
  size_t Used = 0;
  std::vector<size_t> Bins = equalFrequencyBins(V, 4, Used);
  EXPECT_EQ(Used, 4u);
  std::vector<int> Counts(4, 0);
  for (size_t B : Bins)
    ++Counts[B];
  for (int C : Counts)
    EXPECT_EQ(C, 3);
}

TEST(MicTest, TiesShareABin) {
  std::vector<double> V = {1, 1, 1, 1, 2, 3};
  size_t Used = 0;
  std::vector<size_t> Bins = equalFrequencyBins(V, 3, Used);
  EXPECT_EQ(Bins[0], Bins[3]); // All the 1s together.
}

TEST(MicTest, MutualInformationOfIdenticalBins) {
  // X == Y with 2 uniform bins: MI = 1 bit.
  std::vector<size_t> B = {0, 1, 0, 1, 0, 1, 0, 1};
  EXPECT_NEAR(mutualInformation(B, B, 2, 2), 1.0, 1e-12);
}

TEST(MicTest, MutualInformationOfIndependentBins) {
  std::vector<size_t> X = {0, 0, 1, 1};
  std::vector<size_t> Y = {0, 1, 0, 1};
  EXPECT_NEAR(mutualInformation(X, Y, 2, 2), 0.0, 1e-12);
}

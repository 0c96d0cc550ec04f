//===- tests/ModelSelectionTests.cpp - Sec. 3.7 policy tests --------------===//
//
// Part of the OPPROX reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "ml/ModelSelection.h"
#include <cmath>
#include <cstring>
#include <gtest/gtest.h>

using namespace opprox;

namespace {

/// Target = quadratic in x; feature "noise" is pure noise.
Dataset makeWithNoiseFeature(size_t N, uint64_t Seed) {
  Rng R(Seed);
  Dataset D({"x", "noise"});
  for (size_t I = 0; I < N; ++I) {
    double X = R.uniform(-2, 2);
    double Noise = R.uniform(-5, 5);
    D.addSample({X, Noise}, 1 + X + 2 * X * X + R.gaussian(0, 0.02));
  }
  return D;
}

} // namespace

TEST(SelectTest, ReachesTargetOnCleanQuadratic) {
  Rng R(1);
  Dataset D = makeWithNoiseFeature(200, 2);
  ModelSelectOptions O;
  SelectedModel M = SelectedModel::train(D, O, R);
  EXPECT_GT(M.cvR2(), 0.95);
  EXPECT_GE(M.degree(), 2);
  EXPECT_NEAR(M.predict({1.0, 0.0}), 4.0, 0.2);
}

TEST(SelectTest, MicFilterDropsNoiseFeature) {
  Rng R(3);
  Dataset D = makeWithNoiseFeature(300, 4);
  ModelSelectOptions O;
  O.MicThreshold = 0.2;
  SelectedModel M = SelectedModel::train(D, O, R);
  ASSERT_EQ(M.keptFeatures().size(), 1u);
  EXPECT_EQ(M.keptFeatures()[0], 0u); // "x" survives, "noise" dropped.
}

TEST(SelectTest, FilterDisabledKeepsAll) {
  Rng R(5);
  Dataset D = makeWithNoiseFeature(100, 6);
  ModelSelectOptions O;
  O.MicThreshold = 0.0;
  SelectedModel M = SelectedModel::train(D, O, R);
  EXPECT_EQ(M.keptFeatures().size(), 2u);
}

TEST(SelectTest, AllFeaturesUselessKeepsAll) {
  // Target independent of both features: nothing clears the MIC bar, so
  // the policy keeps everything rather than fitting on nothing.
  Rng R(7);
  Dataset D({"a", "b"});
  for (int I = 0; I < 100; ++I)
    D.addSample({R.uniform(), R.uniform()}, R.uniform());
  ModelSelectOptions O;
  O.MicThreshold = 0.5;
  SelectedModel M = SelectedModel::train(D, O, R);
  EXPECT_EQ(M.keptFeatures().size(), 2u);
}

TEST(SelectTest, SubcategorySplitOnPiecewiseData) {
  // A step discontinuity no global low-degree polynomial can fit well:
  // the Sec. 3.7 fallback splits on the informative feature.
  Rng R(8);
  Dataset D({"x"});
  for (int I = 0; I < 300; ++I) {
    double X = R.uniform(0, 10);
    double T = X < 5 ? std::sin(3 * X) : 40 + X * X;
    D.addSample({X}, T + R.gaussian(0, 0.01));
  }
  ModelSelectOptions O;
  O.MaxDegree = 2;
  O.TargetR2 = 0.999;
  SelectedModel M = SelectedModel::train(D, O, R);
  EXPECT_GE(M.numSubmodels(), 2u);
}

TEST(SelectTest, PredictBatchMatchesPredictBitwiseAcrossSplits) {
  // A forced-split model exercises the gather/scatter batch path: rows
  // route to different submodels, yet every row's result must be
  // bit-identical to the scalar predict.
  Rng R(11);
  Dataset D({"x", "y"});
  for (int I = 0; I < 300; ++I) {
    double X = R.uniform(0, 10);
    double Y = R.uniform(-1, 1);
    double T = (X < 5 ? std::sin(3 * X) : 40 + X * X) + 0.5 * Y;
    D.addSample({X, Y}, T + R.gaussian(0, 0.01));
  }
  ModelSelectOptions O;
  O.MaxDegree = 2;
  O.TargetR2 = 0.999;
  SelectedModel M = SelectedModel::train(D, O, R);
  ASSERT_GE(M.numSubmodels(), 2u) << "dataset failed to force a split";

  size_t N = 64;
  Matrix X(N, 2);
  for (size_t I = 0; I < N; ++I) {
    X.at(I, 0) = R.uniform(0, 10); // Straddles the split boundary.
    X.at(I, 1) = R.uniform(-1, 1);
  }
  SelectedModel::BatchScratch S;
  std::vector<double> Out;
  M.predictBatch(X, Out, S);
  ASSERT_EQ(Out.size(), N);
  for (size_t I = 0; I < N; ++I) {
    double Scalar = M.predict({X.at(I, 0), X.at(I, 1)});
    EXPECT_EQ(std::memcmp(&Out[I], &Scalar, sizeof(double)), 0)
        << "row " << I << ": " << Out[I] << " vs " << Scalar;
  }
}

TEST(SelectTest, NoSplitWhenDataScarce) {
  Rng R(9);
  Dataset D({"x"});
  for (int I = 0; I < 30; ++I) {
    double X = R.uniform(0, 10);
    D.addSample({X}, X < 5 ? 0.0 : 100.0);
  }
  ModelSelectOptions O;
  O.MinSubcategorySamples = 50; // More than available.
  SelectedModel M = SelectedModel::train(D, O, R);
  EXPECT_EQ(M.numSubmodels(), 1u);
}

TEST(SelectTest, BoundsBracketPrediction) {
  Rng R(10);
  Dataset D = makeWithNoiseFeature(150, 11);
  ModelSelectOptions O;
  SelectedModel M = SelectedModel::train(D, O, R);
  std::vector<double> X = {0.7, 1.0};
  double Pred = M.predict(X);
  EXPECT_LE(M.lowerBound(X, 0.99), Pred);
  EXPECT_GE(M.upperBound(X, 0.99), Pred);
  // Higher coverage -> wider interval.
  EXPECT_LE(M.upperBound(X, 0.5), M.upperBound(X, 0.99));
}

TEST(SelectTest, ConfidenceIntervalHasResiduals) {
  Rng R(12);
  Dataset D = makeWithNoiseFeature(100, 13);
  ModelSelectOptions O;
  SelectedModel M = SelectedModel::train(D, O, R);
  EXPECT_GT(M.confidence().numResiduals(), 50u);
}

TEST(SelectTest, OutOfFoldIntervalCoversFreshData) {
  // The 0.95 interval from out-of-fold residuals should cover roughly
  // >= 90% of fresh draws from the same process.
  Rng R(14);
  Dataset Train = makeWithNoiseFeature(300, 15);
  ModelSelectOptions O;
  SelectedModel M = SelectedModel::train(Train, O, R);
  Dataset Fresh = makeWithNoiseFeature(300, 16);
  double HW = M.confidence().halfWidth(0.95);
  size_t Covered = 0;
  for (size_t I = 0; I < Fresh.numSamples(); ++I)
    Covered += std::fabs(M.predict(Fresh.sample(I)) - Fresh.target(I)) <= HW;
  EXPECT_GT(static_cast<double>(Covered) / Fresh.numSamples(), 0.85);
}

/// Degree escalation should stop at (or near) the generating degree.
class SelectDegreeTest : public testing::TestWithParam<int> {};

TEST_P(SelectDegreeTest, EscalatesToGeneratingDegree) {
  int TrueDegree = GetParam();
  Rng R(static_cast<uint64_t>(20 + TrueDegree));
  Dataset D({"x"});
  for (int I = 0; I < 220; ++I) {
    double X = R.uniform(-1.5, 1.5);
    // Pure monomial: lower degrees cannot reach the strict target.
    D.addSample({X}, std::pow(X, TrueDegree) + R.gaussian(0, 0.001));
  }
  ModelSelectOptions O;
  O.TargetR2 = 0.999;
  SelectedModel M = SelectedModel::train(D, O, R);
  EXPECT_GE(M.degree(), TrueDegree);
  EXPECT_GT(M.cvR2(), 0.99);
}

INSTANTIATE_TEST_SUITE_P(Degrees, SelectDegreeTest, testing::Range(2, 6));

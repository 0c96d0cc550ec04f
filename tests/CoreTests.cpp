//===- tests/CoreTests.cpp - sampler/profiler/detector tests --------------===//
//
// Part of the OPPROX reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "apps/AppRegistry.h"
#include "core/ControlFlowModel.h"
#include "core/PhaseDetector.h"
#include "core/Profiler.h"
#include "core/Sampler.h"
#include "core/TrainingData.h"
#include "support/StringUtils.h"
#include <gtest/gtest.h>
#include <set>

using namespace opprox;

//===----------------------------------------------------------------------===//
// Sampler
//===----------------------------------------------------------------------===//

TEST(SamplerTest, LocalConfigsCoverEachBlockExhaustively) {
  Rng R(1);
  SamplingPlan Plan = makeSamplingPlan({5, 3, 4}, 0, R);
  EXPECT_EQ(Plan.LocalConfigs.size(), 12u); // 5 + 3 + 4.
  EXPECT_TRUE(Plan.JointConfigs.empty());
  for (const auto &Config : Plan.LocalConfigs) {
    int NonZero = 0;
    for (int L : Config)
      NonZero += L != 0;
    EXPECT_EQ(NonZero, 1) << "local config approximates exactly one block";
  }
  // Every (block, level) pair appears once.
  std::set<std::pair<size_t, int>> Seen;
  for (const auto &Config : Plan.LocalConfigs)
    for (size_t B = 0; B < Config.size(); ++B)
      if (Config[B] != 0)
        Seen.insert({B, Config[B]});
  EXPECT_EQ(Seen.size(), 12u);
}

TEST(SamplerTest, JointConfigsNonZeroAndInRange) {
  Rng R(2);
  SamplingPlan Plan = makeSamplingPlan({5, 5}, 50, R);
  EXPECT_EQ(Plan.JointConfigs.size(), 50u);
  for (const auto &Config : Plan.JointConfigs) {
    bool AllZero = true;
    for (size_t B = 0; B < Config.size(); ++B) {
      EXPECT_GE(Config[B], 0);
      EXPECT_LE(Config[B], 5);
      AllZero = AllZero && Config[B] == 0;
    }
    EXPECT_FALSE(AllZero);
  }
  EXPECT_EQ(Plan.all().size(), Plan.size());
}

TEST(SamplerTest, EnumerateAllConfigsIsCartesian) {
  auto All = enumerateAllConfigs({2, 1});
  EXPECT_EQ(All.size(), 6u);
  EXPECT_EQ(All.front(), (std::vector<int>{0, 0}));
  std::set<std::vector<int>> Unique(All.begin(), All.end());
  EXPECT_EQ(Unique.size(), 6u);
}

TEST(SamplerTest, EnumerateMatchesConfigurationCount) {
  auto All = enumerateAllConfigs({5, 5, 5, 5});
  EXPECT_EQ(All.size(), 1296u); // 6^4, the per-phase space of LULESH.
}

TEST(SamplerTest, ConfigCursorStreamsEnumerationOrder) {
  std::vector<int> MaxLevels = {2, 1, 3};
  auto All = enumerateAllConfigs(MaxLevels);
  ConfigCursor Cursor(MaxLevels);
  EXPECT_EQ(Cursor.spaceSize(), All.size());
  size_t I = 0;
  for (; !Cursor.done(); Cursor.next(), ++I) {
    ASSERT_LT(I, All.size());
    EXPECT_EQ(Cursor.index(), I);
    EXPECT_EQ(Cursor.levels(), All[I]);
  }
  EXPECT_EQ(I, All.size());
}

TEST(SamplerTest, ConfigCursorSeekIsRandomAccess) {
  std::vector<int> MaxLevels = {2, 2, 2};
  auto All = enumerateAllConfigs(MaxLevels);
  ConfigCursor Cursor(MaxLevels);
  for (size_t I : {26u, 0u, 13u, 5u, 13u}) {
    Cursor.seek(I);
    ASSERT_FALSE(Cursor.done());
    EXPECT_EQ(Cursor.index(), I);
    EXPECT_EQ(Cursor.levels(), All[I]);
  }
  Cursor.seek(All.size());
  EXPECT_TRUE(Cursor.done());
}

TEST(SamplerTest, ConfigSpaceSizeRejectsOversizedSpaces) {
  EXPECT_TRUE(static_cast<bool>(configSpaceSize({5, 5, 5, 5})));
  Expected<size_t> Huge =
      configSpaceSize(std::vector<int>(64, 9)); // 10^64 configs.
  ASSERT_FALSE(static_cast<bool>(Huge));
  EXPECT_NE(Huge.error().message().find("exceeds the limit"),
            std::string::npos);
  // A caller-provided tighter limit is honored too.
  EXPECT_FALSE(static_cast<bool>(configSpaceSize({5, 5}, 35)));
}

TEST(SamplerTest, EnumerateAllConfigsHardFailsOnOversizedSpace) {
  // The old assert compiled out in NDEBUG builds and silently tried to
  // materialize the space; now every build type fails loudly.
  EXPECT_DEATH(enumerateAllConfigs(std::vector<int>(64, 9)),
               "exceeds the limit");
}

TEST(SamplerTest, ConfigCursorHardFailsOnOversizedSpace) {
  // The cursor constructor has its own fatal guard (Sampler.cpp), hit by
  // callers that stream configurations instead of materializing them.
  EXPECT_DEATH(ConfigCursor(std::vector<int>(64, 9)), "exceeds the limit");
}

//===----------------------------------------------------------------------===//
// TrainingSet
//===----------------------------------------------------------------------===//

namespace {
TrainingSample makeSample(int Phase, double Speedup, double Qos, int Class) {
  TrainingSample S;
  S.Input = {1.0, 2.0};
  S.Levels = {1, 0};
  S.Phase = Phase;
  S.Speedup = Speedup;
  S.QosDegradation = Qos;
  S.OuterIterations = 100;
  S.ControlFlowClass = Class;
  return S;
}
} // namespace

TEST(TrainingSetTest, FiltersByPhaseAndClass) {
  TrainingSet Set;
  Set.add(makeSample(0, 1.1, 2, 0));
  Set.add(makeSample(1, 1.2, 3, 0));
  Set.add(makeSample(0, 1.3, 4, 1));
  Set.add(makeSample(AllPhases, 1.4, 5, 0));
  EXPECT_EQ(Set.forPhase(0).size(), 2u);
  EXPECT_EQ(Set.forPhase(AllPhases).size(), 1u);
  EXPECT_EQ(Set.forClass(1).size(), 1u);
  EXPECT_EQ(Set.filter([](const TrainingSample &S) {
                 return S.Speedup > 1.15;
               }).size(),
            3u);
}

TEST(TrainingSetTest, CsvRoundTrip) {
  TrainingSet Set;
  Set.add(makeSample(2, 1.25, 7.5, 3));
  Set.add(makeSample(AllPhases, 0.9, 1000.0, 0));
  std::string Csv = Set.toCsv({"a", "b"}, {"k1", "k2"});
  Expected<TrainingSet> Back = TrainingSet::fromCsv(Csv, 2, 2);
  ASSERT_TRUE(static_cast<bool>(Back));
  ASSERT_EQ(Back->size(), 2u);
  EXPECT_EQ((*Back)[0].Phase, 2);
  EXPECT_DOUBLE_EQ((*Back)[0].Speedup, 1.25);
  EXPECT_DOUBLE_EQ((*Back)[1].QosDegradation, 1000.0);
  EXPECT_EQ((*Back)[1].Phase, AllPhases);
  EXPECT_EQ((*Back)[0].Levels, (std::vector<int>{1, 0}));
}

TEST(TrainingSetTest, CsvHeaderNamesColumns) {
  TrainingSet Set;
  Set.add(makeSample(0, 1, 0, 0)); // 2 inputs, 2 levels.
  std::string Csv = Set.toCsv({"mesh", "regions"}, {"forces", "strain"});
  EXPECT_EQ(split(Csv, '\n')[0],
            "in_mesh,in_regions,al_forces,al_strain,phase,speedup,"
            "qos_degradation,outer_iterations,cf_class");
}

TEST(TrainingSetTest, CsvRejectsMalformedRows) {
  std::string Bad = "h1,h2,h3,h4,h5,h6,h7\n1,2,3\n";
  Expected<TrainingSet> R = TrainingSet::fromCsv(Bad, 1, 1);
  EXPECT_FALSE(static_cast<bool>(R));
  std::string BadNum = "h,h,h,h,h,h,h\n1,x,0,1.0,0.0,10,0\n";
  EXPECT_FALSE(static_cast<bool>(TrainingSet::fromCsv(BadNum, 1, 1)));
}

TEST(TrainingSetTest, CsvSkipsBlankLines) {
  TrainingSet Set;
  Set.add(makeSample(0, 1, 0, 0));
  std::string Csv = Set.toCsv({"a", "b"}, {"x", "y"}) + "\n\n";
  Expected<TrainingSet> Back = TrainingSet::fromCsv(Csv, 2, 2);
  ASSERT_TRUE(static_cast<bool>(Back));
  EXPECT_EQ(Back->size(), 1u);
}

//===----------------------------------------------------------------------===//
// SignatureRegistry
//===----------------------------------------------------------------------===//

TEST(SignatureTest, StableIdsFirstComeFirstServed) {
  SignatureRegistry Reg;
  EXPECT_EQ(Reg.classOf("a,b"), 0);
  EXPECT_EQ(Reg.classOf("b,a"), 1);
  EXPECT_EQ(Reg.classOf("a,b"), 0);
  EXPECT_EQ(Reg.numClasses(), 2u);
  EXPECT_EQ(Reg.lookup("b,a"), 1);
  EXPECT_EQ(Reg.lookup("missing"), -1);
}

//===----------------------------------------------------------------------===//
// Profiler
//===----------------------------------------------------------------------===//

TEST(ProfilerTest, MeasureProducesSaneSample) {
  auto App = createApp("pso");
  GoldenCache Golden(*App);
  Profiler Prof(*App, Golden);
  TrainingSample S =
      Prof.measure(App->defaultInput(), {2, 0, 0}, /*Phase=*/1, 4);
  EXPECT_EQ(S.Input, App->defaultInput());
  EXPECT_EQ(S.Phase, 1);
  EXPECT_GT(S.Speedup, 0.0);
  EXPECT_GE(S.QosDegradation, 0.0);
  EXPECT_GT(S.OuterIterations, 0.0);
  EXPECT_EQ(S.ControlFlowClass, 0);
  EXPECT_EQ(Prof.runsPerformed(), 1u);
}

TEST(ProfilerTest, CollectCoversPhasesAndConfigs) {
  auto App = createApp("pso");
  GoldenCache Golden(*App);
  Profiler Prof(*App, Golden);
  ProfileOptions Opts;
  Opts.NumPhases = 2;
  Opts.RandomJointSamples = 3;
  std::vector<std::vector<double>> Inputs = {App->defaultInput()};
  TrainingSet Set = Prof.collect(Inputs, Opts);
  // (3 blocks x 5 levels local + 3 joint) x (2 phases + all) = 54.
  EXPECT_EQ(Set.size(), 54u);
  EXPECT_EQ(Set.forPhase(0).size(), 18u);
  EXPECT_EQ(Set.forPhase(1).size(), 18u);
  EXPECT_EQ(Set.forPhase(AllPhases).size(), 18u);
}

TEST(ProfilerTest, GoldenCacheAvoidsRecomputation) {
  auto App = createApp("pso");
  GoldenCache Golden(*App);
  const RunResult &A = Golden.exactRun(App->defaultInput());
  const RunResult &B = Golden.exactRun(App->defaultInput());
  EXPECT_EQ(&A, &B);
  EXPECT_EQ(Golden.numCached(), 1u);
  EXPECT_EQ(Golden.nominalIterations(App->defaultInput()),
            A.OuterIterations);
}

//===----------------------------------------------------------------------===//
// ControlFlowModel
//===----------------------------------------------------------------------===//

TEST(ControlFlowTest, PredictsSeparableClasses) {
  std::vector<std::vector<double>> Inputs;
  std::vector<int> Classes;
  for (int I = 0; I < 20; ++I) {
    Inputs.push_back({static_cast<double>(I), 1.0});
    Classes.push_back(I < 10 ? 0 : 1);
  }
  ControlFlowModel M = ControlFlowModel::train(Inputs, Classes);
  EXPECT_EQ(M.predictClass({3.0, 1.0}), 0);
  EXPECT_EQ(M.predictClass({15.0, 1.0}), 1);
  EXPECT_DOUBLE_EQ(M.accuracy(Inputs, Classes), 1.0);
}

TEST(ControlFlowTest, FfmpegFilterOrderIsLearnable) {
  // The classifier learns that filter_order selects the control flow,
  // exactly as Sec. 3.4 describes.
  auto App = createApp("ffmpeg");
  GoldenCache Golden(*App);
  Profiler Prof(*App, Golden);
  std::vector<std::vector<double>> Inputs;
  std::vector<int> Classes;
  for (const auto &Input : App->trainingInputs()) {
    Inputs.push_back(Input);
    Classes.push_back(Prof.signatures().classOf(
        Golden.exactRun(Input).ControlFlowSignature));
  }
  EXPECT_EQ(Prof.signatures().numClasses(), 2u);
  ControlFlowModel M = ControlFlowModel::train(Inputs, Classes);
  EXPECT_DOUBLE_EQ(M.accuracy(Inputs, Classes), 1.0);
}

//===----------------------------------------------------------------------===//
// PhaseDetector (Algorithm 1)
//===----------------------------------------------------------------------===//

TEST(PhaseDetectorTest, MaxQosDiffNonNegative) {
  auto App = createApp("pso");
  GoldenCache Golden(*App);
  Profiler Prof(*App, Golden);
  PhaseDetectOptions Opts;
  Opts.ProbeConfigs = 3;
  EXPECT_GE(maxQosDiff(Prof, App->defaultInput(), 2, Opts), 0.0);
}

TEST(PhaseDetectorTest, ReturnsPowerOfTwoWithinCap) {
  auto App = createApp("pso");
  GoldenCache Golden(*App);
  Profiler Prof(*App, Golden);
  PhaseDetectOptions Opts;
  Opts.ProbeConfigs = 3;
  Opts.MaxPhases = 8;
  size_t N = detectPhaseCount(Prof, App->defaultInput(), Opts);
  EXPECT_TRUE(N == 2 || N == 4 || N == 8) << N;
}

TEST(PhaseDetectorTest, HugeThresholdStopsAtTwo) {
  auto App = createApp("pso");
  GoldenCache Golden(*App);
  Profiler Prof(*App, Golden);
  PhaseDetectOptions Opts;
  Opts.ProbeConfigs = 2;
  Opts.Threshold = 1e9;
  EXPECT_EQ(detectPhaseCount(Prof, App->defaultInput(), Opts), 2u);
}

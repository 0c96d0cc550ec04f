//===- tests/ProfilerResumeTests.cpp - phase-prefix reuse tests -----------===//
//
// Part of the OPPROX reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Phase-prefix reuse must be invisible in every result. For every
/// application, a run resumed from a golden-run checkpoint must equal the
/// from-scratch run field by field (output bitwise), and collect() -- at
/// any worker count -- must equal a TrainingSet assembled from
/// from-scratch measure() calls bit for bit. Also covers the checkpoint
/// recorder's placement and pruning rules and the reuse counter.
///
//===----------------------------------------------------------------------===//

#include "apps/AppRegistry.h"
#include "core/Profiler.h"
#include "core/Sampler.h"
#include "support/Random.h"
#include "support/Telemetry.h"
#include <cstring>
#include <gtest/gtest.h>

using namespace opprox;

namespace {

bool sameBits(double A, double B) {
  return std::memcmp(&A, &B, sizeof(double)) == 0;
}

void expectSameRun(const RunResult &Resumed, const RunResult &Scratch,
                   const std::string &Where) {
  EXPECT_EQ(Resumed.WorkUnits, Scratch.WorkUnits) << Where;
  EXPECT_EQ(Resumed.OuterIterations, Scratch.OuterIterations) << Where;
  ASSERT_EQ(Resumed.Output.size(), Scratch.Output.size()) << Where;
  EXPECT_EQ(std::memcmp(Resumed.Output.data(), Scratch.Output.data(),
                        Scratch.Output.size() * sizeof(double)),
            0)
      << Where << ": output differs";
  EXPECT_EQ(Resumed.WorkPerIteration, Scratch.WorkPerIteration) << Where;
  EXPECT_EQ(Resumed.ControlFlowSignature, Scratch.ControlFlowSignature)
      << Where;
}

void expectSameSet(const TrainingSet &Got, const TrainingSet &Want,
                   const std::string &Where) {
  ASSERT_EQ(Got.size(), Want.size()) << Where;
  for (size_t I = 0; I < Want.size(); ++I) {
    const TrainingSample &G = Got[I], &W = Want[I];
    std::string At = Where + " sample " + std::to_string(I);
    EXPECT_EQ(G.Input, W.Input) << At;
    EXPECT_EQ(G.Levels, W.Levels) << At;
    EXPECT_EQ(G.Phase, W.Phase) << At;
    EXPECT_TRUE(sameBits(G.Speedup, W.Speedup)) << At;
    EXPECT_TRUE(sameBits(G.QosDegradation, W.QosDegradation)) << At;
    EXPECT_TRUE(sameBits(G.OuterIterations, W.OuterIterations)) << At;
    EXPECT_EQ(G.ControlFlowClass, W.ControlFlowClass) << At;
  }
}

std::string label(const std::vector<double> &Input, size_t K, size_t P,
                  const std::vector<int> &Levels) {
  std::string S = "input";
  for (double V : Input)
    S += " " + std::to_string(V);
  S += " K=" + std::to_string(K) + " P=" + std::to_string(P) + " levels";
  for (int L : Levels)
    S += " " + std::to_string(L);
  return S;
}

class ProfilerResumeTest : public ::testing::TestWithParam<std::string> {
protected:
  void SetUp() override { App = createApp(GetParam()); }
  std::unique_ptr<ApproxApp> App;
};

} // namespace

TEST_P(ProfilerResumeTest, ResumedRunEqualsFromScratch) {
  Rng SampleRng(0x5EED);
  for (const std::vector<double> &Input : App->trainingInputs()) {
    // Sampled configurations: a random joint one plus the harshest.
    SamplingPlan Plan = makeSamplingPlan(App->maxLevels(), 1, SampleRng);
    std::vector<std::vector<int>> Configs = Plan.JointConfigs;
    Configs.push_back(App->maxLevels());
    RunResult Plain = App->runExact(Input);
    for (size_t K : {2u, 4u, 8u}) {
      CheckpointRecorder Recorder(K);
      RunResult Exact = App->runExact(Input, &Recorder);
      expectSameRun(Exact, Plain, "recording exact run");
      EXPECT_LE(Recorder.size(), K - 1);
      PhaseMap PM(Exact.OuterIterations, K);
      for (size_t P = 1; P < K; ++P) {
        const LoopCheckpoint *From = Recorder.resumePointFor(P);
        ASSERT_NE(From, nullptr) << label(Input, K, P, {});
        EXPECT_GT(From->Iteration, 0u);
        EXPECT_LE(From->Iteration, PM.phaseRange(P).first);
        for (const std::vector<int> &Levels : Configs) {
          PhaseSchedule Schedule = PhaseSchedule::singlePhase(K, P, Levels);
          RunResult Scratch =
              App->run(Input, Schedule, Exact.OuterIterations);
          RunResult Resumed = App->resume(Input, Schedule,
                                          Exact.OuterIterations, *From, Exact);
          expectSameRun(Resumed, Scratch, label(Input, K, P, Levels));
        }
      }
    }
  }
}

TEST_P(ProfilerResumeTest, CollectEqualsFromScratchMeasure) {
  std::vector<std::vector<double>> Training = App->trainingInputs();
  std::vector<std::vector<double>> Inputs = {Training.front(),
                                             Training.back()};
  ProfileOptions Opts;
  Opts.NumPhases = 4;
  Opts.RandomJointSamples = 1;

  // The reference: collect()'s task order, every sample from measure().
  TrainingSet Reference;
  {
    GoldenCache Golden(*App);
    Profiler Prof(*App, Golden);
    for (const std::vector<double> &Input : Inputs)
      (void)Prof.signatures().classOf(
          Golden.exactRun(Input).ControlFlowSignature);
    Rng SampleRng(Opts.Seed);
    for (const std::vector<double> &Input : Inputs) {
      SamplingPlan Plan = makeSamplingPlan(
          App->maxLevels(), Opts.RandomJointSamples, SampleRng);
      Plan.forEach([&](const std::vector<int> &Levels) {
        for (size_t P = 0; P < Opts.NumPhases; ++P)
          Reference.add(Prof.measure(Input, Levels, static_cast<int>(P),
                                     Opts.NumPhases));
        Reference.add(Prof.measure(Input, Levels, AllPhases, Opts.NumPhases));
      });
    }
  }

  Counter &Reused =
      MetricsRegistry::global().counter("profiler.prefix_iterations_reused");
  for (size_t Threads : {1u, 4u}) {
    GoldenCache Golden(*App);
    Profiler Prof(*App, Golden);
    Opts.NumThreads = Threads;
    uint64_t ReusedBefore = Reused.value();
    TrainingSet Set = Prof.collect(Inputs, Opts);
    expectSameSet(Set, Reference, std::to_string(Threads) + " threads");
    // Resumed runs still count as measurements.
    EXPECT_EQ(Prof.runsPerformed(), Set.size());
    EXPECT_GT(Reused.value(), ReusedBefore);
  }
}

INSTANTIATE_TEST_SUITE_P(AllApps, ProfilerResumeTest,
                         ::testing::ValuesIn(allAppNames()),
                         [](const ::testing::TestParamInfo<std::string> &I) {
                           return I.param;
                         });

TEST(ProfilerResumeRulesTest, FixedCountCheckpointsSitOnPhaseStarts) {
  // FFmpeg's frame count is fixed by the input: 5 s at 30 fps.
  auto App = createApp("ffmpeg");
  const std::vector<double> Input = {30, 5, 4, 0};
  CheckpointRecorder Recorder(4);
  RunResult Exact = App->runExact(Input, &Recorder);
  ASSERT_EQ(Exact.OuterIterations, 150u);
  EXPECT_EQ(Recorder.size(), 3u);
  EXPECT_EQ(Recorder.resumePointFor(0), nullptr);
  uint64_t PreviousWork = 0;
  for (size_t P = 1; P < 4; ++P) {
    const LoopCheckpoint *From = Recorder.resumePointFor(P);
    ASSERT_NE(From, nullptr);
    EXPECT_EQ(From->Iteration, P * 37);
    EXPECT_GT(From->WorkUnits, PreviousWork);
    EXPECT_LT(From->WorkUnits, Exact.WorkUnits);
    PreviousWork = From->WorkUnits;
  }
  EXPECT_EQ(Recorder.resumePointFor(4), nullptr);
}

TEST(ProfilerResumeRulesTest, GridRecorderStaysBoundedAndPrunes) {
  // A data-dependent count: the recorder cannot know the phase starts
  // until the run ends, so it keeps a thinned grid and prunes it.
  CheckpointRecorder Recorder(4);
  Recorder.plan(0);
  size_t Peak = 0;
  const size_t Iterations = 1000;
  for (size_t I = 0; I < Iterations; ++I) {
    if (!Recorder.wants(I))
      continue;
    auto C = std::make_unique<LoopCheckpoint>();
    C->Iteration = I;
    Recorder.record(std::move(C));
    Peak = std::max(Peak, Recorder.size());
  }
  EXPECT_LE(Peak, CheckpointRecorder::MaxGrid);
  Recorder.finish(Iterations);
  EXPECT_LE(Recorder.size(), 3u);
  PhaseMap PM(Iterations, 4);
  for (size_t P = 1; P < 4; ++P) {
    const LoopCheckpoint *From = Recorder.resumePointFor(P);
    ASSERT_NE(From, nullptr);
    size_t Begin = PM.phaseRange(P).first;
    EXPECT_LE(From->Iteration, Begin);
    // The grid's spacing bounds how much of the prefix is recomputed.
    EXPECT_GT(From->Iteration + 2 * Iterations / CheckpointRecorder::MaxGrid,
              Begin);
  }
}

TEST(ProfilerResumeRulesTest, CachedGoldenRunRecordsNothing) {
  auto App = createApp("pso");
  GoldenCache Golden(*App);
  (void)Golden.exactRun(App->defaultInput());
  CheckpointRecorder Recorder(4);
  (void)Golden.exactRun(App->defaultInput(), &Recorder);
  EXPECT_EQ(Recorder.size(), 0u);
  EXPECT_EQ(Recorder.resumePointFor(1), nullptr);
}

TEST(ProfilerResumeRulesTest, WarmGoldenCacheFallsBackToFromScratch) {
  // A golden run cached before collect() left no checkpoints; its
  // input's runs start from iteration 0 and the set is unchanged.
  auto App = createApp("pso");
  ProfileOptions Opts;
  Opts.NumPhases = 3;
  Opts.RandomJointSamples = 2;
  std::vector<std::vector<double>> Inputs = {App->defaultInput()};

  GoldenCache Cold(*App);
  Profiler ColdProf(*App, Cold);
  TrainingSet Want = ColdProf.collect(Inputs, Opts);

  GoldenCache Warm(*App);
  (void)Warm.exactRun(Inputs.front());
  Profiler WarmProf(*App, Warm);
  Counter &Reused =
      MetricsRegistry::global().counter("profiler.prefix_iterations_reused");
  uint64_t Before = Reused.value();
  TrainingSet Got = WarmProf.collect(Inputs, Opts);
  EXPECT_EQ(Reused.value(), Before);
  expectSameSet(Got, Want, "warm cache");
}

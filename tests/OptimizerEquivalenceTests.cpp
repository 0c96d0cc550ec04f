//===- tests/OptimizerEquivalenceTests.cpp - Hot-path bit-identity --------===//
//
// Part of the OPPROX reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The batched+parallel optimizer engine must return decisions
/// bit-identical to the retained naive scalar reference for every
/// combination of budget, confidence mode, batch/chunk geometry, and
/// worker count. The scalar reference assembles features per call
/// through SelectedModel::predict while the serving engine uses the
/// batch kernels and memoized eval-plan tables, so these tests compare
/// two genuinely independent implementations.
///
//===----------------------------------------------------------------------===//

#include "apps/AppRegistry.h"
#include "core/BudgetGrid.h"
#include "core/OfflineTrainer.h"
#include "core/OpproxRuntime.h"
#include "core/OptimizePlanner.h"
#include "core/Optimizer.h"
#include "core/Sampler.h"
#include "serve/Server.h"
#include "serve/WireProtocol.h"
#include "support/Json.h"
#include "support/Random.h"
#include "support/Simd.h"
#include "support/Telemetry.h"
#include "support/ThreadPool.h"
#include <atomic>
#include <cmath>
#include <cstring>
#include <gtest/gtest.h>
#include <thread>

using namespace opprox;

namespace {

/// Exact bit equality, stricter than ==: distinguishes -0.0 from 0.0 and
/// would catch a NaN that compares unequal to itself.
bool bitEqual(double A, double B) {
  return std::memcmp(&A, &B, sizeof(double)) == 0;
}

/// Synthetic ground truth with block interactions; mirrors (at a smaller
/// scale) the generator in bench/micro_optimizer.cpp.
double trueSpeedup(const std::vector<int> &Levels, size_t Phase) {
  double S = 1.0;
  for (size_t B = 0; B < Levels.size(); ++B)
    S *= 1.0 + 0.06 * (1.0 + 0.5 * static_cast<double>(Phase)) *
                   (1.0 + 0.3 * static_cast<double>(B)) *
                   static_cast<double>(Levels[B]);
  return S;
}

double trueQos(const std::vector<int> &Levels, size_t Phase) {
  double Q = 0.0;
  for (size_t B = 0; B < Levels.size(); ++B) {
    double L = static_cast<double>(Levels[B]);
    Q += 0.02 * (1.0 + 0.4 * static_cast<double>(Phase)) *
         (1.0 + 0.2 * static_cast<double>(B)) * L * L;
  }
  return Q;
}

/// Trains a small model stack (NumBlocks x max level 2, NumPhases) on
/// noisy synthetic data; \p Seed varies both the sampling and the noise,
/// so distinct seeds give genuinely different fitted models.
AppModel makeModel(size_t NumBlocks, size_t NumPhases, uint64_t Seed) {
  std::vector<int> MaxLevels(NumBlocks, 2);
  TrainingSet Set;
  Rng R(Seed);
  for (double In : {1.0, 2.0, 3.0}) {
    for (size_t Phase = 0; Phase < NumPhases; ++Phase) {
      SamplingPlan Plan = makeSamplingPlan(MaxLevels, 20, R);
      Plan.forEach([&](const std::vector<int> &Levels) {
        TrainingSample S;
        S.Input = {In};
        S.Levels = Levels;
        S.Phase = static_cast<int>(Phase);
        S.Speedup =
            trueSpeedup(Levels, Phase) * (1.0 + R.gaussian(0.0, 0.01));
        S.QosDegradation = std::max(
            0.0, trueQos(Levels, Phase) * (1.0 + R.gaussian(0.0, 0.02)));
        S.OuterIterations =
            80.0 + 3.0 * static_cast<double>(Levels[0] + Levels.back());
        S.ControlFlowClass = 0;
        Set.add(std::move(S));
      });
    }
  }
  ModelBuildOptions Opts;
  Opts.NumThreads = 1;
  Opts.Seed = Seed;
  return ModelBuilder::build(Set, NumPhases, NumBlocks, Opts);
}

void expectSameDecisions(const OptimizationResult &Ref,
                         const OptimizationResult &Got,
                         const std::string &What) {
  ASSERT_EQ(Ref.Decisions.size(), Got.Decisions.size()) << What;
  for (size_t P = 0; P < Ref.Decisions.size(); ++P) {
    const PhaseDecision &A = Ref.Decisions[P];
    const PhaseDecision &B = Got.Decisions[P];
    EXPECT_EQ(A.Levels, B.Levels) << What << ", phase " << P;
    EXPECT_TRUE(bitEqual(A.PredictedSpeedup, B.PredictedSpeedup))
        << What << ", phase " << P << ": speedup " << A.PredictedSpeedup
        << " vs " << B.PredictedSpeedup;
    EXPECT_TRUE(bitEqual(A.PredictedQos, B.PredictedQos))
        << What << ", phase " << P << ": qos " << A.PredictedQos << " vs "
        << B.PredictedQos;
    EXPECT_TRUE(bitEqual(A.AllocatedBudget, B.AllocatedBudget))
        << What << ", phase " << P;
  }
  EXPECT_EQ(Ref.ConfigsEvaluated, Got.ConfigsEvaluated) << What;
}

/// Shared models: training is the expensive part, so build one small
/// stack per seed and reuse it across every test in this file.
const AppModel &modelA() {
  static AppModel M = makeModel(/*NumBlocks=*/4, /*NumPhases=*/2, 0xA11CE);
  return M;
}
const AppModel &modelB() {
  static AppModel M = makeModel(/*NumBlocks=*/3, /*NumPhases=*/3, 0xB0B);
  return M;
}

/// A real trained LULESH artifact: split sub-models, degree 1-6 bases,
/// and 1,296-configuration spaces per phase, none of which the synthetic
/// stacks above reach. Sparse joint sampling keeps training to a few
/// seconds.
const OpproxArtifact &luleshArtifact() {
  static OpproxArtifact Art = [] {
    auto App = createApp("lulesh");
    OpproxTrainOptions Opts;
    Opts.Profiling.RandomJointSamples = 4;
    Opts.Profiling.NumThreads = 1;
    Opts.ModelBuild.NumThreads = 1;
    return OfflineTrainer::train(*App, Opts).Artifact;
  }();
  return Art;
}

} // namespace

//===----------------------------------------------------------------------===//
// Batched engine vs the naive reference
//===----------------------------------------------------------------------===//

TEST(OptimizerEquivalenceTest, MatchesNaiveAcrossBudgetsAndModes) {
  const std::vector<double> Input = {2.0};
  for (const AppModel *Model : {&modelA(), &modelB()}) {
    std::vector<int> MaxLevels(Model->numBlocks(), 2);
    for (double Budget : {0.0, 0.02, 0.1, 0.5, 5.0}) {
      for (bool Conservative : {true, false}) {
        OptimizeOptions Naive;
        Naive.UseNaiveScan = true;
        Naive.Conservative = Conservative;
        OptimizationResult Ref =
            optimizeSchedule(*Model, Input, MaxLevels, Budget, Naive);

        OptimizeOptions Batched;
        Batched.Conservative = Conservative;
        OptimizationResult Got =
            optimizeSchedule(*Model, Input, MaxLevels, Budget, Batched);
        expectSameDecisions(
            Ref, Got,
            "budget " + std::to_string(Budget) +
                (Conservative ? ", conservative" : ", plain"));
      }
    }
  }
}

TEST(OptimizerEquivalenceTest, TrainedAppModelsMatchNaive) {
  const OpproxArtifact &Art = luleshArtifact();
  const AppModel &Model = Art.Model;
  std::vector<std::vector<double>> Inputs = {Art.DefaultInput};
  // Draws inside the training inputs' range, integral like LULESH's own
  // parameters (mesh size, region count).
  Rng R(0x1D1);
  for (int I = 0; I < 3; ++I)
    Inputs.push_back({std::round(R.uniform(20, 40)),
                      std::round(R.uniform(8, 16))});

  for (const std::vector<double> &Input : Inputs) {
    std::string In = "input {" + std::to_string(Input[0]) + ", " +
                     std::to_string(Input[1]) + "}";
    for (bool Conservative : {true, false}) {
      OptimizeOptions Naive;
      Naive.UseNaiveScan = true;
      Naive.Conservative = Conservative;
      OptimizeOptions Batched;
      Batched.Conservative = Conservative;
      std::string Mode = Conservative ? ", conservative" : ", plain";
      for (int B = 0; B < 25; ++B) {
        double Budget = 0.5 + 29.5 * B / 24.0;
        expectSameDecisions(
            optimizeSchedule(Model, Input, Art.MaxLevels, Budget, Naive),
            optimizeSchedule(Model, Input, Art.MaxLevels, Budget, Batched),
            In + Mode + ", budget " + std::to_string(Budget));
      }
      for (size_t First = 0; First < Model.numPhases(); ++First)
        expectSameDecisions(
            optimizeScheduleTail(Model, Input, Art.MaxLevels, 10.0, First,
                                 Naive),
            optimizeScheduleTail(Model, Input, Art.MaxLevels, 10.0, First,
                                 Batched),
            In + Mode + ", tail from phase " + std::to_string(First));
    }
  }
}

TEST(OptimizerEquivalenceTest, BatchAndChunkGeometryIrrelevant) {
  const std::vector<double> Input = {1.0};
  std::vector<int> MaxLevels(modelA().numBlocks(), 2);
  OptimizeOptions Naive;
  Naive.UseNaiveScan = true;
  OptimizationResult Ref =
      optimizeSchedule(modelA(), Input, MaxLevels, 0.3, Naive);

  // ChunkSize 0 is the auto-sizing default: the geometry then depends on
  // the resolved executor count, which must stay decision-irrelevant.
  for (size_t BatchSize : {1u, 3u, 17u, 4096u}) {
    for (size_t ChunkSize : {0u, 1u, 5u, 29u, 1000000u}) {
      OptimizeOptions Opts;
      Opts.BatchSize = BatchSize;
      Opts.ChunkSize = ChunkSize;
      OptimizationResult Got =
          optimizeSchedule(modelA(), Input, MaxLevels, 0.3, Opts);
      expectSameDecisions(Ref, Got,
                          "batch " + std::to_string(BatchSize) + ", chunk " +
                              std::to_string(ChunkSize));
    }
  }
}

TEST(OptimizerEquivalenceTest, SearchStatsPartitionTheSpace) {
  const std::vector<double> Input = {2.0};
  std::vector<int> MaxLevels(modelA().numBlocks(), 2);
  size_t SpacePerPhase = 81; // 3^4.
  size_t NumPhases = modelA().numPhases();

  for (bool Naive : {false, true}) {
    OptimizeOptions Opts;
    Opts.UseNaiveScan = Naive;
    OptimizationResult R =
        optimizeSchedule(modelA(), Input, MaxLevels, 0.1, Opts);
    EXPECT_EQ(R.ConfigsEvaluated, SpacePerPhase * NumPhases);
    // Everything except the per-phase all-exact baseline is scored.
    EXPECT_EQ(R.ConfigsScored + NumPhases, R.ConfigsEvaluated);
    EXPECT_EQ(R.ConfigsPruned, 0u);
  }
}

TEST(OptimizerEquivalenceTest, NegativeOrNanBudgetFailsLoudly) {
  const std::vector<double> Input = {1.0};
  std::vector<int> MaxLevels(modelA().numBlocks(), 2);
  OptimizeOptions Opts;
  EXPECT_DEATH(optimizeSchedule(modelA(), Input, MaxLevels, -0.5, Opts),
               "non-negative");
  EXPECT_DEATH(optimizeSchedule(modelA(), Input, MaxLevels,
                                std::nan(""), Opts),
               "non-negative");
}

TEST(OptimizerEquivalenceTest, ZeroBatchSizeFailsLoudly) {
  // BatchSize 0 has no auto meaning (unlike ChunkSize 0) and used to be
  // silent divide-by-zero territory in the chunk math; it must die with
  // the canonical diagnostic instead.
  const std::vector<double> Input = {1.0};
  std::vector<int> MaxLevels(modelA().numBlocks(), 2);
  OptimizeOptions Opts;
  Opts.BatchSize = 0;
  EXPECT_DEATH(optimizeSchedule(modelA(), Input, MaxLevels, 0.3, Opts),
               "must be positive");
}

//===----------------------------------------------------------------------===//
// PhaseModels batch kernels vs the scalar predicts
//===----------------------------------------------------------------------===//

TEST(OptimizerEquivalenceTest, BatchPredictionsMatchScalarBitwise) {
  const std::vector<double> Input = {3.0};
  std::vector<int> MaxLevels(modelB().numBlocks(), 2);
  for (size_t Phase = 0; Phase < modelB().numPhases(); ++Phase) {
    const PhaseModels &PM = modelB().phaseModels(Input, Phase);
    for (bool Conservative : {true, false}) {
      PhaseEvalPlan Plan =
          PM.makeEvalPlan(Input, MaxLevels, Conservative, 0.99);
      PredictScratch Scratch;

      // Every configuration of the space in one batch.
      std::vector<int> Rows;
      std::vector<std::vector<int>> Configs;
      for (ConfigCursor C(MaxLevels); !C.done(); C.next()) {
        Rows.insert(Rows.end(), C.levels().begin(), C.levels().end());
        Configs.push_back(C.levels());
      }
      size_t N = Configs.size();
      std::vector<double> Iter, Qos, Speedup;
      PM.predictIterationsBatch(Plan, Rows.data(), N, Iter, Scratch);
      PM.predictQosBatch(Plan, Rows.data(), N, Qos, Scratch);
      PM.predictSpeedupBatch(Plan, Rows.data(), N, Speedup, Scratch);

      for (size_t I = 0; I < N; ++I) {
        EXPECT_TRUE(bitEqual(Iter[I],
                             PM.predictIterations(Input, Configs[I])))
            << "iterations, row " << I;
        double ScalarQos =
            Conservative ? PM.conservativeQos(Input, Configs[I], 0.99)
                         : PM.predictQos(Input, Configs[I]);
        EXPECT_TRUE(bitEqual(Qos[I], ScalarQos)) << "qos, row " << I;
        double ScalarSpeedup =
            Conservative
                ? PM.conservativeSpeedup(Input, Configs[I], 0.99)
                : PM.predictSpeedup(Input, Configs[I]);
        EXPECT_TRUE(bitEqual(Speedup[I], ScalarSpeedup))
            << "speedup, row " << I;
      }
    }
  }
}

//===----------------------------------------------------------------------===//
// Parallel scan (suite runs under TSan in CI; see .github/workflows)
//===----------------------------------------------------------------------===//

TEST(OptimizerParallelTest, AllThreadCountsMatchSerialBitwise) {
  const std::vector<double> Input = {2.0};
  std::vector<int> MaxLevels(modelA().numBlocks(), 2);
  OptimizeOptions Naive;
  Naive.UseNaiveScan = true;
  OptimizationResult Ref =
      optimizeSchedule(modelA(), Input, MaxLevels, 0.25, Naive);

  for (size_t Threads : {1u, 2u, 5u}) {
    OptimizeOptions Opts;
    Opts.NumThreads = Threads;
    Opts.ChunkSize = 7; // Many chunks, so the fan-out actually happens.
    OptimizationResult Got =
        optimizeSchedule(modelA(), Input, MaxLevels, 0.25, Opts);
    expectSameDecisions(Ref, Got,
                        "threads " + std::to_string(Threads));
  }
}

TEST(OptimizerParallelTest, ExternalPoolMatchesSerialBitwise) {
  const std::vector<double> Input = {1.0};
  std::vector<int> MaxLevels(modelB().numBlocks(), 2);
  OptimizeOptions Naive;
  Naive.UseNaiveScan = true;
  OptimizationResult Ref =
      optimizeSchedule(modelB(), Input, MaxLevels, 0.4, Naive);

  ThreadPool Pool(3);
  OptimizeOptions Opts;
  Opts.Pool = &Pool;
  Opts.ChunkSize = 5;
  for (int Repeat = 0; Repeat < 3; ++Repeat) {
    OptimizationResult Got =
        optimizeSchedule(modelB(), Input, MaxLevels, 0.4, Opts);
    expectSameDecisions(Ref, Got,
                        "pool repeat " + std::to_string(Repeat));
  }
}

TEST(OptimizerParallelTest, ThreadScalingDeterministicWithAutoChunks) {
  // The bench's scaling sweep as a test: auto chunk sizing (ChunkSize 0,
  // the default) makes the chunk geometry a function of the executor
  // count, so this is the case where worker count could most plausibly
  // leak into decisions or stats. It must not: every thread count
  // returns the naive reference bitwise, and the search stats partition
  // the space identically at every point.
  const std::vector<double> Input = {2.0};
  std::vector<int> MaxLevels(modelA().numBlocks(), 2);
  size_t Space = 81 * modelA().numPhases(); // 3^4 per phase.
  OptimizeOptions Naive;
  Naive.UseNaiveScan = true;
  OptimizationResult Ref =
      optimizeSchedule(modelA(), Input, MaxLevels, 0.25, Naive);

  OptimizeOptions Serial; // Batched, auto chunking, 1 executor.
  OptimizationResult Base =
      optimizeSchedule(modelA(), Input, MaxLevels, 0.25, Serial);
  expectSameDecisions(Ref, Base, "serial auto-chunk");
  EXPECT_EQ(Base.ConfigsEvaluated, Space);
  EXPECT_EQ(Base.ConfigsScored + modelA().numPhases(), Base.ConfigsEvaluated);

  for (size_t Threads : {1u, 2u, 4u, 8u}) {
    OptimizeOptions Opts;
    Opts.NumThreads = Threads;
    OptimizationResult Got =
        optimizeSchedule(modelA(), Input, MaxLevels, 0.25, Opts);
    std::string What = "auto chunks, threads " + std::to_string(Threads);
    expectSameDecisions(Ref, Got, What);
    // Stats are chunking-invariant, not just decision-invariant: the
    // scored count cannot depend on where the executor count put the
    // boundaries.
    EXPECT_EQ(Got.ConfigsScored, Base.ConfigsScored) << What;
    EXPECT_EQ(Got.ConfigsScored + modelA().numPhases(), Got.ConfigsEvaluated)
        << What;
  }
}

TEST(OptimizerParallelTest, SimdTierIsDecisionIrrelevant) {
  // Forcing the generic kernels must not move a single bit of any
  // decision relative to the host's best tier. On hosts without a
  // vector tier this degenerates to generic-vs-generic, which is still
  // a valid (if vacuous) check -- the CI AVX2 leg carries the real
  // comparison.
  const std::vector<double> Input = {2.0};
  const simd::Tier Original = simd::activeTier();
  for (const AppModel *Model : {&modelA(), &modelB()}) {
    std::vector<int> MaxLevels(Model->numBlocks(), 2);
    for (double Budget : {0.05, 0.3, 2.0}) {
      OptimizeOptions Opts;
      ASSERT_EQ(simd::setActiveTier(simd::Tier::Generic),
                simd::Tier::Generic);
      OptimizationResult GenericR =
          optimizeSchedule(*Model, Input, MaxLevels, Budget, Opts);
      simd::setActiveTier(Original);
      OptimizationResult BestR =
          optimizeSchedule(*Model, Input, MaxLevels, Budget, Opts);
      expectSameDecisions(GenericR, BestR,
                          std::string("tier ") + simd::tierName(Original) +
                              ", budget " + std::to_string(Budget));
    }
  }
  simd::setActiveTier(Original);
}

//===----------------------------------------------------------------------===//
// Serving tier vs the local CLI document
//===----------------------------------------------------------------------===//

namespace {

/// Reads one newline-terminated response from \p Sock.
std::optional<std::string> recvResponseLine(const Socket &Sock,
                                            LineFramer &Framer) {
  std::string Line, Chunk;
  while (!Framer.next(Line)) {
    Chunk.clear();
    RecvResult R = recvSome(Sock, Chunk);
    if (R.Status != IoStatus::Ok || !Framer.feed(Chunk.data(), Chunk.size()))
      return std::nullopt;
  }
  return Line;
}

} // namespace

TEST(OptimizerEquivalenceTest, ServerResponsesMatchLocalDocumentBitwise) {
  // The acceptance bar for the serving tier: the "result" member of a
  // wire response is byte-identical to the document `opprox-optimize
  // --json` prints for the same artifact and request. Both sides load
  // the same file and share optimizationResultJson(), so any divergence
  // here means the server changed the math or the serialization.
  OpproxArtifact Art;
  Art.AppName = "equivalence";
  Art.ParameterNames = {"n"};
  Art.MaxLevels = std::vector<int>(modelA().numBlocks(), 2);
  Art.DefaultInput = {2.0};
  Art.Model = modelA();
  std::string Path = ::testing::TempDir() + "/equivalence.opprox.json";
  ASSERT_FALSE(Art.save(Path).has_value());

  Expected<OpproxRuntime> Local = OpproxRuntime::load(Path);
  ASSERT_TRUE(static_cast<bool>(Local)) << Local.error().message();

  serve::ServeOptions ServeOpts;
  ServeOpts.Shards = 2;
  Expected<std::unique_ptr<serve::Server>> Srv =
      serve::Server::start({{"", Path}}, ServeOpts);
  ASSERT_TRUE(static_cast<bool>(Srv)) << Srv.error().message();

  Expected<Socket> Sock = connectTcp("127.0.0.1", (*Srv)->port());
  ASSERT_TRUE(static_cast<bool>(Sock)) << Sock.error().message();
  ASSERT_FALSE(setRecvTimeoutMs(*Sock, 10000).has_value());
  LineFramer Framer(1 << 20);

  const std::vector<double> Input = {2.0};
  const double Confidence = 0.97;
  for (double Budget : {0.02, 0.1, 0.5, 5.0}) {
    for (bool Aggressive : {false, true}) {
      OptimizeOptions Opts;
      Opts.ConfidenceP = Confidence;
      Opts.Conservative = !Aggressive;
      Expected<OptimizationResult> R =
          Local->tryOptimizeDetailed(Input, Budget, Opts);
      ASSERT_TRUE(static_cast<bool>(R)) << R.error().message();
      std::string LocalDoc =
          serve::optimizationResultJson(Local->artifact(), Budget, Input, *R)
              .dump();

      Json Request = Json::object();
      Request.set("budget", Budget);
      Request.set("input", Json::numberArray(Input));
      Request.set("confidence", Confidence);
      Request.set("aggressive", Aggressive);
      ASSERT_FALSE(sendAll(*Sock, Request.dump() + "\n").has_value());
      std::optional<std::string> Line = recvResponseLine(*Sock, Framer);
      ASSERT_TRUE(Line.has_value());
      Expected<Json> Response = Json::parse(*Line);
      ASSERT_TRUE(static_cast<bool>(Response)) << *Line;
      Expected<const Json *> Result = getObject(*Response, "result");
      ASSERT_TRUE(static_cast<bool>(Result)) << *Line;
      EXPECT_EQ((*Result)->dump(), LocalDoc)
          << "budget " << Budget << (Aggressive ? ", aggressive" : "");
    }
  }
  (*Srv)->shutdown();
}

//===----------------------------------------------------------------------===//
// Layered pipeline: cache and grid hits vs the compute path
//===----------------------------------------------------------------------===//

namespace {

/// Wraps one of the shared models in an artifact the planner layer can
/// serve; mirrors the server equivalence test above.
OpproxArtifact makeArtifact(const AppModel &Model) {
  OpproxArtifact Art;
  Art.AppName = "equivalence";
  Art.ParameterNames = {"n"};
  Art.MaxLevels = std::vector<int>(Model.numBlocks(), 2);
  Art.DefaultInput = {2.0};
  Art.Model = Model;
  return Art;
}

/// Serializes a result into the exact wire/CLI document; comparing the
/// dumps checks every field of the result byte-for-byte (doubles go
/// through the Json layer's %.17g round-trip contract).
std::string resultDoc(const OpproxArtifact &Art, double Budget,
                      const std::vector<double> &Input,
                      const OptimizationResult &R) {
  return serve::optimizationResultJson(Art, Budget, Input, R).dump();
}

uint64_t counterValue(const char *Name) {
  return MetricsRegistry::global().counter(Name).value();
}

} // namespace

TEST(OptimizerEquivalenceTest, CachedResultsMatchUncachedBitwise) {
  // The acceptance bar for the schedule cache: a hit must be
  // indistinguishable from re-running the optimizer -- across shard
  // counts, budgets, confidence modes, and worker counts. Each (budget,
  // mode) pair is solved directly, then requested twice through the
  // planner; the first planner call misses (compute path), the second
  // hits (memoized path), and all three must serialize identically.
  const std::vector<double> Input = {2.0};
  OpproxArtifact Art = makeArtifact(modelA());
  for (size_t Shards : {1u, 3u, 8u}) {
    PlannerOptions POpts;
    POpts.Cache.Shards = Shards;
    POpts.Cache.Capacity = 1024;
    OptimizePlanner Planner(POpts);
    ASSERT_TRUE(Planner.cacheEnabled());

    for (double Budget : {0.0, 0.02, 0.1, 0.5, 5.0}) {
      for (bool Conservative : {true, false}) {
        for (size_t Threads : {1u, 4u}) {
          OptimizeOptions Opts;
          Opts.Conservative = Conservative;
          Opts.NumThreads = Threads;
          OptimizationResult Ref = optimizeSchedule(
              Art.Model, Input, Art.MaxLevels, Budget, Opts);

          uint64_t Hits = counterValue("cache.hits");
          Expected<OptimizationResult> Miss =
              Planner.optimize(Art, Input, Budget, Opts);
          ASSERT_TRUE(static_cast<bool>(Miss)) << Miss.error().message();
          Expected<OptimizationResult> Hit =
              Planner.optimize(Art, Input, Budget, Opts);
          ASSERT_TRUE(static_cast<bool>(Hit)) << Hit.error().message();

          std::string What = "shards " + std::to_string(Shards) +
                             ", budget " + std::to_string(Budget) +
                             (Conservative ? ", conservative" : ", plain") +
                             ", threads " + std::to_string(Threads);
          // NumThreads is decision-irrelevant, so the second Threads
          // iteration of a (budget, mode) pair is itself a cache hit;
          // either way the hit count must have moved for the repeat.
          EXPECT_GT(counterValue("cache.hits"), Hits) << What;
          expectSameDecisions(Ref, *Miss, What + " (miss path)");
          expectSameDecisions(Ref, *Hit, What + " (hit path)");
          EXPECT_EQ(resultDoc(Art, Budget, Input, Ref),
                    resultDoc(Art, Budget, Input, *Miss))
              << What;
          EXPECT_EQ(resultDoc(Art, Budget, Input, Ref),
                    resultDoc(Art, Budget, Input, *Hit))
              << What;
        }
      }
    }
  }
}

TEST(OptimizerEquivalenceTest, GridHitsMatchFullSolveBitwise) {
  // Precomputed budget-grid points must survive the artifact's JSON
  // round trip and come back bit-identical to a fresh solve. The
  // planner runs with the cache disabled so the only short-circuit
  // available is the grid itself (proven via the grid_hits counter).
  const std::vector<double> Input = {2.0};
  const std::vector<double> Budgets = {0.02, 0.1, 0.5, 5.0};
  OpproxArtifact Art = makeArtifact(modelB());

  BudgetGridOptions GridOpts;
  GridOpts.Enabled = true;
  GridOpts.Budgets = Budgets;
  Art.BudgetGrids = computeBudgetGrids(Art.Model, Art.MaxLevels,
                                       Art.DefaultInput, {}, GridOpts);
  ASSERT_EQ(Art.BudgetGrids.size(), 1u);
  ASSERT_EQ(Art.BudgetGrids[0].Points.size(), Budgets.size());

  Expected<OpproxArtifact> Reloaded =
      OpproxArtifact::deserialize(Art.serialize());
  ASSERT_TRUE(static_cast<bool>(Reloaded)) << Reloaded.error().message();
  ASSERT_EQ(Reloaded->BudgetGrids.size(), 1u);

  PlannerOptions POpts;
  POpts.UseCache = false;
  OptimizePlanner Planner(POpts);
  ASSERT_FALSE(Planner.cacheEnabled());

  for (double Budget : Budgets) {
    OptimizeOptions Opts; // Grid solve defaults: conservative, p=0.99.
    OptimizationResult Ref = optimizeSchedule(
        Reloaded->Model, Input, Reloaded->MaxLevels, Budget, Opts);

    uint64_t GridHits = counterValue("cache.grid_hits");
    Expected<OptimizationResult> Got =
        Planner.optimize(*Reloaded, Input, Budget, Opts);
    ASSERT_TRUE(static_cast<bool>(Got)) << Got.error().message();
    EXPECT_EQ(counterValue("cache.grid_hits"), GridHits + 1)
        << "budget " << Budget << " should resolve from the grid";

    expectSameDecisions(Ref, *Got, "grid budget " + std::to_string(Budget));
    EXPECT_EQ(resultDoc(*Reloaded, Budget, Input, Ref),
              resultDoc(*Reloaded, Budget, Input, *Got))
        << "grid budget " << Budget;
  }

  // A request the grid does not cover -- different confidence mode --
  // must fall through to the compute path, not misapply a grid point.
  OptimizeOptions Aggressive;
  Aggressive.Conservative = false;
  uint64_t GridHits = counterValue("cache.grid_hits");
  OptimizationResult Ref = optimizeSchedule(
      Reloaded->Model, Input, Reloaded->MaxLevels, Budgets[0], Aggressive);
  Expected<OptimizationResult> Got =
      Planner.optimize(*Reloaded, Input, Budgets[0], Aggressive);
  ASSERT_TRUE(static_cast<bool>(Got)) << Got.error().message();
  EXPECT_EQ(counterValue("cache.grid_hits"), GridHits)
      << "aggressive request must not hit a conservative grid";
  expectSameDecisions(Ref, *Got, "aggressive fall-through");
}

//===----------------------------------------------------------------------===//
// Cache concurrency (suite runs under TSan in CI; see .github/workflows)
//===----------------------------------------------------------------------===//

TEST(ScheduleCacheConcurrencyTest, HammerLookupOrComputeStaysBitIdentical) {
  // Many threads fight over the same small key set; every response --
  // whether it was computed on a miss or served from a shard -- must
  // serialize to the exact reference document. gtest assertions are not
  // thread-safe, so workers count mismatches and the main thread judges.
  const std::vector<double> Input = {2.0};
  const std::vector<double> Budgets = {0.0,  0.02, 0.05, 0.1, 0.2,
                                       0.35, 0.5,  1.0,  2.0, 5.0};
  OpproxArtifact Art = makeArtifact(modelA());

  std::vector<std::string> RefDocs;
  for (double Budget : Budgets) {
    OptimizeOptions Opts;
    RefDocs.push_back(resultDoc(
        Art, Budget, Input,
        optimizeSchedule(Art.Model, Input, Art.MaxLevels, Budget, Opts)));
  }

  PlannerOptions POpts;
  POpts.Cache.Shards = 4;
  POpts.Cache.Capacity = 1024;
  OptimizePlanner Planner(POpts);

  constexpr size_t NumThreads = 8;
  constexpr size_t Iterations = 120;
  std::atomic<size_t> Mismatches{0};
  std::atomic<size_t> Failures{0};
  std::vector<std::thread> Workers;
  for (size_t T = 0; T < NumThreads; ++T) {
    Workers.emplace_back([&, T] {
      for (size_t I = 0; I < Iterations; ++I) {
        size_t Pick = (T * 7 + I) % Budgets.size();
        OptimizeOptions Opts;
        Expected<OptimizationResult> R =
            Planner.optimize(Art, Input, Budgets[Pick], Opts);
        if (!R) {
          Failures.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        if (resultDoc(Art, Budgets[Pick], Input, *R) != RefDocs[Pick])
          Mismatches.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (std::thread &W : Workers)
    W.join();

  EXPECT_EQ(Failures.load(), 0u);
  EXPECT_EQ(Mismatches.load(), 0u);
  // The key set is tiny and hot, so almost everything after the first
  // wave of misses must have been served from the cache.
  EXPECT_GT(counterValue("cache.hits"),
            NumThreads * Iterations / 2);
}

TEST(ScheduleCacheConcurrencyTest, EvictionUnderContentionStaysBitIdentical) {
  // A deliberately tiny cache (capacity 4 across 2 shards) with a key
  // set three times its size forces constant LRU eviction while threads
  // race lookups, inserts, and evictions on the same shards. Responses
  // must stay bit-identical throughout and the eviction counter must
  // actually move -- this is the test that puts insert/evict/splice
  // under TSan.
  const std::vector<double> Input = {1.0};
  std::vector<double> Budgets;
  for (size_t I = 0; I < 12; ++I)
    Budgets.push_back(0.05 * static_cast<double>(I + 1));
  OpproxArtifact Art = makeArtifact(modelB());

  std::vector<std::string> RefDocs;
  for (double Budget : Budgets) {
    OptimizeOptions Opts;
    RefDocs.push_back(resultDoc(
        Art, Budget, Input,
        optimizeSchedule(Art.Model, Input, Art.MaxLevels, Budget, Opts)));
  }

  PlannerOptions POpts;
  POpts.Cache.Shards = 2;
  POpts.Cache.Capacity = 4;
  OptimizePlanner Planner(POpts);
  uint64_t Evictions = counterValue("cache.evictions");

  constexpr size_t NumThreads = 6;
  constexpr size_t Iterations = 60;
  std::atomic<size_t> Mismatches{0};
  std::atomic<size_t> Failures{0};
  std::vector<std::thread> Workers;
  for (size_t T = 0; T < NumThreads; ++T) {
    Workers.emplace_back([&, T] {
      for (size_t I = 0; I < Iterations; ++I) {
        size_t Pick = (T * 5 + I) % Budgets.size();
        OptimizeOptions Opts;
        Expected<OptimizationResult> R =
            Planner.optimize(Art, Input, Budgets[Pick], Opts);
        if (!R) {
          Failures.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        if (resultDoc(Art, Budgets[Pick], Input, *R) != RefDocs[Pick])
          Mismatches.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (std::thread &W : Workers)
    W.join();

  EXPECT_EQ(Failures.load(), 0u);
  EXPECT_EQ(Mismatches.load(), 0u);
  EXPECT_GT(counterValue("cache.evictions"), Evictions);
}

TEST(OptimizerParallelTest, PlannerScanPoolMatchesSerialBitwise) {
  // A planner built with ScanThreads > 1 owns a shared pool and injects
  // it into every compute-layer solve; the schedule cache key ignores
  // it, so the only acceptable observable difference is speed. Cache
  // and grids are disabled so every request exercises the compute path.
  const std::vector<double> Input = {2.0};
  OpproxArtifact Art = makeArtifact(modelA());

  PlannerOptions SerialOpts;
  SerialOpts.UseCache = false;
  SerialOpts.UseGrids = false;
  OptimizePlanner Serial(SerialOpts);
  EXPECT_EQ(Serial.scanExecutors(), 1u);
  EXPECT_EQ(Serial.scanPool(), nullptr);

  PlannerOptions PoolOpts = SerialOpts;
  PoolOpts.ScanThreads = 4;
  OptimizePlanner Pooled(PoolOpts);
  EXPECT_EQ(Pooled.scanExecutors(), 4u);
  ASSERT_NE(Pooled.scanPool(), nullptr);

  for (double Budget : {0.0, 0.05, 0.3, 2.0}) {
    OptimizeOptions Opts;
    Expected<OptimizationResult> Ref =
        Serial.optimize(Art, Input, Budget, Opts);
    ASSERT_TRUE(static_cast<bool>(Ref)) << Ref.error().message();
    Expected<OptimizationResult> Got =
        Pooled.optimize(Art, Input, Budget, Opts);
    ASSERT_TRUE(static_cast<bool>(Got)) << Got.error().message();
    expectSameDecisions(*Ref, *Got,
                        "scan pool, budget " + std::to_string(Budget));
  }
}

TEST(ScheduleCacheConcurrencyTest, SharedScanPoolHammerStaysBitIdentical) {
  // Concurrent requests racing into one planner whose cache-miss solves
  // all fan across the same shared scan pool -- the serving tier's
  // --scan-threads shape, and the test that puts cross-pool parallelFor
  // (requests running *on* other pools' worker threads) under TSan. A
  // tiny cache keeps real compute in the mix throughout.
  const std::vector<double> Input = {1.0};
  std::vector<double> Budgets;
  for (size_t I = 0; I < 10; ++I)
    Budgets.push_back(0.06 * static_cast<double>(I + 1));
  OpproxArtifact Art = makeArtifact(modelB());

  std::vector<std::string> RefDocs;
  for (double Budget : Budgets) {
    OptimizeOptions Opts;
    RefDocs.push_back(resultDoc(
        Art, Budget, Input,
        optimizeSchedule(Art.Model, Input, Art.MaxLevels, Budget, Opts)));
  }

  PlannerOptions POpts;
  POpts.Cache.Shards = 2;
  POpts.Cache.Capacity = 4;
  POpts.ScanThreads = 3;
  OptimizePlanner Planner(POpts);
  ASSERT_EQ(Planner.scanExecutors(), 3u);

  // Half the clients call from plain threads, half from inside another
  // ThreadPool's workers (as the serve shards do), so both the direct
  // and the cross-pool fan-out paths are exercised.
  ThreadPool ClientPool(3);
  constexpr size_t NumThreads = 6;
  constexpr size_t Iterations = 40;
  std::atomic<size_t> Mismatches{0};
  std::atomic<size_t> Failures{0};
  auto Client = [&](size_t T) {
    for (size_t I = 0; I < Iterations; ++I) {
      size_t Pick = (T * 3 + I) % Budgets.size();
      OptimizeOptions Opts;
      Expected<OptimizationResult> R =
          Planner.optimize(Art, Input, Budgets[Pick], Opts);
      if (!R) {
        Failures.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      if (resultDoc(Art, Budgets[Pick], Input, *R) != RefDocs[Pick])
        Mismatches.fetch_add(1, std::memory_order_relaxed);
    }
  };
  std::vector<std::thread> Workers;
  for (size_t T = 0; T < NumThreads / 2; ++T)
    Workers.emplace_back([&, T] { Client(T); });
  ClientPool.parallelFor(NumThreads / 2,
                         [&](size_t T) { Client(NumThreads / 2 + T); });
  for (std::thread &W : Workers)
    W.join();

  EXPECT_EQ(Failures.load(), 0u);
  EXPECT_EQ(Mismatches.load(), 0u);
}

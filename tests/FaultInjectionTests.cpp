//===- tests/FaultInjectionTests.cpp - fault registry + degradation -------===//
//
// Part of the OPPROX reproduction project, under the MIT License.
//
// The contract under test (see support/FaultInjection.h and
// docs/RELIABILITY.md): fault sequences are deterministic per spec,
// armed sites make the serving path degrade -- retry, last-known-good
// artifact, per-phase exact fallback -- instead of crashing, every
// degradation is counted in telemetry, and with nothing armed behavior
// is bit-identical to a build without fault injection at all.
//
//===----------------------------------------------------------------------===//

#include "apps/AppRegistry.h"
#include "core/OfflineTrainer.h"
#include "core/OpproxRuntime.h"
#include "support/FaultInjection.h"
#include "support/Json.h"
#include "support/Telemetry.h"
#include "support/ThreadPool.h"
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <gtest/gtest.h>

using namespace opprox;

namespace {

bool bitEqual(double A, double B) {
  return std::memcmp(&A, &B, sizeof(double)) == 0;
}

std::string tempPath(const std::string &Name) {
  return ::testing::TempDir() + "/" + Name;
}

/// One cheap trained artifact shared by every test in this file;
/// trained before any fault is armed.
const OpproxArtifact &testArtifact() {
  static OpproxArtifact Art = [] {
    auto App = createApp("pso");
    OpproxTrainOptions Opts;
    Opts.Profiling.RandomJointSamples = 6;
    Opts.TrainingInputs = {{30, 5}, {45, 6}};
    return OfflineTrainer::train(*App, Opts).Artifact;
  }();
  return Art;
}

/// Draws \p N visits of \p Site from \p R as a bool sequence.
std::vector<bool> drawSequence(FaultRegistry &R, const char *Site, size_t N) {
  std::vector<bool> Out;
  Out.reserve(N);
  for (size_t I = 0; I < N; ++I)
    Out.push_back(R.shouldFail(Site));
  return Out;
}

/// Every test arms the *global* registry at most inside its body and
/// must leave it disarmed; fault state leaking across tests would make
/// the rest of the suite nondeterministic.
class FaultInjectionTest : public ::testing::Test {
protected:
  void TearDown() override { FaultRegistry::global().clear(); }

  void armGlobal(const std::string &Spec) {
    std::optional<Error> E = FaultRegistry::global().configure(Spec);
    ASSERT_FALSE(E.has_value()) << E->message();
  }
};

} // namespace

//===----------------------------------------------------------------------===//
// Registry semantics
//===----------------------------------------------------------------------===//

TEST_F(FaultInjectionTest, DisarmedByDefault) {
  EXPECT_FALSE(FaultRegistry::global().armed());
  EXPECT_FALSE(faultPoint(faults::JsonRead));
  EXPECT_EQ(FaultRegistry::global().injectedTotal(), 0u);
}

TEST_F(FaultInjectionTest, ConfigureArmsAndClearDisarms) {
  FaultRegistry R;
  EXPECT_FALSE(R.armed());
  ASSERT_FALSE(R.configure("json.read:1.0:42").has_value());
  EXPECT_TRUE(R.armed());
  EXPECT_TRUE(R.shouldFail(faults::JsonRead));
  EXPECT_FALSE(R.shouldFail(faults::JsonParse)); // Not configured.
  R.clear();
  EXPECT_FALSE(R.armed());
  EXPECT_FALSE(R.shouldFail(faults::JsonRead));
  EXPECT_EQ(R.injectedTotal(), 0u);
}

TEST_F(FaultInjectionTest, MalformedSpecsAreRejected) {
  FaultRegistry R;
  for (const char *Bad :
       {"json.read", "json.read:2.0", "json.read:-0.5", "json.read:nan",
        "no.such.site:1.0", "json.read:1.0:notaseed",
        "json.read:1.0:1:notacap", "json.read:1.0:1:2:extra"}) {
    std::optional<Error> E = R.configure(Bad);
    EXPECT_TRUE(E.has_value()) << "spec '" << Bad << "' was accepted";
    EXPECT_FALSE(R.armed()) << "spec '" << Bad << "' armed the registry";
  }
  // The unknown-site diagnostic names the known sites.
  std::optional<Error> E = R.configure("no.such.site:1.0");
  ASSERT_TRUE(E.has_value());
  EXPECT_NE(E->message().find("json.read"), std::string::npos)
      << E->message();
}

TEST(FaultInjectionDeathTest, MalformedEnvSpecIsFatal) {
  // A typo in OPPROX_FAULTS silently disarming a fault harness would
  // defeat the point of running one, so global() treats it as fatal.
  // The threadsafe style re-executes the binary for the death statement,
  // so the child's registry is fresh and re-reads the environment.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        setenv("OPPROX_FAULTS", "no.such.site:1.0", 1);
        faultPoint(faults::JsonRead);
      },
      "OPPROX_FAULTS");
}

TEST_F(FaultInjectionTest, SameSpecReplaysIdenticalSequence) {
  FaultRegistry A, B;
  ASSERT_FALSE(A.configure("json.read:0.5:1234").has_value());
  ASSERT_FALSE(B.configure("json.read:0.5:1234").has_value());
  std::vector<bool> SeqA = drawSequence(A, faults::JsonRead, 300);
  std::vector<bool> SeqB = drawSequence(B, faults::JsonRead, 300);
  EXPECT_EQ(SeqA, SeqB);
  // At p = 0.5 over 300 visits both outcomes must occur.
  EXPECT_NE(std::count(SeqA.begin(), SeqA.end(), true), 0);
  EXPECT_NE(std::count(SeqA.begin(), SeqA.end(), false), 0);
  // Reconfiguring with the same spec rewinds the stream.
  ASSERT_FALSE(A.configure("json.read:0.5:1234").has_value());
  EXPECT_EQ(drawSequence(A, faults::JsonRead, 300), SeqA);
}

TEST_F(FaultInjectionTest, DifferentSeedsGiveDifferentSequences) {
  FaultRegistry A, B;
  ASSERT_FALSE(A.configure("json.read:0.5:1").has_value());
  ASSERT_FALSE(B.configure("json.read:0.5:2").has_value());
  EXPECT_NE(drawSequence(A, faults::JsonRead, 300),
            drawSequence(B, faults::JsonRead, 300));
}

TEST_F(FaultInjectionTest, ProbabilityEndpointsAreExact) {
  FaultRegistry R;
  ASSERT_FALSE(R.configure("json.read:0.0:7,json.parse:1.0:7").has_value());
  for (size_t I = 0; I < 200; ++I) {
    EXPECT_FALSE(R.shouldFail(faults::JsonRead));
    EXPECT_TRUE(R.shouldFail(faults::JsonParse));
  }
  EXPECT_EQ(R.injectedAt(faults::JsonRead), 0u);
  EXPECT_EQ(R.injectedAt(faults::JsonParse), 200u);
  EXPECT_EQ(R.injectedTotal(), 200u);
}

TEST_F(FaultInjectionTest, InjectionCapStopsFiring) {
  FaultRegistry R;
  ASSERT_FALSE(R.configure("json.read:1.0:5:3").has_value());
  size_t Fired = 0;
  for (size_t I = 0; I < 50; ++I)
    Fired += R.shouldFail(faults::JsonRead) ? 1 : 0;
  EXPECT_EQ(Fired, 3u);
  EXPECT_EQ(R.injectedAt(faults::JsonRead), 3u);
}

TEST_F(FaultInjectionTest, AllShorthandArmsEverySite) {
  FaultRegistry R;
  ASSERT_FALSE(R.configure("all:1.0:9").has_value());
  for (const std::string &Site : allFaultSites())
    EXPECT_TRUE(R.shouldFail(Site.c_str())) << Site;
  EXPECT_EQ(R.injectedTotal(), allFaultSites().size());
}

TEST_F(FaultInjectionTest, AllShorthandStreamsAreIndependent) {
  // Visiting one site must not perturb another site's sequence: the
  // parse-site draws below are identical whether or not read-site
  // visits interleave.
  FaultRegistry A, B;
  ASSERT_FALSE(A.configure("all:0.5:21").has_value());
  ASSERT_FALSE(B.configure("all:0.5:21").has_value());
  std::vector<bool> Pure = drawSequence(A, faults::JsonParse, 100);
  std::vector<bool> Interleaved;
  for (size_t I = 0; I < 100; ++I) {
    B.shouldFail(faults::JsonRead);
    Interleaved.push_back(B.shouldFail(faults::JsonParse));
  }
  EXPECT_EQ(Pure, Interleaved);
}

TEST_F(FaultInjectionTest, InjectionsCountIntoTelemetry) {
  Counter &Total = MetricsRegistry::global().counter("fault.injected_total");
  Counter &AtSite =
      MetricsRegistry::global().counter("fault.injected.json.read");
  uint64_t TotalBefore = Total.value();
  uint64_t SiteBefore = AtSite.value();
  FaultRegistry R;
  ASSERT_FALSE(R.configure("json.read:1.0:3").has_value());
  for (size_t I = 0; I < 5; ++I)
    R.shouldFail(faults::JsonRead);
  EXPECT_EQ(Total.value() - TotalBefore, 5u);
  EXPECT_EQ(AtSite.value() - SiteBefore, 5u);
}

//===----------------------------------------------------------------------===//
// Sites: I/O, parsing, thread pool, predictions
//===----------------------------------------------------------------------===//

TEST_F(FaultInjectionTest, ReadFileFaultYieldsCleanError) {
  std::string Path = tempPath("fault-readfile.json");
  {
    std::ofstream Out(Path);
    Out << "{}";
  }
  armGlobal("json.read:1.0");
  Expected<std::string> Text = readFile(Path);
  ASSERT_FALSE(Text);
  EXPECT_NE(Text.error().message().find("fault injection"),
            std::string::npos)
      << Text.error().message();
  FaultRegistry::global().clear();
  EXPECT_TRUE(readFile(Path));
  std::remove(Path.c_str());
}

TEST_F(FaultInjectionTest, JsonParseFaultYieldsCleanError) {
  armGlobal("json.parse:1.0");
  Expected<Json> Doc = Json::parse("{\"ok\": true}");
  ASSERT_FALSE(Doc);
  EXPECT_NE(Doc.error().message().find("fault injection"), std::string::npos);
  FaultRegistry::global().clear();
  EXPECT_TRUE(Json::parse("{\"ok\": true}"));
}

TEST_F(FaultInjectionTest, ThreadPoolSubmitFaultLandsInTheFuture) {
  armGlobal("threadpool.task:1.0");
  ThreadPool Pool(2);
  bool Ran = false;
  std::future<void> F = Pool.submit([&] { Ran = true; });
  try {
    F.get();
    FAIL() << "expected FaultInjectedError";
  } catch (const FaultInjectedError &E) {
    EXPECT_EQ(E.site(), faults::ThreadPoolTask);
  }
  EXPECT_FALSE(Ran); // The task died before its body ran.
}

TEST_F(FaultInjectionTest, ParallelForRethrowsInjectedTaskDeath) {
  armGlobal("threadpool.task:1.0");
  ThreadPool Pool(2);
  EXPECT_THROW(Pool.parallelFor(8, [](size_t) {}), FaultInjectedError);
  // The inline path (worker-less pool) takes the same contract.
  ThreadPool Inline(0);
  EXPECT_THROW(Inline.parallelFor(4, [](size_t) {}), FaultInjectedError);
}

TEST_F(FaultInjectionTest, PredictionFaultsProduceNanAndInf) {
  const OpproxArtifact &Art = testArtifact();
  const std::vector<double> Input = Art.DefaultInput;
  const PhaseModels &PM = Art.Model.phaseModels(Input, 0);
  std::vector<int> Levels(Art.numBlocks(), 1);

  armGlobal("model.predict.nan:1.0");
  EXPECT_TRUE(std::isnan(PM.predictSpeedup(Input, Levels)));
  EXPECT_TRUE(std::isnan(PM.predictQos(Input, Levels)));

  armGlobal("model.predict.inf:1.0");
  EXPECT_TRUE(std::isinf(PM.predictSpeedup(Input, Levels)));
  EXPECT_TRUE(std::isinf(PM.predictQos(Input, Levels)));

  FaultRegistry::global().clear();
  EXPECT_TRUE(std::isfinite(PM.predictSpeedup(Input, Levels)));
}

//===----------------------------------------------------------------------===//
// Degradation ladder rung 3: per-phase fallback to the exact schedule
//===----------------------------------------------------------------------===//

TEST_F(FaultInjectionTest, NanPredictionsDegradeEveryPhaseToExact) {
  OpproxRuntime Runtime = OpproxRuntime::fromArtifact(testArtifact());
  const std::vector<double> Input = Runtime.artifact().DefaultInput;
  Counter &Degraded =
      MetricsRegistry::global().counter("runtime.degraded_phases");
  uint64_t Before = Degraded.value();

  armGlobal("model.predict.nan:1.0");
  OptimizationResult R = Runtime.optimizeDetailed(Input, 10.0);

  // Every phase fell back to the exact configuration: level 0
  // everywhere, and the decision is bitwise the level-0 decision.
  PhaseSchedule Exact(Runtime.numPhases(), Runtime.numBlocks());
  EXPECT_EQ(R.Schedule.toString(), Exact.toString());
  for (const PhaseDecision &D : R.Decisions) {
    EXPECT_EQ(D.Levels, std::vector<int>(Runtime.numBlocks(), 0));
    EXPECT_TRUE(bitEqual(D.PredictedSpeedup, 1.0));
    EXPECT_TRUE(bitEqual(D.PredictedQos, 0.0));
  }
  // The scan scores every configuration but the all-exact baseline, so
  // every phase trips the fault and degrades.
  EXPECT_EQ(Degraded.value() - Before, Runtime.numPhases());
}

TEST_F(FaultInjectionTest, InfPredictionsDegradeTheNaiveScanToo) {
  OpproxRuntime Runtime = OpproxRuntime::fromArtifact(testArtifact());
  const std::vector<double> Input = Runtime.artifact().DefaultInput;
  armGlobal("model.predict.inf:1.0");
  OptimizeOptions Opts;
  Opts.UseNaiveScan = true;
  OptimizationResult R = Runtime.optimizeDetailed(Input, 10.0, Opts);
  PhaseSchedule Exact(Runtime.numPhases(), Runtime.numBlocks());
  EXPECT_EQ(R.Schedule.toString(), Exact.toString());
}

TEST_F(FaultInjectionTest, DyingScanTasksDegradeInsteadOfCrashing) {
  OpproxRuntime Runtime = OpproxRuntime::fromArtifact(testArtifact());
  const std::vector<double> Input = Runtime.artifact().DefaultInput;
  Counter &Degraded =
      MetricsRegistry::global().counter("runtime.degraded_phases");
  uint64_t Before = Degraded.value();

  armGlobal("threadpool.task:1.0");
  ThreadPool Pool(2);
  OptimizeOptions Opts;
  Opts.Pool = &Pool;
  Opts.ChunkSize = 8; // Several chunks, so the pool actually fans out.
  OptimizationResult R = Runtime.optimizeDetailed(Input, 10.0, Opts);
  PhaseSchedule Exact(Runtime.numPhases(), Runtime.numBlocks());
  EXPECT_EQ(R.Schedule.toString(), Exact.toString());
  EXPECT_EQ(Degraded.value() - Before, Runtime.numPhases());
  // The pool survives for later (clean) requests.
  FaultRegistry::global().clear();
  OptimizationResult Clean = Runtime.optimizeDetailed(Input, 10.0, Opts);
  EXPECT_EQ(Clean.ConfigsEvaluated,
            Runtime.optimizeDetailed(Input, 10.0).ConfigsEvaluated);
}

TEST_F(FaultInjectionTest, DecisionsAreBitIdenticalOnceFaultsClear) {
  OpproxRuntime Runtime = OpproxRuntime::fromArtifact(testArtifact());
  const std::vector<double> Input = Runtime.artifact().DefaultInput;
  OptimizationResult Before = Runtime.optimizeDetailed(Input, 12.0);

  armGlobal("model.predict.nan:1.0");
  Runtime.optimizeDetailed(Input, 12.0); // Degrades.
  FaultRegistry::global().clear();

  OptimizationResult After = Runtime.optimizeDetailed(Input, 12.0);
  ASSERT_EQ(Before.Decisions.size(), After.Decisions.size());
  for (size_t P = 0; P < Before.Decisions.size(); ++P) {
    EXPECT_EQ(Before.Decisions[P].Levels, After.Decisions[P].Levels);
    EXPECT_TRUE(bitEqual(Before.Decisions[P].PredictedSpeedup,
                         After.Decisions[P].PredictedSpeedup));
    EXPECT_TRUE(bitEqual(Before.Decisions[P].PredictedQos,
                         After.Decisions[P].PredictedQos));
  }
}

//===----------------------------------------------------------------------===//
// Degradation ladder rungs 1-2: retry, then last-known-good artifact
//===----------------------------------------------------------------------===//

TEST_F(FaultInjectionTest, LoadRetriesRideOutTransientFaults) {
  std::string Path = tempPath("fault-retry.opprox.json");
  ASSERT_FALSE(testArtifact().save(Path).has_value());
  Counter &Retries =
      MetricsRegistry::global().counter("runtime.artifact_retries");
  uint64_t Before = Retries.value();

  // The first two attempts fail (cap 2); the third succeeds.
  armGlobal("runtime.load:1.0:1:2");
  ArtifactLoadOptions Opts;
  Opts.Retry.MaxAttempts = 3;
  Opts.Retry.InitialBackoffMs = 0.0;
  Expected<OpproxRuntime> Runtime = OpproxRuntime::loadArtifact(Path, Opts);
  ASSERT_TRUE(Runtime) << Runtime.error().message();
  EXPECT_EQ(Runtime->appName(), "pso");
  EXPECT_EQ(Retries.value() - Before, 2u);
  std::remove(Path.c_str());
}

TEST_F(FaultInjectionTest, ExhaustedRetriesFallBackToLastGood) {
  std::string Path = tempPath("fault-lastgood.opprox.json");
  ASSERT_FALSE(testArtifact().save(Path).has_value());
  ArtifactLoadOptions Opts;
  Opts.Retry.MaxAttempts = 2;
  Opts.Retry.InitialBackoffMs = 0.0;
  // Prime the last-good cache with a clean load.
  ASSERT_TRUE(OpproxRuntime::loadArtifact(Path, Opts));

  Counter &LastGood =
      MetricsRegistry::global().counter("runtime.artifact_last_good");
  uint64_t Before = LastGood.value();
  armGlobal("json.read:1.0"); // Every read attempt fails, uncapped.
  Expected<OpproxRuntime> Runtime = OpproxRuntime::loadArtifact(Path, Opts);
  ASSERT_TRUE(Runtime) << Runtime.error().message();
  EXPECT_EQ(Runtime->appName(), "pso");
  EXPECT_EQ(LastGood.value() - Before, 1u);

  // Without the fallback the failure surfaces.
  Opts.UseLastGood = false;
  Expected<OpproxRuntime> NoFallback = OpproxRuntime::loadArtifact(Path, Opts);
  ASSERT_FALSE(NoFallback);
  EXPECT_NE(NoFallback.error().message().find("fault injection"),
            std::string::npos);
  std::remove(Path.c_str());
}

TEST_F(FaultInjectionTest, LoadFailsCleanlyWithEmptyLastGoodCache) {
  armGlobal("json.read:1.0");
  ArtifactLoadOptions Opts;
  Opts.Retry.MaxAttempts = 2;
  Opts.Retry.InitialBackoffMs = 0.0;
  Expected<OpproxRuntime> Runtime = OpproxRuntime::loadArtifact(
      tempPath("never-loaded.opprox.json"), Opts);
  ASSERT_FALSE(Runtime);
  EXPECT_NE(Runtime.error().message().find("fault injection"),
            std::string::npos);
}

TEST_F(FaultInjectionTest, SaveRetriesRideOutTransientWriteFaults) {
  std::string Path = tempPath("fault-save.opprox.json");
  Counter &Retries =
      MetricsRegistry::global().counter("train.artifact_save_retries");
  uint64_t Before = Retries.value();

  armGlobal("artifact.write:1.0:1:2"); // First two saves fail.
  RetryPolicy Policy;
  Policy.MaxAttempts = 3;
  Policy.InitialBackoffMs = 0.0;
  ASSERT_FALSE(testArtifact().save(Path, Policy).has_value());
  EXPECT_EQ(Retries.value() - Before, 2u);

  FaultRegistry::global().clear();
  EXPECT_TRUE(OpproxArtifact::load(Path));
  std::remove(Path.c_str());
}

TEST_F(FaultInjectionTest, CorruptionFaultSurfacesAsParseError) {
  std::string Path = tempPath("fault-corrupt.opprox.json");
  ASSERT_FALSE(testArtifact().save(Path).has_value());
  armGlobal("artifact.corrupt:1.0");
  Expected<OpproxArtifact> Art = OpproxArtifact::load(Path);
  ASSERT_FALSE(Art);
  // The injected truncation exercises the real parse-error path.
  EXPECT_NE(Art.error().message().find("JSON parse error"),
            std::string::npos)
      << Art.error().message();
  std::remove(Path.c_str());
}

//===----------------------------------------------------------------------===//
// Request validation (tryOptimizeDetailed)
//===----------------------------------------------------------------------===//

TEST_F(FaultInjectionTest, MalformedRequestsComeBackAsErrors) {
  OpproxRuntime Runtime = OpproxRuntime::fromArtifact(testArtifact());
  const std::vector<double> Input = Runtime.artifact().DefaultInput;
  EXPECT_FALSE(Runtime.tryOptimizeDetailed(Input, -1.0));
  EXPECT_FALSE(Runtime.tryOptimizeDetailed(Input, std::nan("")));
  EXPECT_FALSE(
      Runtime.tryOptimizeDetailed(std::vector<double>{1.0, 2.0, 3.0}, 5.0));
  Expected<OptimizationResult> Ok = Runtime.tryOptimizeDetailed(Input, 5.0);
  ASSERT_TRUE(Ok) << Ok.error().message();
  EXPECT_EQ(Ok->Decisions.size(), Runtime.numPhases());
}

//===----------------------------------------------------------------------===//
// Schedule cache under faults
//===----------------------------------------------------------------------===//

TEST_F(FaultInjectionTest, NegativeCacheReplaysMalformedRequestErrors) {
  // Repeating a malformed request must replay the memoized rejection --
  // same message, no revalidation -- visible as a negative hit.
  OpproxRuntime Runtime = OpproxRuntime::fromArtifact(testArtifact());
  const std::vector<double> Input = Runtime.artifact().DefaultInput;
  Counter &NegativeHits =
      MetricsRegistry::global().counter("cache.negative_hits");

  uint64_t Before = NegativeHits.value();
  Expected<OptimizationResult> First =
      Runtime.tryOptimizeDetailed(Input, -3.0);
  ASSERT_FALSE(First);
  EXPECT_EQ(NegativeHits.value(), Before); // First sighting: a miss.
  Expected<OptimizationResult> Second =
      Runtime.tryOptimizeDetailed(Input, -3.0);
  ASSERT_FALSE(Second);
  EXPECT_EQ(NegativeHits.value(), Before + 1);
  EXPECT_EQ(First.error().message(), Second.error().message());
  EXPECT_NE(First.error().message().find("non-negative"), std::string::npos)
      << First.error().message();

  // Arity mismatches memoize under their own key.
  const std::vector<double> WrongArity = {1.0, 2.0, 3.0};
  Expected<OptimizationResult> Arity1 =
      Runtime.tryOptimizeDetailed(WrongArity, 5.0);
  ASSERT_FALSE(Arity1);
  Expected<OptimizationResult> Arity2 =
      Runtime.tryOptimizeDetailed(WrongArity, 5.0);
  ASSERT_FALSE(Arity2);
  EXPECT_EQ(NegativeHits.value(), Before + 2);
  EXPECT_EQ(Arity1.error().message(), Arity2.error().message());
  EXPECT_NE(Arity1.error().message().find("expects"), std::string::npos)
      << Arity1.error().message();
}

TEST_F(FaultInjectionTest, DegradedResultsAreNeverCached) {
  // A result produced under the fault ladder reflects the fault, not
  // the model; memoizing it would keep serving exact-fallback schedules
  // long after the fault cleared. So a degraded solve must leave the
  // cache untouched and the first healthy repeat must recompute.
  OpproxRuntime Runtime = OpproxRuntime::fromArtifact(testArtifact());
  const std::vector<double> Input = Runtime.artifact().DefaultInput;
  Counter &Misses = MetricsRegistry::global().counter("cache.misses");
  Counter &Hits = MetricsRegistry::global().counter("cache.hits");

  uint64_t MissesBefore = Misses.value();
  armGlobal("model.predict.nan:1.0");
  Expected<OptimizationResult> Degraded =
      Runtime.tryOptimizeDetailed(Input, 10.0);
  ASSERT_TRUE(Degraded) << Degraded.error().message();
  ASSERT_FALSE(Degraded->DegradedPhases.empty());
  EXPECT_EQ(Misses.value(), MissesBefore + 1);

  FaultRegistry::global().clear();
  uint64_t HitsBefore = Hits.value();
  Expected<OptimizationResult> Clean =
      Runtime.tryOptimizeDetailed(Input, 10.0);
  ASSERT_TRUE(Clean) << Clean.error().message();
  EXPECT_TRUE(Clean->DegradedPhases.empty());
  // The healthy repeat was a recompute (miss), not a hit on the
  // degraded result...
  EXPECT_EQ(Misses.value(), MissesBefore + 2);
  EXPECT_EQ(Hits.value(), HitsBefore);

  // ...and the healthy result is what got memoized.
  Expected<OptimizationResult> FromCache =
      Runtime.tryOptimizeDetailed(Input, 10.0);
  ASSERT_TRUE(FromCache) << FromCache.error().message();
  EXPECT_TRUE(FromCache->DegradedPhases.empty());
  EXPECT_EQ(Hits.value(), HitsBefore + 1);
  EXPECT_EQ(FromCache->Schedule.toString(), Clean->Schedule.toString());
}

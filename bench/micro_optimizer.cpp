//===- bench/micro_optimizer.cpp ------------------------------------------===//
//
// Part of the OPPROX reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Serving-latency micro-benchmark for the optimizer hot path: the naive
/// scalar scan vs. the batched scan (serial and parallel) on a
/// synthetic 6-block x 4-level model (4096 configurations per phase).
/// Verifies the engines return bit-identical decisions, reports
/// configs/sec and the optimize.ms p50/p99 from the telemetry histogram,
/// sweeps executors x space size for the thread-scaling curve, and
/// writes the machine-readable summary to BENCH_optimizer.json.
///
/// The parallel engine is deliberately oversubscribed when --threads is
/// 0 and the host has fewer than four hardware threads: the point of the
/// bench is the scheduling behavior (chunk geometry, bit-identical
/// reduction) at realistic executor counts, and the JSON's host block
/// records the honest core count so consumers can judge the speedups.
/// The thread-scaling sweep times no point with more threads than the
/// host has hardware threads: such points are still checked for
/// bit-identity but are recorded as "unmeasured", with no timing.
///
/// Run:   ./build/bench/micro_optimizer [--blocks 6] [--levels 3]
///            [--phases 4] [--repeats 5] [--budget 0.5] [--threads 0]
///            [--out BENCH_optimizer.json]
///
//===----------------------------------------------------------------------===//

#include "BenchSupport.h"
#include "core/ModelArtifact.h"
#include "core/OptimizePlanner.h"
#include "core/Optimizer.h"
#include "core/Sampler.h"
#include "support/CommandLine.h"
#include "support/Json.h"
#include "support/Simd.h"
#include "support/StringUtils.h"
#include "support/ThreadPool.h"
#include "support/Timer.h"
#include <algorithm>
#include <chrono>
#include <cmath>
#include <memory>
#include <thread>
#include <unistd.h>

using namespace opprox;
using namespace opprox::bench;

namespace {

/// Synthetic ground truth with mild block interactions: enough structure
/// for the degree-escalating fits to model well, enough spread that a
/// budget leaves both feasible and infeasible configurations.
double trueSpeedup(const std::vector<int> &Levels, size_t Phase,
                   size_t NumPhases) {
  double Scale =
      0.5 + static_cast<double>(Phase + 1) / static_cast<double>(NumPhases);
  double S = 1.0;
  for (size_t B = 0; B < Levels.size(); ++B)
    S *= 1.0 + 0.05 * Scale * (1.0 + 0.3 * static_cast<double>(B)) *
                   static_cast<double>(Levels[B]);
  return S;
}

double trueQos(const std::vector<int> &Levels, size_t Phase,
               size_t NumPhases) {
  double Scale =
      0.3 + static_cast<double>(NumPhases - Phase) /
                static_cast<double>(NumPhases);
  double Q = 0.0;
  for (size_t B = 0; B < Levels.size(); ++B) {
    double L = static_cast<double>(Levels[B]);
    Q += 0.01 * Scale * (1.0 + 0.2 * static_cast<double>(B)) * L * L;
  }
  return Q;
}

double trueIterations(const std::vector<int> &Levels) {
  double Sum = 0.0;
  for (int L : Levels)
    Sum += static_cast<double>(L);
  return 100.0 + 4.0 * Sum;
}

/// Profiling-shaped synthetic data: the Sec. 3.3 sampling pattern (local
/// sweeps + random joint configs) against the ground truth above, with
/// small multiplicative noise.
TrainingSet makeSyntheticData(size_t NumBlocks, int MaxLevel,
                              size_t NumPhases, size_t JointPerPhase,
                              uint64_t Seed) {
  std::vector<std::vector<double>> Inputs = {{1.0}, {2.0}, {3.0}};
  std::vector<int> MaxLevels(NumBlocks, MaxLevel);
  TrainingSet Set;
  Rng R(Seed);
  for (const std::vector<double> &Input : Inputs) {
    for (size_t Phase = 0; Phase < NumPhases; ++Phase) {
      SamplingPlan Plan = makeSamplingPlan(MaxLevels, JointPerPhase, R);
      Plan.forEach([&](const std::vector<int> &Levels) {
        TrainingSample S;
        S.Input = Input;
        S.Levels = Levels;
        S.Phase = static_cast<int>(Phase);
        S.Speedup = trueSpeedup(Levels, Phase, NumPhases) *
                    (1.0 + R.gaussian(0.0, 0.004));
        S.QosDegradation =
            std::max(0.0, trueQos(Levels, Phase, NumPhases) *
                              (1.0 + R.gaussian(0.0, 0.01)));
        S.OuterIterations = trueIterations(Levels);
        S.ControlFlowClass = 0;
        Set.add(std::move(S));
      });
    }
  }
  return Set;
}

struct EngineResult {
  OptimizationResult Opt;
  double SecondsPerCall = 0.0;
  double ConfigsPerSec = 0.0;
};

EngineResult timeEngine(const AppModel &Model,
                        const std::vector<double> &Input,
                        const std::vector<int> &MaxLevels, double Budget,
                        const OptimizeOptions &Opts, size_t Repeats) {
  EngineResult R;
  Timer Clock;
  size_t Configs = 0;
  for (size_t I = 0; I < Repeats; ++I) {
    R.Opt = optimizeSchedule(Model, Input, MaxLevels, Budget, Opts);
    Configs += R.Opt.ConfigsEvaluated;
  }
  double Elapsed = Clock.seconds();
  R.SecondsPerCall = Elapsed / static_cast<double>(Repeats);
  R.ConfigsPerSec =
      Elapsed > 0.0 ? static_cast<double>(Configs) / Elapsed : 0.0;
  return R;
}

/// Nearest-rank percentile over per-call samples, reported in
/// microseconds (cache-layer latencies are far below the millisecond
/// buckets the engine histograms use).
double percentileUs(std::vector<double> &SamplesNs, double Pct) {
  if (SamplesNs.empty())
    return 0.0;
  std::sort(SamplesNs.begin(), SamplesNs.end());
  size_t Idx = static_cast<size_t>(
      (Pct / 100.0) * static_cast<double>(SamplesNs.size() - 1) + 0.5);
  return SamplesNs[Idx] / 1000.0;
}

#ifndef OPPROX_BENCH_BUILD_TYPE
#define OPPROX_BENCH_BUILD_TYPE "unknown"
#endif

/// The host the numbers were measured on, in the same shape as
/// perfbench's host block.
Json hostJson() {
  Json Host = Json::object();
  Host.set("nproc", static_cast<long>(::sysconf(_SC_NPROCESSORS_ONLN)));
  Host.set("hardware_concurrency",
           static_cast<size_t>(std::thread::hardware_concurrency()));
  Host.set("compiler", __VERSION__);
  Host.set("build_type", OPPROX_BENCH_BUILD_TYPE);
  Host.set("simd_tier", simd::activeTierName());
  return Host;
}

bool sameDecisions(const OptimizationResult &A, const OptimizationResult &B) {
  if (A.Decisions.size() != B.Decisions.size())
    return false;
  for (size_t P = 0; P < A.Decisions.size(); ++P) {
    const PhaseDecision &DA = A.Decisions[P];
    const PhaseDecision &DB = B.Decisions[P];
    if (DA.Levels != DB.Levels ||
        DA.PredictedSpeedup != DB.PredictedSpeedup ||
        DA.PredictedQos != DB.PredictedQos ||
        DA.AllocatedBudget != DB.AllocatedBudget)
      return false;
  }
  return true;
}

} // namespace

int main(int Argc, char **Argv) {
  long Blocks = 6;
  long Levels = 3; // Per-block max level -> 4 levels including exact.
  long Phases = 4;
  long Repeats = 5;
  long Joint = 48;
  long Threads = 0; // 0 = auto for the parallel engine.
  double Budget = 0.5;
  std::string OutPath = "BENCH_optimizer.json";
  TelemetryOptions Telemetry;
  FlagParser Flags;
  Flags.addFlag("blocks", &Blocks, "approximable block count");
  Flags.addFlag("levels", &Levels, "max approximation level per block");
  Flags.addFlag("phases", &Phases, "phase count");
  Flags.addFlag("repeats", &Repeats, "optimizeSchedule calls per engine");
  Flags.addFlag("joint", &Joint, "random joint samples per (input, phase)");
  Flags.addFlag("threads", &Threads,
                "executors for the parallel engine (0 = auto)");
  Flags.addFlag("budget", &Budget, "QoS degradation budget");
  Flags.addFlag("out", &OutPath, "machine-readable summary path");
  addTelemetryFlags(Flags, Telemetry);
  if (!Flags.parse(Argc, Argv))
    return 1;
  if (!initTelemetry(Telemetry))
    return 1;

  std::vector<int> MaxLevels(static_cast<size_t>(Blocks),
                             static_cast<int>(Levels));
  size_t Space = 1;
  for (int M : MaxLevels)
    Space *= static_cast<size_t>(M) + 1;
  banner("micro_optimizer",
         format("optimizer hot path on a synthetic %ld-block x %ld-level "
                "model (%zu configs/phase, %ld phases)",
                Blocks, Levels + 1, Space, Phases));

  std::printf("training synthetic model...\n");
  TrainingSet Data = makeSyntheticData(
      static_cast<size_t>(Blocks), static_cast<int>(Levels),
      static_cast<size_t>(Phases), static_cast<size_t>(Joint), 0xB16B00);
  ModelBuildOptions BOpts;
  BOpts.NumThreads = 0;
  AppModel Model =
      ModelBuilder::build(Data, static_cast<size_t>(Phases),
                          static_cast<size_t>(Blocks), BOpts);
  std::vector<double> Input = {2.0};

  std::printf("simd tier: %s\n", simd::activeTierName());

  OptimizeOptions Naive;
  Naive.UseNaiveScan = true;
  OptimizeOptions Batched; // Defaults: batched, serial.
  OptimizeOptions Parallel = Batched;
  // --threads 0 used to resolve through resolveWorkers(0) = 0 workers,
  // so the "parallel" row silently measured a 1-executor pool. Auto now
  // means at least 4 executors (oversubscribed on small hosts; see the
  // file comment), and the reported executor count is the resolved one.
  size_t WantExecutors =
      Threads > 0 ? static_cast<size_t>(Threads)
                  : std::max<size_t>(4, ThreadPool::defaultWorkerCount());
  ThreadPool Pool(ThreadPool::resolveWorkers(WantExecutors));
  Parallel.Pool = &Pool;
  size_t Executors = Pool.numWorkers() + 1;

  // Warm each engine once (thread_local scratch growth, metric handles),
  // then reset the registry so the histograms cover only timed calls.
  (void)optimizeSchedule(Model, Input, MaxLevels, Budget, Naive);
  (void)optimizeSchedule(Model, Input, MaxLevels, Budget, Batched);
  (void)optimizeSchedule(Model, Input, MaxLevels, Budget, Parallel);
  MetricsRegistry::global().reset();

  EngineResult NaiveR =
      timeEngine(Model, Input, MaxLevels, Budget, Naive,
                 static_cast<size_t>(Repeats));
  Histogram &OptimizeMs = MetricsRegistry::global().histogram("optimize.ms");
  double NaiveP50 = OptimizeMs.percentile(50);
  double NaiveP99 = OptimizeMs.percentile(99);

  MetricsRegistry::global().reset();
  EngineResult BatchedR =
      timeEngine(Model, Input, MaxLevels, Budget, Batched,
                 static_cast<size_t>(Repeats));
  double BatchedP50 = OptimizeMs.percentile(50);
  double BatchedP99 = OptimizeMs.percentile(99);

  MetricsRegistry::global().reset();
  EngineResult ParallelR =
      timeEngine(Model, Input, MaxLevels, Budget, Parallel,
                 static_cast<size_t>(Repeats));
  double ParallelP50 = OptimizeMs.percentile(50);
  double ParallelP99 = OptimizeMs.percentile(99);

  bool Identical = sameDecisions(NaiveR.Opt, BatchedR.Opt) &&
                   sameDecisions(NaiveR.Opt, ParallelR.Opt);
  if (!Identical) {
    std::fprintf(stderr,
                 "FAIL: engines disagree on the optimized schedule\n");
    return 1;
  }
  std::printf("determinism: batched and parallel decisions are "
              "bit-identical to the naive scan\n\n");

  Table T({"engine", "configs_per_sec", "ms_per_schedule", "p50_ms",
           "p99_ms", "vs_naive"});
  auto Row = [&](const char *Name, const EngineResult &E, double P50,
                 double P99) {
    T.addRow({Name, format("%.0f", E.ConfigsPerSec),
              format("%.3f", E.SecondsPerCall * 1e3), format("%.3f", P50),
              format("%.3f", P99),
              format("%.2fx", E.ConfigsPerSec / NaiveR.ConfigsPerSec)});
  };
  Row("naive_scalar", NaiveR, NaiveP50, NaiveP99);
  Row("batched_serial", BatchedR, BatchedP50, BatchedP99);
  Row(format("parallel_x%zu", Executors).c_str(), ParallelR, ParallelP50,
      ParallelP99);
  emit("micro_optimizer", T);

  //===--------------------------------------------------------------------===//
  // Thread-scaling sweep: executors x space size, each space its own
  // trained model (one extra block per step, so the spaces stay inside
  // the trained level range instead of extrapolating). Every point is
  // verified bit-identical to the batched serial scan on the same model
  // before its throughput is reported. Points with more threads than the
  // host has hardware threads are checked but not timed: oversubscribed
  // throughput measures the scheduler, not the scan.
  //===--------------------------------------------------------------------===//

  struct ScalePoint {
    size_t ThreadsRequested = 0;
    size_t Executors = 0;
    double ConfigsPerSec = 0.0;
    double SpeedupVsBatched = 0.0;
    bool Identical = false;
    bool Measured = false;
  };
  struct ScaleSpace {
    size_t Blocks = 0;
    size_t Space = 0;
    double BatchedConfigsPerSec = 0.0;
    std::vector<ScalePoint> Points;
  };
  const size_t ThreadCounts[] = {1, 2, 4, 8};
  const size_t HostThreads =
      std::thread::hardware_concurrency()
          ? std::thread::hardware_concurrency()
          : std::max<long>(1, ::sysconf(_SC_NPROCESSORS_ONLN));
  std::vector<ScaleSpace> Scaling;
  bool ScalingIdentical = true;
  std::printf("\nthread-scaling sweep (threads x space size)...\n");
  for (size_t ExtraBlocks = 0; ExtraBlocks < 3; ++ExtraBlocks) {
    size_t SweepBlocks = static_cast<size_t>(Blocks) + ExtraBlocks;
    std::vector<int> SweepMax(SweepBlocks, static_cast<int>(Levels));
    size_t SweepSpace = 1;
    for (int M : SweepMax)
      SweepSpace *= static_cast<size_t>(M) + 1;
    const AppModel *SweepModel = &Model;
    AppModel Grown;
    if (ExtraBlocks > 0) {
      TrainingSet SweepData = makeSyntheticData(
          SweepBlocks, static_cast<int>(Levels),
          static_cast<size_t>(Phases), static_cast<size_t>(Joint), 0xB16B00);
      Grown = ModelBuilder::build(SweepData, static_cast<size_t>(Phases),
                                  SweepBlocks, BOpts);
      SweepModel = &Grown;
    }

    ScaleSpace SS;
    SS.Blocks = SweepBlocks;
    SS.Space = SweepSpace;
    OptimizeOptions Serial; // Batched, serial, auto chunking.
    (void)optimizeSchedule(*SweepModel, Input, SweepMax, Budget, Serial);
    EngineResult Base = timeEngine(*SweepModel, Input, SweepMax, Budget,
                                   Serial, static_cast<size_t>(Repeats));
    SS.BatchedConfigsPerSec = Base.ConfigsPerSec;

    for (size_t T : ThreadCounts) {
      OptimizeOptions P = Serial;
      std::unique_ptr<ThreadPool> TP;
      ScalePoint Point;
      Point.ThreadsRequested = T;
      Point.Executors = 1;
      if (T > 1) {
        TP = std::make_unique<ThreadPool>(T - 1);
        P.Pool = TP.get();
        Point.Executors = TP->numWorkers() + 1;
      }
      Point.Measured = T <= HostThreads;
      if (Point.Measured) {
        (void)optimizeSchedule(*SweepModel, Input, SweepMax, Budget, P);
        EngineResult E = timeEngine(*SweepModel, Input, SweepMax, Budget, P,
                                    static_cast<size_t>(Repeats));
        Point.ConfigsPerSec = E.ConfigsPerSec;
        Point.SpeedupVsBatched =
            Base.ConfigsPerSec > 0.0 ? E.ConfigsPerSec / Base.ConfigsPerSec
                                     : 0.0;
        Point.Identical = sameDecisions(E.Opt, Base.Opt);
      } else {
        Point.Identical = sameDecisions(
            optimizeSchedule(*SweepModel, Input, SweepMax, Budget, P),
            Base.Opt);
      }
      ScalingIdentical &= Point.Identical;
      SS.Points.push_back(Point);
    }
    Scaling.push_back(std::move(SS));
  }
  if (!ScalingIdentical) {
    std::fprintf(stderr, "FAIL: a scaling sweep point diverged from the "
                         "batched serial scan\n");
    return 1;
  }
  std::printf("determinism: every sweep point is bit-identical to the "
              "batched serial scan\n\n");

  Table ScaleTable({"space_configs", "threads", "executors",
                    "configs_per_sec", "speedup_vs_batched"});
  for (const ScaleSpace &SS : Scaling)
    for (const ScalePoint &P : SS.Points)
      ScaleTable.addRow(
          {format("%zu", SS.Space), format("%zu", P.ThreadsRequested),
           format("%zu", P.Executors),
           P.Measured ? format("%.0f", P.ConfigsPerSec) : "unmeasured",
           P.Measured ? format("%.2fx", P.SpeedupVsBatched) : "-"});
  emit("micro_optimizer scaling", ScaleTable);

  //===--------------------------------------------------------------------===//
  // Schedule-cache layer: warm/cold latency by shard count, plus a
  // hit-rate sweep. Every cached response is self-verified bit-identical
  // to the batched engine before any number is reported.
  //===--------------------------------------------------------------------===//

  OpproxArtifact Art;
  Art.AppName = "micro";
  Art.ParameterNames = {"n"};
  Art.MaxLevels = MaxLevels;
  Art.DefaultInput = Input;
  Art.Model = Model;

  bool CacheIdentical = true;
  auto runPlanner = [&](OptimizePlanner &Planner,
                        double B) -> OptimizationResult {
    Expected<OptimizationResult> R = Planner.optimize(Art, Input, B, Batched);
    if (!R) {
      std::fprintf(stderr, "error: %s\n", R.error().message().c_str());
      std::exit(1);
    }
    return std::move(*R);
  };

  struct CacheRow {
    size_t Shards;
    double WarmP50Us, WarmP99Us, ColdP50Us;
  };
  std::vector<CacheRow> CacheRows;
  const size_t WarmIters = 2000, ColdIters = 24;
  for (size_t Shards : {1u, 8u, 16u}) {
    PlannerOptions POpts;
    POpts.Cache.Shards = Shards;
    POpts.Cache.Capacity = 8192;
    OptimizePlanner Planner(POpts);
    CacheIdentical &= sameDecisions(runPlanner(Planner, Budget),
                                    BatchedR.Opt); // Fill (miss path).

    std::vector<double> WarmNs;
    WarmNs.reserve(WarmIters);
    for (size_t I = 0; I < WarmIters; ++I) {
      auto T0 = std::chrono::steady_clock::now();
      OptimizationResult R = runPlanner(Planner, Budget);
      auto T1 = std::chrono::steady_clock::now();
      WarmNs.push_back(static_cast<double>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(T1 - T0)
              .count()));
      CacheIdentical &= sameDecisions(R, BatchedR.Opt);
    }

    std::vector<double> ColdNs;
    ColdNs.reserve(ColdIters);
    for (size_t I = 0; I < ColdIters; ++I) {
      // Fresh budget each call: the lookup always misses, so this is
      // the compute path plus the cache's key/probe/insert overhead.
      double B = Budget + 1e-4 * static_cast<double>(I + 1);
      auto T0 = std::chrono::steady_clock::now();
      OptimizationResult R = runPlanner(Planner, B);
      auto T1 = std::chrono::steady_clock::now();
      ColdNs.push_back(static_cast<double>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(T1 - T0)
              .count()));
      if (I == 0)
        CacheIdentical &= sameDecisions(
            R, optimizeSchedule(Model, Input, MaxLevels, B, Batched));
    }
    CacheRows.push_back({Shards, percentileUs(WarmNs, 50),
                         percentileUs(WarmNs, 99), percentileUs(ColdNs, 50)});
  }
  if (!CacheIdentical) {
    std::fprintf(stderr,
                 "FAIL: cached schedules diverge from the batched engine\n");
    return 1;
  }
  std::printf("\ndeterminism: cached schedules are bit-identical to the "
              "batched engine\n\n");

  Table CacheTable({"cache_shards", "warm_p50_us", "warm_p99_us",
                    "cold_p50_us"});
  for (const CacheRow &R : CacheRows)
    CacheTable.addRow({format("%zu", R.Shards), format("%.2f", R.WarmP50Us),
                       format("%.2f", R.WarmP99Us),
                       format("%.1f", R.ColdP50Us)});
  emit("micro_optimizer cache", CacheTable);

  // Hit-rate sweep: a hot set of 8 budgets pre-warmed, then a request
  // mix whose repeat fraction targets each hit rate.
  Counter &CacheHits = MetricsRegistry::global().counter("cache.hits");
  struct SweepRow {
    size_t Shards;
    double Target, Observed, RequestsPerSec;
  };
  std::vector<SweepRow> Sweep;
  const size_t SweepRequests = 400, HotSet = 8;
  size_t UniqueTag = 0;
  for (size_t Shards : {1u, 8u, 16u}) {
    for (double Target : {0.50, 0.90, 0.99}) {
      PlannerOptions POpts;
      POpts.Cache.Shards = Shards;
      POpts.Cache.Capacity = 8192;
      OptimizePlanner Planner(POpts);
      for (size_t H = 0; H < HotSet; ++H)
        (void)runPlanner(Planner, Budget + 0.01 * static_cast<double>(H));
      uint64_t HitsBefore = CacheHits.value();
      Timer SweepClock;
      for (size_t I = 0; I < SweepRequests; ++I) {
        bool Hot = static_cast<double>(I % 100) < Target * 100.0;
        double B = Hot ? Budget + 0.01 * static_cast<double>(I % HotSet)
                       : Budget + 1.0 +
                             1e-3 * static_cast<double>(++UniqueTag);
        (void)runPlanner(Planner, B);
      }
      double Elapsed = SweepClock.seconds();
      Sweep.push_back({Shards, Target,
                       static_cast<double>(CacheHits.value() - HitsBefore) /
                           static_cast<double>(SweepRequests),
                       Elapsed > 0.0 ? static_cast<double>(SweepRequests) /
                                           Elapsed
                                     : 0.0});
    }
  }
  Table SweepTable({"cache_shards", "target_hit_rate", "observed_hit_rate",
                    "requests_per_sec"});
  for (const SweepRow &R : Sweep)
    SweepTable.addRow({format("%zu", R.Shards), format("%.2f", R.Target),
                       format("%.3f", R.Observed),
                       format("%.0f", R.RequestsPerSec)});
  emit("micro_optimizer cache sweep", SweepTable);

  Json Out = Json::object();
  Out.set("schema", "opprox.bench.optimizer.v1");
  Out.set("blocks", Blocks);
  Out.set("max_level", Levels);
  Out.set("phases", Phases);
  Out.set("space_configs", Space);
  Out.set("repeats", Repeats);
  Out.set("budget", Budget);
  Out.set("host", hostJson());
  Out.set("decisions_bit_identical", Identical);
  Out.set("simd_tier", simd::activeTierName());
  Out.set("configs_scored", BatchedR.Opt.ConfigsScored);
  auto Engine = [](const EngineResult &E, double P50, double P99) {
    Json J = Json::object();
    J.set("configs_per_sec", E.ConfigsPerSec);
    J.set("ms_per_schedule", E.SecondsPerCall * 1e3);
    J.set("optimize_ms_p50", P50);
    J.set("optimize_ms_p99", P99);
    return J;
  };
  Out.set("naive", Engine(NaiveR, NaiveP50, NaiveP99));
  Out.set("batched", Engine(BatchedR, BatchedP50, BatchedP99));
  Json ParallelJson = Engine(ParallelR, ParallelP50, ParallelP99);
  ParallelJson.set("executors", Executors);
  Out.set("parallel", std::move(ParallelJson));
  Out.set("speedup_batched_vs_naive",
          BatchedR.ConfigsPerSec / NaiveR.ConfigsPerSec);
  Out.set("speedup_parallel_vs_naive",
          ParallelR.ConfigsPerSec / NaiveR.ConfigsPerSec);
  Json ScalingJson = Json::object();
  ScalingJson.set("hardware_concurrency",
                  static_cast<size_t>(std::thread::hardware_concurrency()));
  ScalingJson.set("repeats", Repeats);
  Json SpacesJson = Json::array();
  for (const ScaleSpace &SS : Scaling) {
    Json SpaceJson = Json::object();
    SpaceJson.set("blocks", SS.Blocks);
    SpaceJson.set("space_configs", SS.Space);
    SpaceJson.set("batched_configs_per_sec", SS.BatchedConfigsPerSec);
    Json Points = Json::array();
    for (const ScalePoint &P : SS.Points) {
      Json PointJson = Json::object();
      PointJson.set("threads", P.ThreadsRequested);
      PointJson.set("executors", P.Executors);
      if (P.Measured) {
        PointJson.set("configs_per_sec", P.ConfigsPerSec);
        PointJson.set("speedup_vs_batched", P.SpeedupVsBatched);
      } else {
        PointJson.set("unmeasured", true);
      }
      PointJson.set("decisions_bit_identical", P.Identical);
      Points.push(std::move(PointJson));
    }
    SpaceJson.set("points", std::move(Points));
    SpacesJson.push(std::move(SpaceJson));
  }
  ScalingJson.set("spaces", std::move(SpacesJson));
  Out.set("scaling", std::move(ScalingJson));
  Json Cached = Json::object();
  Cached.set("bit_identical", CacheIdentical);
  Cached.set("warm_iterations", WarmIters);
  // Headline numbers come from the default shard count (8).
  for (const CacheRow &R : CacheRows) {
    if (R.Shards != 8)
      continue;
    Cached.set("warm_p50_us", R.WarmP50Us);
    Cached.set("warm_p99_us", R.WarmP99Us);
    Cached.set("cold_p50_us", R.ColdP50Us);
  }
  Json ByShards = Json::array();
  for (const CacheRow &R : CacheRows) {
    Json Row = Json::object();
    Row.set("shards", R.Shards);
    Row.set("warm_p50_us", R.WarmP50Us);
    Row.set("warm_p99_us", R.WarmP99Us);
    Row.set("cold_p50_us", R.ColdP50Us);
    ByShards.push(std::move(Row));
  }
  Cached.set("by_shards", std::move(ByShards));
  Json SweepJson = Json::array();
  for (const SweepRow &R : Sweep) {
    Json Row = Json::object();
    Row.set("shards", R.Shards);
    Row.set("target_hit_rate", R.Target);
    Row.set("observed_hit_rate", R.Observed);
    Row.set("requests_per_sec", R.RequestsPerSec);
    SweepJson.push(std::move(Row));
  }
  Cached.set("sweep", std::move(SweepJson));
  Out.set("cached", std::move(Cached));
  if (std::optional<Error> E = writeFile(OutPath, Out.dump(2) + "\n")) {
    std::fprintf(stderr, "error: %s\n", E->message().c_str());
    return 1;
  }
  std::printf("wrote %s\n", OutPath.c_str());
  return 0;
}

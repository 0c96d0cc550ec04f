//===- core/Optimizer.cpp -------------------------------------------------===//
//
// Part of the OPPROX reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//
//
// Per-phase search over the level space. Two interchangeable engines:
//
//  - the naive reference: one scalar model evaluation per configuration,
//    in enumeration order -- the semantic ground truth;
//  - the serving path: configurations stream from a ConfigCursor into
//    reused batch buffers, feasibility (QoS) and scoring (speedup) run
//    as batched matrix kernels, and fixed-size index chunks fan out
//    across a thread pool.
//
// The serving path reproduces the reference bit for bit: batch kernels
// evaluate each row with the exact operation sequence of the scalar
// predicts, and the chunk reduction replays the reference's
// first-strictly-greater tie-break in enumeration order.
//
//===----------------------------------------------------------------------===//

#include "core/Optimizer.h"
#include "core/Sampler.h"
#include "support/Log.h"
#include "support/Simd.h"
#include "support/StringUtils.h"
#include "support/Telemetry.h"
#include "support/ThreadPool.h"
#include <algorithm>
#include <chrono>
#include <cmath>
#include <numeric>
#include <stdexcept>

using namespace opprox;

namespace {
/// Thrown by the scan engines when a model emits a value outside its
/// clamped output range (NaN, infinity, or out of bounds). Such a value
/// can only come from a defective artifact or an injected fault, and it
/// must not steer the scan: a NaN QoS compares false against the budget
/// and would silently pass feasibility. optimizeSchedule catches this
/// per phase and degrades that phase to the exact configuration.
struct InvalidPrediction : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// The predicted-speedup transform clamps into [0.01, 50] (AppModel.cpp);
/// anything else is invalid by construction.
void checkSpeedup(double V) {
  if (!(std::isfinite(V) && V >= 0.01 && V <= 50.0))
    throw InvalidPrediction(
        format("speedup prediction %g outside [0.01, 50]", V));
}

/// The QoS transform clamps into [0, 1000].
void checkQos(double V) {
  if (!(std::isfinite(V) && V >= 0.0 && V <= 1000.0))
    throw InvalidPrediction(
        format("QoS prediction %g outside [0, 1000]", V));
}

/// Iteration estimates are unclamped but must at least be finite to
/// feed the overall models.
void checkIterations(double V) {
  if (!std::isfinite(V))
    throw InvalidPrediction(format("non-finite iteration estimate %g", V));
}
/// Online-side instruments (see docs/OBSERVABILITY.md). Cached once; the
/// optimizer may sit on a per-request serving path.
struct OptimizerMetrics {
  Counter &Calls;
  Counter &ConfigsEvaluated;
  Counter &LeftoverRedistributed;
  Counter &DegradedPhases;
  Gauge &ConfigsPerSec;
  Gauge &SimdTier;
  Gauge &ScanExecutors;
  Histogram &BatchSize;
  Histogram &ExecutorUtilizationPct;
  Histogram &PhaseBudgetPct;
  Histogram &OptimizeMs;

  static OptimizerMetrics &get() {
    static OptimizerMetrics M{
        MetricsRegistry::global().counter("optimize.calls"),
        MetricsRegistry::global().counter("optimize.configs_evaluated"),
        MetricsRegistry::global().counter("optimize.leftover_redistributed"),
        MetricsRegistry::global().counter("runtime.degraded_phases"),
        MetricsRegistry::global().gauge("optimize.configs_per_sec"),
        MetricsRegistry::global().gauge("optimize.simd_tier"),
        MetricsRegistry::global().gauge("optimize.scan_executors"),
        MetricsRegistry::global().histogram("optimize.batch_size",
                                            {1, 8, 32, 64, 128, 256, 512,
                                             1024}),
        MetricsRegistry::global().histogram(
            "optimize.executor_utilization_pct",
            Histogram::percentBounds()),
        MetricsRegistry::global().histogram("optimize.phase_budget_pct",
                                            Histogram::percentBounds()),
        MetricsRegistry::global().histogram("optimize.ms")};
    return M;
  }
};

/// Best-so-far state of one scan range, reduced across ranges in
/// ascending enumeration order.
struct RangeBest {
  std::vector<int> Levels;
  double Speedup = 1.0; // The all-exact baseline the reference starts at.
  double Qos = 0.0;
  bool Found = false; // Whether any config strictly beat the baseline.
  size_t Scored = 0;
  double Seconds = 0.0; // Chunk execution time, for utilization metrics.
};

/// Reused buffers for one scan task; thread_local so concurrent chunks
/// never share them and steady-state scans allocate nothing.
struct ScanScratch {
  std::vector<int> BatchLevels;    // BatchSize x numBlocks, row-major.
  std::vector<int> FeasibleLevels; // Rows with QoS within budget.
  std::vector<size_t> FeasibleRows;
  std::vector<double> Iter;         // Iteration estimates, whole batch.
  std::vector<double> FeasibleIter; // Gathered for the feasible rows.
  std::vector<double> Qos;
  std::vector<double> Speedup;
  PredictScratch Predict;
};

/// The reference engine: scalar model calls, one configuration at a
/// time, in enumeration order. Every other engine must match its
/// decisions bitwise.
PhaseDecision naiveScan(const PhaseModels &Models,
                        const std::vector<double> &Input,
                        const std::vector<int> &MaxLevels, double Budget,
                        const OptimizeOptions &Opts, PhaseSearchStats &Stats) {
  PhaseDecision Best;
  Best.Levels.assign(MaxLevels.size(), 0);
  Best.AllocatedBudget = Budget;

  for (ConfigCursor Cursor(MaxLevels); !Cursor.done(); Cursor.next()) {
    const std::vector<int> &Levels = Cursor.levels();
    ++Stats.ConfigsEvaluated;
    // The all-exact configuration is the baseline Best already (known
    // speedup 1, QoS 0); never route it through the models.
    if (Cursor.index() == 0)
      continue;
    ++Stats.ConfigsScored;
    double Qos = Opts.Conservative
                     ? Models.conservativeQos(Input, Levels, Opts.ConfidenceP)
                     : Models.predictQos(Input, Levels);
    checkQos(Qos);
    if (Qos > Budget)
      continue;
    double Speedup =
        Opts.Conservative
            ? Models.conservativeSpeedup(Input, Levels, Opts.ConfidenceP)
            : Models.predictSpeedup(Input, Levels);
    checkSpeedup(Speedup);
    if (Speedup > Best.PredictedSpeedup) {
      Best.Levels = Levels;
      Best.PredictedSpeedup = Speedup;
      Best.PredictedQos = Qos;
    }
  }
  return Best;
}

/// Scans enumeration indices [Lo, Hi): streams configurations from a
/// cursor through the batched kernels. Within the range the first strictly
/// better configuration wins, matching the reference's scan order.
void scanRange(const PhaseModels &Models, const PhaseEvalPlan &Plan,
               double Budget, const OptimizeOptions &Opts, size_t Lo,
               size_t Hi, RangeBest &R, ScanScratch &S,
               OptimizerMetrics &Metrics) {
  size_t NumBlocks = Plan.MaxLevels.size();
  size_t BatchSize = std::max<size_t>(Opts.BatchSize, 1);
  ConfigCursor Cursor(Plan.MaxLevels);
  Cursor.seek(Lo);

  while (!Cursor.done() && Cursor.index() < Hi) {
    S.BatchLevels.clear();
    size_t Rows = 0;
    while (!Cursor.done() && Cursor.index() < Hi && Rows < BatchSize) {
      const std::vector<int> &Levels = Cursor.levels();
      if (Cursor.index() == 0) { // All-exact baseline; already Best.
        Cursor.next();
        continue;
      }
      S.BatchLevels.insert(S.BatchLevels.end(), Levels.begin(), Levels.end());
      ++Rows;
      Cursor.next();
    }
    if (Rows == 0)
      continue;
    R.Scored += Rows;
    Metrics.BatchSize.record(static_cast<double>(Rows));

    // Both overall models consume the same per-row iteration estimate;
    // compute it once per batch and reuse it, which drops no bits (each
    // row's estimate is independent of batch composition).
    Models.predictIterationsBatch(Plan, S.BatchLevels.data(), Rows, S.Iter,
                                  S.Predict);
    for (size_t I = 0; I < Rows; ++I)
      checkIterations(S.Iter[I]);
    // Feasibility first; the speedup model runs only on rows within
    // budget, exactly like the reference's early continue.
    Models.predictQosBatch(Plan, S.BatchLevels.data(), S.Iter.data(), Rows,
                           S.Qos, S.Predict);
    for (size_t I = 0; I < Rows; ++I)
      checkQos(S.Qos[I]);
    S.FeasibleRows.clear();
    S.FeasibleLevels.clear();
    S.FeasibleIter.clear();
    for (size_t I = 0; I < Rows; ++I) {
      if (S.Qos[I] <= Budget) {
        S.FeasibleRows.push_back(I);
        const int *Row = S.BatchLevels.data() + I * NumBlocks;
        S.FeasibleLevels.insert(S.FeasibleLevels.end(), Row, Row + NumBlocks);
        S.FeasibleIter.push_back(S.Iter[I]);
      }
    }
    if (S.FeasibleRows.empty())
      continue;
    Models.predictSpeedupBatch(Plan, S.FeasibleLevels.data(),
                               S.FeasibleIter.data(), S.FeasibleRows.size(),
                               S.Speedup, S.Predict);
    for (size_t J = 0; J < S.FeasibleRows.size(); ++J)
      checkSpeedup(S.Speedup[J]);
    for (size_t J = 0; J < S.FeasibleRows.size(); ++J) {
      if (S.Speedup[J] > R.Speedup) {
        R.Found = true;
        R.Speedup = S.Speedup[J];
        R.Qos = S.Qos[S.FeasibleRows[J]];
        const int *Row = S.FeasibleLevels.data() + J * NumBlocks;
        R.Levels.assign(Row, Row + NumBlocks);
      }
    }
  }
}

/// Executors the scan will engage: the pool's workers plus the
/// participating caller when one is supplied, otherwise the NumThreads
/// request (0 = auto via OPPROX_THREADS / hardware concurrency).
size_t resolveScanExecutors(const OptimizeOptions &Opts) {
  if (Opts.Pool != nullptr)
    return Opts.Pool->numWorkers() + 1;
  return std::max<size_t>(
      1, Opts.NumThreads ? Opts.NumThreads : ThreadPool::defaultWorkerCount());
}

/// Chunk geometry for one phase scan. An explicit ChunkSize pins it;
/// 0 (auto) sizes chunks off the space and the executor count: about
/// four chunks per executor -- slack for dynamic balancing -- rounded
/// up to whole batches, and one single chunk when the scan is serial
/// anyway. Decisions and stats are chunking-invariant (see batchedScan),
/// so this is purely a throughput knob.
size_t resolveChunkSize(size_t Total, size_t Executors,
                        const OptimizeOptions &Opts) {
  if (Opts.ChunkSize != 0)
    return Opts.ChunkSize;
  if (Executors <= 1 || Total == 0)
    return std::max<size_t>(Total, 1);
  size_t TargetChunks = Executors * 4;
  size_t Chunk = (Total + TargetChunks - 1) / TargetChunks;
  Chunk = std::max(Chunk, Opts.BatchSize);
  return (Chunk + Opts.BatchSize - 1) / Opts.BatchSize * Opts.BatchSize;
}

/// The serving engine: batched, and (for > 1 executor) chunked across
/// the pool.
PhaseDecision batchedScan(const PhaseModels &Models,
                          const std::vector<double> &Input,
                          const std::vector<int> &MaxLevels, double Budget,
                          const OptimizeOptions &Opts,
                          PhaseSearchStats &Stats) {
  // A zero batch would turn the scan loop into silent no-progress
  // spinning; it is a caller bug on par with a negative budget.
  if (Opts.BatchSize == 0)
    reportFatalError("OptimizeOptions::BatchSize must be positive");
  OptimizerMetrics &Metrics = OptimizerMetrics::get();
  PhaseEvalPlan Plan =
      Models.makeEvalPlan(Input, MaxLevels, Opts.Conservative,
                          Opts.ConfidenceP);
  size_t Total = ConfigCursor(MaxLevels).spaceSize();
  Stats.ConfigsEvaluated += Total;

  size_t Executors = resolveScanExecutors(Opts);
  size_t ChunkSize = resolveChunkSize(Total, Executors, Opts);
  size_t NumChunks = (Total + ChunkSize - 1) / ChunkSize;
  std::vector<RangeBest> Chunks(NumChunks);
  Metrics.ScanExecutors.set(static_cast<double>(Executors));

  // Chunk boundaries depend only on the resolved geometry, each chunk
  // writes its own slot, and the reduction below runs in ascending
  // order -- so the result is identical for every worker count,
  // including zero. Worker count *may* shift the auto boundaries, but
  // that too is decision- and stats-invariant: the reduction replays
  // the serial first-best-wins order, and every chunk scores each of
  // its configurations except the all-exact baseline.
  using Clock = std::chrono::steady_clock;
  auto RunChunk = [&](size_t C) {
    thread_local ScanScratch Scratch;
    Clock::time_point Start = Clock::now();
    scanRange(Models, Plan, Budget, Opts, C * ChunkSize,
              std::min((C + 1) * ChunkSize, Total), Chunks[C], Scratch,
              Metrics);
    Chunks[C].Seconds =
        std::chrono::duration<double>(Clock::now() - Start).count();
  };
  Clock::time_point ScanStart = Clock::now();
  if (Opts.Pool != nullptr) {
    Opts.Pool->parallelFor(NumChunks, RunChunk);
  } else if (Executors == 1 || NumChunks <= 1) {
    for (size_t C = 0; C < NumChunks; ++C)
      RunChunk(C);
  } else {
    ThreadPool Pool(Executors - 1);
    Pool.parallelFor(NumChunks, RunChunk);
  }
  double ScanSeconds =
      std::chrono::duration<double>(Clock::now() - ScanStart).count();

  PhaseDecision Best;
  Best.Levels.assign(MaxLevels.size(), 0);
  Best.AllocatedBudget = Budget;
  double BusySeconds = 0.0;
  for (const RangeBest &R : Chunks) {
    Stats.ConfigsScored += R.Scored;
    BusySeconds += R.Seconds;
    // Strict > replays the reference's earliest-wins tie-break: a later
    // chunk only displaces an earlier equal-speedup configuration if the
    // sequential scan would have, i.e. never.
    if (R.Found && R.Speedup > Best.PredictedSpeedup) {
      Best.Levels = R.Levels;
      Best.PredictedSpeedup = R.Speedup;
      Best.PredictedQos = R.Qos;
    }
  }
  // How much of the executors' combined capacity the chunks filled:
  // 100% means every executor was busy for the whole scan wall time.
  if (Executors > 1 && NumChunks > 1 && ScanSeconds > 0.0)
    Metrics.ExecutorUtilizationPct.record(
        std::min(100.0, BusySeconds /
                            (static_cast<double>(Executors) * ScanSeconds) *
                            100.0));
  return Best;
}
} // namespace

PhaseDecision opprox::optimizePhase(const PhaseModels &Models,
                                    const std::vector<double> &Input,
                                    const std::vector<int> &MaxLevels,
                                    double Budget,
                                    const OptimizeOptions &Opts,
                                    PhaseSearchStats &Stats) {
  if (Opts.UseNaiveScan)
    return naiveScan(Models, Input, MaxLevels, Budget, Opts, Stats);
  return batchedScan(Models, Input, MaxLevels, Budget, Opts, Stats);
}

/// Shared Algorithm 2 engine over phases [FirstPhase, numPhases).
/// optimizeSchedule calls with FirstPhase == 0; every statement below is
/// written so that case executes the exact operation sequence the
/// full-schedule solver always ran (the bit-identity contract).
static OptimizationResult
optimizeScheduleImpl(const AppModel &Model, const std::vector<double> &Input,
                     const std::vector<int> &MaxLevels, double QosBudget,
                     size_t FirstPhase, const OptimizeOptions &Opts) {
  // A negative (or NaN) budget is a caller bug that would silently yield
  // the all-exact schedule in release builds; fail loudly everywhere.
  if (!(QosBudget >= 0.0))
    reportFatalError(format("optimizeSchedule requires a non-negative QoS "
                            "budget, got %g",
                            QosBudget));
  size_t NumPhases = Model.numPhases();
  if (FirstPhase != 0 && FirstPhase >= NumPhases)
    reportFatalError(format("optimizeScheduleTail first phase %zu is out of "
                            "range for a %zu-phase model",
                            FirstPhase, NumPhases));
  size_t TailCount = NumPhases - FirstPhase;
  OptimizerMetrics &Metrics = OptimizerMetrics::get();
  Metrics.Calls.add();
  // Which kernel tier the batch predictions dispatch to (0 = generic,
  // 1 = avx2, 2 = neon); decision-irrelevant by the bit-identity
  // contract, exported so operators can confirm what a host runs.
  Metrics.SimdTier.set(static_cast<double>(simd::activeTier()));
  TraceSpan ScheduleSpan("optimize.schedule", "optimize");
  ScheduleSpan.arg("phases", static_cast<double>(NumPhases));
  ScheduleSpan.arg("qos_budget", QosBudget);
  if (FirstPhase > 0)
    ScheduleSpan.arg("first_phase", static_cast<double>(FirstPhase));

  OptimizationResult Result;
  Result.Schedule = PhaseSchedule(NumPhases, MaxLevels.size());
  Result.Decisions.resize(NumPhases);

  // Phase ROIs and the normalized shares the paper reports; already-run
  // phases keep zero ROI and stay at the exact (all-zero) levels the
  // schedule was constructed with.
  std::vector<double> Roi(NumPhases, 0.0);
  double RoiSum = 0.0;
  for (size_t P = FirstPhase; P < NumPhases; ++P) {
    Roi[P] = std::max(Model.phaseModels(Input, P).roi(), 0.0);
    RoiSum += Roi[P];
  }
  Result.NormalizedRoi.resize(NumPhases, 0.0);
  for (size_t P = FirstPhase; P < NumPhases; ++P)
    Result.NormalizedRoi[P] = RoiSum > 0.0
                                  ? Roi[P] / RoiSum
                                  : 1.0 / static_cast<double>(TailCount);

  // Visit phases in decreasing ROI; each gets the share of the budget
  // still unspent, proportional to its ROI among the remaining phases.
  // Unused allocation therefore flows to later (lower-ROI) phases.
  std::vector<size_t> Order(TailCount);
  std::iota(Order.begin(), Order.end(), FirstPhase);
  std::stable_sort(Order.begin(), Order.end(),
                   [&](size_t A, size_t B) { return Roi[A] > Roi[B]; });

  double RemainingBudget = QosBudget;
  double RemainingRoiSum = RoiSum;
  PhaseSearchStats Stats;
  for (size_t Rank = 0; Rank < Order.size(); ++Rank) {
    size_t Phase = Order[Rank];
    double Share = RemainingRoiSum > 0.0
                       ? Roi[Phase] / RemainingRoiSum
                       : 1.0 / static_cast<double>(Order.size() - Rank);
    double PhaseBudget = RemainingBudget * Share;
    // The Eq. 1 allocation decision, as a share of the overall budget.
    if (QosBudget > 0.0)
      Metrics.PhaseBudgetPct.record(PhaseBudget / QosBudget * 100.0);

    TraceSpan PhaseSpan("optimize.phase", "optimize");
    PhaseSpan.arg("phase", static_cast<double>(Phase));
    PhaseSpan.arg("budget", PhaseBudget);
    PhaseDecision Decision;
    try {
      Decision = optimizePhase(Model.phaseModels(Input, Phase), Input,
                               MaxLevels, PhaseBudget, Opts, Stats);
    } catch (const std::exception &Ex) {
      // Invalid predictions (InvalidPrediction) or dying scan tasks
      // (e.g. FaultInjectedError through parallelFor) must not take the
      // serving process down: this phase falls back to the exact
      // configuration, which needs no model and spends no budget.
      Decision = PhaseDecision();
      Decision.Levels.assign(MaxLevels.size(), 0);
      Decision.AllocatedBudget = PhaseBudget;
      Result.DegradedPhases.push_back(Phase);
      Metrics.DegradedPhases.add();
      TraceRecorder::global().instant("optimize.phase_degraded", "optimize");
      logInfo("phase %zu degraded to the exact configuration: %s", Phase,
              Ex.what());
    }
    Result.Schedule.setPhaseLevels(Phase, Decision.Levels);
    Result.Decisions[Phase] = Decision;

    // Leftover: the phase spent less than its allocation, so the
    // difference flows to the remaining (lower-ROI) phases.
    if (Rank + 1 < Order.size() && Decision.PredictedQos < PhaseBudget) {
      Metrics.LeftoverRedistributed.add();
      TraceRecorder::global().instant("optimize.leftover_redistributed",
                                      "optimize");
    }
    RemainingBudget = std::max(0.0, RemainingBudget - Decision.PredictedQos);
    RemainingRoiSum -= Roi[Phase];
  }
  // Phases were visited in ROI order; report degradations in phase
  // order so the result is stable for callers that serialize it.
  std::sort(Result.DegradedPhases.begin(), Result.DegradedPhases.end());
  Result.ConfigsEvaluated = Stats.ConfigsEvaluated;
  Result.ConfigsScored = Stats.ConfigsScored;
  Metrics.ConfigsEvaluated.add(Stats.ConfigsEvaluated);
  double Elapsed = ScheduleSpan.seconds();
  if (Elapsed > 0.0)
    Metrics.ConfigsPerSec.set(static_cast<double>(Stats.ConfigsEvaluated) /
                              Elapsed);
  Metrics.OptimizeMs.record(Elapsed * 1e3);
  return Result;
}

OptimizationResult opprox::optimizeSchedule(const AppModel &Model,
                                            const std::vector<double> &Input,
                                            const std::vector<int> &MaxLevels,
                                            double QosBudget,
                                            const OptimizeOptions &Opts) {
  return optimizeScheduleImpl(Model, Input, MaxLevels, QosBudget,
                              /*FirstPhase=*/0, Opts);
}

OptimizationResult opprox::optimizeScheduleTail(
    const AppModel &Model, const std::vector<double> &Input,
    const std::vector<int> &MaxLevels, double QosBudget, size_t FirstPhase,
    const OptimizeOptions &Opts) {
  return optimizeScheduleImpl(Model, Input, MaxLevels, QosBudget, FirstPhase,
                              Opts);
}

//===- core/Profiler.cpp --------------------------------------------------===//
//
// Part of the OPPROX reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "core/Profiler.h"
#include "approx/WorkCounter.h"
#include "support/Telemetry.h"
#include "support/ThreadPool.h"

using namespace opprox;

namespace {
/// Profiling instruments, cached once (see Telemetry.h: handles are
/// stable, so the hot path touches relaxed atomics only).
struct ProfilerMetrics {
  Counter &Runs;
  Counter &PrefixReused;
  Counter &GoldenHits;
  Counter &GoldenMisses;
  Histogram &RunMs;
  Histogram &CollectMs;

  static ProfilerMetrics &get() {
    static ProfilerMetrics M{
        MetricsRegistry::global().counter("profiler.runs"),
        MetricsRegistry::global().counter(
            "profiler.prefix_iterations_reused"),
        MetricsRegistry::global().counter("profiler.golden_cache.hits"),
        MetricsRegistry::global().counter("profiler.golden_cache.misses"),
        MetricsRegistry::global().histogram("profiler.run_ms"),
        MetricsRegistry::global().histogram("profiler.collect_ms")};
    return M;
  }
};
} // namespace

int SignatureRegistry::classOf(const std::string &Signature) {
  std::lock_guard<std::mutex> Lock(Mutex);
  auto It = Classes.find(Signature);
  if (It != Classes.end())
    return It->second;
  int Id = static_cast<int>(Classes.size());
  Classes.emplace(Signature, Id);
  return Id;
}

int SignatureRegistry::lookup(const std::string &Signature) const {
  std::lock_guard<std::mutex> Lock(Mutex);
  auto It = Classes.find(Signature);
  return It == Classes.end() ? -1 : It->second;
}

size_t SignatureRegistry::numClasses() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Classes.size();
}

TrainingSample Profiler::measureFrom(const std::vector<double> &Input,
                                     const std::vector<int> &Levels,
                                     int Phase, size_t NumPhases,
                                     const LoopCheckpoint *From) {
  TraceSpan Span("profiler.measure", "profiler");
  Span.arg("phase", static_cast<double>(Phase));

  const RunResult &Exact = Golden.exactRun(Input);
  size_t Nominal = Exact.OuterIterations;

  PhaseSchedule Schedule =
      Phase == AllPhases
          ? PhaseSchedule::uniform(NumPhases, Levels)
          : PhaseSchedule::singlePhase(NumPhases,
                                       static_cast<size_t>(Phase), Levels);
  RunResult Approx;
  if (From) {
    Approx = App.resume(Input, Schedule, Nominal, *From, Exact);
    ProfilerMetrics::get().PrefixReused.add(From->Iteration);
  } else {
    Approx = App.run(Input, Schedule, Nominal);
  }
  RunCount.fetch_add(1, std::memory_order_relaxed);
  ProfilerMetrics::get().Runs.add();
  ProfilerMetrics::get().RunMs.record(Span.seconds() * 1e3);

  TrainingSample S;
  S.Input = Input;
  S.Levels = Levels;
  S.Phase = Phase;
  S.Speedup = speedupOf(Exact.WorkUnits, Approx.WorkUnits);
  S.QosDegradation = App.qosDegradation(Exact, Approx);
  S.OuterIterations = static_cast<double>(Approx.OuterIterations);
  S.ControlFlowClass = Registry.classOf(Exact.ControlFlowSignature);
  return S;
}

TrainingSet Profiler::collect(const std::vector<std::vector<double>> &Inputs,
                              const ProfileOptions &Opts) {
  assert(Opts.NumPhases >= 1 && "need at least one phase");
  ProfilerMetrics &Metrics = ProfilerMetrics::get();
  TraceSpan CollectSpan("profiler.collect", "profiler");
  CollectSpan.arg("inputs", static_cast<double>(Inputs.size()));
  size_t HitsBefore = Golden.hits();
  size_t MissesBefore = Golden.misses();
  ThreadPool Pool(ThreadPool::resolveWorkers(Opts.NumThreads));

  // Golden runs first, in parallel across inputs: they are the serial
  // bottleneck of the sweep (every measurement needs its input's exact
  // run) and each is computed once under the cache's entry latch. Each
  // leaves checkpoints at its phase starts for the single-phase runs to
  // resume from; an input whose golden run was already cached has none,
  // and its runs start from iteration 0.
  std::vector<CheckpointRecorder> Recorders;
  Recorders.reserve(Inputs.size());
  for (size_t I = 0; I < Inputs.size(); ++I)
    Recorders.emplace_back(Opts.NumPhases);
  {
    TraceSpan GoldenSpan("profiler.golden_prologue", "profiler");
    Pool.parallelFor(Inputs.size(), [&](size_t I) {
      (void)Golden.exactRun(Inputs[I], &Recorders[I]);
    });
  }

  // Register control flow in input order so class ids are deterministic
  // (first-seen order must not depend on worker interleaving). This also
  // ensures classifier training sees every class even if a config
  // crashes out later.
  for (const std::vector<double> &Input : Inputs)
    (void)Registry.classOf(Golden.exactRun(Input).ControlFlowSignature);

  // Materialize the whole sweep as an indexed task list, consuming the
  // sampling RNG sequentially in input order. Plans are fixed before any
  // measurement runs, so they cannot depend on execution order.
  struct MeasureTask {
    size_t InputIndex;
    std::vector<int> Levels;
    int Phase;
  };
  std::vector<MeasureTask> Tasks;
  Rng SampleRng(Opts.Seed);
  for (size_t I = 0; I < Inputs.size(); ++I) {
    SamplingPlan Plan =
        makeSamplingPlan(App.maxLevels(), Opts.RandomJointSamples, SampleRng);
    Plan.forEach([&](const std::vector<int> &Levels) {
      for (size_t Phase = 0; Phase < Opts.NumPhases; ++Phase)
        Tasks.push_back({I, Levels, static_cast<int>(Phase)});
      if (Opts.IncludeAllPhaseRuns)
        Tasks.push_back({I, Levels, AllPhases});
    });
  }

  // Fan the measurements out. Each task writes its preassigned slot, so
  // the assembled set is in task order regardless of completion order.
  std::vector<TrainingSample> Samples(Tasks.size());
  std::atomic<size_t> Completed{0};
  std::mutex ObserverMutex;
  Pool.parallelFor(Tasks.size(), [&](size_t T) {
    const MeasureTask &Task = Tasks[T];
    const LoopCheckpoint *From =
        Task.Phase == AllPhases
            ? nullptr
            : Recorders[Task.InputIndex].resumePointFor(
                  static_cast<size_t>(Task.Phase));
    Samples[T] = measureFrom(Inputs[Task.InputIndex], Task.Levels, Task.Phase,
                             Opts.NumPhases, From);
    if (Opts.Observer) {
      // The snapshot is assembled entirely from atomics -- the same ones
      // the telemetry layer exports -- before ObserverMutex is taken, so
      // the callback runs with no profiler-internal lock held (see the
      // threading contract on ProfileObserver in Profiler.h).
      size_t Done = Completed.fetch_add(1, std::memory_order_relaxed) + 1;
      ProfileProgress Progress;
      Progress.RunsCompleted = Done;
      Progress.TotalRuns = Tasks.size();
      Progress.GoldenCacheHits = Golden.hits();
      Progress.GoldenCacheMisses = Golden.misses();
      Progress.ElapsedSeconds = CollectSpan.seconds();
      std::lock_guard<std::mutex> Lock(ObserverMutex);
      Opts.Observer(Progress);
    }
  });

  Metrics.GoldenHits.add(Golden.hits() - HitsBefore);
  Metrics.GoldenMisses.add(Golden.misses() - MissesBefore);
  Metrics.CollectMs.record(CollectSpan.seconds() * 1e3);
  CollectSpan.arg("tasks", static_cast<double>(Tasks.size()));

  TrainingSet Set;
  for (TrainingSample &S : Samples)
    Set.add(std::move(S));
  return Set;
}

//===- core/Profiler.h - Training-data collection --------------*- C++ -*-===//
//
// Part of the OPPROX reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runs an application across (training inputs x sampled configurations
/// x phases) and materializes TrainingSamples (paper Secs. 3.3 and
/// Fig. 6's "phase based sampling of configurations"). Also maintains the
/// signature registry mapping call-context signatures to control-flow
/// class ids (Sec. 3.4).
///
/// The sweep is embarrassingly parallel and collect() fans it across a
/// ThreadPool: every (input, configuration, phase) measurement is an
/// independent task whose result lands in a preassigned slot, so the
/// returned TrainingSet is bit-identical for any worker count (see
/// docs/ARCHITECTURE.md, "Determinism contract").
///
/// collect() also reuses phase prefixes: a run approximating only phase
/// P > 0 repeats the input's exact run until phase P starts, so it
/// resumes from a checkpoint the golden run left there
/// (apps/LoopCheckpoint.h) instead of recomputing the prefix. Every
/// sample stays bit-identical to measure(), the from-scratch reference.
///
//===----------------------------------------------------------------------===//

#ifndef OPPROX_CORE_PROFILER_H
#define OPPROX_CORE_PROFILER_H

#include "apps/ApproxApp.h"
#include "core/Sampler.h"
#include "core/TrainingData.h"
#include <atomic>
#include <functional>
#include <map>
#include <mutex>

namespace opprox {

/// Maps control-flow signatures to dense class ids in first-seen order.
/// Thread-safe: concurrent classOf()/lookup() calls are serialized by an
/// internal mutex. Id determinism under parallel profiling is arranged
/// by the caller (Profiler::collect registers every golden signature in
/// input order *before* fanning out measurements, so worker interleaving
/// can only re-observe already-registered signatures).
class SignatureRegistry {
public:
  /// Class id of \p Signature, registering it when new.
  int classOf(const std::string &Signature);

  /// Class id if registered, otherwise -1.
  int lookup(const std::string &Signature) const;

  size_t numClasses() const;

private:
  mutable std::mutex Mutex;
  std::map<std::string, int> Classes;
};

/// Progress snapshot handed to a ProfileObserver after each completed
/// measurement run. Every field is read from the same lock-free atomics
/// the telemetry layer exports (profiler.runs, profiler.golden_cache.*,
/// the collect span's clock), so a snapshot never takes a profiler lock;
/// the observer is a consumer of the metrics/trace instrumentation, not
/// a separate accounting path.
struct ProfileProgress {
  size_t RunsCompleted = 0;     ///< Measurement runs finished so far.
  size_t TotalRuns = 0;         ///< Runs the sweep will perform in total.
  size_t GoldenCacheHits = 0;   ///< Golden-cache hits so far (cheap reuses).
  size_t GoldenCacheMisses = 0; ///< Golden-cache misses so far (exact runs).
  double ElapsedSeconds = 0;    ///< Wall-clock since collect() started.
};

/// Progress/trace hook for long profiling sweeps.
///
/// Threading contract:
///  - The observer fires after every completed measurement run, from
///    whichever pool worker (or the caller thread) finished it.
///  - Calls are serialized under a dedicated observer mutex, so the
///    callback itself need not be thread-safe.
///  - The profiler guarantees that **no internal lock is held** while
///    the observer runs: not the SignatureRegistry mutex, not the
///    ThreadPool queue mutex, and no golden-cache entry latch. The
///    progress snapshot is assembled from atomics beforehand. An
///    observer may therefore block, log, or take its own locks without
///    risking deadlock -- but it still sits on the sweep's critical
///    path, so keep it fast.
///  - Do not call back into the profiler from the observer; collect()
///    is not reentrant.
using ProfileObserver = std::function<void(const ProfileProgress &)>;

struct ProfileOptions {
  /// Phases to attribute approximation to.
  size_t NumPhases = 4;
  /// Random joint configurations per (input, phase).
  size_t RandomJointSamples = 32;
  /// Also collect uniform (all-phase) samples, one per configuration.
  bool IncludeAllPhaseRuns = true;
  /// Seed for the sampling RNG. collect() draws every input's sampling
  /// plan from one generator seeded here, in input order, before any
  /// measurement runs: the plans depend on the seed and the input list,
  /// never on the worker count.
  uint64_t Seed = 0x0991;
  /// Measurement parallelism: 1 = serial, N = N executors, 0 = auto
  /// (the OPPROX_THREADS environment variable when set, otherwise
  /// hardware concurrency). Any value produces identical TrainingSets.
  size_t NumThreads = 0;
  /// Optional progress hook; see ProfileObserver.
  ProfileObserver Observer;
};

/// Profiling driver. Holds the golden cache and signature registry so
/// repeated collections share exact runs and class ids.
class Profiler {
public:
  Profiler(const ApproxApp &App, GoldenCache &Golden)
      : App(App), Golden(Golden) {}

  /// Collects training data for every input in \p Inputs, fanning the
  /// (input, configuration, phase) sweep across Opts.NumThreads
  /// executors. The result is identical for every thread count.
  TrainingSet collect(const std::vector<std::vector<double>> &Inputs,
                      const ProfileOptions &Opts);

  /// Executes one configuration in one phase (or AllPhases) from
  /// iteration 0 and builds the sample: the reference collect()'s resumed
  /// runs reproduce bit for bit. Exposed for tests and the phase
  /// detector. Thread-safe: may be called concurrently from pool workers.
  TrainingSample measure(const std::vector<double> &Input,
                         const std::vector<int> &Levels, int Phase,
                         size_t NumPhases) {
    return measureFrom(Input, Levels, Phase, NumPhases, nullptr);
  }

  SignatureRegistry &signatures() { return Registry; }
  GoldenCache &golden() { return Golden; }
  const ApproxApp &app() const { return App; }

  /// Total application runs performed so far (golden runs excluded,
  /// resumed runs included).
  size_t runsPerformed() const {
    return RunCount.load(std::memory_order_relaxed);
  }

private:
  /// measure(), resuming from \p From (a checkpoint of Input's exact
  /// run at or before the phase's start) when it is not null.
  TrainingSample measureFrom(const std::vector<double> &Input,
                             const std::vector<int> &Levels, int Phase,
                             size_t NumPhases, const LoopCheckpoint *From);

  const ApproxApp &App;
  GoldenCache &Golden;
  SignatureRegistry Registry;
  /// Incremented from worker threads during parallel collection.
  std::atomic<size_t> RunCount{0};
};

} // namespace opprox

#endif // OPPROX_CORE_PROFILER_H

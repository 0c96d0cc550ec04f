//===- apps/ApproxApp.h - Tunable-application interface --------*- C++ -*-===//
//
// Part of the OPPROX reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The contract between OPPROX and an application with tunable
/// approximable blocks (paper Sec. 3.1). An application declares its
/// input parameters and ABs, and can execute under any PhaseSchedule,
/// reporting deterministic work, outer-loop iteration count, output
/// values, and a control-flow signature. Its outer loop is resumable
/// from checkpoints of its exact run (apps/LoopCheckpoint.h).
///
//===----------------------------------------------------------------------===//

#ifndef OPPROX_APPS_APPROXAPP_H
#define OPPROX_APPS_APPROXAPP_H

#include "apps/LoopCheckpoint.h"
#include "approx/ApproximableBlock.h"
#include "approx/PhaseSchedule.h"
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace opprox {

/// Everything one application execution produces.
struct RunResult {
  /// Abstract work units executed (the paper's "instructions executed").
  uint64_t WorkUnits = 0;
  /// Outer-loop iterations performed.
  size_t OuterIterations = 0;
  /// Raw output values for QoS computation (energies, pixels, ...).
  std::vector<double> Output;
  /// Control-flow signature from the call-context log.
  std::string ControlFlowSignature;
  /// Work charged per outer iteration (for phase attribution).
  std::vector<uint64_t> WorkPerIteration;
};

/// Abstract application with approximable blocks.
class ApproxApp {
public:
  virtual ~ApproxApp();

  /// Short identifier, e.g. "lulesh".
  virtual std::string name() const = 0;

  /// The application's approximable blocks, in kernel order.
  virtual const std::vector<ApproximableBlock> &blocks() const = 0;

  /// Names of the input parameters, in the order run() expects them.
  virtual std::vector<std::string> parameterNames() const = 0;

  /// Representative training input combinations (paper Sec. 3.3).
  virtual std::vector<std::vector<double>> trainingInputs() const = 0;

  /// The production input used by the evaluation benches.
  virtual std::vector<double> defaultInput() const = 0;

  /// Executes under \p Schedule from iteration 0 -- the from-scratch
  /// reference every resumed run must equal. \p NominalIterations anchors
  /// the phase boundaries and must be the exact run's iteration count for
  /// this input; it may be 0 only when the schedule is exact (single
  /// golden runs) or the application's iteration count is fixed by the
  /// input.
  RunResult run(const std::vector<double> &Input,
                const PhaseSchedule &Schedule,
                size_t NominalIterations) const {
    return execute(Input, Schedule, NominalIterations, RunStart());
  }

  /// Continues \p Input's exact run \p Exact from \p From, a checkpoint
  /// that run recorded, and executes \p Schedule from From.Iteration on.
  /// \p Schedule must be exact at every iteration before From.Iteration;
  /// the result then equals run(Input, Schedule, NominalIterations) field
  /// for field, because the skipped prefix is the exact run's by
  /// construction.
  RunResult resume(const std::vector<double> &Input,
                   const PhaseSchedule &Schedule, size_t NominalIterations,
                   const LoopCheckpoint &From, const RunResult &Exact) const;

  /// QoS degradation of \p Approx vs. \p Exact as a percentage
  /// (0 = identical, larger = worse). PSNR-metric applications convert
  /// via psnrToDegradationPercent so every app shares this interface.
  virtual double qosDegradation(const RunResult &Exact,
                                const RunResult &Approx) const = 0;

  /// True when the native QoS metric is PSNR (higher = better).
  virtual bool usesPsnr() const { return false; }

  /// Native PSNR in dB; only meaningful when usesPsnr().
  virtual double psnrValue(const RunResult &Exact,
                           const RunResult &Approx) const;

  // -- Convenience helpers (non-virtual) -------------------------------

  size_t numBlocks() const { return blocks().size(); }

  /// Runs with the all-exact single-phase schedule. With a \p Recorder,
  /// the run also leaves checkpoints for resume().
  RunResult runExact(const std::vector<double> &Input,
                     CheckpointRecorder *Recorder = nullptr) const;

  /// Per-block maximum levels, for samplers and search-space counting.
  std::vector<int> maxLevels() const;

protected:
  /// The application's one outer loop: sets up (or, resuming, copies the
  /// checkpoint's state), iterates from Start's first iteration, then
  /// assembles the result. run(), resume() and runExact() all land here.
  /// A ResumableLoop (apps/LoopCheckpoint.h) carries the shared protocol.
  virtual RunResult execute(const std::vector<double> &Input,
                            const PhaseSchedule &Schedule,
                            size_t NominalIterations,
                            const RunStart &Start) const = 0;
};

/// Caches exact (golden) runs per input so profilers and evaluators do
/// not repeat them; the exact run also supplies the nominal iteration
/// count that anchors phase boundaries.
///
/// Thread-safe: concurrent exactRun() calls for *different* inputs
/// compute their golden runs in parallel, while concurrent calls for the
/// *same* input compute it exactly once -- the first caller runs the
/// application under a per-entry std::call_once latch and everyone else
/// blocks until the result is ready. Returned references stay valid for
/// the cache's lifetime (entries are heap-allocated and never evicted).
class GoldenCache {
public:
  explicit GoldenCache(const ApproxApp &App) : App(App) {}

  /// The exact run for \p Input, computing and caching on first use.
  /// When this call computes the run, \p Recorder (if given) receives its
  /// checkpoints; on a cache hit it is left untouched.
  const RunResult &exactRun(const std::vector<double> &Input,
                            CheckpointRecorder *Recorder = nullptr);

  /// Nominal (exact-run) outer-loop iteration count for \p Input.
  size_t nominalIterations(const std::vector<double> &Input);

  size_t numCached() const;

  /// Lookups served from an already-latched entry (no application run).
  size_t hits() const { return Hits.load(std::memory_order_relaxed); }

  /// Lookups that created the entry and ran the application.
  size_t misses() const { return Misses.load(std::memory_order_relaxed); }

private:
  /// A cached run with its compute-once latch. The latch lives outside
  /// the map lock so a slow golden run never blocks unrelated lookups.
  struct Entry {
    std::once_flag Once;
    RunResult Result;
  };

  const ApproxApp &App;
  mutable std::mutex MapMutex; ///< Guards Cache structure, not entries.
  std::map<std::vector<double>, std::unique_ptr<Entry>> Cache;
  std::atomic<size_t> Hits{0};
  std::atomic<size_t> Misses{0};
};

} // namespace opprox

#endif // OPPROX_APPS_APPROXAPP_H

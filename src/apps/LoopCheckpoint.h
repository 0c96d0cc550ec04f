//===- apps/LoopCheckpoint.h - Resumable outer loops -----------*- C++ -*-===//
//
// Part of the OPPROX reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Phase-prefix reuse. A profiling run that approximates only phase P
/// runs phases 0..P-1 at level 0, so until phase P starts it repeats the
/// input's exact run step for step. An application whose outer loop
/// exposes its carried state lets the exact run leave checkpoints near
/// the phase starts, and a later run resumes from one instead of
/// recomputing the exact prefix.
///
/// A checkpoint holds loop-carried state only: the arrays the loop reads
/// again, the work total, and the call log's distinct block sequences.
/// What the prefix already produced -- per-iteration output values and
/// the per-iteration work trace -- is re-read from the input's exact
/// RunResult on resume, so a checkpoint never copies an output prefix.
///
//===----------------------------------------------------------------------===//

#ifndef OPPROX_APPS_LOOPCHECKPOINT_H
#define OPPROX_APPS_LOOPCHECKPOINT_H

#include "approx/CallContextLog.h"
#include "approx/WorkCounter.h"
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace opprox {

struct RunResult;

/// Loop-carried state of an exact run at the start of one outer
/// iteration. Applications derive a StateCheckpoint with their own state.
struct LoopCheckpoint {
  LoopCheckpoint() = default;
  LoopCheckpoint(const LoopCheckpoint &) = default;
  LoopCheckpoint(LoopCheckpoint &&) = default;
  LoopCheckpoint &operator=(const LoopCheckpoint &) = default;
  LoopCheckpoint &operator=(LoopCheckpoint &&) = default;
  virtual ~LoopCheckpoint();

  /// Outer iterations already executed.
  size_t Iteration = 0;
  /// Work charged before Iteration (setup included).
  uint64_t WorkUnits = 0;
  /// Call-log prefix: CallContextLog::distinctSequences() at Iteration.
  std::vector<std::vector<size_t>> Sequences;
};

/// A checkpoint carrying an application's loop state.
template <typename StateT> struct StateCheckpoint final : LoopCheckpoint {
  StateT State;
};

/// Collects one exact run's checkpoints so single-phase runs of a
/// NumPhases-phase schedule can resume near their phase's start.
///
/// When the input fixes the iteration count n, the recorder checkpoints
/// exactly at the starts of phases 1..NumPhases-1 of PhaseMap(n,
/// NumPhases). When n is data-dependent it keeps an evenly spaced grid
/// of at most MaxGrid checkpoints (halving it whenever it fills) and,
/// once the run ends, prunes it to the latest checkpoint at or before
/// each phase start. Any checkpoint at or before the phase start is a
/// correct resume point; the grid only trades reuse for memory.
class CheckpointRecorder {
public:
  static constexpr size_t MaxGrid = 16;

  explicit CheckpointRecorder(size_t NumPhases) : NumPhases(NumPhases) {}

  /// Called by the loop before its first iteration with the iteration
  /// count when the input fixes it, 0 when it is data-dependent.
  void plan(size_t FixedIterations);

  /// True when the loop should checkpoint before executing \p Iteration.
  bool wants(size_t Iteration) const;

  /// Stores a checkpoint the loop took because wants() asked for it.
  void record(std::unique_ptr<LoopCheckpoint> Checkpoint);

  /// Called once the exact run ends after \p Iterations iterations:
  /// keeps only the checkpoints some phase start resumes from.
  void finish(size_t Iterations);

  /// The checkpoint a single-phase run approximating \p Phase resumes
  /// from: the latest one at or before the phase's start. Null for phase
  /// 0, before finish(), or when none precedes the start.
  const LoopCheckpoint *resumePointFor(size_t Phase) const;

  size_t size() const { return Checkpoints.size(); }

private:
  /// Starts of phases 1..NumPhases-1 of PhaseMap(Iterations, NumPhases).
  std::vector<size_t> phaseStarts(size_t Iterations) const;
  const LoopCheckpoint *latestAtOrBefore(size_t Iteration) const;

  size_t NumPhases;
  std::vector<size_t> Targets; ///< Planned phase starts (fixed count).
  size_t Spacing = 1;          ///< Grid spacing (data-dependent count).
  size_t Iterations = 0;       ///< Set by finish().
  std::vector<std::unique_ptr<LoopCheckpoint>> Checkpoints; ///< Ascending.
};

/// Where one execution of an application's loop starts and what it
/// records. The default value runs from iteration 0 and records nothing.
struct RunStart {
  /// Resume point taken from this input's exact run; null = iteration 0.
  const LoopCheckpoint *From = nullptr;
  /// The input's exact run; required with From (prefix output and work).
  const RunResult *Exact = nullptr;
  /// Receives checkpoints; only exact runs from iteration 0 record.
  CheckpointRecorder *Recorder = nullptr;
};

/// The bookkeeping every resumable loop shares: the run's work counter
/// and call log (seeded from the checkpoint when resuming), the capture
/// protocol, and the result fields every application fills the same way.
class ResumableLoopBase {
public:
  /// \p FixedIterations is the loop's iteration count when the input
  /// fixes it, 0 when it is data-dependent.
  ResumableLoopBase(const RunStart &Start, size_t FixedIterations);

  /// Outer iteration the loop starts at.
  size_t firstIteration() const {
    return Start.From ? Start.From->Iteration : 0;
  }

  /// The input's exact run when resuming, otherwise null.
  const RunResult *exact() const {
    return Start.From ? Start.Exact : nullptr;
  }

  /// Fills WorkUnits, OuterIterations, ControlFlowSignature and
  /// WorkPerIteration (the skipped prefix's entries copied from the exact
  /// run) after a loop that ended after \p Iterations iterations.
  void finish(RunResult &R, size_t Iterations);

  WorkCounter WC;
  CallContextLog Log;

protected:
  bool wantsCheckpoint(size_t Iteration) const {
    return Start.Recorder && Start.Recorder->wants(Iteration);
  }
  void record(std::unique_ptr<LoopCheckpoint> Checkpoint, size_t Iteration);

  RunStart Start;
};

/// ResumableLoopBase for a loop whose carried state is a copyable StateT.
///
/// \code
///   ResumableLoop<State> Loop(Start, FixedIterations);
///   State S = Loop.resumedState() ? *Loop.resumedState() : setUp(...);
///   for (size_t I = Loop.firstIteration(); <condition>; ++I) {
///     Loop.atIteration(I, S);
///     Loop.Log.beginIteration();
///     ...
///   }
///   Loop.finish(R, I);
/// \endcode
template <typename StateT> class ResumableLoop : public ResumableLoopBase {
public:
  using ResumableLoopBase::ResumableLoopBase;

  /// The checkpoint's state when resuming, otherwise null.
  const StateT *resumedState() const {
    if (!Start.From)
      return nullptr;
    assert(dynamic_cast<const StateCheckpoint<StateT> *>(Start.From) &&
           "checkpoint from a different application");
    return &static_cast<const StateCheckpoint<StateT> *>(Start.From)->State;
  }

  /// Call at the top of every outer iteration, before the log's
  /// beginIteration(): copies \p State into a checkpoint when the
  /// recorder wants one here.
  void atIteration(size_t Iteration, const StateT &State) {
    if (!wantsCheckpoint(Iteration))
      return;
    auto Checkpoint = std::make_unique<StateCheckpoint<StateT>>();
    Checkpoint->State = State;
    record(std::move(Checkpoint), Iteration);
  }
};

} // namespace opprox

#endif // OPPROX_APPS_LOOPCHECKPOINT_H

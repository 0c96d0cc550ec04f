//===- apps/LoopCheckpoint.cpp --------------------------------------------===//
//
// Part of the OPPROX reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "apps/LoopCheckpoint.h"
#include "apps/ApproxApp.h"
#include "approx/PhaseSchedule.h"
#include <algorithm>

using namespace opprox;

LoopCheckpoint::~LoopCheckpoint() = default;

std::vector<size_t> CheckpointRecorder::phaseStarts(size_t Iterations) const {
  std::vector<size_t> Starts;
  if (NumPhases < 2 || Iterations == 0)
    return Starts;
  PhaseMap PM(Iterations, NumPhases);
  for (size_t P = 1; P < NumPhases; ++P)
    if (size_t Begin = PM.phaseRange(P).first; Begin > 0)
      Starts.push_back(Begin);
  return Starts;
}

void CheckpointRecorder::plan(size_t FixedIterations) {
  assert(Checkpoints.empty() && "plan() before the first iteration");
  Targets = phaseStarts(FixedIterations);
}

bool CheckpointRecorder::wants(size_t Iteration) const {
  if (Iteration == 0 || NumPhases < 2)
    return false;
  if (!Targets.empty())
    return std::binary_search(Targets.begin(), Targets.end(), Iteration);
  return Iteration % Spacing == 0;
}

void CheckpointRecorder::record(std::unique_ptr<LoopCheckpoint> Checkpoint) {
  assert((Checkpoints.empty() ||
          Checkpoints.back()->Iteration < Checkpoint->Iteration) &&
         "checkpoints must arrive in iteration order");
  Checkpoints.push_back(std::move(Checkpoint));
  if (!Targets.empty() || Checkpoints.size() <= MaxGrid)
    return;
  // Grid full: keep every other point and double the spacing, so the
  // grid stays evenly spread over however long the run turns out to be.
  Spacing *= 2;
  std::erase_if(Checkpoints, [&](const std::unique_ptr<LoopCheckpoint> &C) {
    return C->Iteration % Spacing != 0;
  });
}

const LoopCheckpoint *
CheckpointRecorder::latestAtOrBefore(size_t Iteration) const {
  auto It = std::upper_bound(
      Checkpoints.begin(), Checkpoints.end(), Iteration,
      [](size_t I, const std::unique_ptr<LoopCheckpoint> &C) {
        return I < C->Iteration;
      });
  return It == Checkpoints.begin() ? nullptr : std::prev(It)->get();
}

void CheckpointRecorder::finish(size_t RunIterations) {
  Iterations = RunIterations;
  std::vector<const LoopCheckpoint *> Used;
  for (size_t Begin : phaseStarts(Iterations))
    Used.push_back(latestAtOrBefore(Begin));
  std::erase_if(Checkpoints, [&](const std::unique_ptr<LoopCheckpoint> &C) {
    return std::find(Used.begin(), Used.end(), C.get()) == Used.end();
  });
}

const LoopCheckpoint *CheckpointRecorder::resumePointFor(size_t Phase) const {
  if (Phase == 0 || Phase >= NumPhases || Iterations == 0)
    return nullptr;
  PhaseMap PM(Iterations, NumPhases);
  return latestAtOrBefore(PM.phaseRange(Phase).first);
}

ResumableLoopBase::ResumableLoopBase(const RunStart &Start,
                                     size_t FixedIterations)
    : Start(Start) {
  assert((!Start.From || (Start.Exact && !Start.Recorder)) &&
         "a resumed run needs its exact run and records nothing");
  if (Start.From) {
    WC.add(Start.From->WorkUnits);
    Log.seedPrefix(Start.From->Sequences);
  }
  if (Start.Recorder)
    Start.Recorder->plan(FixedIterations);
}

void ResumableLoopBase::record(std::unique_ptr<LoopCheckpoint> Checkpoint,
                               size_t Iteration) {
  Checkpoint->Iteration = Iteration;
  Checkpoint->WorkUnits = WC.total();
  Checkpoint->Sequences = Log.distinctSequences();
  Start.Recorder->record(std::move(Checkpoint));
}

void ResumableLoopBase::finish(RunResult &R, size_t Iterations) {
  size_t First = firstIteration();
  assert(Log.numIterations() + First == Iterations &&
         "log does not cover the run");
  R.WorkUnits = WC.total();
  R.OuterIterations = Iterations;
  R.ControlFlowSignature = Log.signature();
  R.WorkPerIteration.reserve(Iterations);
  if (First)
    R.WorkPerIteration.assign(Start.Exact->WorkPerIteration.begin(),
                              Start.Exact->WorkPerIteration.begin() +
                                  static_cast<std::ptrdiff_t>(First));
  for (size_t I = 0; I < Log.numIterations(); ++I)
    R.WorkPerIteration.push_back(Log.workInIteration(I));
  if (Start.Recorder)
    Start.Recorder->finish(Iterations);
}

//===- apps/ApproxApp.cpp -------------------------------------------------===//
//
// Part of the OPPROX reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "apps/ApproxApp.h"
#include "support/Compiler.h"

using namespace opprox;

ApproxApp::~ApproxApp() = default;

double ApproxApp::psnrValue(const RunResult &Exact,
                            const RunResult &Approx) const {
  OPPROX_UNREACHABLE("psnrValue queried on a non-PSNR application");
}

RunResult ApproxApp::resume(const std::vector<double> &Input,
                            const PhaseSchedule &Schedule,
                            size_t NominalIterations,
                            const LoopCheckpoint &From,
                            const RunResult &Exact) const {
  assert(From.Iteration > 0 && From.Iteration < Exact.OuterIterations &&
         "checkpoint outside the exact run");
  // The prefix is only the exact run's when the schedule leaves it exact.
  PhaseMap PM(NominalIterations ? NominalIterations : Exact.OuterIterations,
              Schedule.numPhases());
  for (size_t P = 0; P <= PM.phaseOf(From.Iteration - 1); ++P)
    for (size_t B = 0; B < Schedule.numBlocks(); ++B)
      assert(Schedule.level(P, B) == 0 && "approximated prefix");
  RunStart Start;
  Start.From = &From;
  Start.Exact = &Exact;
  return execute(Input, Schedule, NominalIterations, Start);
}

RunResult ApproxApp::runExact(const std::vector<double> &Input,
                              CheckpointRecorder *Recorder) const {
  PhaseSchedule Exact(1, numBlocks());
  RunStart Start;
  Start.Recorder = Recorder;
  return execute(Input, Exact, 0, Start);
}

std::vector<int> ApproxApp::maxLevels() const {
  std::vector<int> Levels;
  Levels.reserve(blocks().size());
  for (const ApproximableBlock &AB : blocks())
    Levels.push_back(AB.MaxLevel);
  return Levels;
}

const RunResult &GoldenCache::exactRun(const std::vector<double> &Input,
                                       CheckpointRecorder *Recorder) {
  Entry *E;
  bool Created = false;
  {
    std::lock_guard<std::mutex> Lock(MapMutex);
    std::unique_ptr<Entry> &Slot = Cache[Input];
    if (!Slot) {
      Slot = std::make_unique<Entry>();
      Created = true;
    }
    E = Slot.get();
  }
  // The application runs outside the map lock: distinct inputs compute
  // concurrently, and racers on the same input block here until the
  // first caller's run completes.
  std::call_once(E->Once,
                 [&] { E->Result = App.runExact(Input, Recorder); });
  if (Created)
    Misses.fetch_add(1, std::memory_order_relaxed);
  else
    Hits.fetch_add(1, std::memory_order_relaxed);
  return E->Result;
}

size_t GoldenCache::numCached() const {
  std::lock_guard<std::mutex> Lock(MapMutex);
  return Cache.size();
}

size_t GoldenCache::nominalIterations(const std::vector<double> &Input) {
  return exactRun(Input).OuterIterations;
}

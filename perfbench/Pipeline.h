//===- perfbench/Pipeline.h - The pipeline stages the bench drives -*- C++ -*-===//
//
// Part of the OPPROX reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The stages every workload of opprox_bench walks, each a thin timed
/// wrapper around public calls of one layer:
///
///   train (Profiler::collect, ModelBuilder::build) -> save -> load
///   -> serve::Server::start -> requests (parseServeRequest,
///   OpproxRuntime::tryOptimizeDetailed or control::OnlineController,
///   optimizationResultJson + successResponseLine)
///
/// plus the quality evaluation (optimizeDetailed, then evaluateSchedule
/// as ground truth) and the seeded request generators.
///
//===----------------------------------------------------------------------===//

#ifndef OPPROX_PERFBENCH_PIPELINE_H
#define OPPROX_PERFBENCH_PIPELINE_H

#include "BenchCommon.h"
#include "control/OnlineController.h"
#include "core/Opprox.h"
#include "serve/Server.h"
#include "serve/WireProtocol.h"
#include <map>
#include <memory>
#include <optional>

namespace opprox {
namespace perfbench {

/// One application of a workload, from training through serving.
struct BenchApp {
  std::unique_ptr<ApproxApp> App;
  OpproxTrainOptions Opts;       ///< TrainingInputs always filled in.
  OpproxArtifact Artifact;       ///< From the latest training pass.
  std::string ColdModelBytes;    ///< modelBytes() of the set-up pass.
  std::string Path;              ///< Where set-up saves the artifact.
  std::optional<OpproxRuntime> Runtime; ///< Loaded in-process.
};

/// The benchmark's training settings for \p Name: 4 threads, 4 phases,
/// the application's own inputs except CoMD (its three 3-cell inputs,
/// 8 joint samples). Smoke runs train on two inputs with one joint
/// sample.
BenchApp makeBenchApp(const std::string &Name, bool Smoke);

/// What one stage-by-stage training pass over a workload's apps cost.
struct PassStats {
  double TotalS = 0.0;
  double ProfileS = 0.0;
  double BuildS = 0.0;
  double Runs = 0.0;
  double GoldenHits = 0.0;
  double GoldenLookups = 0.0;
  double Folds = 0.0;
  double Fits = 0.0;
};

/// Trains every app stage by stage -- the steps OfflineTrainer::train
/// takes, each under its own span -- and stores the artifacts. With
/// \p SaveAndLoad the pass also saves each artifact and loads it back
/// through OpproxRuntime::loadArtifact (traced passes: the spans show
/// the whole train -> save -> load path).
PassStats composeTraining(std::vector<BenchApp> &Apps, SpanLog &Spans,
                          bool SaveAndLoad);

/// Provenance-blanked model bytes of OfflineTrainer::train on \p A.
std::string trainerModelBytes(const BenchApp &A);

/// Server settings shared by all workloads: loopback, ephemeral port,
/// 2 shards, default cache options, serial scans.
serve::ServeOptions benchServeOptions(bool OnlineControl);

/// Saves every app's artifact to its path; returns the seconds taken.
double saveArtifacts(std::vector<BenchApp> &Apps, SpanLog &Spans);

struct BringUp {
  std::unique_ptr<serve::Server> Server;
  double StartS = 0.0;         ///< Server::start alone.
  double FirstResponseS = 0.0; ///< Server::start until the first response.
};

/// Starts a server on the saved artifacts (Server::start loads them) and
/// waits for the first response. Fails fatally when either fails; a
/// benchmark without a server has nothing to measure.
BringUp bringUp(const std::vector<BenchApp> &Apps,
                const serve::ServeOptions &Opts, SpanLog &Spans);

/// Loads every saved artifact in-process; returns the total seconds.
double loadRuntimes(std::vector<BenchApp> &Apps);

/// Model quality on a fixed held-out set (independent of --seed, so the
/// numbers are exact): 4 inputs x budgets {1, 5, 10, 20} per app.
struct Quality {
  double SpeedupGeomean = 1.0;
  double WithinBudgetFrac = 1.0;
  size_t Schedules = 0;
};
Quality evaluateQuality(std::vector<BenchApp> &Apps);

/// Request lines for the fixed quality set of every app, each once
/// plain and once with feedback (the train workloads' replay stream).
std::vector<std::string> qualityRequestLines(const std::vector<BenchApp> &Apps);

/// One request line: {"id": Id, "app", "budget", "input"[, "feedback"]}.
std::string requestLine(uint64_t Id, const std::string &App, double Budget,
                        const std::vector<double> &Input,
                        const std::vector<double> &Feedback);

/// app name -> runtime serving it.
using RuntimeTable = std::map<std::string, const OpproxRuntime *>;

/// The in-process request path the server runs for one parsed request.
struct Solved {
  std::vector<double> Input;
  OptimizationResult Result;                   ///< Plain requests.
  std::optional<control::OnlineController> Ctrl; ///< Feedback requests.
};

/// Solves \p Req the way serve::Server does: plain requests through
/// tryOptimizeDetailed (stage breakdown into \p PB), feedback requests
/// through an OnlineController replay of the observed values.
Expected<Solved> solveRequest(const RuntimeTable &Rts,
                              const serve::ServeRequest &Req,
                              PlannerStageBreakdown *PB);

/// The "result" document the server answers \p Req with.
Json resultDocument(const RuntimeTable &Rts, const serve::ServeRequest &Req,
                    const Solved &S);

/// Per-request timings of an in-process replay.
struct ReplayStats {
  std::vector<double> TotalMs;
  std::vector<double> ParseUs;
  std::vector<double> LookupUs;
  std::vector<double> ComputeMs;   ///< Cache misses only.
  std::vector<double> ControlMs;   ///< Feedback requests only.
  std::vector<double> SerializeUs;
  size_t Plain = 0;
  size_t CacheHits = 0;
  size_t Feedback = 0;
  size_t Resolves = 0;
  double ConfigsEvaluated = 0.0;
  double ConfigsPruned = 0.0;
  size_t Errors = 0;
};

/// Replays \p Lines through parse -> solve -> serialize on fresh
/// schedule caches, one span per stage.
ReplayStats replay(const std::vector<BenchApp> &Apps,
                   const std::vector<std::string> &Lines, SpanLog &Spans);

/// The seeded request streams of the serve workloads.
class ServeTraffic {
public:
  /// serve-hot: Zipf(s = 1) over 3 apps x 4 held-out inputs x 4
  /// budgets. serve-cold: every request fresh -- uniform app, held-out
  /// input, budget U[1, 25], and 20% with 1-3 feedback values drawn
  /// from U[0, budget / 2].
  ServeTraffic(bool Hot, uint64_t Seed, const std::vector<BenchApp> &Apps);

  /// Pure function of (worker, seq); ids are unique across workers.
  std::string line(size_t Worker, uint64_t Seq) const;

  /// serve-hot: every key once, to fill the cache before measuring.
  std::vector<std::string> warmupLines() const;

private:
  struct AppInputs {
    std::string Name;
    std::vector<std::vector<double>> Training;
  };
  bool Hot;
  uint64_t Seed;
  std::vector<AppInputs> Apps;
  std::vector<std::string> KeyBodies; ///< Hot keys, "id" member omitted.
  std::vector<double> ZipfCdf;
};

} // namespace perfbench
} // namespace opprox

#endif // OPPROX_PERFBENCH_PIPELINE_H

//===- perfbench/Pipeline.cpp ---------------------------------------------===//
//
// Part of the OPPROX reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "Pipeline.h"
#include "LoadClient.h"
#include "apps/AppRegistry.h"
#include "core/OfflineTrainer.h"
#include "support/Version.h"
#include <algorithm>
#include <cmath>
#include <cstring>

using namespace opprox;
using namespace opprox::perfbench;

namespace {

/// Training threads of every workload (the host has four cores).
constexpr size_t TrainThreads = 4;

/// The quality set is fixed, not drawn from --seed: its metrics are
/// exact, so any change in them is a change in the decisions.
constexpr uint64_t QualitySeed = 2017;
constexpr double QualityBudgets[] = {1.0, 5.0, 10.0, 20.0};
constexpr size_t QualityInputsPerApp = 4;

/// The four held-out inputs of the quality set for \p A.
std::vector<std::vector<double>> qualityInputs(const BenchApp &A) {
  std::vector<std::string> Names = allAppNames();
  size_t Index = static_cast<size_t>(
      std::find(Names.begin(), Names.end(), A.App->name()) - Names.begin());
  Rng R(streamSeed(QualitySeed, Index));
  std::vector<std::vector<double>> Inputs;
  for (size_t I = 0; I < QualityInputsPerApp; ++I)
    Inputs.push_back(drawHeldOut(A.Opts.TrainingInputs, R));
  return Inputs;
}

[[noreturn]] void fail(const std::string &What) {
  reportFatalError("perfbench: " + What);
}

} // namespace

BenchApp perfbench::makeBenchApp(const std::string &Name, bool Smoke) {
  BenchApp A;
  A.App = createApp(Name);
  if (!A.App)
    fail("unknown application '" + Name + "'");
  A.Opts.Profiling.NumThreads = TrainThreads;
  A.Opts.ModelBuild.NumThreads = TrainThreads;
  std::vector<std::vector<double>> Inputs = A.App->trainingInputs();
  if (Name == "comd") {
    // The two 4-cell inputs cost 0.1-0.2 s per run and would stretch one
    // pass to ~10 s; the three 3-cell inputs keep it near 3 s.
    std::erase_if(Inputs,
                  [](const std::vector<double> &In) { return In[0] != 3.0; });
    A.Opts.Profiling.RandomJointSamples = 8;
  }
  if (Smoke) {
    // First and last: far enough apart to leave held-out inputs between.
    Inputs = {Inputs.front(), Inputs.back()};
    A.Opts.Profiling.RandomJointSamples = 1;
  }
  A.Opts.TrainingInputs = std::move(Inputs);
  return A;
}

PassStats perfbench::composeTraining(std::vector<BenchApp> &Apps,
                                     SpanLog &Spans, bool SaveAndLoad) {
  MetricsRegistry &Registry = MetricsRegistry::global();
  Counter &Folds = Registry.counter("ml.cv.folds");
  Counter &Fits = Registry.counter("train.fits");
  PassStats P;
  Clock::time_point Start = Clock::now();
  for (BenchApp &A : Apps) {
    SpanLog::Scope AppSpan = Spans.span("train.app");
    const ApproxApp &App = *A.App;
    MetricsSummary Before = Registry.monotoneSummary();
    GoldenCache Golden(App);
    Profiler Prof(App, Golden);
    ProfileOptions ProfileOpts = A.Opts.Profiling;
    ProfileOpts.NumPhases = A.Opts.NumPhases;
    TrainingSet Data;
    {
      SpanLog::Scope S = Spans.span("core.profile");
      Data = Prof.collect(A.Opts.TrainingInputs, ProfileOpts);
      P.ProfileS += S.close();
    }
    P.Runs += static_cast<double>(Prof.runsPerformed());
    P.GoldenHits += static_cast<double>(Golden.hits());
    P.GoldenLookups += static_cast<double>(Golden.hits() + Golden.misses());

    // The artifact OfflineTrainer::train assembles, field for field.
    OpproxArtifact Art;
    Art.AppName = App.name();
    Art.ParameterNames = App.parameterNames();
    Art.MaxLevels = App.maxLevels();
    Art.DefaultInput = App.defaultInput();
    uint64_t FoldsBefore = Folds.value(), FitsBefore = Fits.value();
    {
      SpanLog::Scope S = Spans.span("core.model_build");
      Art.Model = ModelBuilder::build(Data, A.Opts.NumPhases, App.numBlocks(),
                                      A.Opts.ModelBuild);
      P.BuildS += S.close();
    }
    P.Folds += static_cast<double>(Folds.value() - FoldsBefore);
    P.Fits += static_cast<double>(Fits.value() - FitsBefore);
    Art.Provenance.LibraryVersion = opproxVersion();
    Art.Provenance.ProfileSeed = A.Opts.Profiling.Seed;
    Art.Provenance.ModelSeed = A.Opts.ModelBuild.Seed;
    Art.Provenance.TrainingRuns = Prof.runsPerformed();
    Art.Provenance.RandomJointSamples = A.Opts.Profiling.RandomJointSamples;
    Art.Provenance.TrainingMetrics =
        MetricsRegistry::diffSummary(Before, Registry.monotoneSummary());
    A.Artifact = std::move(Art);

    if (!SaveAndLoad)
      continue;
    {
      SpanLog::Scope S = Spans.span("core.artifact_save");
      if (std::optional<Error> E = A.Artifact.save(A.Path))
        fail("artifact save: " + E->message());
    }
    SpanLog::Scope S = Spans.span("core.artifact_load");
    if (Expected<OpproxRuntime> Rt = OpproxRuntime::loadArtifact(A.Path); !Rt)
      fail("artifact load: " + Rt.error().message());
  }
  P.TotalS = secondsSince(Start);
  return P;
}

std::string perfbench::trainerModelBytes(const BenchApp &A) {
  return modelBytes(OfflineTrainer::train(*A.App, A.Opts).Artifact);
}

serve::ServeOptions perfbench::benchServeOptions(bool OnlineControl) {
  serve::ServeOptions Opts;
  Opts.Shards = 2;
  // The defaults, not the OPPROX_CACHE_* environment: the host's
  // environment must not change what is measured.
  Opts.Planner = PlannerOptions();
  Opts.OnlineControl = OnlineControl;
  return Opts;
}

double perfbench::saveArtifacts(std::vector<BenchApp> &Apps, SpanLog &Spans) {
  SpanLog::Scope S = Spans.span("core.artifact_save");
  for (BenchApp &A : Apps)
    if (std::optional<Error> E = A.Artifact.save(A.Path))
      fail("artifact save: " + E->message());
  return S.close();
}

BringUp perfbench::bringUp(const std::vector<BenchApp> &Apps,
                           const serve::ServeOptions &Opts, SpanLog &Spans) {
  SpanLog::Scope S = Spans.span("serve.start");
  std::vector<serve::ServeAppConfig> Configs;
  for (const BenchApp &A : Apps)
    Configs.push_back({A.App->name(), A.Path});
  Clock::time_point Start = Clock::now();
  Expected<std::unique_ptr<serve::Server>> Server =
      serve::Server::start(std::move(Configs), Opts);
  if (!Server)
    fail("server start: " + Server.error().message());
  BringUp B;
  B.StartS = secondsSince(Start);
  B.Server = std::move(*Server);
  WireSession Session(B.Server->port());
  std::string Response;
  if (!Session.roundTrip(
          requestLine(0, Apps.front().App->name(), 10.0, {}, {}), Response) ||
      Response.find("\"ok\":true") == std::string::npos)
    fail("first response: " + Response);
  B.FirstResponseS = S.close();
  return B;
}

double perfbench::loadRuntimes(std::vector<BenchApp> &Apps) {
  Clock::time_point Start = Clock::now();
  for (BenchApp &A : Apps) {
    Expected<OpproxRuntime> Rt = OpproxRuntime::loadArtifact(A.Path);
    if (!Rt)
      fail("artifact load: " + Rt.error().message());
    A.Runtime.emplace(std::move(*Rt));
  }
  return secondsSince(Start);
}

Quality perfbench::evaluateQuality(std::vector<BenchApp> &Apps) {
  Quality Q;
  double LogSpeedup = 0.0;
  size_t Within = 0;
  for (BenchApp &A : Apps) {
    GoldenCache Golden(*A.App);
    for (const std::vector<double> &Input : qualityInputs(A))
      for (double Budget : QualityBudgets) {
        OptimizationResult R = A.Runtime->optimizeDetailed(Input, Budget);
        EvalOutcome Truth =
            evaluateSchedule(*A.App, Golden, Input, R.Schedule);
        LogSpeedup += std::log(Truth.Speedup);
        Within += Truth.QosDegradation <= Budget;
        ++Q.Schedules;
      }
  }
  Q.SpeedupGeomean = std::exp(LogSpeedup / static_cast<double>(Q.Schedules));
  Q.WithinBudgetFrac =
      static_cast<double>(Within) / static_cast<double>(Q.Schedules);
  return Q;
}

std::vector<std::string>
perfbench::qualityRequestLines(const std::vector<BenchApp> &Apps) {
  std::vector<std::string> Lines;
  Rng R(streamSeed(QualitySeed, /*Stream=*/99));
  for (const BenchApp &A : Apps)
    for (const std::vector<double> &Input : qualityInputs(A))
      for (double Budget : QualityBudgets) {
        Lines.push_back(
            requestLine(Lines.size(), A.App->name(), Budget, Input, {}));
        std::vector<double> Feedback(static_cast<size_t>(R.range(1, 3)));
        for (double &V : Feedback)
          V = R.uniform(0.0, Budget / 2.0);
        Lines.push_back(
            requestLine(Lines.size(), A.App->name(), Budget, Input, Feedback));
      }
  return Lines;
}

std::string perfbench::requestLine(uint64_t Id, const std::string &App,
                                   double Budget,
                                   const std::vector<double> &Input,
                                   const std::vector<double> &Feedback) {
  Json Req = Json::object();
  Req.set("id", static_cast<double>(Id));
  Req.set("app", App);
  Req.set("budget", Budget);
  if (!Input.empty())
    Req.set("input", Json::numberArray(Input));
  if (!Feedback.empty())
    Req.set("feedback", Json::numberArray(Feedback));
  return Req.dump() + "\n";
}

//===----------------------------------------------------------------------===//
// The in-process request path
//===----------------------------------------------------------------------===//

Expected<Solved> perfbench::solveRequest(const RuntimeTable &Rts,
                                         const serve::ServeRequest &Req,
                                         PlannerStageBreakdown *PB) {
  auto It = Rts.find(Req.App);
  if (It == Rts.end())
    return Error("no runtime for app '" + Req.App + "'");
  const OpproxRuntime &Rt = *It->second;
  Solved S;
  S.Input = Req.Input.empty() ? Rt.artifact().DefaultInput : Req.Input;
  // serve::Server's request options: the defaults, overridden only by
  // the members the request supplied.
  OptimizeOptions Opts;
  if (Req.Confidence)
    Opts.ConfidenceP = *Req.Confidence;
  if (Req.Aggressive)
    Opts.Conservative = !*Req.Aggressive;
  if (Req.HasFeedback) {
    control::ControllerOptions CtrlOpts;
    CtrlOpts.Optimize = Opts;
    Expected<control::OnlineController> Ctrl =
        control::OnlineController::start(Rt, S.Input, Req.Budget, CtrlOpts);
    if (!Ctrl)
      return Ctrl.error();
    for (size_t P = 0; P < Req.Feedback.size(); ++P) {
      control::PhaseObservation Obs;
      Obs.Phase = P;
      Obs.ObservedQos = Req.Feedback[P];
      Ctrl->onPhaseComplete(Obs);
    }
    S.Ctrl.emplace(std::move(*Ctrl));
    return Expected<Solved>(std::move(S));
  }
  Expected<OptimizationResult> R =
      Rt.tryOptimizeDetailed(S.Input, Req.Budget, Opts, PB);
  if (!R)
    return R.error();
  S.Result = std::move(*R);
  return Expected<Solved>(std::move(S));
}

Json perfbench::resultDocument(const RuntimeTable &Rts,
                               const serve::ServeRequest &Req,
                               const Solved &S) {
  const OpproxArtifact &Art = Rts.at(Req.App)->artifact();
  if (!S.Ctrl)
    return serve::optimizationResultJson(Art, Req.Budget, S.Input, S.Result);
  // The "control" member serve::Server attaches to feedback answers.
  const control::OnlineController &C = *S.Ctrl;
  Json Doc = serve::optimizationResultJson(Art, Req.Budget, S.Input, C.plan());
  Json Control = Json::object();
  Control.set("next_phase", C.nextPhase());
  Control.set("spent_qos", C.spentQos());
  Control.set("remaining_budget", C.remainingBudget());
  Control.set("distrust_ratio", C.distrustRatio());
  Control.set("distrusts", C.stats().Distrusts);
  Control.set("resolves", C.stats().Resolves);
  Control.set("corrections", C.stats().Corrections);
  Control.set("rejected_resolves", C.stats().RejectedResolves);
  Doc.set("control", std::move(Control));
  return Doc;
}

ReplayStats perfbench::replay(const std::vector<BenchApp> &Apps,
                              const std::vector<std::string> &Lines,
                              SpanLog &Spans) {
  // Copies with fresh schedule caches under the server's planner
  // options, so the replay starts as cold as the server did.
  std::vector<OpproxRuntime> Fresh;
  Fresh.reserve(Apps.size());
  RuntimeTable Rts;
  for (const BenchApp &A : Apps) {
    Fresh.push_back(*A.Runtime);
    Fresh.back().configurePlanner(benchServeOptions(false).Planner);
    Rts[A.App->name()] = &Fresh.back();
  }

  ReplayStats R;
  long Id = 0;
  for (const std::string &Line : Lines) {
    SpanLog::Scope Request = Spans.span("serve.request", Id++);
    SpanLog::Scope Parse = Spans.span("serve.parse");
    Expected<serve::ServeRequest> Req =
        serve::parseServeRequest(Line.substr(0, Line.size() - 1));
    R.ParseUs.push_back(Parse.close() * 1e6);
    if (!Req) {
      ++R.Errors;
      continue;
    }
    PlannerStageBreakdown PB;
    SpanLog::Scope Solve =
        Spans.span(Req->HasFeedback ? "control.replay" : "core.optimize");
    Expected<Solved> S = solveRequest(Rts, *Req, &PB);
    double SolveS = Solve.close();
    if (!S) {
      ++R.Errors;
      continue;
    }
    const Solved &Done = *S;
    if (Done.Ctrl) {
      R.ControlMs.push_back(SolveS * 1e3);
      ++R.Feedback;
      R.Resolves += Done.Ctrl->stats().Resolves;
    } else {
      ++R.Plain;
      R.LookupUs.push_back(PB.LookupMs * 1e3);
      if (PB.CacheHit) {
        ++R.CacheHits;
      } else {
        R.ComputeMs.push_back(PB.ComputeMs);
        R.ConfigsEvaluated += static_cast<double>(Done.Result.ConfigsEvaluated);
        R.ConfigsPruned += static_cast<double>(Done.Result.ConfigsPruned);
      }
    }
    SpanLog::Scope Serialize = Spans.span("serve.serialize");
    std::string Response =
        serve::successResponseLine(Req->Id, resultDocument(Rts, *Req, Done));
    R.SerializeUs.push_back(Serialize.close() * 1e6);
    R.TotalMs.push_back(Request.close() * 1e3);
  }
  return R;
}

//===----------------------------------------------------------------------===//
// Request streams
//===----------------------------------------------------------------------===//

ServeTraffic::ServeTraffic(bool Hot, uint64_t Seed,
                           const std::vector<BenchApp> &BenchApps)
    : Hot(Hot), Seed(Seed) {
  for (const BenchApp &A : BenchApps)
    Apps.push_back({A.App->name(), A.Opts.TrainingInputs});
  if (!Hot)
    return;
  Rng R(streamSeed(Seed, /*Stream=*/1));
  for (const AppInputs &A : Apps)
    for (int I = 0; I < 4; ++I) {
      std::vector<double> Input = drawHeldOut(A.Training, R);
      for (int B = 0; B < 4; ++B) {
        std::string Full =
            requestLine(0, A.Name, R.uniform(1.0, 25.0), Input, {});
        KeyBodies.push_back(Full.substr(std::strlen("{\"id\":0,")));
      }
    }
  // Zipf(s = 1) over a seeded ranking of the keys.
  R.shuffle(KeyBodies);
  double Sum = 0.0;
  for (size_t K = 1; K <= KeyBodies.size(); ++K) {
    Sum += 1.0 / static_cast<double>(K);
    ZipfCdf.push_back(Sum);
  }
  for (double &C : ZipfCdf)
    C /= Sum;
}

std::string ServeTraffic::line(size_t Worker, uint64_t Seq) const {
  uint64_t Id = (static_cast<uint64_t>(Worker) << 32) | Seq;
  Rng R(streamSeed(Seed, /*Stream=*/2 + Worker, Seq));
  if (Hot) {
    size_t Key = static_cast<size_t>(
        std::lower_bound(ZipfCdf.begin(), ZipfCdf.end(), R.uniform()) -
        ZipfCdf.begin());
    return "{\"id\":" + std::to_string(Id) + "," +
           KeyBodies[std::min(Key, KeyBodies.size() - 1)];
  }
  const AppInputs &A = Apps[R.below(Apps.size())];
  std::vector<double> Input = drawHeldOut(A.Training, R);
  double Budget = R.uniform(1.0, 25.0);
  std::vector<double> Feedback;
  if (R.chance(0.2)) {
    Feedback.resize(static_cast<size_t>(R.range(1, 3)));
    for (double &V : Feedback)
      V = R.uniform(0.0, Budget / 2.0);
  }
  return requestLine(Id, A.Name, Budget, Input, Feedback);
}

std::vector<std::string> ServeTraffic::warmupLines() const {
  std::vector<std::string> Lines;
  for (size_t K = 0; K < KeyBodies.size(); ++K)
    Lines.push_back("{\"id\":" + std::to_string(K) + "," + KeyBodies[K]);
  return Lines;
}

//===- perfbench/opprox_bench.cpp - The repository benchmark --------------===//
//
// Part of the OPPROX reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runs one benchmark workload per process (perfbench/README.md):
///
///   opprox_bench --workload <train-profile|train-fit|serve-hot|serve-cold>
///                --seed <s> --out <result.json> [--seconds <window>]
///                [--trace <spans.json>] [--smoke]
///
/// Every workload walks the whole pipeline -- train, save, load, start a
/// server, answer requests -- and spends its measured window on the
/// stage it exists to stress. It prints every metric with its unit,
/// writes the result file, and exits non-zero when a correctness check
/// fails. With --trace it also replays the workload's stages one by one
/// under bench-owned spans and reports the per-layer metrics.
///
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"
#include "LoadClient.h"
#include "Pipeline.h"
#include "core/OfflineTrainer.h"
#include "support/CommandLine.h"
#include "support/Log.h"
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <unistd.h>

using namespace opprox;
using namespace opprox::perfbench;

namespace {

constexpr size_t ClientConnections = 2;

/// The frozen open-loop ladders. CapacityRps is the closed-loop
/// throughput of 2 connections measured at calibration
/// (perfbench/README.md); the rungs sit at fixed fractions of it, so they
/// do not move with the code under test.
struct Ladder {
  double CapacityRps;
  double SloMs; ///< p99 limit of max_rps_at_slo.
};
constexpr Ladder HotLadder{50000.0, 1.0};
constexpr Ladder ColdLadder{1380.0, 25.0};
constexpr double RungFractions[] = {0.25, 0.50, 0.75, 0.95};
/// Share of the window per serve phase: the four rungs, then the closed
/// loop the bounded latency metrics come from.
constexpr double PhaseShares[] = {0.10, 0.10, 0.10, 0.10, 0.60};

/// Spans that group layer spans rather than time one layer.
const std::vector<std::string> ContainerSpans = {
    "setup.train", "train.pass", "train.app", "apps.probe", "serve.request"};

struct BenchOptions {
  std::string Workload;
  long Seed = 1;
  double Seconds = 20.0;
  std::string OutPath;
  std::string TracePath;
  bool Smoke = false;
};

/// Everything one workload run accumulates.
struct Run {
  explicit Run(const BenchOptions &Opts)
      : Opts(Opts), Spans(!Opts.TracePath.empty()) {}

  bool traced() const { return Spans.enabled(); }

  void check(const std::string &Name, bool Ok, const std::string &Detail) {
    Checks.set(Name, Ok);
    std::printf("check %-32s %s%s%s\n", Name.c_str(), Ok ? "ok" : "FAILED",
                Detail.empty() ? "" : ": ", Detail.c_str());
    Correct = Correct && Ok;
  }

  const BenchOptions &Opts;
  SpanLog Spans;
  MetricSet Metrics;
  Json Checks = Json::object();
  Json Details = Json::object();
  bool Correct = true;
  size_t Attempted = 0;
  size_t Failed = 0;
};

double median(const std::vector<double> &V) { return quantileOf(V, 0.5); }

double sum(const std::vector<double> &V) {
  double S = 0.0;
  for (double X : V)
    S += X;
  return S;
}

double ratio(double Num, double Den) { return Den > 0.0 ? Num / Den : 0.0; }

Json finiteOrNull(double V) { return std::isfinite(V) ? Json(V) : Json(); }

Json ladderJson() {
  Json Out = Json::object();
  for (const auto &[Name, L] :
       {std::pair<const char *, Ladder>{"serve-hot", HotLadder},
        std::pair<const char *, Ladder>{"serve-cold", ColdLadder}}) {
    Json Rungs = Json::array();
    for (double F : RungFractions)
      Rungs.push(F * L.CapacityRps);
    Json J = Json::object();
    J.set("capacity_rps", L.CapacityRps);
    J.set("rungs_rps", std::move(Rungs));
    J.set("slo_p99_ms", L.SloMs);
    J.set("connections", ClientConnections);
    Out.set(Name, std::move(J));
  }
  return Out;
}

//===----------------------------------------------------------------------===//
// Stages shared by every workload
//===----------------------------------------------------------------------===//

/// Set-up, the same for every workload: the cold stage-by-stage training
/// pass, three timed artifact saves, then five bring-ups (Server::start,
/// then the first response) of which the last server stays up. setup_s
/// is the median Server::start: the time to put trained models into
/// service, where load-time work (artifact parsing, cache prewarming)
/// lands. The first response is left out of it because it waits on
/// thread wake-ups, which a virtual machine delays by milliseconds at
/// random; training time is the train workloads' p50.
struct Setup {
  PassStats Cold;
  std::unique_ptr<serve::Server> Server;
  std::vector<double> SaveMs, FirstResponseMs;
  double Bytes = 0.0;
  double LoadS = 0.0;
};

Setup setUp(Run &R, std::vector<BenchApp> &Apps, bool OnlineControl) {
  Setup S;
  {
    SpanLog::Scope Span = R.Spans.span("setup.train");
    S.Cold = composeTraining(Apps, R.Spans, /*SaveAndLoad=*/false);
  }
  for (BenchApp &A : Apps)
    A.ColdModelBytes = modelBytes(A.Artifact);
  for (int I = 0; I < 3; ++I)
    S.SaveMs.push_back(saveArtifacts(Apps, R.Spans) * 1e3);
  for (const BenchApp &A : Apps)
    S.Bytes += static_cast<double>(std::filesystem::file_size(A.Path));
  std::vector<double> StartS;
  for (int I = 0; I < 5; ++I) {
    S.Server.reset(); // Drain the previous server before the next starts.
    BringUp B = bringUp(Apps, benchServeOptions(OnlineControl), R.Spans);
    StartS.push_back(B.StartS);
    S.FirstResponseMs.push_back(B.FirstResponseS * 1e3);
    S.Server = std::move(B.Server);
  }
  R.Metrics.setMedian("setup_s", "s", StartS);
  R.Details.set("cold_train_s", S.Cold.TotalS);
  S.LoadS = loadRuntimes(Apps);
  std::printf("setup: cold training %.3f s, Server::start %.4f s, first "
              "response after %.4f s (medians)\n",
              S.Cold.TotalS, median(StartS), median(S.FirstResponseMs) / 1e3);
  return S;
}

/// The training-stage metrics, as medians over \p Passes.
void setPassMetrics(MetricSet &M, const std::vector<PassStats> &Passes) {
  auto Column = [&](auto Field) {
    std::vector<double> V;
    for (const PassStats &P : Passes)
      V.push_back(Field(P));
    return V;
  };
  M.setMedian("core.profile_ms", "ms",
              Column([](const PassStats &P) { return P.ProfileS * 1e3; }));
  M.setMedian("core.profile_runs", "count",
              Column([](const PassStats &P) { return P.Runs; }));
  M.setMedian("core.profile_runs_per_s", "1/s", Column([](const PassStats &P) {
                return ratio(P.Runs, P.ProfileS);
              }));
  M.setMedian("apps.golden_hit_rate", "fraction",
              Column([](const PassStats &P) {
                return ratio(P.GoldenHits, P.GoldenLookups);
              }));
  M.setMedian("core.model_build_ms", "ms",
              Column([](const PassStats &P) { return P.BuildS * 1e3; }));
  M.setMedian("ml.cv_folds", "count",
              Column([](const PassStats &P) { return P.Folds; }));
  M.setMedian("ml.fits", "count",
              Column([](const PassStats &P) { return P.Fits; }));
}

/// The artifact and bring-up metrics, from the set-up.
void setSetupMetrics(MetricSet &M, const Setup &S) {
  M.setMedian("core.artifact_save_ms", "ms", S.SaveMs);
  M.set("core.artifact_bytes", "B", S.Bytes);
  M.set("core.artifact_load_ms", "ms", S.LoadS * 1e3);
  M.setMedian("serve.start_ms", "ms", S.FirstResponseMs);
}

void setReplayMetrics(MetricSet &M, const ReplayStats &S) {
  M.setMedian("serve.parse_us", "us", S.ParseUs);
  M.setMedian("core.lookup_us", "us", S.LookupUs);
  M.set("core.cache_hit_rate", "fraction",
        ratio(static_cast<double>(S.CacheHits), static_cast<double>(S.Plain)));
  M.setMedian("core.compute_ms_p50", "ms", S.ComputeMs);
  M.setFrom("core.compute_ms_p99", "ms", nearestRank(S.ComputeMs, 0.99),
            S.ComputeMs);
  M.set("core.configs_per_s", "1/s",
        ratio(S.ConfigsEvaluated, sum(S.ComputeMs) / 1e3));
  M.set("core.pruned_frac", "fraction",
        ratio(S.ConfigsPruned, S.ConfigsEvaluated));
  M.setMedian("control.replay_ms", "ms", S.ControlMs);
  M.set("control.resolves_per_req", "count",
        ratio(static_cast<double>(S.Resolves),
              static_cast<double>(S.Feedback)));
  M.setMedian("serve.serialize_us", "us", S.SerializeUs);
}

/// apps.run_ms: the mean of one ApproxApp::run over a seeded probe set
/// (per app: one held-out input, three random level vectors, each in
/// every phase and in all phases), run serially.
void probeApps(Run &R, std::vector<BenchApp> &Apps) {
  SpanLog::Scope Root = R.Spans.span("apps.probe");
  std::vector<double> RunMs;
  for (size_t I = 0; I < Apps.size(); ++I) {
    const ApproxApp &App = *Apps[I].App;
    size_t Phases = Apps[I].Opts.NumPhases;
    Rng Rg(streamSeed(static_cast<uint64_t>(R.Opts.Seed), /*Stream=*/50, I));
    std::vector<double> Input = drawHeldOut(Apps[I].Opts.TrainingInputs, Rg);
    GoldenCache Golden(App);
    size_t Nominal;
    {
      SpanLog::Scope S = R.Spans.span("apps.golden");
      Nominal = Golden.nominalIterations(Input);
    }
    std::vector<int> Max = App.maxLevels();
    for (int C = 0; C < 3; ++C) {
      std::vector<int> Levels(Max.size());
      for (size_t B = 0; B < Max.size(); ++B)
        Levels[B] = static_cast<int>(Rg.range(0, Max[B]));
      for (size_t P = 0; P <= Phases; ++P) {
        PhaseSchedule Schedule =
            P == Phases ? PhaseSchedule::uniform(Phases, Levels)
                        : PhaseSchedule::singlePhase(Phases, P, Levels);
        SpanLog::Scope S = R.Spans.span("apps.run");
        (void)App.run(Input, Schedule, Nominal);
        RunMs.push_back(S.close() * 1e3);
      }
    }
  }
  R.Metrics.setFrom("apps.run_ms", "ms", sum(RunMs) / RunMs.size(), RunMs);
}

/// Check 2, for workloads whose window does not already run
/// OfflineTrainer::train: the set-up composition against the trainer.
void checkCompositionMatchesTrainer(Run &R, std::vector<BenchApp> &Apps) {
  bool Same = true;
  for (const BenchApp &A : Apps)
    Same = Same && trainerModelBytes(A) == A.ColdModelBytes;
  R.check("composition_matches_trainer", Same,
          "stage-by-stage model vs OfflineTrainer::train");
}

/// The quality metrics and, when tracing, the per-layer replay: the
/// workload's own request lines followed by the fixed quality stream, so
/// every workload exercises every layer, the controller included.
void finish(Run &R, std::vector<BenchApp> &Apps,
            std::vector<std::string> ReplayLines) {
  Quality Q = evaluateQuality(Apps);
  R.Metrics.set("speedup_geomean", "x", Q.SpeedupGeomean, Q.Schedules);
  R.Metrics.set("qos_within_budget_frac", "fraction", Q.WithinBudgetFrac,
                Q.Schedules);
  if (!R.traced())
    return;

  probeApps(R, Apps);
  for (std::string &Line : qualityRequestLines(Apps))
    ReplayLines.push_back(std::move(Line));
  // Per-layer numbers come from an untraced replay; the traced replay of
  // the same lines gives the span table and the tracing overhead. A first,
  // discarded replay warms the process so neither of the two pays for it.
  SpanLog Untraced(false);
  (void)replay(Apps, ReplayLines, Untraced);
  ReplayStats Plain = replay(Apps, ReplayLines, Untraced);
  ReplayStats Traced = replay(Apps, ReplayLines, R.Spans);
  setReplayMetrics(R.Metrics, Plain);
  R.Details.set("replay_requests", ReplayLines.size());
  R.Details.set("tracing_overhead_frac",
                ratio(median(Traced.TotalMs), median(Plain.TotalMs)) - 1.0);
  R.check("replay_without_errors", Plain.Errors == 0 && Traced.Errors == 0,
          std::to_string(ReplayLines.size()) + " requests");
  double Coverage = R.Spans.blockingCoverage(ContainerSpans);
  R.Details.set("blocking_coverage", Coverage);
  R.check("trace_covers_blocking_path", Coverage >= 0.9,
          "layer self time covers " + std::to_string(Coverage * 100.0) + "%");
}

//===----------------------------------------------------------------------===//
// Train workloads
//===----------------------------------------------------------------------===//

/// train-profile and train-fit: repeated training passes over the
/// workload's apps. Untraced passes call OfflineTrainer::train; traced
/// passes run the same steps one by one under spans.
void runTrain(Run &R, std::vector<BenchApp> &Apps, bool ProfileWorkload) {
  Setup S = setUp(R, Apps, /*OnlineControl=*/false);
  S.Server.reset();

  std::vector<double> PassMs;
  std::vector<PassStats> TracedPasses;
  std::vector<std::string> FirstBytes;
  bool Repeatable = true;
  size_t MinPasses = R.Opts.Smoke ? 1 : 3;
  Clock::time_point WindowStart = Clock::now();
  // Start a pass only if it should end inside the window.
  while (PassMs.size() < MinPasses ||
         (!R.Opts.Smoke &&
          secondsSince(WindowStart) + PassMs.back() / 1e3 <= R.Opts.Seconds)) {
    std::vector<std::string> Bytes;
    if (R.traced()) {
      SpanLog::Scope Pass = R.Spans.span("train.pass");
      TracedPasses.push_back(composeTraining(Apps, R.Spans, true));
      PassMs.push_back(Pass.close() * 1e3);
      for (const BenchApp &A : Apps)
        Bytes.push_back(modelBytes(A.Artifact));
    } else {
      std::vector<OfflineTrainer::Result> Results;
      Clock::time_point Start = Clock::now();
      for (const BenchApp &A : Apps)
        Results.push_back(OfflineTrainer::train(*A.App, A.Opts));
      PassMs.push_back(secondsSince(Start) * 1e3);
      for (const OfflineTrainer::Result &Res : Results)
        Bytes.push_back(modelBytes(Res.Artifact));
    }
    if (FirstBytes.empty())
      FirstBytes = Bytes;
    Repeatable = Repeatable && Bytes == FirstBytes;
  }
  R.Attempted = PassMs.size();
  R.check("artifact_repeatable", Repeatable,
          std::to_string(PassMs.size()) + " passes, provenance blanked");
  if (R.traced()) {
    checkCompositionMatchesTrainer(R, Apps);
  } else {
    bool Same = true;
    for (size_t I = 0; I < Apps.size(); ++I)
      Same = Same && FirstBytes[I] == Apps[I].ColdModelBytes;
    R.check("composition_matches_trainer", Same,
            "set-up composition vs OfflineTrainer::train");
  }

  // The tail is the nearest-rank p90, as on the serve workloads; with
  // fewer than ten passes (train-profile) it is the slowest one.
  R.Metrics.setMedian("p50_ms", "ms", PassMs);
  R.Metrics.setFrom("tail_ms", "ms", nearestRank(PassMs, 0.9), PassMs);

  // Check 4: the workload stresses the stage it claims to.
  const PassStats &Shape = TracedPasses.empty() ? S.Cold : TracedPasses.front();
  double ProfileShare = ratio(Shape.ProfileS, Shape.TotalS);
  double BuildShare = ratio(Shape.BuildS, Shape.TotalS);
  R.Details.set("profile_share", ProfileShare);
  R.Details.set("build_share", BuildShare);
  if (!R.Opts.Smoke) {
    if (ProfileWorkload)
      R.check("workload_shape", ProfileShare >= 0.90,
              "Profiler::collect share " + std::to_string(ProfileShare));
    else
      R.check("workload_shape", BuildShare >= 0.70,
              "ModelBuilder::build share " + std::to_string(BuildShare));
  }

  if (R.traced()) {
    setPassMetrics(R.Metrics, TracedPasses);
    setSetupMetrics(R.Metrics, S);
    R.Metrics.set("core.cache_evictions", "count", 0.0);
  }
  finish(R, Apps, {});
}

//===----------------------------------------------------------------------===//
// Serve workloads
//===----------------------------------------------------------------------===//

/// One {"stats": "delta"} probe; returns its "result" document.
Json statsDelta(uint16_t Port) {
  WireSession Session(Port);
  std::string Response;
  if (!Session.roundTrip("{\"id\":\"delta\",\"stats\":\"delta\"}\n", Response))
    return Json();
  Expected<Json> Doc = Json::parse(Response);
  const Json *Result = Doc ? Doc->find("result") : nullptr;
  return Result ? *Result : Json();
}

double counterOf(const Json &Doc, const std::string &Section,
                 const std::string &Name) {
  const Json *S = Doc.isObject() ? Doc.find(Section) : nullptr;
  const Json *V = S && S->isObject() ? S->find(Name) : nullptr;
  return V && V->isNumber() ? V->asNumber() : 0.0;
}

double stageSumMs(const Json &Delta, const char *Stage) {
  const Json *Hists = Delta.isObject() ? Delta.find("histograms") : nullptr;
  const Json *H =
      Hists ? Hists->find(std::string("serve.stage_ms.") + Stage) : nullptr;
  const Json *Sum = H ? H->find("sum") : nullptr;
  return Sum && Sum->isNumber() ? Sum->asNumber() : 0.0;
}

/// Check 3: a deterministic sample of the sent requests is re-sent; each
/// answer must be byte-identical to one built in-process on runtimes
/// without a schedule cache.
void checkWire(Run &R, std::vector<BenchApp> &Apps, uint16_t Port,
               const LoadClient &Client, const ServeTraffic &Traffic) {
  std::vector<OpproxRuntime> NoCache;
  NoCache.reserve(Apps.size());
  RuntimeTable Rts;
  PlannerOptions Uncached;
  Uncached.UseCache = false;
  for (const BenchApp &A : Apps) {
    NoCache.push_back(*A.Runtime);
    NoCache.back().configurePlanner(Uncached);
    Rts[A.App->name()] = &NoCache.back();
  }
  constexpr uint64_t PerConnection = 128;
  WireSession Session(Port);
  size_t Checked = 0, Mismatched = 0;
  for (size_t W = 0; W < Client.connections(); ++W) {
    uint64_t Sent = Client.sent(W);
    uint64_t Stride = std::max<uint64_t>(1, Sent / PerConnection);
    for (uint64_t Seq = 0, N = 0; Seq < Sent && N < PerConnection;
         Seq += Stride, ++N) {
      std::string Line = Traffic.line(W, Seq);
      std::string Response;
      Expected<serve::ServeRequest> Req =
          serve::parseServeRequest(Line.substr(0, Line.size() - 1));
      Expected<Solved> Want =
          Req ? solveRequest(Rts, *Req, nullptr) : Expected<Solved>(Req.error());
      Expected<Json> Got = Session.roundTrip(Line, Response)
                               ? Json::parse(Response)
                               : Expected<Json>(Error("transport failure"));
      const Json *Result = Got ? Got->find("result") : nullptr;
      ++Checked;
      if (!Want || !Result ||
          Result->dump() != resultDocument(Rts, *Req, *Want).dump())
        ++Mismatched;
    }
  }
  R.check("wire_matches_inprocess",
          Mismatched == 0 && Checked > 0,
          std::to_string(Checked) + " re-sent, " + std::to_string(Mismatched) +
              " mismatched");
}

/// serve-hot and serve-cold: an open-loop ladder at frozen rates, then a
/// closed loop, against an in-process server on loopback.
void runServe(Run &R, std::vector<BenchApp> &Apps, bool Hot) {
  Setup S = setUp(R, Apps, /*OnlineControl=*/!Hot);
  uint16_t Port = S.Server->port();
  ServeTraffic Traffic(Hot, static_cast<uint64_t>(R.Opts.Seed), Apps);
  if (Hot) {
    // Touch every hot key once so the window measures a warm cache.
    WireSession Session(Port);
    std::string Response;
    for (const std::string &Line : Traffic.warmupLines())
      if (!Session.roundTrip(Line, Response) ||
          Response.find("\"ok\":true") == std::string::npos)
        reportFatalError("perfbench: warm-up request failed: " + Response);
  }

  const Ladder &L = Hot ? HotLadder : ColdLadder;
  LoadClient Client(Port, ClientConnections,
                    [&Traffic](size_t W, uint64_t Seq) {
                      return Traffic.line(W, Seq);
                    });
  Json CacheBefore = serve::cacheStatsJson();
  Json Rungs = Json::array();
  Json ClosedDelta;
  LoadStats Closed;
  double MaxRpsAtSlo = 0.0;
  for (size_t P = 0; P < std::size(PhaseShares); ++P) {
    bool IsRung = P < std::size(RungFractions);
    double PhaseS = R.Opts.Smoke ? 0.3 : R.Opts.Seconds * PhaseShares[P];
    LoadPhase Phase;
    Phase.Rate = IsRung ? RungFractions[P] * L.CapacityRps : 0.0;
    Phase.WarmupS = std::min(1.0, 0.2 * PhaseS);
    Phase.MeasureS = PhaseS - Phase.WarmupS;
    if (!IsRung)
      (void)statsDelta(Port); // Opens the server-side window.
    LoadStats Stats = Client.run(Phase);
    R.Attempted += Stats.Attempted;
    R.Failed += Stats.failed();
    double P50 = Stats.latencyMs(0.5);
    double P99 = Stats.latencyMs(0.99);
    std::printf("phase %-6s %8.0f req/s: %zu attempted, %zu failed, p50 %.4f "
                "ms, p99 %.4f ms\n",
                IsRung ? "rung" : "closed", ratio(Stats.Ok, Stats.MeasuredS),
                Stats.Attempted, Stats.failed(), P50, P99);
    if (!IsRung) {
      ClosedDelta = statsDelta(Port);
      Closed = std::move(Stats);
      continue;
    }
    if (P99 <= L.SloMs && Stats.LagGrowthMs < L.SloMs)
      MaxRpsAtSlo = Phase.Rate;
    Json Rung = Json::object();
    Rung.set("target_rps", Phase.Rate);
    Rung.set("achieved_rps", ratio(Stats.Ok, Stats.MeasuredS));
    Rung.set("attempted", Stats.Attempted);
    Rung.set("failed", Stats.failed());
    Rung.set("unsent", Stats.Unsent);
    Rung.set("p50_ms", finiteOrNull(P50));
    Rung.set("p99_ms", finiteOrNull(P99));
    Rung.set("lag_p99_ms", nearestRank(Stats.LagMs, 0.99));
    Rung.set("lag_growth_ms", Stats.LagGrowthMs);
    Rungs.push(std::move(Rung));
  }
  Json CacheAfter = serve::cacheStatsJson();
  R.Details.set("rungs", std::move(Rungs));
  R.Details.set("max_rps_at_slo", MaxRpsAtSlo);
  R.Details.set("failed_frac", ratio(static_cast<double>(R.Failed),
                                     static_cast<double>(R.Attempted)));

  // The bounded latencies come from the closed loop, not a rung. On a
  // virtual machine an open-loop request at moderate load waits for the
  // hypervisor to wake an idle vCPU (measured: serve-hot p99 0.1-4.7 ms
  // at half load, against 0.06-0.08 ms closed loop), and a rung near
  // capacity turns any slowdown of the shared host into queueing; no
  // change to the program moves either. The rungs stay in the result.
  // The tail is the p90, as on the train workloads: the closed-loop p99
  // moved twice as much between runs, with the host, as the p50.
  R.Metrics.setFrom("p50_ms", "ms", Closed.latencyMs(0.5), Closed.LatenciesMs);
  R.Metrics.setFrom("tail_ms", "ms", Closed.latencyMs(0.9),
                    Closed.LatenciesMs);
  R.Details.set("closed_loop_p99_ms", finiteOrNull(Closed.latencyMs(0.99)));
  R.Details.set("closed_loop_rps", ratio(Closed.Ok, Closed.MeasuredS));

  // Server-side view of the closed loop, from the delta probe.
  static constexpr const char *Stages[] = {"parse", "plan", "lookup",
                                           "compute", "serialize"};
  double StageTotal = 0.0;
  for (const char *Stage : Stages)
    StageTotal += stageSumMs(ClosedDelta, Stage);
  Json Shares = Json::object();
  for (const char *Stage : Stages)
    Shares.set(Stage, ratio(stageSumMs(ClosedDelta, Stage), StageTotal));
  R.Details.set("stage_share", std::move(Shares));
  double Hits = counterOf(ClosedDelta, "counters", "cache.hits");
  double Misses = counterOf(ClosedDelta, "counters", "cache.misses");
  double HitRate = ratio(Hits, Hits + Misses);
  // The server books a feedback request's controller replay as "plan",
  // so the solve share counts plan and compute together.
  double SolveShare = ratio(stageSumMs(ClosedDelta, "plan") +
                                stageSumMs(ClosedDelta, "compute"),
                            StageTotal);
  double Evictions = counterOf(CacheAfter, "cache", "evictions") -
                     counterOf(CacheBefore, "cache", "evictions");
  R.Details.set("server_hit_rate", HitRate);
  R.Details.set("server_solve_share", SolveShare);
  R.Details.set("cache_grid_hits", counterOf(CacheAfter, "cache", "grid_hits") -
                                       counterOf(CacheBefore, "cache",
                                                 "grid_hits"));
  if (!R.Opts.Smoke) {
    bool Shaped = Hot ? HitRate >= 0.99 && SolveShare < 0.05
                      : HitRate <= 0.01 && SolveShare > 0.80;
    R.check("workload_shape", Shaped,
            "hit rate " + std::to_string(HitRate) + ", solve share " +
                std::to_string(SolveShare));
  }

  checkWire(R, Apps, Port, Client, Traffic);
  S.Server.reset();

  if (R.traced()) {
    checkCompositionMatchesTrainer(R, Apps);
    setPassMetrics(R.Metrics, {S.Cold});
    setSetupMetrics(R.Metrics, S);
    R.Metrics.set("core.cache_evictions", "count", Evictions);
  }
  std::vector<std::string> ReplayLines;
  if (R.traced()) {
    // The stream the clients sent first, interleaved as they sent it.
    if (Hot)
      ReplayLines = Traffic.warmupLines();
    uint64_t PerConnection = R.Opts.Smoke ? 50 : Hot ? 5000 : 300;
    for (uint64_t Seq = 0; Seq < PerConnection; ++Seq)
      for (size_t W = 0; W < ClientConnections; ++W)
        ReplayLines.push_back(Traffic.line(W, Seq));
  }
  finish(R, Apps, ReplayLines);
}

//===----------------------------------------------------------------------===//
// Entry point
//===----------------------------------------------------------------------===//

const std::map<std::string, std::vector<std::string>> WorkloadApps = {
    {"train-profile", {"ffmpeg", "comd"}},
    {"train-fit", {"pso"}},
    {"serve-hot", {"pso", "lulesh", "bodytrack"}},
    {"serve-cold", {"pso", "lulesh", "bodytrack"}},
};

int runWorkload(const BenchOptions &Opts) {
  namespace fs = std::filesystem;
  fs::path OutDir = fs::path(Opts.OutPath).parent_path();
  fs::path TmpDir =
      (OutDir.empty() ? fs::path(".") : OutDir) /
      ("opprox_bench." + std::to_string(static_cast<long>(::getpid())));
  fs::create_directories(TmpDir);

  Run R(Opts);
  std::printf("opprox_bench: workload %s, seed %ld, window %.1f s%s%s\n",
              Opts.Workload.c_str(), Opts.Seed, Opts.Seconds,
              R.traced() ? ", traced" : "", Opts.Smoke ? ", smoke" : "");
  std::vector<BenchApp> Apps;
  for (const std::string &Name : WorkloadApps.at(Opts.Workload)) {
    Apps.push_back(makeBenchApp(Name, Opts.Smoke));
    Apps.back().Path = (TmpDir / (Name + ".opprox.json")).string();
  }
  if (Opts.Workload.rfind("train-", 0) == 0)
    runTrain(R, Apps, Opts.Workload == "train-profile");
  else
    runServe(R, Apps, Opts.Workload == "serve-hot");
  R.Metrics.set("peak_rss_mb", "MB", peakRssMb());
  fs::remove_all(TmpDir);

  std::printf("metrics:\n");
  R.Metrics.print();
  if (R.traced()) {
    std::printf("layers (bench spans, by self time):\n");
    for (const SpanLog::LayerRow &Row : R.Spans.layerTable())
      std::printf("  %-24s n=%-7zu total %10.3f ms  self %10.3f ms\n",
                  Row.Name.c_str(), Row.Count, Row.TotalMs, Row.SelfMs);
  }

  Json Host = hostJson();
  Host.set("seed", Opts.Seed);
  Host.set("ladder", ladderJson());
  Json Out = Json::object();
  Out.set("schema", "opprox.perfbench.v1");
  Out.set("workload", Opts.Workload);
  Out.set("seed", Opts.Seed);
  Out.set("seconds", Opts.Seconds);
  Out.set("traced", R.traced());
  Out.set("smoke", Opts.Smoke);
  Out.set("host", std::move(Host));
  Out.set("correct", R.Correct);
  Out.set("attempted", R.Attempted);
  Out.set("failed", R.Failed);
  Out.set("metrics", R.Metrics.toJson());
  Out.set("checks", R.Checks);
  if (R.traced()) {
    Json Layers = Json::array();
    for (const SpanLog::LayerRow &Row : R.Spans.layerTable()) {
      Json J = Json::object();
      J.set("name", Row.Name);
      J.set("count", Row.Count);
      J.set("total_ms", Row.TotalMs);
      J.set("self_ms", Row.SelfMs);
      Layers.push(std::move(J));
    }
    R.Details.set("layers", std::move(Layers));
    if (std::optional<Error> E =
            writeFile(Opts.TracePath, R.Spans.toJson().dump() + "\n"))
      reportFatalError("perfbench: " + E->message());
  }
  Out.set("details", R.Details);
  if (std::optional<Error> E = writeFile(Opts.OutPath, Out.dump(2) + "\n"))
    reportFatalError("perfbench: " + E->message());
  std::printf("%s: wrote %s\n", R.Correct ? "ok" : "CHECKS FAILED",
              Opts.OutPath.c_str());
  return R.Correct ? 0 : 1;
}

} // namespace

int main(int Argc, char **Argv) {
  BenchOptions Opts;
  FlagParser Flags;
  Flags.addFlag("workload", &Opts.Workload,
                "train-profile, train-fit, serve-hot or serve-cold");
  Flags.addFlag("seed", &Opts.Seed,
                "Seed of the held-out inputs, budgets, key streams and "
                "feedback values");
  Flags.addFlag("seconds", &Opts.Seconds, "Length of the measured window");
  Flags.addFlag("out", &Opts.OutPath, "Result file (JSON)");
  Flags.addFlag("trace", &Opts.TracePath,
                "Also run the traced stage replay; write its spans here");
  Flags.addFlag("smoke", &Opts.Smoke,
                "Tiny training sets, one pass, 0.3 s rungs, no timing "
                "thresholds: checks that the benchmark works");
  if (!Flags.parse(Argc, Argv))
    return 2;
  if (!WorkloadApps.count(Opts.Workload) || Opts.OutPath.empty() ||
      !(Opts.Seconds > 0.0)) {
    std::fprintf(stderr, "error: need --workload (one of train-profile, "
                         "train-fit, serve-hot, serve-cold), --out, and a "
                         "positive --seconds\n");
    return 2;
  }
  // The server's slow-request sampler logs at info level; its lines
  // would interleave with the metrics.
  setLogLevel(LogLevel::Quiet);
  return runWorkload(Opts);
}

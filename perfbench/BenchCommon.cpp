//===- perfbench/BenchCommon.cpp ------------------------------------------===//
//
// Part of the OPPROX reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"
#include "support/Simd.h"
#include "support/Version.h"
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sys/resource.h>
#include <thread>
#include <unistd.h>

#ifndef OPPROX_BENCH_BUILD_TYPE
#define OPPROX_BENCH_BUILD_TYPE "unknown"
#endif

using namespace opprox;
using namespace opprox::perfbench;

uint64_t perfbench::streamSeed(uint64_t Seed, uint64_t Stream,
                               uint64_t Index) {
  auto Mix = [](uint64_t X) { // SplitMix64's output function.
    X += 0x9e3779b97f4a7c15ULL;
    X = (X ^ (X >> 30)) * 0xbf58476d1ce4e5b9ULL;
    X = (X ^ (X >> 27)) * 0x94d049bb133111ebULL;
    return X ^ (X >> 31);
  };
  return Mix(Mix(Mix(Seed) ^ Stream) ^ Index);
}

double perfbench::quantileOf(std::vector<double> Values, double Q) {
  if (Values.empty())
    return 0.0;
  std::sort(Values.begin(), Values.end());
  double Pos = Q * static_cast<double>(Values.size() - 1);
  size_t Lo = static_cast<size_t>(Pos);
  size_t Hi = std::min(Lo + 1, Values.size() - 1);
  double Frac = Pos - static_cast<double>(Lo);
  if (Frac == 0.0)
    return Values[Lo];
  return Values[Lo] * (1.0 - Frac) + Values[Hi] * Frac;
}

double perfbench::nearestRank(std::vector<double> Values, double Q) {
  if (Values.empty())
    return 0.0;
  std::sort(Values.begin(), Values.end());
  size_t Rank = static_cast<size_t>(
      std::ceil(Q * static_cast<double>(Values.size())));
  return Values[std::clamp<size_t>(Rank, 1, Values.size()) - 1];
}

//===----------------------------------------------------------------------===//
// MetricSet
//===----------------------------------------------------------------------===//

void MetricSet::set(const std::string &Name, const std::string &Unit,
                    double Value, size_t N) {
  Entries[Name] = Entry{Unit, Value, N, Value, Value};
}

void MetricSet::setMedian(const std::string &Name, const std::string &Unit,
                          const std::vector<double> &Samples) {
  setFrom(Name, Unit, quantileOf(Samples, 0.5), Samples);
}

void MetricSet::setFrom(const std::string &Name, const std::string &Unit,
                        double Value, const std::vector<double> &Samples) {
  Entries[Name] = Entry{Unit, Value, Samples.size(), quantileOf(Samples, 0.25),
                        quantileOf(Samples, 0.75)};
}

void MetricSet::print() const {
  for (const auto &[Name, E] : Entries)
    std::printf("  %-28s %14.6g %-8s (n=%zu, q1=%.6g, q3=%.6g)\n",
                Name.c_str(), E.Value, E.Unit.c_str(), E.N, E.Q1, E.Q3);
}

Json MetricSet::toJson() const {
  Json Out = Json::object();
  // A tail latency with failed requests in it is +infinity, which JSON
  // cannot carry; null marks it.
  auto Number = [](double V) { return std::isfinite(V) ? Json(V) : Json(); };
  for (const auto &[Name, E] : Entries) {
    Json M = Json::object();
    M.set("value", Number(E.Value));
    M.set("unit", E.Unit);
    M.set("n", E.N);
    M.set("q1", Number(E.Q1));
    M.set("q3", Number(E.Q3));
    Out.set(Name, std::move(M));
  }
  return Out;
}

//===----------------------------------------------------------------------===//
// Inputs and artifacts
//===----------------------------------------------------------------------===//

std::vector<double>
perfbench::drawHeldOut(const std::vector<std::vector<double>> &Training,
                       Rng &R) {
  size_t Params = Training.front().size();
  std::vector<double> Lo(Params, INFINITY), Hi(Params, -INFINITY);
  std::vector<bool> Integral(Params, true);
  for (const std::vector<double> &Input : Training)
    for (size_t P = 0; P < Params; ++P) {
      Lo[P] = std::min(Lo[P], Input[P]);
      Hi[P] = std::max(Hi[P], Input[P]);
      Integral[P] = Integral[P] && Input[P] == std::round(Input[P]);
    }
  // Bounded redraws: an application whose every parameter range is a
  // single training point has no held-out input at all.
  for (int Attempt = 0; Attempt < 1000; ++Attempt) {
    std::vector<double> Input(Params);
    for (size_t P = 0; P < Params; ++P) {
      Input[P] = Lo[P] == Hi[P] ? Lo[P] : R.uniform(Lo[P], Hi[P]);
      if (Integral[P])
        Input[P] = std::round(Input[P]);
    }
    if (std::find(Training.begin(), Training.end(), Input) == Training.end())
      return Input;
  }
  reportFatalError("perfbench: no held-out input exists outside the "
                   "training inputs");
}

std::string perfbench::modelBytes(const OpproxArtifact &Artifact) {
  OpproxArtifact Blank = Artifact;
  Blank.Provenance = ArtifactProvenance();
  return Blank.serialize();
}

//===----------------------------------------------------------------------===//
// SpanLog
//===----------------------------------------------------------------------===//

SpanLog::Scope::Scope(SpanLog &Log, const char *Name, long RequestId)
    : Log(Log), Start(Clock::now()) {
  if (!Log.Enabled)
    return;
  Span S;
  S.Name = Name;
  S.StartUs = secondsBetween(Log.Epoch, Start) * 1e6;
  S.Parent = Log.Open.empty() ? -1 : Log.Open.back();
  S.RequestId = RequestId;
  Index = static_cast<long>(Log.Spans.size());
  Log.Spans.push_back(std::move(S));
  Log.Open.push_back(Index);
}

double SpanLog::Scope::close() {
  if (Duration >= 0.0)
    return Duration;
  Clock::time_point End = Clock::now();
  Duration = secondsBetween(Start, End);
  if (Index < 0)
    return Duration;
  Span &S = Log.Spans[static_cast<size_t>(Index)];
  S.EndUs = secondsBetween(Log.Epoch, End) * 1e6;
  if (S.Parent >= 0)
    Log.Spans[static_cast<size_t>(S.Parent)].ChildUs += S.EndUs - S.StartUs;
  // Spans close innermost first; a scope closed early leaves the stack
  // consistent because nothing opens between its open and close.
  if (!Log.Open.empty() && Log.Open.back() == Index)
    Log.Open.pop_back();
  return Duration;
}

std::vector<SpanLog::LayerRow> SpanLog::layerTable() const {
  std::map<std::string, LayerRow> Rows;
  for (const Span &S : Spans) {
    LayerRow &Row = Rows[S.Name];
    Row.Name = S.Name;
    ++Row.Count;
    Row.TotalMs += (S.EndUs - S.StartUs) / 1e3;
    Row.SelfMs += (S.EndUs - S.StartUs - S.ChildUs) / 1e3;
  }
  std::vector<LayerRow> Out;
  for (auto &[Name, Row] : Rows)
    Out.push_back(Row);
  std::sort(Out.begin(), Out.end(), [](const LayerRow &A, const LayerRow &B) {
    return A.SelfMs > B.SelfMs;
  });
  return Out;
}

double
SpanLog::blockingCoverage(const std::vector<std::string> &Containers) const {
  double RootUs = 0.0, ContainerSelfUs = 0.0;
  for (const Span &S : Spans) {
    if (S.Parent < 0)
      RootUs += S.EndUs - S.StartUs;
    if (std::find(Containers.begin(), Containers.end(), S.Name) !=
        Containers.end())
      ContainerSelfUs += S.EndUs - S.StartUs - S.ChildUs;
  }
  return RootUs > 0.0 ? 1.0 - ContainerSelfUs / RootUs : 0.0;
}

Json SpanLog::toJson() const {
  Json List = Json::array();
  for (const Span &S : Spans) {
    Json J = Json::object();
    J.set("name", S.Name);
    J.set("start_us", S.StartUs);
    J.set("end_us", S.EndUs);
    J.set("parent", S.Parent);
    J.set("request", S.RequestId);
    List.push(std::move(J));
  }
  Json Out = Json::object();
  Out.set("spans", std::move(List));
  return Out;
}

//===----------------------------------------------------------------------===//
// Host
//===----------------------------------------------------------------------===//

Json perfbench::hostJson() {
  Json Host = Json::object();
  Host.set("nproc", static_cast<long>(::sysconf(_SC_NPROCESSORS_ONLN)));
  Host.set("hardware_concurrency",
           static_cast<size_t>(std::thread::hardware_concurrency()));
  Host.set("compiler", __VERSION__);
  Host.set("build_type", OPPROX_BENCH_BUILD_TYPE);
  Host.set("simd_tier", simd::activeTierName());
  Host.set("opprox_version", opproxVersion());
  return Host;
}

double perfbench::peakRssMb() {
  rusage Usage{};
  ::getrusage(RUSAGE_SELF, &Usage);
  return static_cast<double>(Usage.ru_maxrss) / 1024.0; // Linux: KiB.
}

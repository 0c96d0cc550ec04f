//===- perfbench/BenchCommon.h - Shared pieces of opprox_bench -*- C++ -*-===//
//
// Part of the OPPROX reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Building blocks of the repository benchmark (perfbench/README.md):
/// metric collection with sample counts and quartiles, the seeded
/// held-out input generator, bench-owned tracing spans, and the host
/// block every result file carries. Nothing here reaches into the
/// program's internals; the benchmark drives the layers only through
/// their public functions.
///
//===----------------------------------------------------------------------===//

#ifndef OPPROX_PERFBENCH_BENCHCOMMON_H
#define OPPROX_PERFBENCH_BENCHCOMMON_H

#include "core/ModelArtifact.h"
#include "support/Json.h"
#include "support/Random.h"
#include <chrono>
#include <map>
#include <string>
#include <vector>

namespace opprox {
namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double secondsBetween(Clock::time_point A, Clock::time_point B) {
  return std::chrono::duration<double>(B - A).count();
}

inline double secondsSince(Clock::time_point A) {
  return secondsBetween(A, Clock::now());
}

/// Seed of random stream (\p Stream, \p Index) under \p Seed, with a
/// full mixing round after each identifier. The library's deriveSeed
/// only XORs identifiers into an additive state, so (stream, index)
/// pairs that differ in low bits collide; the request generators draw
/// one stream per request and need distinct ones.
uint64_t streamSeed(uint64_t Seed, uint64_t Stream, uint64_t Index = 0);

/// Linear-interpolation quantile; 0 for an empty sample.
double quantileOf(std::vector<double> Values, double Q);

/// Nearest-rank quantile: an observed value, never an interpolation.
/// Used for tail latencies, where a missed request is +infinity and
/// must not be averaged with a neighbour.
double nearestRank(std::vector<double> Values, double Q);

/// Every metric one run produced, by name, with its unit and the size
/// and spread of the sample it summarizes.
class MetricSet {
public:
  /// A value measured once over \p N events (quartiles equal the value).
  void set(const std::string &Name, const std::string &Unit, double Value,
           size_t N = 1);

  /// The median of \p Samples, with n and the quartiles.
  void setMedian(const std::string &Name, const std::string &Unit,
                 const std::vector<double> &Samples);

  /// \p Value summarizing \p Samples (n and quartiles taken from them).
  void setFrom(const std::string &Name, const std::string &Unit, double Value,
               const std::vector<double> &Samples);

  /// Prints one "name value unit (n, q1, q3)" line per metric.
  void print() const;
  Json toJson() const;

private:
  struct Entry {
    std::string Unit;
    double Value = 0.0;
    size_t N = 1;
    double Q1 = 0.0;
    double Q3 = 0.0;
  };
  std::map<std::string, Entry> Entries;
};

/// A held-out input for an application trained on \p Training: each
/// parameter uniform in that parameter's [min, max] over the training
/// inputs, rounded when every training value of it is an integer. A draw
/// equal to a training input is rejected and redrawn.
std::vector<double>
drawHeldOut(const std::vector<std::vector<double>> &Training, Rng &R);

/// The artifact's canonical serialization with the provenance blanked:
/// provenance carries timings, so two trainings of the same model differ
/// there and only there.
std::string modelBytes(const OpproxArtifact &Artifact);

/// Bench-owned spans held in memory: name, start, end, parent and
/// request id, written out when the benchmark ends. Spans are opened on
/// the benchmark's main thread only, around calls into one layer; they
/// never touch the program's own TraceRecorder. A disabled log still
/// times its scopes, so one code path serves traced and untraced runs.
class SpanLog {
public:
  explicit SpanLog(bool Enabled) : Enabled(Enabled), Epoch(Clock::now()) {}

  /// RAII span; the innermost open span is its parent.
  class Scope {
  public:
    Scope(SpanLog &Log, const char *Name, long RequestId);
    ~Scope() { close(); }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

    /// Ends the span now (idempotent) and returns its duration.
    double close();

  private:
    SpanLog &Log;
    Clock::time_point Start;
    long Index = -1; ///< -1 when the log is disabled.
    double Duration = -1.0;
  };

  Scope span(const char *Name, long RequestId = -1) {
    return Scope(*this, Name, RequestId);
  }

  bool enabled() const { return Enabled; }

  /// Per span name: count, total and self time (duration minus the time
  /// its direct children cover), sorted by self time.
  struct LayerRow {
    std::string Name;
    size_t Count = 0;
    double TotalMs = 0.0;
    double SelfMs = 0.0;
  };
  std::vector<LayerRow> layerTable() const;

  /// Share of the root spans' time covered by the self time of spans
  /// whose names are not in \p Containers (root and grouping spans).
  double blockingCoverage(const std::vector<std::string> &Containers) const;

  /// {"spans": [{"name", "start_us", "end_us", "parent", "request"}]}.
  Json toJson() const;

private:
  struct Span {
    std::string Name;
    double StartUs = 0.0;
    double EndUs = 0.0;
    long Parent = -1;
    long RequestId = -1;
    double ChildUs = 0.0;
  };
  bool Enabled;
  Clock::time_point Epoch;
  std::vector<Span> Spans;
  std::vector<long> Open;
};

/// The host block of every result: core counts, compiler, build type,
/// SIMD tier, library version.
Json hostJson();

/// ru_maxrss of this process, in MB.
double peakRssMb();

} // namespace perfbench
} // namespace opprox

#endif // OPPROX_PERFBENCH_BENCHCOMMON_H

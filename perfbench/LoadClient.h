//===- perfbench/LoadClient.h - Open/closed-loop wire client ---*- C++ -*-===//
//
// Part of the OPPROX reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark's load generator for the serving tier: N client
/// connections (one thread each, one request in flight per connection)
/// driving an opprox-serve instance over the newline-JSON wire protocol.
///
///  - **Closed loop** (Rate == 0): each connection sends its next request
///    as soon as the previous answer arrives; latency runs from the send.
///  - **Open loop** (Rate > 0): connection W owns every N-th slot of a
///    fixed global schedule. A request the server held back (the previous
///    answer on its connection was still outstanding at its slot) is
///    timed from the *scheduled* send, so a stall is charged to every
///    request it delays (coordinated omission); the generator's own
///    lateness is reported as lag.
///
/// Every request scheduled inside the measured window is accounted for:
/// answered, shed, failed, or -- after a transport error, or when the
/// schedule could not be caught up within the drain grace -- counted as
/// unsent. Failed, shed and unsent requests count as misses of any
/// latency limit.
///
//===----------------------------------------------------------------------===//

#ifndef OPPROX_PERFBENCH_LOADCLIENT_H
#define OPPROX_PERFBENCH_LOADCLIENT_H

#include "support/Socket.h"
#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace opprox {
namespace perfbench {

struct LoadPhase {
  /// Total offered requests per second across all connections; 0 runs
  /// a closed loop.
  double Rate = 0.0;
  /// Traffic sent and answered before the measured window begins.
  double WarmupS = 0.0;
  double MeasureS = 1.0;
};

/// What one phase measured. Counts cover the measured window only.
struct LoadStats {
  size_t Attempted = 0;       ///< Requests due in the window.
  size_t Ok = 0;
  size_t ErrorResponses = 0;  ///< ok=false other than shed.
  size_t Shed = 0;            ///< `overloaded` responses.
  size_t TransportErrors = 0;
  size_t Unsent = 0;          ///< Due in the window, never sent.
  /// Latencies of the attempted requests -- every one, or a uniform
  /// sample of MaxSamples once there are more, so the client's memory
  /// (part of peak_rss_mb) does not grow with throughput. A failed, shed
  /// or unsent request is +infinity, since it misses any limit.
  std::vector<double> LatenciesMs;
  uint64_t Latencies = 0; ///< Latencies offered to the sample.
  static constexpr size_t MaxSamples = 1 << 16;
  std::vector<double> LagMs;       ///< Actual minus scheduled send.
  /// How far the generator fell behind over the window: the mean lag of
  /// a connection's last tenth of requests minus that of its first
  /// tenth, worst connection. A growing backlog shows here.
  double LagGrowthMs = 0.0;
  /// From the window's start to the last measured answer.
  double MeasuredS = 0.0;

  size_t failed() const {
    return ErrorResponses + Shed + TransportErrors + Unsent;
  }

  /// Adds one request's latency to the sample (reservoir sampling).
  void addLatency(double LatencyMs);

  /// Nearest-rank latency quantile over the sampled requests.
  double latencyMs(double Q) const;

  void merge(const LoadStats &Other);
};

/// Builds the request line (newline included) for sequence number
/// \p Seq of connection \p Worker. Must be a pure function of its
/// arguments: the correctness check regenerates sent requests from them.
using RequestFn = std::function<std::string(size_t Worker, uint64_t Seq)>;

class LoadClient {
public:
  LoadClient(uint16_t Port, size_t Connections, RequestFn Next);

  /// Runs one phase on fresh connections. Sequence numbers continue
  /// across phases, so no two requests of a run share one.
  LoadStats run(const LoadPhase &Phase);

  /// Requests generated so far by connection \p Worker.
  uint64_t sent(size_t Worker) const { return NextSeq[Worker]; }
  size_t connections() const { return NextSeq.size(); }

private:
  void worker(size_t W, const LoadPhase &Phase,
              std::chrono::steady_clock::time_point Start, LoadStats &Out);

  uint16_t Port;
  RequestFn Next;
  std::vector<uint64_t> NextSeq;
};

/// A blocking loopback connection for one request at a time: set-up
/// probes, stats probes, correctness re-sends.
class WireSession {
public:
  explicit WireSession(uint16_t Port);

  bool connected() const { return Sock.valid(); }

  /// Sends \p Line (newline included) and reads one response line.
  /// Returns false on transport failure.
  bool roundTrip(const std::string &Line, std::string &Response);

private:
  Socket Sock;
  LineFramer Framer{1 << 24};
};

} // namespace perfbench
} // namespace opprox

#endif // OPPROX_PERFBENCH_LOADCLIENT_H

//===- perfbench/LoadClient.cpp -------------------------------------------===//
//
// Part of the OPPROX reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "LoadClient.h"
#include "BenchCommon.h"
#include <cmath>
#include <sys/prctl.h>
#include <thread>

using namespace opprox;
using namespace opprox::perfbench;

namespace {

Clock::duration durationOf(double Seconds) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(Seconds));
}

double msBetween(Clock::time_point A, Clock::time_point B) {
  return secondsBetween(A, B) * 1e3;
}

/// Response classification without a full parse: the server's compact
/// envelope puts "ok" right after "id".
void classify(const std::string &Response, double LatencyMs,
              LoadStats &Out) {
  if (Response.find("\"ok\":true") != std::string::npos) {
    ++Out.Ok;
    Out.addLatency(LatencyMs);
    return;
  }
  if (Response.find("\"overloaded\"") != std::string::npos)
    ++Out.Shed;
  else
    ++Out.ErrorResponses;
  Out.addLatency(INFINITY);
}

} // namespace

void LoadStats::addLatency(double LatencyMs) {
  if (LatenciesMs.size() < MaxSamples) {
    LatenciesMs.push_back(LatencyMs);
  } else {
    // Algorithm R: the k-th latency replaces a random slot with
    // probability MaxSamples / k.
    uint64_t Slot = streamSeed(Latencies, 0) % (Latencies + 1);
    if (Slot < MaxSamples)
      LatenciesMs[Slot] = LatencyMs;
  }
  ++Latencies;
}

double LoadStats::latencyMs(double Q) const {
  return nearestRank(LatenciesMs, Q);
}

void LoadStats::merge(const LoadStats &Other) {
  Attempted += Other.Attempted;
  Ok += Other.Ok;
  ErrorResponses += Other.ErrorResponses;
  Shed += Other.Shed;
  TransportErrors += Other.TransportErrors;
  Unsent += Other.Unsent;
  LatenciesMs.insert(LatenciesMs.end(), Other.LatenciesMs.begin(),
                     Other.LatenciesMs.end());
  Latencies += Other.Latencies;
  LagMs.insert(LagMs.end(), Other.LagMs.begin(), Other.LagMs.end());
  LagGrowthMs = std::max(LagGrowthMs, Other.LagGrowthMs);
  MeasuredS = std::max(MeasuredS, Other.MeasuredS);
}

LoadClient::LoadClient(uint16_t Port, size_t Connections, RequestFn Next)
    : Port(Port), Next(std::move(Next)), NextSeq(Connections, 0) {}

LoadStats LoadClient::run(const LoadPhase &Phase) {
  // Workers connect during the first few milliseconds, then start on a
  // shared clock so their slots interleave as one schedule.
  const Clock::time_point Start = Clock::now() + durationOf(0.01);
  std::vector<LoadStats> Results(NextSeq.size());
  std::vector<std::thread> Workers;
  for (size_t W = 0; W < NextSeq.size(); ++W)
    Workers.emplace_back([this, W, &Phase, Start, &Results] {
      worker(W, Phase, Start, Results[W]);
    });
  for (std::thread &T : Workers)
    T.join();
  LoadStats Total;
  for (LoadStats &R : Results) {
    // Each connection's lags are in send order.
    size_t Tenth = R.LagMs.size() / 10;
    if (Tenth > 0) {
      auto MeanOf = [](auto Begin, auto End) {
        double Sum = 0.0;
        for (auto It = Begin; It != End; ++It)
          Sum += *It;
        return Sum / static_cast<double>(End - Begin);
      };
      R.LagGrowthMs = MeanOf(R.LagMs.end() - Tenth, R.LagMs.end()) -
                      MeanOf(R.LagMs.begin(), R.LagMs.begin() + Tenth);
    }
    Total.merge(R);
  }
  return Total;
}

void LoadClient::worker(size_t W, const LoadPhase &Phase,
                        Clock::time_point Start, LoadStats &Out) {
  // Default timer slack (50 us) would make every sleep late by that much.
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  const Clock::time_point WarmupEnd = Start + durationOf(Phase.WarmupS);
  const Clock::time_point Deadline = WarmupEnd + durationOf(Phase.MeasureS);
  // A lagging open-loop generator keeps sending overdue slots after the
  // deadline for at most this long; whatever is left is unsent.
  const Clock::time_point DrainLimit =
      Deadline + durationOf(std::max(2.0, Phase.MeasureS));
  const bool Open = Phase.Rate > 0.0;
  const double IntervalS =
      Open ? static_cast<double>(NextSeq.size()) / Phase.Rate : 0.0;
  uint64_t Slot = 0; // Open loop: this worker's slot index.
  auto SlotTime = [&](uint64_t K) {
    return Start + durationOf(IntervalS * (static_cast<double>(K) +
                                           static_cast<double>(W) /
                                               NextSeq.size()));
  };
  // Open-loop slots from \p K on that fall in the measured window.
  auto CountUnsent = [&](uint64_t K) {
    for (; SlotTime(K) < Deadline; ++K)
      if (SlotTime(K) >= WarmupEnd) {
        ++Out.Attempted;
        ++Out.Unsent;
        Out.addLatency(INFINITY);
      }
  };

  WireSession Session(Port);
  if (!Session.connected()) {
    if (Open) {
      CountUnsent(0); // Nothing this connection was due to send went out.
    } else {
      ++Out.Attempted;
      ++Out.TransportErrors;
      Out.addLatency(INFINITY);
    }
    return;
  }

  std::string Response;
  Clock::time_point PrevDone = Start;
  for (;;) {
    Clock::time_point Scheduled;
    if (Open) {
      Scheduled = SlotTime(Slot);
      if (Scheduled >= Deadline)
        break;
      if (Clock::now() > DrainLimit) {
        CountUnsent(Slot);
        break;
      }
      ++Slot;
    } else {
      Scheduled = Clock::now();
      if (Scheduled >= Deadline)
        break;
    }
    std::string Line = Next(W, NextSeq[W]++);
    if (Open)
      std::this_thread::sleep_until(Scheduled);
    Clock::time_point SentAt = Clock::now();
    bool Answered = Session.roundTrip(Line, Response);
    Clock::time_point Done = Clock::now();
    // Latency runs from the scheduled time when the previous answer on
    // this connection was still outstanding then: the server held this
    // request back. Otherwise it runs from the actual send, because a
    // late wake-up of the generator's own thread -- on a virtual machine,
    // often milliseconds -- is generator lag, reported apart.
    Clock::time_point From = PrevDone > Scheduled ? Scheduled : SentAt;
    PrevDone = Done;
    bool Measured = Scheduled >= WarmupEnd;
    if (Measured) {
      ++Out.Attempted;
      if (Open)
        Out.LagMs.push_back(msBetween(Scheduled, SentAt));
    }
    if (!Answered) {
      // The connection is gone; every later slot of this worker would
      // silently vanish from the denominator without this.
      if (Measured) {
        ++Out.TransportErrors;
        Out.addLatency(INFINITY);
      }
      if (Open)
        CountUnsent(Slot);
      return;
    }
    if (Measured) {
      classify(Response, msBetween(From, Done), Out);
      Out.MeasuredS = secondsBetween(WarmupEnd, Done);
    }
  }
}

WireSession::WireSession(uint16_t Port) {
  Expected<Socket> S = connectTcp("127.0.0.1", Port);
  if (!S || setRecvTimeoutMs(*S, 30000))
    return;
  Sock = std::move(*S);
}

bool WireSession::roundTrip(const std::string &Line, std::string &Response) {
  if (!Sock.valid() || sendAll(Sock, Line))
    return false;
  std::string Chunk;
  while (!Framer.next(Response)) {
    Chunk.clear();
    RecvResult R = recvSome(Sock, Chunk, 1 << 16);
    if (R.Status != IoStatus::Ok || !Framer.feed(Chunk.data(), Chunk.size()))
      return false;
  }
  return true;
}

//===- perfbench/src/LoadGen.h - Open-loop request generator ----*- C++ -*-===//
//
// Part of the differential-register-allocation reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A single-threaded open-loop generator over a few stream connections.
/// Every request has a due time fixed before the run; the loop sends it
/// when due, whatever replies are outstanding (requests pipeline on a
/// connection, and the server answers each connection in order), and
/// takes its latency from the due time. So a stalled reply raises the
/// latency of the requests queued behind it, and the generator's own
/// lateness is reported separately (send time minus due time) instead of
/// hiding in the latencies.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_LOADGEN_H
#define PERFBENCH_LOADGEN_H

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Outcome {
  uint64_t DueNs = 0;  ///< Absolute steadyClockNs() the request was due.
  uint64_t SendNs = 0; ///< When the loop queued its bytes on a connection.
  uint64_t DoneNs = 0; ///< When its complete response frame arrived.
  unsigned Conn = 0;
  bool Answered = false;  ///< False: connection failure or run timeout.
  std::string Response;   ///< Raw response frame payload.

  double latencyUs() const { return double(DoneNs - DueNs) / 1000.0; }
  double lagUs() const { return double(SendNs - DueNs) / 1000.0; }
};

/// Sends Payloads[I] (a dra-req-v1 document; framed here) at
/// start + DueOffsetNs[I] over \p Fds, each time on the connection with
/// the fewest outstanding requests. Returns when every request is
/// answered or \p TimeoutNs after the last due time. The fds are switched
/// to non-blocking mode; the caller keeps ownership.
std::vector<Outcome> runOpenLoop(const std::vector<int> &Fds,
                                 const std::vector<std::string> &Payloads,
                                 const std::vector<uint64_t> &DueOffsetNs,
                                 uint64_t TimeoutNs);

} // namespace perfbench

#endif // PERFBENCH_LOADGEN_H

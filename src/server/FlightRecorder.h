//===- server/FlightRecorder.h - Last-N request ring ------------*- C++ -*-===//
//
// Part of the differential-register-allocation reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The server's flight recorder: a lock-sharded ring buffer retaining the
/// last N request records — trace id, connection, scheme, cache tier,
/// per-phase durations, and the outcome *including* shed and error
/// responses, which the latency histograms alone would aggregate away.
///
/// Every admitted-or-not request is recorded; full span detail is kept
/// only for requests at or above the slow-request threshold (everything
/// else keeps the one-line summary), so the recorder's memory stays
/// O(capacity) even when a pathological input produces thousands of
/// sub-spans. `dra-ctl-v1 recent` serves these records to `dra-top`.
///
/// Sharding: records land in `Seq % NumShards`, so concurrent connection
/// threads contend on different mutexes; `recent()` locks shard-by-shard,
/// merges, and orders by sequence number — the global admission order is
/// the atomic Seq counter, not lock-acquisition order.
///
//===----------------------------------------------------------------------===//

#ifndef DRA_SERVER_FLIGHTRECORDER_H
#define DRA_SERVER_FLIGHTRECORDER_H

#include "driver/Trace.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace dra {

/// Everything the server knows about one finished request.
struct RequestRecord {
  uint64_t Seq = 0;     ///< Global arrival order (1-based); recorder-assigned.
  uint64_t TraceId = 0; ///< Client-sent id, or a server-derived one.
  bool ClientTraced = false; ///< True when the client sent the id.
  uint64_t ConnId = 0;       ///< Serving connection (1-based accept order).
  std::string Scheme;        ///< Wire scheme name; "?" before decode.
  std::string Outcome;       ///< "ok" | "shed" | "error".
  std::string Tier;          ///< Latency-histogram tier label
                             ///< (hit_mem|hit_disk|miss|error|shed).
  uint64_t BeginNs = 0;      ///< Request arrival, absolute steadyClockNs().
  double TotalUs = 0;        ///< Arrival to response-ready.
  double QueueUs = 0;        ///< Admission to pool-task start.
  double CompileUs = 0;      ///< Cache lookup + pipeline on the worker.
  bool Slow = false;         ///< TotalUs >= threshold; recorder-assigned.
  std::string Error;         ///< Diagnostic for error outcomes.
  /// Full span detail (and thread names for display); kept for slow
  /// requests only, cleared on everything else.
  std::vector<WireSpan> Spans;
  std::vector<std::pair<uint64_t, std::string>> ThreadNames;
};

class FlightRecorder {
public:
  static constexpr size_t NumShards = 8;

  /// \p Capacity 0 disables recording entirely (record() is a counter
  /// bump); \p SlowUs is the full-span-detail escalation threshold.
  FlightRecorder(size_t Capacity, uint64_t SlowUs)
      : Capacity(Capacity), SlowUs(SlowUs) {
    size_t PerShard = Capacity ? (Capacity + NumShards - 1) / NumShards : 0;
    for (Shard &S : Shards)
      S.Cap = PerShard;
  }

  FlightRecorder(const FlightRecorder &) = delete;
  FlightRecorder &operator=(const FlightRecorder &) = delete;

  bool enabled() const { return Capacity > 0; }
  size_t capacity() const { return Capacity; }
  uint64_t slowThresholdUs() const { return SlowUs; }

  /// Total requests seen / seen at-or-above the slow threshold.
  uint64_t recorded() const { return Seq.load(std::memory_order_relaxed); }
  uint64_t slowCount() const { return Slow.load(std::memory_order_relaxed); }

  /// Files one finished request. Assigns Seq and the Slow flag; drops
  /// span detail below the threshold. Returns the sequence number.
  uint64_t record(RequestRecord R) {
    uint64_t S = Seq.fetch_add(1, std::memory_order_relaxed) + 1;
    R.Seq = S;
    R.Slow = R.TotalUs >= double(SlowUs);
    if (R.Slow)
      Slow.fetch_add(1, std::memory_order_relaxed);
    else {
      R.Spans.clear();
      R.ThreadNames.clear();
    }
    if (!Capacity)
      return S;
    Shard &Sh = Shards[S % NumShards];
    std::lock_guard<std::mutex> Lock(Sh.Mtx);
    if (Sh.Ring.size() < Sh.Cap) {
      Sh.Ring.push_back(std::move(R));
    } else {
      Sh.Ring[Sh.Next] = std::move(R);
      Sh.Next = (Sh.Next + 1) % Sh.Cap;
    }
    return S;
  }

  /// The newest (up to) \p N records, newest first.
  std::vector<RequestRecord> recent(size_t N) const {
    std::vector<RequestRecord> Out;
    for (const Shard &Sh : Shards) {
      std::lock_guard<std::mutex> Lock(Sh.Mtx);
      Out.insert(Out.end(), Sh.Ring.begin(), Sh.Ring.end());
    }
    std::sort(Out.begin(), Out.end(),
              [](const RequestRecord &A, const RequestRecord &B) {
                return A.Seq > B.Seq;
              });
    if (Out.size() > N)
      Out.resize(N);
    return Out;
  }

private:
  struct Shard {
    mutable std::mutex Mtx;
    std::vector<RequestRecord> Ring; ///< Grows to Cap, then wraps at Next.
    size_t Next = 0;
    size_t Cap = 0;
  };

  const size_t Capacity;
  const uint64_t SlowUs;
  std::atomic<uint64_t> Seq{0};
  std::atomic<uint64_t> Slow{0};
  Shard Shards[NumShards];
};

} // namespace dra

#endif // DRA_SERVER_FLIGHTRECORDER_H

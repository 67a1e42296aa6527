//===- perfbench/src/SelfTest.cpp - Tests of the benchmark's own checks -===//
//
// Part of the differential-register-allocation reproduction library.
//
// `perfbench --self-test` proves the two mechanisms every reported figure
// rests on:
//
//  1. The output check catches a corrupted result body (one flipped
//     register field, or a truncated body) and passes the real one.
//  2. The open-loop generator measures the server, not itself: when a
//     reply stalls, the requests pipelined behind it on the connection
//     record the stall in their latency, while their sends stay on
//     schedule.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "LoadGen.h"

#include "driver/ResultCache.h"
#include "server/Protocol.h"

#include <chrono>
#include <cstdio>
#include <thread>

#include <sys/socket.h>
#include <unistd.h>

using namespace dra;

namespace perfbench {

namespace {

bool expect(bool Cond, const char *What) {
  std::fprintf(stderr, "perfbench self-test: %s: %s\n",
               Cond ? "ok  " : "FAIL", What);
  return Cond;
}

bool checkCatchesCorruption() {
  Function F = smallCorpus(1, 99, 1, 100, 300).front();
  const uint64_t Ref = referenceFingerprint(F);
  std::string Body =
      ResultCache::serializeResult(runPipeline(F, batchConfig(Scheme::Coalesce)));
  bool Ok = expect(checkBody(Body, Ref).Ok, "the real body passes the check");
  std::string Flipped = corruptBody(Body);
  Ok &= expect(Flipped != Body, "the corruption changes the body");
  Ok &= expect(!checkBody(Flipped, Ref).Ok,
               "a flipped register field fails the check");
  Ok &= expect(!checkBody(Body.substr(0, Body.size() / 2), Ref).Ok,
               "a truncated body fails the check");
  return Ok;
}

bool stallRaisesQueuedLatency() {
  int Sv[2];
  if (socketpair(AF_UNIX, SOCK_STREAM, 0, Sv) != 0)
    return expect(false, "socketpair");
  constexpr int Requests = 5;
  constexpr auto Stall = std::chrono::milliseconds(200);
  constexpr uint64_t SpacingNs = 20'000'000;
  // A fake server that answers in order but holds the first reply.
  std::thread Server([Fd = Sv[1], Stall] {
    for (int I = 0; I != Requests; ++I) {
      std::string Payload;
      if (readFrame(Fd, Payload) != FrameStatus::Ok)
        break;
      if (I == 0)
        std::this_thread::sleep_for(Stall);
      writeFrame(Fd, "reply");
    }
  });
  std::vector<std::string> Payloads(Requests, "request");
  std::vector<uint64_t> Due;
  for (int I = 0; I != Requests; ++I)
    Due.push_back(I * SpacingNs);
  std::vector<Outcome> Out =
      runOpenLoop({Sv[0]}, Payloads, Due, 5'000'000'000ull);
  Server.join();
  ::close(Sv[0]);
  ::close(Sv[1]);

  bool Answered = true, OnSchedule = true, Delayed = true;
  const double StallUs = 200'000;
  for (int I = 0; I != Requests; ++I) {
    Answered &= Out[I].Answered;
    OnSchedule &= Out[I].lagUs() < 15'000;
    // Request I was due I spacings after the first, so it cannot be
    // answered before the stall ends: latency >= stall - I * spacing.
    Delayed &= Out[I].latencyUs() >= StallUs - I * (SpacingNs / 1000.0) - 1000;
  }
  bool Ok = expect(Answered, "every pipelined request is answered");
  Ok &= expect(OnSchedule, "sends stay on schedule during the stall");
  Ok &= expect(Delayed,
               "the stall raises the latency of every request behind it");
  return Ok;
}

} // namespace

int runSelfTests(const Options &) {
  bool Ok = checkCatchesCorruption();
  Ok &= stallRaisesQueuedLatency();
  std::fprintf(stderr, "perfbench self-test: %s\n", Ok ? "passed" : "FAILED");
  return Ok ? 0 : 1;
}

} // namespace perfbench

//===- tests/trace_test.cpp - Request-tracing tests -----------------------===//
//
// Part of the differential-register-allocation reproduction library.
//
// Covers the tracing layer bottom-up: trace-id hex round-trips (strict
// parsing), the splitmix64 id derivation, TraceContext's bounded span
// collection (overflow counts dropped spans instead of growing), the
// Chrome trace-event writer (output must parse back as the schema
// dra-stats --validate-trace enforces), and the server's flight recorder
// (ring eviction, newest-first ordering, slow-request span escalation).
//
//===----------------------------------------------------------------------===//

#include "driver/Json.h"
#include "driver/Trace.h"
#include "server/FlightRecorder.h"

#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

using namespace dra;

namespace {

//===----------------------------------------------------------------------===//
// Trace ids
//===----------------------------------------------------------------------===//

TEST(TraceId, HexRoundTrip) {
  for (uint64_t Id : {1ull, 0xdeadbeefull, 0xffffffffffffffffull,
                      0x0123456789abcdefull}) {
    std::string Hex = traceIdToHex(Id);
    EXPECT_EQ(16u, Hex.size());
    uint64_t Back = 0;
    ASSERT_TRUE(traceIdFromHex(Hex, Back)) << Hex;
    EXPECT_EQ(Id, Back);
  }
  EXPECT_EQ("0000000000000001", traceIdToHex(1));
}

TEST(TraceId, FromHexIsStrict) {
  uint64_t Out = 0;
  EXPECT_FALSE(traceIdFromHex("", Out));
  EXPECT_FALSE(traceIdFromHex("abc", Out));                  // too short
  EXPECT_FALSE(traceIdFromHex("00000000000000012", Out));    // too long
  EXPECT_FALSE(traceIdFromHex("000000000000000G", Out));     // bad charset
  EXPECT_FALSE(traceIdFromHex("000000000000000F", Out));     // uppercase
  EXPECT_TRUE(traceIdFromHex("000000000000000f", Out));
  EXPECT_EQ(0xfu, Out);
}

TEST(TraceId, DeriveIsNonzeroDeterministicAndMixed) {
  std::set<uint64_t> Seen;
  for (uint64_t I = 0; I != 1000; ++I) {
    uint64_t Id = deriveTraceId(42, I);
    EXPECT_NE(0u, Id);
    EXPECT_EQ(Id, deriveTraceId(42, I)); // deterministic
    Seen.insert(Id);
  }
  EXPECT_EQ(1000u, Seen.size()); // no collisions over a small range
  EXPECT_NE(deriveTraceId(42, 0), deriveTraceId(43, 0)); // seed matters
}

//===----------------------------------------------------------------------===//
// TraceContext
//===----------------------------------------------------------------------===//

TEST(TraceContext, RecordsSpansWithDepthAndTid) {
  TraceContext TC(deriveTraceId(1, 0));
  TC.record("request", 100, 200, 0);
  TC.record("compile", 120, 190, 1);
  TC.recordOn(777, "queue_wait", 100, 120, 1);
  ASSERT_EQ(3u, TC.spanCount());
  std::vector<WireSpan> R = TC.records();
  EXPECT_EQ("request", R[0].Name);
  EXPECT_EQ(0u, R[0].Depth);
  EXPECT_EQ(osThreadId(), R[0].Tid);
  EXPECT_EQ(777u, R[2].Tid); // explicit attribution wins
  EXPECT_EQ(100u, R[0].BeginNs);
  EXPECT_EQ(100u, R[0].DurNs);
  EXPECT_EQ(0u, TC.droppedSpans());
}

TEST(TraceContext, OverflowDropsAndCounts) {
  TraceContext TC(1, /*MaxSpans=*/4);
  for (int I = 0; I != 10; ++I)
    TC.record("s", I, I + 1);
  EXPECT_EQ(4u, TC.spanCount());
  EXPECT_EQ(6u, TC.droppedSpans());
}

TEST(TraceContext, ThreadNamesDeduplicateByTid) {
  TraceContext TC(1);
  TC.nameThread(10, "conn-1");
  TC.nameThread(11, "worker-0");
  TC.nameThread(10, "conn-1"); // repeat is a no-op
  EXPECT_EQ(2u, TC.threadNames().size());
}

TEST(TraceContext, ConcurrentRecordingIsSafe) {
  TraceContext TC(1);
  std::vector<std::thread> Threads;
  for (int T = 0; T != 4; ++T)
    Threads.emplace_back([&TC] {
      for (int I = 0; I != 100; ++I)
        TC.record("span", I, I + 1, 2);
    });
  for (std::thread &T : Threads)
    T.join();
  EXPECT_EQ(400u, TC.spanCount());
  EXPECT_EQ(0u, TC.droppedSpans());
}

TEST(TraceContext, ScopedSpanOnNullContextIsANoop) {
  { ScopedTraceSpan Span(nullptr, "nothing", 3); } // must not crash
  TraceContext TC(1);
  { ScopedTraceSpan Span(&TC, "real", 1); }
  ASSERT_EQ(1u, TC.spanCount());
  EXPECT_EQ("real", TC.records()[0].Name);
  std::vector<WireSpan> R = TC.records();
  EXPECT_LE(R[0].BeginNs + R[0].DurNs, steadyClockNs());
}

//===----------------------------------------------------------------------===//
// ChromeTraceWriter
//===----------------------------------------------------------------------===//

TEST(ChromeTraceWriter, OutputParsesBackWithExpectedEvents) {
  std::ostringstream OS;
  ChromeTraceWriter W(OS);
  W.processName(100, "dra-loadgen");
  W.threadName(100, 5, "client-0");
  W.completeEvent(100, 5, "rpc", "client", 0.0, 1234.5,
                  {{"traceid", "00000000000000ff"},
                   {"tier", "miss"},
                   {"insts", 42.0}});
  W.completeEvent(200, 9, "compile", "server", 10.0, 1000.0);
  W.finish();
  EXPECT_EQ(4u, W.eventCount());

  JsonValue Root;
  std::string Err;
  ASSERT_TRUE(parseJson(OS.str(), Root, &Err)) << Err;
  const JsonValue *Events = Root.field("traceEvents");
  ASSERT_NE(nullptr, Events);
  ASSERT_EQ(JsonValue::Array, Events->K);
  ASSERT_EQ(4u, Events->Arr.size());

  const JsonValue &Meta = Events->Arr[0];
  EXPECT_EQ("process_name", Meta.field("name")->Str);
  EXPECT_EQ("M", Meta.field("ph")->Str);
  EXPECT_EQ(100.0, Meta.field("pid")->Num);

  const JsonValue &Rpc = Events->Arr[2];
  EXPECT_EQ("rpc", Rpc.field("name")->Str);
  EXPECT_EQ("X", Rpc.field("ph")->Str);
  EXPECT_EQ(5.0, Rpc.field("tid")->Num);
  EXPECT_EQ(1234.5, Rpc.field("dur")->Num);
  const JsonValue *Args = Rpc.field("args");
  ASSERT_NE(nullptr, Args);
  EXPECT_EQ("00000000000000ff", Args->field("traceid")->Str);
  EXPECT_EQ("miss", Args->field("tier")->Str);
  EXPECT_EQ(JsonValue::Number, Args->field("insts")->K);
  EXPECT_EQ(42.0, Args->field("insts")->Num);
}

TEST(ChromeTraceWriter, EscapesNamesAndEmptyDocumentIsValid) {
  {
    std::ostringstream OS;
    ChromeTraceWriter W(OS);
    W.finish();
    JsonValue Root;
    std::string Err;
    ASSERT_TRUE(parseJson(OS.str(), Root, &Err)) << Err;
    EXPECT_EQ(0u, Root.field("traceEvents")->Arr.size());
  }
  std::ostringstream OS;
  ChromeTraceWriter W(OS);
  W.completeEvent(1, 1, "weird \"name\"\n", "odd \"cat\"", 0, 1);
  W.finish();
  JsonValue Root;
  std::string Err;
  ASSERT_TRUE(parseJson(OS.str(), Root, &Err)) << Err;
  EXPECT_EQ("weird \"name\"\n",
            Root.field("traceEvents")->Arr[0].field("name")->Str);
  EXPECT_EQ("odd \"cat\"",
            Root.field("traceEvents")->Arr[0].field("cat")->Str);
}

//===----------------------------------------------------------------------===//
// FlightRecorder
//===----------------------------------------------------------------------===//

RequestRecord makeRecord(double TotalUs, const char *Outcome = "ok") {
  RequestRecord R;
  R.TraceId = deriveTraceId(7, uint64_t(TotalUs));
  R.Scheme = "coalesce";
  R.Outcome = Outcome;
  R.Tier = "miss";
  R.TotalUs = TotalUs;
  R.Spans.push_back({"request", 1, 0, 0, 1000});
  R.Spans.push_back({"compile", 2, 1, 100, 800});
  R.ThreadNames.push_back({1, "conn-1"});
  return R;
}

TEST(FlightRecorder, KeepsNewestAndAssignsSequence) {
  FlightRecorder FR(/*Capacity=*/8, /*SlowUs=*/1000000);
  for (int I = 1; I <= 20; ++I)
    FR.record(makeRecord(double(I)));
  EXPECT_EQ(20u, FR.recorded());
  std::vector<RequestRecord> R = FR.recent(8);
  ASSERT_EQ(8u, R.size());
  EXPECT_EQ(20u, R.front().Seq); // newest first
  for (size_t I = 1; I != R.size(); ++I)
    EXPECT_GT(R[I - 1].Seq, R[I].Seq);
  // Capacity bounds retention even when asking for more.
  EXPECT_LE(FR.recent(1000).size(), 8u + FlightRecorder::NumShards);
}

TEST(FlightRecorder, SlowRequestsKeepSpanDetail) {
  FlightRecorder FR(/*Capacity=*/16, /*SlowUs=*/500);
  FR.record(makeRecord(10));   // fast: span detail cleared
  FR.record(makeRecord(9000)); // slow: escalated, detail kept
  EXPECT_EQ(1u, FR.slowCount());
  std::vector<RequestRecord> R = FR.recent(2);
  ASSERT_EQ(2u, R.size());
  EXPECT_TRUE(R[0].Slow);
  EXPECT_EQ(2u, R[0].Spans.size());
  EXPECT_EQ(1u, R[0].ThreadNames.size());
  EXPECT_FALSE(R[1].Slow);
  EXPECT_TRUE(R[1].Spans.empty());
  EXPECT_TRUE(R[1].ThreadNames.empty());
}

TEST(FlightRecorder, ZeroCapacityDisablesRetentionButStillCounts) {
  FlightRecorder FR(0, 100);
  EXPECT_FALSE(FR.enabled());
  FR.record(makeRecord(500));
  EXPECT_EQ(1u, FR.recorded());
  EXPECT_EQ(1u, FR.slowCount());
  EXPECT_TRUE(FR.recent(10).empty());
}

TEST(FlightRecorder, ConcurrentRecordersKeepDistinctSequences) {
  FlightRecorder FR(64, 1000000);
  std::vector<std::thread> Threads;
  for (int T = 0; T != 4; ++T)
    Threads.emplace_back([&FR] {
      for (int I = 0; I != 50; ++I)
        FR.record(makeRecord(double(I)));
    });
  for (std::thread &T : Threads)
    T.join();
  EXPECT_EQ(200u, FR.recorded());
  std::vector<RequestRecord> R = FR.recent(64);
  std::set<uint64_t> Seqs;
  for (const RequestRecord &Rec : R)
    Seqs.insert(Rec.Seq);
  EXPECT_EQ(R.size(), Seqs.size()); // no duplicate sequence numbers
}

} // namespace

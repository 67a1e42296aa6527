//===- perfbench/src/Common.cpp - Report, corpora, check, spans ---------===//
//
// Part of the differential-register-allocation reproduction library.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "adt/Rng.h"
#include "driver/ResultCache.h"
#include "driver/Trace.h"
#include "interp/Interpreter.h"
#include "sim/LowEndSim.h"
#include "workloads/MiBench.h"
#include "workloads/ProgramGen.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <numeric>
#include <set>
#include <sstream>
#include <stdexcept>

#include <sys/resource.h>

using namespace dra;

namespace perfbench {

//===----------------------------------------------------------------------===//
// Report and statistics
//===----------------------------------------------------------------------===//

double quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  double Pos = Q * double(V.size() - 1);
  size_t Lo = static_cast<size_t>(Pos);
  size_t Hi = std::min(Lo + 1, V.size() - 1);
  return V[Lo] + (Pos - double(Lo)) * (V[Hi] - V[Lo]);
}

double median(std::vector<double> V) { return quantile(std::move(V), 0.5); }

double mean(const std::vector<double> &V) {
  return V.empty() ? 0 : std::accumulate(V.begin(), V.end(), 0.0) / V.size();
}

double nowSec() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double selfPeakRssMb() {
  struct rusage Ru {};
  getrusage(RUSAGE_SELF, &Ru);
  return double(Ru.ru_maxrss) / 1024.0; // ru_maxrss is KiB on Linux
}

void Report::addPercentiles(const std::string &Name,
                            std::vector<double> Samples,
                            const std::string &Unit) {
  add(Name + ".p50", quantile(Samples, 0.5), Unit);
  add(Name + ".p90", quantile(std::move(Samples), 0.9), Unit);
}

void Report::fail(const std::string &Why) {
  // Report the first few failures; the count says the rest.
  if (Failed < 5)
    std::fprintf(stderr, "perfbench: FAIL: %s\n", Why.c_str());
  ++Failed;
  Correct = false;
}

void Report::printJson() const {
  std::ostringstream OS;
  OS << "{\"correct\": " << (Correct ? "true" : "false")
     << ", \"attempted\": " << Attempted << ", \"failed\": " << Failed
     << ", \"metrics\": {";
  for (size_t I = 0; I != Metrics.size(); ++I) {
    OS << (I ? ", " : "") << "\"" << jsonEscape(Metrics[I].Name)
       << "\": {\"value\": ";
    writeJsonNumber(OS, Metrics[I].Value);
    OS << ", \"unit\": \"" << jsonEscape(Metrics[I].Unit) << "\"}";
  }
  OS << "}}\n";
  std::fputs(OS.str().c_str(), stdout);
  std::fflush(stdout);
}

void printLayerTable(const Report &R, const std::string &Workload) {
  std::fprintf(stderr, "perfbench: per-layer metrics (%s, traced run)\n",
               Workload.c_str());
  for (const Report::Metric &M : R.Metrics)
    std::fprintf(stderr, "  %-34s %16.6g %s\n", M.Name.c_str(), M.Value,
                 M.Unit.c_str());
}

void LayerFigures::addCounters(const PipelineResult &R) {
  AllocRounds += R.Alloc.Iterations;
  OSpillRounds += R.OSpill.Rounds;
  OracleCalls += double(R.Coalesce.OracleCalls);
  Probes += double(R.Coalesce.ProbesAttempted);
  Swaps += double(R.Remap.SwapsEvaluated);
  SlrJoin += double(R.Enc.SetLastJoin);
  SlrRange += double(R.Enc.SetLastRange);
}

void addLayerMetrics(Report &R, const LayerFigures &L) {
  auto Stage = [&](const char *Name) {
    auto It = L.StageS.find(Name);
    return It == L.StageS.end() ? 0.0 : It->second;
  };
  R.add("rpc_p90_us", L.RpcP90Us, "us");
  R.addPercentiles("ir.parse_us", L.Parse, "us");
  R.add("regalloc.alloc_s", Stage("alloc"), "s");
  R.add("regalloc.alloc_rounds", L.AllocRounds, "count");
  R.add("ilp.ospill_s", Stage("ospill"), "s");
  R.add("ilp.ospill_rounds", L.OSpillRounds, "count");
  R.add("core.coalesce_s", Stage("coalesce"), "s");
  R.add("core.coalesce_oracle_calls", L.OracleCalls, "count");
  R.add("core.coalesce_probes", L.Probes, "count");
  R.add("core.recolor_s", Stage("recolor"), "s");
  R.add("core.remap_s", Stage("remap"), "s");
  R.add("core.remap_swaps_evaluated", L.Swaps, "count");
  R.add("core.encode_s", Stage("encode"), "s");
  R.add("core.set_last_join", L.SlrJoin, "count");
  R.add("core.set_last_range", L.SlrRange, "count");
  R.addPercentiles("core.portfolio_us", L.Portfolio, "us");
  R.add("core.portfolio_cancel_ratio", L.CancelRatio, "ratio");
  R.add("driver.batch.busy_ratio", L.BusyRatio, "ratio");
  R.add("driver.batch.max_cell_s", L.MaxCellS, "s");
  R.addPercentiles("driver.cache.key_us", L.KeyUs, "us");
  R.addPercentiles("driver.cache.serialize_us", L.SerializeUs, "us");
  R.addPercentiles("driver.cache.deserialize_us", L.DeserializeUs, "us");
  R.addPercentiles("driver.cache.lookup_us", L.Lookup, "us");
  R.addPercentiles("driver.cache.store_us", L.StoreUs, "us");
  R.add("driver.cache.hit_ratio", L.HitRatio, "ratio");
  R.add("driver.cache.bytes", L.CacheBytes, "bytes");
  R.addPercentiles("server.request_us", L.Request, "us");
  R.addPercentiles("server.compile_us", L.Compile, "us");
  R.addPercentiles("server.queue_wait_us", L.QueueWait, "us");
  R.addPercentiles("server.unattributed_us", L.Unattributed, "us");
  R.addPercentiles("server.transport_us", L.Transport, "us");
  R.addPercentiles("loadgen.lag_us", L.Lag, "us");
  R.add("loadgen.sent", L.Sent, "count");
  R.add("loadgen.completed", L.Completed, "count");
  R.add("trace.overhead_pct", L.OverheadPct, "%");
}

//===----------------------------------------------------------------------===//
// Corpora
//===----------------------------------------------------------------------===//

namespace {

/// The batch corpus: ProgramsPerProfile draws of each MiBench-like
/// profile, each inside a static-size band and a dynamic-size band.
///
/// The paper's MiBench-sized programs (500-4,500 instructions) make one
/// cold corpus compile take minutes (the coalesce stage is superlinear).
/// Thirty programs of 350-450 instructions keep a cold compile of the
/// corpus under all five schemes to a few seconds on four cores with
/// coalesce still the largest stage, and many mid-size programs keep the
/// corpus cost and the quality sums steady across seeds. Loop trip
/// counts are fixed and nesting is capped at two below the outer loop so
/// that, with the dynamic band, no single program dominates the cycle
/// count.
constexpr unsigned ProgramsPerProfile = 3;
constexpr size_t BatchMinInsts = 350, BatchMaxInsts = 450;
constexpr uint64_t BatchMinDyn = 8000, BatchMaxDyn = 25000;
constexpr unsigned BatchTopStatements = 4;
constexpr unsigned MaxDraws = 100000;

/// The shape of every served function: small, but with a hot
/// (high-pressure) region in two of five assignments, so each function
/// spills and needs set_last_reg repairs in many independent places and
/// the corpus-wide quality sums stay steady across seeds. Only the
/// generator seed varies between functions.
ProgramProfile servedProfile() {
  ProgramProfile P;
  P.PressureVars = 6;
  P.TopStatements = 6;
  P.MaxLoopDepth = 2;
  P.BodyStatements = 4;
  P.ExprWidth = 3;
  P.HotPct = 40;
  P.HotWidth = 9;
  P.TripMin = 3;
  P.TripMax = 3;
  P.OuterTrip = 3;
  P.MemWords = 64;
  return P;
}

} // namespace

std::vector<Function> batchCorpus(uint64_t Seed) {
  std::vector<Function> Out;
  const std::vector<std::string> Names = miBenchNames();
  for (size_t I = 0; I != Names.size(); ++I) {
    Rng R(Rng::taskSeed(Seed, I));
    ProgramProfile P = miBenchProfile(Names[I]);
    P.TopStatements = BatchTopStatements;
    P.MaxLoopDepth = std::min(P.MaxLoopDepth, 2u);
    P.TripMin = P.TripMax = 5;
    P.OuterTrip = 4;
    for (unsigned Draw = 0, Got = 0; Got != ProgramsPerProfile; ++Draw) {
      if (Draw == MaxDraws)
        throw std::runtime_error("no program of profile " + Names[I] +
                                 " in the batch size bands");
      P.Seed = R.next();
      Function F = generateProgram(Names[I] + "." + std::to_string(Got), P);
      size_t N = F.numInsts();
      if (N < BatchMinInsts || N > BatchMaxInsts)
        continue;
      ExecResult E = interpret(F);
      if (E.HitStepLimit || E.DynInsts < BatchMinDyn ||
          E.DynInsts > BatchMaxDyn)
        continue;
      Out.push_back(std::move(F));
      ++Got;
    }
  }
  return Out;
}

std::vector<Function> smallCorpus(uint64_t Seed, uint64_t Stream, size_t N,
                                  size_t MinInsts, size_t MaxInsts) {
  Rng R(Rng::taskSeed(Seed, Stream));
  std::vector<Function> Out;
  std::set<std::string> Bodies; // minus the name line: the cache ignores it
  for (unsigned Draw = 0; Out.size() != N; ++Draw) {
    if (Draw == MaxDraws)
      throw std::runtime_error("small corpus band too narrow");
    ProgramProfile P = servedProfile();
    P.Seed = R.next();
    Function F = generateProgram(std::to_string(Out.size()), P);
    size_t Insts = F.numInsts();
    std::string Text = printFunction(F);
    if (Insts < MinInsts || Insts > MaxInsts ||
        !Bodies.insert(Text.substr(Text.find('\n'))).second)
      continue;
    Out.push_back(std::move(F));
  }
  return Out;
}

uint64_t corpusHash(const std::vector<Function> &Fs) {
  uint64_t H = 0xcbf29ce484222325ull;
  for (const Function &F : Fs)
    for (unsigned char C : printFunction(F)) {
      H ^= C;
      H *= 0x100000001b3ull;
    }
  return H;
}

PipelineConfig batchConfig(Scheme S) {
  PipelineConfig C;
  C.S = S;
  C.BaselineK = 8;
  C.Enc = lowEndConfig(12);
  C.Remap.NumStarts = 200;
  return C;
}

//===----------------------------------------------------------------------===//
// Independent output check
//===----------------------------------------------------------------------===//

uint64_t referenceFingerprint(const Function &Src) {
  ExecResult E = interpret(Src);
  if (E.HitStepLimit)
    throw std::runtime_error("reference run of " + Src.Name +
                             " hit the step limit");
  return fingerprint(E);
}

CheckedResult checkResult(const PipelineResult &R, uint64_t RefFp) {
  CheckedResult C;
  SimResult S = simulate(R.F);
  C.SpillInsts = R.SpillInsts;
  C.SetLastRegs = R.SetLastRegs;
  C.CodeBytes = R.CodeBytes;
  C.Cycles = S.Cycles;
  if (S.HitStepLimit)
    C.Why = "generated code hit the simulator step limit";
  else if (S.Fingerprint != RefFp)
    C.Why = "generated code disagrees with the reference interpreter";
  C.Ok = C.Why.empty();
  return C;
}

CheckedResult checkBody(const std::string &Body, uint64_t RefFp) {
  PipelineResult R;
  if (!ResultCache::deserializeResult(Body, R)) {
    CheckedResult C;
    C.Why = "response body does not deserialize";
    return C;
  }
  return checkResult(R, RefFp);
}

std::string corruptBody(const std::string &Body) {
  PipelineResult R;
  if (ResultCache::deserializeResult(Body, R))
    for (auto B = R.F.Blocks.rbegin(); B != R.F.Blocks.rend(); ++B)
      for (Instruction &I : B->Insts)
        if (I.Op == Opcode::Ret && R.F.NumRegs > 1) {
          I.Src1 = (I.Src1 + 1) % R.F.NumRegs;
          return ResultCache::serializeResult(R);
        }
  std::string Bad = Body;
  Bad.resize(Bad.size() / 2);
  return Bad;
}

//===----------------------------------------------------------------------===//
// Span log
//===----------------------------------------------------------------------===//

bool SpanLog::writeChrome(const std::string &Path) const {
  std::ofstream OS(Path);
  if (!OS)
    return false;
  uint64_t Origin = ~uint64_t(0);
  for (const Span &S : Spans)
    Origin = std::min(Origin, S.BeginNs);
  ChromeTraceWriter W(OS);
  std::set<uint64_t> Pids;
  for (const Span &S : Spans)
    Pids.insert(S.Pid);
  for (uint64_t Pid : Pids)
    W.processName(Pid, Pid == osProcessId() ? "perfbench" : "dra-server");
  for (const auto &[Key, Name] : ThreadNames)
    W.threadName(Key.first, Key.second, Name);
  for (const Span &S : Spans)
    W.completeEvent(S.Pid, S.Tid, S.Name, S.Cat.c_str(),
                    double(S.BeginNs - Origin) / 1000.0,
                    double(S.EndNs - S.BeginNs) / 1000.0);
  W.finish();
  return bool(OS);
}

void writeTrace(const Options &O, const SpanLog &Log, Report &R) {
  const std::string Path = O.OutDir + "/" + O.Workload + "-seed" +
                           std::to_string(O.Seed) + ".trace.json";
  if (!Log.writeChrome(Path))
    R.fail("cannot write " + Path);
  else
    std::fprintf(stderr, "perfbench: trace written to %s\n", Path.c_str());
}

} // namespace perfbench

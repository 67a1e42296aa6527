//===- perfbench/src/BatchCold.cpp - batch_cold workload ----------------===//
//
// Part of the differential-register-allocation reproduction library.
//
// The dra-batch path: every corpus program under all five schemes as one
// BatchCompiler::run at Jobs = nproc, with no result cache, repeated for
// the run's time budget. Each round is a cold compile of the same corpus;
// the reported wall time is the median round. A batch "request" is one
// cell, due when the batch starts, so rpc_p50_us / rpc_p75_us are the
// times by which half / three quarters of the cells are done.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "driver/BatchCompiler.h"
#include "driver/ResultCache.h"
#include "driver/Telemetry.h"
#include "driver/Trace.h"

#include <algorithm>
#include <cstdio>
#include <memory>

using namespace dra;

namespace perfbench {

namespace {

const Scheme AllSchemes[] = {Scheme::Baseline, Scheme::OSpill, Scheme::Remap,
                             Scheme::Select, Scheme::Coalesce};

struct Round {
  double WallS = 0;
  std::vector<double> DoneUs; ///< Per cell, from the batch start.
  std::vector<PipelineResult> Results;
};

Round compileRound(BatchCompiler &BC, const std::vector<Function> &Cells,
                   const std::vector<PipelineConfig> &Configs) {
  Round Rd;
  const uint64_t T0 = steadyClockNs();
  Rd.Results = BC.run(Cells, Configs);
  const uint64_t T1 = steadyClockNs();
  Rd.WallS = double(T1 - T0) / 1e9;
  for (const PipelineResult &R : Rd.Results) {
    uint64_t End = T0;
    for (const StageSpan &S : R.Spans)
      End = std::max(End, S.EndNs);
    Rd.DoneUs.push_back(double(End - T0) / 1000.0);
  }
  return Rd;
}

double cellSeconds(const PipelineResult &R) {
  double S = 0;
  for (const StageSpan &Sp : R.Spans)
    if (Sp.Depth == 0)
      S += double(Sp.EndNs - Sp.BeginNs) / 1e9;
  return S;
}

} // namespace

void runBatchCold(const Options &O, Report &R) {
  const size_t NS = std::size(AllSchemes);

  // Set-up: the corpus, its cells and a batch compiler with its pool.
  // No cache anywhere: BatchOptions::Cache and PipelineConfig::Cache stay
  // null, so every round compiles every cell from scratch.
  std::vector<Function> Corpus, Cells;
  std::vector<PipelineConfig> Configs;
  std::unique_ptr<BatchCompiler> BC;
  std::vector<double> SetupS;
  // Set-up takes milliseconds, so it is repeated more often than the
  // serve workloads' to give a steady median.
  for (int I = 0; I != (O.Trace ? 1 : 5); ++I) {
    BC.reset();
    const double T0 = nowSec();
    Corpus = batchCorpus(O.Seed);
    Cells.clear();
    Configs.clear();
    for (const Function &F : Corpus)
      for (Scheme S : AllSchemes) {
        Cells.push_back(F);
        Configs.push_back(batchConfig(S));
      }
    BatchOptions BO;
    BO.Jobs = O.Nproc;
    BC = std::make_unique<BatchCompiler>(BO);
    SetupS.push_back(nowSec() - T0);
  }
  size_t Insts = 0;
  for (const Function &F : Corpus)
    Insts += F.numInsts();
  std::fprintf(stderr,
               "perfbench: batch_cold corpus hash %016llx (%zu programs, "
               "%zu insts, %zu cells, %u jobs)\n",
               static_cast<unsigned long long>(corpusHash(Corpus)),
               Corpus.size(), Insts, Cells.size(), O.Nproc);

  // Timed rounds. The first round's results are the ones checked; every
  // later round must reproduce them byte for byte.
  const double PhaseSec = O.Trace ? O.Seconds / 2 : O.Seconds;
  const int MinRounds = O.Trace ? 1 : 3;
  std::vector<Round> Rounds;
  std::vector<std::string> FirstBytes;
  auto CompareToFirst = [&](const Round &Rd, const char *Phase) {
    for (size_t I = 0; I != Rd.Results.size(); ++I)
      if (ResultCache::serializeResult(Rd.Results[I]) != FirstBytes[I])
        R.fail(std::string(Phase) + " cell " + std::to_string(I) +
               " differs from the first round");
  };
  const double Start = nowSec();
  while (int(Rounds.size()) < MinRounds || nowSec() - Start < PhaseSec) {
    Rounds.push_back(compileRound(*BC, Cells, Configs));
    R.Attempted += Cells.size();
    if (Rounds.size() == 1)
      for (const PipelineResult &Res : Rounds[0].Results)
        FirstBytes.push_back(ResultCache::serializeResult(Res));
    else
      CompareToFirst(Rounds.back(), "timed");
    if (Rounds.size() > 1)
      Rounds.back().Results.clear();
  }
  std::vector<double> Walls, Done;
  for (const Round &Rd : Rounds) {
    Walls.push_back(Rd.WallS);
    Done.insert(Done.end(), Rd.DoneUs.begin(), Rd.DoneUs.end());
  }
  std::fprintf(stderr, "perfbench: %zu untraced round(s), wall_s median %.3f\n",
               Rounds.size(), median(Walls));

  LayerFigures L;
  if (O.Trace) {
    // Traced rounds: allocator-deep counters into a registry, and the
    // batch driver's own task/stage spans into a Telemetry sink.
    MetricsRegistry Reg;
    Telemetry Telem;
    Telem.setProcessName("perfbench");
    BatchOptions BO;
    BO.Jobs = O.Nproc;
    BO.Telem = &Telem;
    BatchCompiler Traced(BO);
    std::vector<PipelineConfig> TConfigs = Configs;
    for (PipelineConfig &C : TConfigs)
      C.Metrics = &Reg;
    SpanLog Log;
    std::vector<double> TWalls;
    const double TStart = nowSec();
    while (TWalls.empty() || nowSec() - TStart < PhaseSec) {
      const uint64_t B = steadyClockNs();
      Round Rd = compileRound(Traced, Cells, TConfigs);
      Log.add("batch.run", osProcessId(), 0, B, steadyClockNs(), "perfbench");
      R.Attempted += Cells.size();
      CompareToFirst(Rd, "traced");
      TWalls.push_back(Rd.WallS);
      double Busy = 0;
      for (const PipelineResult &Res : Rd.Results) {
        double Cell = cellSeconds(Res);
        Busy += Cell;
        L.MaxCellS = std::max(L.MaxCellS, Cell);
        for (const StageSpan &S : Res.Spans)
          if (S.Depth == 0)
            L.StageS[S.Stage] += double(S.EndNs - S.BeginNs) / 1e9;
      }
      L.BusyRatio += Busy / (Rd.WallS * O.Nproc);
    }
    // Per-round figures: average the stage sums, counters and busy ratio
    // over the traced rounds (the counters repeat exactly each round).
    const double N = double(TWalls.size());
    for (auto &[Stage, S] : L.StageS)
      S /= N;
    L.BusyRatio /= N;
    auto Counter = [&](const char *Name) {
      double Sum = 0;
      for (const auto &C : Reg.counters())
        if (C.Name == Name)
          Sum += C.Value;
      return Sum / N;
    };
    L.AllocRounds = Counter("alloc.rounds");
    L.OSpillRounds = Counter("ospill.rounds");
    L.OracleCalls = Counter("coalesce.oracle_calls");
    L.Probes = Counter("coalesce.probes");
    L.Swaps = Counter("remap.swaps_evaluated");
    L.SlrJoin = Counter("encode.set_last_join");
    L.SlrRange = Counter("encode.set_last_range");
    L.OverheadPct = 100.0 * (median(TWalls) / median(Walls) - 1);
    L.RpcP90Us = quantile(Done, 0.9);

    // One Chrome trace: the benchmark's round spans plus the batch
    // driver's task and stage spans, rebased onto the steady clock.
    const uint64_t Origin = Telemetry::steadyNowNs() - Telem.nowUs() * 1000;
    for (const TraceSpan &S : Telem.events()) {
      uint64_t B = Origin + S.BeginUs * 1000;
      Log.add(S.Name, osProcessId(), S.OsTid, B, B + S.DurUs * 1000,
              S.Category ? S.Category : "batch");
    }
    Log.ThreadNames[{osProcessId(), 0}] = "perfbench";
    writeTrace(O, Log, R);
  }

  // Output check, outside the timed phase: each cell of the first round
  // against the reference interpreter's run of its source program.
  std::vector<uint64_t> RefFp(Corpus.size());
  BC->pool().parallelFor(Corpus.size(), [&](size_t I) {
    RefFp[I] = referenceFingerprint(Corpus[I]);
  });
  std::vector<CheckedResult> Checked(Cells.size());
  BC->pool().parallelFor(Cells.size(), [&](size_t I) {
    Checked[I] = O.CorruptOne && I == 0
                     ? checkBody(corruptBody(FirstBytes[I]), RefFp[I / NS])
                     : checkResult(Rounds[0].Results[I], RefFp[I / NS]);
  });
  uint64_t Spill = 0, Slr = 0, Bytes = 0, Cycles = 0;
  for (size_t I = 0; I != Checked.size(); ++I) {
    const CheckedResult &C = Checked[I];
    if (!C.Ok)
      R.fail(Corpus[I / NS].Name + " / " + schemeName(Configs[I].S) + ": " +
             C.Why);
    Spill += C.SpillInsts;
    Slr += C.SetLastRegs;
    Bytes += C.CodeBytes;
    Cycles += C.Cycles;
  }

  if (O.Trace) {
    addLayerMetrics(R, L);
    return;
  }
  R.add("setup_s", median(SetupS), "s");
  R.add("wall_s", median(Walls), "s");
  R.add("rpc_p50_us", quantile(Done, 0.5), "us");
  R.add("rpc_p75_us", quantile(Done, 0.75), "us");
  R.add("peak_rss_mb", selfPeakRssMb(), "MiB");
  R.add("spill_insts", double(Spill), "count");
  R.add("set_last_regs", double(Slr), "count");
  R.add("code_bytes", double(Bytes), "bytes");
  R.add("cycles", double(Cycles), "count");
}

} // namespace perfbench

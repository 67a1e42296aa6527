//===- perfbench/src/Bench.h - Repository benchmark: shared pieces -*- C++ -*-===//
//
// Part of the differential-register-allocation reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Shared infrastructure of the repository benchmark (perfbench): the
/// run options, the metric report printed as the last stdout line, the
/// seeded corpora, the independent output check, the benchmark's own
/// in-memory span log, and the workload entry points.
///
/// The benchmark treats the system as a black box reached through its
/// public calls (BatchCompiler::run, ResultCache, parseFunction) and
/// through the dra-req-v1 protocol of a spawned dra-server. It changes
/// no product code.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include "core/Pipeline.h"
#include "ir/Function.h"

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  /// Corrupt one output before the check (proves the check fails the run).
  bool CorruptOne = false;
  std::string ServerBin; ///< The dra-server binary built beside us.
  std::string OutDir;    ///< Sockets, cache dirs, traces; inside the checkout.
  unsigned Nproc = 1;
};

/// Everything one run prints: the contract's JSON line plus, for traced
/// runs, the per-layer table (stderr) and a Chrome trace file.
struct Report {
  bool Correct = true;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  struct Metric {
    std::string Name;
    double Value;
    std::string Unit;
  };
  std::vector<Metric> Metrics;

  void add(const std::string &Name, double Value, const std::string &Unit) {
    Metrics.push_back({Name, Value, Unit});
  }
  /// Adds Name.p50 and Name.p90 of \p Samples (0 when empty).
  void addPercentiles(const std::string &Name, std::vector<double> Samples,
                      const std::string &Unit);
  /// One failed operation (error, shed, protocol failure or mismatch).
  void fail(const std::string &Why);
  void printJson() const;
};

/// Linear-interpolated quantile \p Q in [0, 1]; 0 for an empty sample.
double quantile(std::vector<double> V, double Q);
double median(std::vector<double> V);
double mean(const std::vector<double> &V);

double nowSec();
/// Peak resident set of this process, MiB.
double selfPeakRssMb();

//===----------------------------------------------------------------------===//
// Corpora (all inputs derive from the workload seed alone)
//===----------------------------------------------------------------------===//

/// batch_cold: a few programs per MiBench-like profile, each a seeded
/// draw whose static and dynamic sizes fall in the corpus bands.
std::vector<dra::Function> batchCorpus(uint64_t Seed);

/// serve_*: \p N small generated functions with distinct bodies, drawn in
/// the [MinInsts, MaxInsts] band. \p Stream separates independent draws.
std::vector<dra::Function> smallCorpus(uint64_t Seed, uint64_t Stream,
                                       size_t N, size_t MinInsts,
                                       size_t MaxInsts);

/// FNV-1a over the printed IR of every function, in order.
uint64_t corpusHash(const std::vector<dra::Function> &Fs);

/// The pipeline configuration of the dra-batch path (BaselineK 8, RegN 12,
/// 200 remap restarts: dra-batch's defaults).
dra::PipelineConfig batchConfig(dra::Scheme S);

//===----------------------------------------------------------------------===//
// Independent output check
//===----------------------------------------------------------------------===//

/// Reference outcome of a source function, from the interpreter (never
/// from the compiler under test).
uint64_t referenceFingerprint(const dra::Function &Src);

/// Quality counts of one checked result.
struct CheckedResult {
  bool Ok = false;
  std::string Why;
  uint64_t SpillInsts = 0, SetLastRegs = 0, CodeBytes = 0, Cycles = 0;
};

/// simulate(R.F).Fingerprint == \p RefFp, on a deserialized result.
CheckedResult checkResult(const dra::PipelineResult &R, uint64_t RefFp);
/// As above from a serialized body (an `ok` response body); a body that
/// does not deserialize fails the check.
CheckedResult checkBody(const std::string &Body, uint64_t RefFp);

/// Rewrites \p Body so the returned register is a different one: the
/// deliberate corruption of the self-test and of --corrupt-one.
std::string corruptBody(const std::string &Body);

//===----------------------------------------------------------------------===//
// The benchmark's own spans (kept in memory, written once at the end)
//===----------------------------------------------------------------------===//

struct SpanLog {
  struct Span {
    std::string Name;
    uint64_t Pid, Tid;
    uint64_t BeginNs, EndNs;
    std::string Cat;
  };
  std::vector<Span> Spans;
  std::map<std::pair<uint64_t, uint64_t>, std::string> ThreadNames;

  void add(std::string Name, uint64_t Pid, uint64_t Tid, uint64_t BeginNs,
           uint64_t EndNs, std::string Cat) {
    Spans.push_back({std::move(Name), Pid, Tid, BeginNs, EndNs,
                     std::move(Cat)});
  }
  /// Writes one Chrome trace; returns false when the file cannot be
  /// written.
  bool writeChrome(const std::string &Path) const;
};

/// Writes a traced run's spans to <OutDir>/<workload>-seed<N>.trace.json.
void writeTrace(const Options &O, const SpanLog &Log, Report &R);

/// Everything a traced run measures, layer by layer. A workload fills
/// what it exercises; the rest reads 0 (e.g. no compile stage runs on
/// serve_hot, no server on batch_cold).
struct LayerFigures {
  /// Σ seconds per pipeline stage (alloc, ospill, coalesce, ...).
  std::map<std::string, double> StageS;
  /// Σ decision counters of the compiles that really ran.
  double AllocRounds = 0, OSpillRounds = 0, OracleCalls = 0, Probes = 0,
         Swaps = 0, SlrJoin = 0, SlrRange = 0;
  /// Per-request samples, µs.
  std::vector<double> Parse, Lookup, Request, Compile, QueueWait,
      Unattributed, Transport, Lag, Rpc, Portfolio, KeyUs, SerializeUs,
      DeserializeUs, StoreUs;
  double CancelRatio = 0, BusyRatio = 0, MaxCellS = 0, HitRatio = 0,
         CacheBytes = 0, Sent = 0, Completed = 0, OverheadPct = 0;
  /// The untraced phase's 90th-percentile rpc latency: reported, not
  /// gated (see README.md, "End-to-end metrics").
  double RpcP90Us = 0;

  void addCounters(const dra::PipelineResult &R);
};

/// Adds every per-layer metric of BENCHMARK.json, in its order.
void addLayerMetrics(Report &R, const LayerFigures &L);

/// Prints the per-layer table of a traced run to stderr.
void printLayerTable(const Report &R, const std::string &Workload);

//===----------------------------------------------------------------------===//
// Workloads
//===----------------------------------------------------------------------===//

void runBatchCold(const Options &O, Report &R);
void runServeHot(const Options &O, Report &R);
void runServeMiss(const Options &O, Report &R);
/// Returns the process exit status (0 = every self-test passed).
int runSelfTests(const Options &O);

} // namespace perfbench

#endif // PERFBENCH_BENCH_H

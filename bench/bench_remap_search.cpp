//===- bench/bench_remap_search.cpp - Remap search arm comparison ---------===//
//
// Microbenchmark and acceptance harness for the incremental/parallel
// multi-start remap search (core/Remap.cpp) against the reference arms of
// RemapReference.h. Three modes:
//
//  * default: times the full-recost (integer weights only), incident-walk,
//    incremental and borrowed-pool arms on lowEndConfig(12)
//    over a fractional-weight graph at the default 1000 starts, and on a
//    dense RegN 64 integer-weight graph, and prints a swaps/second table
//    (all arms evaluate the identical swap sequence, so the rate compares
//    pure evaluation throughput). Each arm repeats for at least 0.5 s and
//    reports its median run;
//
//  * --corpus=DIR: compiles every .dra file to physical registers and
//    checks that the incremental search — alone and borrowing a pool of
//    1, 2, 4, and 8 workers — returns a RemapResult
//    bit-identical to the incident-walk reference arm, permutation, costs,
//    and stats included. Exits 1 on the first divergence; runs as the
//    `bench_remap_corpus_identity` ctest;
//
//  * --perf-out=DIR: writes one file per (graph, arm), each carrying the
//    *same* unlabeled gauge keys (remap.swaps_evaluated_per_sec, ...). With
//    that key, `dra-stats --fail-on=KEY:-80 remap_perf_incremental.json
//    remap_perf_full.json` fails unless the incremental arm is more than
//    5x the full-recost baseline on the RegN 64 graph, and
//    `dra-stats --fail-on=KEY:-67 remap_perf_lowend_incremental.json
//    remap_perf_lowend_incident.json` fails unless it is more than 3x the
//    incident walk on the low-end graph, both on the same machine and run.
//
//===----------------------------------------------------------------------===//

#include "RemapReference.h"
#include "SuiteRunner.h"

#include "core/Remap.h"
#include "driver/ThreadPool.h"
#include "ir/Parser.h"
#include "regalloc/GraphColoring.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

using namespace dra;

namespace {

/// Field-by-field RemapResult comparison. The delta-arc counters are
/// excluded: the reference arm leaves them zero by design.
bool sameResult(const RemapResult &A, const RemapResult &B,
                std::string &Why) {
  auto Fail = [&](const char *Field) {
    Why = std::string("field ") + Field + " differs";
    return false;
  };
  if (A.Perm != B.Perm)
    return Fail("Perm");
  if (A.CostBefore != B.CostBefore)
    return Fail("CostBefore");
  if (A.CostAfter != B.CostAfter)
    return Fail("CostAfter");
  if (A.Exhaustive != B.Exhaustive)
    return Fail("Exhaustive");
  if (A.StartsRun != B.StartsRun)
    return Fail("StartsRun");
  if (A.StartsCutOff != B.StartsCutOff)
    return Fail("StartsCutOff");
  if (A.SwapsEvaluated != B.SwapsEvaluated)
    return Fail("SwapsEvaluated");
  if (A.SwapsApplied != B.SwapsApplied)
    return Fail("SwapsApplied");
  return true;
}

/// Acceptance mode: every corpus function, compiled to physical registers,
/// must remap identically under the legacy reference and the incremental
/// search, alone and helped by a borrowed pool of every size.
int runCorpusIdentity(const std::string &Dir) {
  namespace fs = std::filesystem;
  std::vector<std::string> Files;
  std::error_code EC;
  for (const auto &Entry : fs::directory_iterator(Dir, EC))
    if (Entry.path().extension() == ".dra")
      Files.push_back(Entry.path().string());
  if (EC || Files.empty()) {
    std::fprintf(stderr, "error: no .dra files under '%s'\n", Dir.c_str());
    return 2;
  }
  std::sort(Files.begin(), Files.end());

  const unsigned JobCounts[] = {1, 2, 4, 8};
  std::vector<std::unique_ptr<ThreadPool>> Pools;
  for (unsigned Jobs : JobCounts)
    Pools.push_back(std::make_unique<ThreadPool>(Jobs));
  size_t Checked = 0;
  for (const std::string &Path : Files) {
    std::ifstream In(Path);
    std::string Text(std::istreambuf_iterator<char>(In),
                     std::istreambuf_iterator<char>{});
    std::string Err;
    auto Parsed = parseFunction(Text, &Err);
    if (!Parsed) {
      std::fprintf(stderr, "error: %s: %s\n", Path.c_str(), Err.c_str());
      return 2;
    }
    allocateGraphColoring(*Parsed, 12);
    EncodingConfig C = lowEndConfig(12);

    // The graph remapFunction builds: the full RegN universe, weighted by
    // static execution frequency.
    Function Widened = *Parsed;
    Widened.NumRegs = C.RegN;
    Widened.recomputeCFG();
    AdjacencyGraph G =
        AdjacencyGraph::build(Widened, C, WeightMode::Frequency);
    RemapOptions Ref;
    Ref.NumStarts = 64;
    RemapResult RL = findRemapReference(G, C, Ref);
    Function FL = *Parsed;
    applyPermutation(FL, RL.Perm);
    FL.NumRegs = C.RegN;

    // Index 0 runs the search alone; index I > 0 borrows Pools[I - 1].
    for (size_t I = 0; I != std::size(JobCounts) + 1; ++I) {
      unsigned Jobs = I ? JobCounts[I - 1] : 1;
      RemapOptions O;
      O.NumStarts = 64;
      if (I)
        O.Pool = Pools[I - 1].get();
      const char *Arm = I ? "borrowed" : "incremental";
      Function FI = *Parsed;
      RemapResult RI = remapFunction(FI, C, O);
      std::string Why;
      if (!sameResult(RL, RI, Why)) {
        std::fprintf(stderr, "MISMATCH: %s: %s jobs=%u vs reference: %s\n",
                     Path.c_str(), Arm, Jobs, Why.c_str());
        return 1;
      }
      if (printFunction(FL) != printFunction(FI)) {
        std::fprintf(stderr,
                     "MISMATCH: %s: remapped function differs (%s jobs=%u)\n",
                     Path.c_str(), Arm, Jobs);
        return 1;
      }
      ++Checked;
    }
  }
  std::printf("corpus identity: %zu file(s) x (alone + %zu borrowed pool "
              "sizes), %zu comparisons, all bit-identical\n",
              Files.size(), std::size(JobCounts), Checked);
  return 0;
}

/// Writes one arm's measurements as unlabeled gauges (identical keys in
/// both files so dra-stats pairs them).
bool writePerfFile(const std::string &Path, const RemapSearchPerf &P) {
  MetricsRegistry Reg;
  Reg.gauge("remap.search_seconds", P.Seconds);
  Reg.gauge("remap.swaps_evaluated", P.SwapsEvaluated);
  Reg.gauge("remap.swaps_evaluated_per_sec", P.SwapsPerSec);
  Reg.gauge("remap.cost_after", P.CostAfter);
  Reg.gauge("remap.regn", static_cast<double>(P.RegN));
  std::string Err;
  if (!Reg.writeJsonFile(Path, &Err)) {
    std::fprintf(stderr, "error: %s\n", Err.c_str());
    return false;
  }
  std::printf("wrote %s (%s arm, %.3g swaps/s)\n", Path.c_str(),
              P.Arm.c_str(), P.SwapsPerSec);
  return true;
}

/// Finds arm \p Arm at Jobs 1 in \p Perf.
const RemapSearchPerf *findArm(const std::vector<RemapSearchPerf> &Perf,
                               const char *Arm) {
  for (const RemapSearchPerf &P : Perf)
    if (P.Arm == Arm && P.Jobs == 1)
      return &P;
  return nullptr;
}

int runPerfOut(const std::string &Dir) {
  namespace fs = std::filesystem;
  std::error_code EC;
  fs::create_directories(Dir, EC);
  struct PerfFile {
    const char *Name;
    const std::vector<RemapSearchPerf> *Perf;
    const char *Arm;
  };
  std::vector<RemapSearchPerf> Dense =
      measureRemapSearch(denseIntegerRemapCase(64), 24, {});
  std::vector<RemapSearchPerf> LowEnd =
      measureRemapSearch(lowEndFractionalRemapCase(), 1000, {});
  const PerfFile Files[] = {
      {"remap_perf_full.json", &Dense, "full-recost"},
      {"remap_perf_incremental.json", &Dense, "incremental"},
      {"remap_perf_lowend_incident.json", &LowEnd, "incident"},
      {"remap_perf_lowend_incremental.json", &LowEnd, "incremental"}};
  for (const auto *Perf : {&Dense, &LowEnd})
    for (const RemapSearchPerf &P : *Perf)
      if (!P.MatchesReference) {
        std::fprintf(stderr, "error: arm %s diverged from reference\n",
                     P.Arm.c_str());
        return 1;
      }
  for (const PerfFile &F : Files) {
    const RemapSearchPerf *P = findArm(*F.Perf, F.Arm);
    if (!P || !writePerfFile((fs::path(Dir) / F.Name).string(), *P))
      return 1;
  }
  std::printf("incremental/full speedup (RegN 64): %.1fx\n",
              findArm(Dense, "incremental")->SwapsPerSec /
                  findArm(Dense, "full-recost")->SwapsPerSec);
  std::printf("incremental/incident speedup (low-end): %.1fx\n",
              findArm(LowEnd, "incremental")->SwapsPerSec /
                  findArm(LowEnd, "incident")->SwapsPerSec);
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  std::string Corpus, PerfOut;
  for (int I = 1; I != Argc; ++I) {
    std::string Arg = Argv[I];
    if (Arg.rfind("--corpus=", 0) == 0)
      Corpus = Arg.substr(std::strlen("--corpus="));
    else if (Arg.rfind("--perf-out=", 0) == 0)
      PerfOut = Arg.substr(std::strlen("--perf-out="));
    else {
      std::fprintf(stderr,
                   "usage: bench_remap_search [--corpus=DIR | "
                   "--perf-out=DIR]\n");
      return 2;
    }
  }
  if (!Corpus.empty())
    return runCorpusIdentity(Corpus);
  if (!PerfOut.empty())
    return runPerfOut(PerfOut);

  std::printf("Remap search arms (multi-start greedy descent; identical "
              "swap sequences, so swaps/s is evaluation throughput)\n");
  struct Row {
    const char *Graph;
    RemapBenchCase Case;
    unsigned NumStarts;
  };
  const Row Rows[] = {{"low-end frac", lowEndFractionalRemapCase(), 1000},
                      {"dense int", denseIntegerRemapCase(64), 24}};
  for (const Row &R : Rows) {
    std::vector<RemapSearchPerf> Perf =
        measureRemapSearch(R.Case, R.NumStarts, {2, 4});
    double Baseline = Perf.front().SwapsPerSec;
    for (const RemapSearchPerf &P : Perf) {
      std::printf("  %-12s RegN %2u  %-12s jobs %u  %9.0f swaps in %7.3fs "
                  "(median of %3u)  %12.0f swaps/s  (%5.1fx)  cost %g%s\n",
                  R.Graph, P.RegN, P.Arm.c_str(), P.Jobs, P.SwapsEvaluated,
                  P.Seconds, P.Runs, P.SwapsPerSec,
                  P.SwapsPerSec / Baseline, P.CostAfter,
                  P.MatchesReference ? "" : "  DIVERGED!");
      if (!P.MatchesReference)
        return 1;
    }
  }
  return 0;
}

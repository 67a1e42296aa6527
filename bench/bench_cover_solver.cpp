//===- bench/bench_cover_solver.cpp - Cover-ILP search throughput ---------===//
//
// Times the incremental branch-and-bound search (`solveCover`) against the
// full-rescan reference (`solveCoverReference`) on the first-round spill
// ILPs of every MiBench program, both arms in the same run on the same
// machine at the pipeline's node budget (20,000). Every instance is
// checked: both arms must return the same selection, the same TotalCost
// bits, the same Optimal flag and the same node count, so the ratio is
// pure per-node cost.
//
// Modes:
//  * default: prints one row per instance and the two arms' node rates;
//  * --perf-out=DIR: also writes ilp_perf_incremental.json and
//    ilp_perf_reference.json carrying the same unlabeled gauge keys, so
//      dra-stats --fail-on=ilp.nodes_per_sec:-50
//          ilp_perf_incremental.json ilp_perf_reference.json
//    fails unless the incremental arm is more than 2x the reference.
//
// Exit status: 0 when every instance matched, 1 on any mismatch or write
// error, 2 on a bad argument.
//
//===----------------------------------------------------------------------===//

#include "CoverReference.h"

#include "driver/Metrics.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

using namespace dra;

namespace {

constexpr uint64_t NodeBudget = 20000;

/// FNV-1a over everything a solve returns that must match bit for bit.
uint64_t solutionChecksum(uint64_t H, const CoverSolution &S) {
  auto Mix = [&](uint64_t V) {
    H ^= V;
    H *= 1099511628211ull;
  };
  for (uint8_t B : S.Selected)
    Mix(B);
  uint64_t Bits;
  std::memcpy(&Bits, &S.TotalCost, sizeof Bits);
  Mix(Bits);
  Mix(S.Optimal);
  Mix(S.NodesExplored);
  return H;
}

struct ArmPerf {
  double Seconds = 0; ///< Best (minimum) pass over all instances.
  uint64_t Nodes = 0; ///< Nodes of one pass.
  double nodesPerSec() const { return Seconds > 0 ? Nodes / Seconds : 0; }
};

using SolveFn = CoverSolution (*)(const CoverProblem &, uint64_t);

/// One pass of \p Solve over \p Work; returns its wall time and records
/// the node total and per-instance outcomes.
double timePass(const std::vector<NamedCoverProblem> &Work, SolveFn Solve,
                ArmPerf &Perf, std::vector<CoverSolution> &Sols) {
  Perf.Nodes = 0;
  Sols.clear();
  auto Begin = std::chrono::steady_clock::now();
  for (const NamedCoverProblem &W : Work)
    Sols.push_back(Solve(W.ILP, NodeBudget));
  double Secs = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - Begin)
                    .count();
  for (const CoverSolution &S : Sols)
    Perf.Nodes += S.NodesExplored;
  return Secs;
}

bool writePerfFile(const std::string &Path, const ArmPerf &P) {
  MetricsRegistry Reg;
  Reg.gauge("ilp.nodes_per_sec", P.nodesPerSec());
  Reg.gauge("ilp.nodes", static_cast<double>(P.Nodes));
  Reg.gauge("ilp.solve_seconds", P.Seconds);
  std::string Err;
  if (!Reg.writeJsonFile(Path, &Err)) {
    std::fprintf(stderr, "error: %s\n", Err.c_str());
    return false;
  }
  std::printf("wrote %s\n", Path.c_str());
  return true;
}

} // namespace

int main(int Argc, char **Argv) {
  std::string PerfOut;
  for (int I = 1; I != Argc; ++I) {
    std::string Arg = Argv[I];
    if (Arg.rfind("--perf-out=", 0) == 0) {
      PerfOut = Arg.substr(std::strlen("--perf-out="));
    } else {
      std::fprintf(stderr, "usage: bench_cover_solver [--perf-out=DIR]\n");
      return 2;
    }
  }

  std::vector<NamedCoverProblem> Work = miBenchSpillProblems();
  std::printf("cover ILP search: %zu MiBench spill instance(s), node "
              "budget %llu\n\n",
              Work.size(), static_cast<unsigned long long>(NodeBudget));

  // Alternate the arms and keep each one's fastest pass.
  const int Passes = 3;
  ArmPerf Inc, Ref;
  Inc.Seconds = Ref.Seconds = 1e300;
  std::vector<CoverSolution> IncSols, RefSols;
  for (int Pass = 0; Pass != Passes; ++Pass) {
    Inc.Seconds =
        std::min(Inc.Seconds, timePass(Work, solveCover, Inc, IncSols));
    Ref.Seconds = std::min(
        Ref.Seconds, timePass(Work, solveCoverReference, Ref, RefSols));
  }

  std::printf("%-20s %6s %6s %8s %9s %s\n", "instance", "vars", "cons",
              "nodes", "optimal", "match");
  bool AllMatch = true;
  for (size_t I = 0; I != Work.size(); ++I) {
    const CoverSolution &A = IncSols[I], &B = RefSols[I];
    bool Match = solutionChecksum(0, A) == solutionChecksum(0, B);
    AllMatch &= Match;
    std::printf("%-20s %6zu %6zu %8llu %9s %s\n", Work[I].Name.c_str(),
                Work[I].ILP.Cost.size(), Work[I].ILP.Constraints.size(),
                static_cast<unsigned long long>(A.NodesExplored),
                A.Optimal ? "proven" : "budget", Match ? "yes" : "NO");
  }
  AllMatch &= Inc.Nodes == Ref.Nodes;

  std::printf("\n%-12s %10s %10s %14s\n", "arm", "nodes", "seconds",
              "nodes/s");
  for (auto [Name, P] : {std::pair<const char *, const ArmPerf *>{
                             "incremental", &Inc},
                         {"reference", &Ref}})
    std::printf("%-12s %10llu %10.4f %14.0f\n", Name,
                static_cast<unsigned long long>(P->Nodes), P->Seconds,
                P->nodesPerSec());
  std::printf("speedup %.2fx\n", Inc.nodesPerSec() / Ref.nodesPerSec());
  if (!AllMatch) {
    std::fprintf(stderr, "error: incremental search differs from the "
                         "reference\n");
    return 1;
  }
  std::printf("all bit-identical\n");

  if (!PerfOut.empty()) {
    namespace fs = std::filesystem;
    std::error_code EC;
    fs::create_directories(PerfOut, EC);
    if (!writePerfFile((fs::path(PerfOut) / "ilp_perf_incremental.json")
                           .string(),
                       Inc) ||
        !writePerfFile(
            (fs::path(PerfOut) / "ilp_perf_reference.json").string(), Ref))
      return 1;
  }
  return 0;
}

//===- bench/CoverReference.h - Reference cover-ILP search ------*- C++ -*-===//
//
// Part of the differential-register-allocation reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The non-incremental branch-and-bound search for 0-1 covering ILPs, kept
/// beside its only users — the ILP tests and bench_cover_solver — as the
/// bit-identity reference for `solveCover` and as its throughput baseline.
/// Every node allocates its own trail, re-sorts the free costs of every
/// unmet constraint for the bound, rescans every constraint (twice) to
/// propagate, and recounts unmet constraints per variable to branch.
///
/// It explores the same tree as `solveCover` in the same order: on every
/// instance `Selected`, the bits of `TotalCost`, `Optimal` and
/// `NodesExplored` agree.
///
//===----------------------------------------------------------------------===//

#ifndef DRA_BENCH_COVERREFERENCE_H
#define DRA_BENCH_COVERREFERENCE_H

#include "ilp/CoverSolver.h"

#include <string>
#include <vector>

namespace dra {

/// solveCover with the reference (full-rescan) search.
CoverSolution solveCoverReference(const CoverProblem &P,
                                  uint64_t NodeBudget = 200000);

/// A spill ILP and where it came from.
struct NamedCoverProblem {
  std::string Name; ///< "<program>/k<K>".
  CoverProblem ILP;
};

/// The first-round spill ILPs optimalSpill builds for every MiBench
/// program at K = 8 (the O-spill arm's baseline registers) and K = 12 (the
/// coalesce arm's low-end RegN): the real instances both solvers are
/// compared and timed on.
std::vector<NamedCoverProblem> miBenchSpillProblems();

} // namespace dra

#endif // DRA_BENCH_COVERREFERENCE_H

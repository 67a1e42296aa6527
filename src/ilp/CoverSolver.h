//===- ilp/CoverSolver.h - 0-1 covering ILP solver --------------*- C++ -*-===//
//
// Part of the differential-register-allocation reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A budgeted branch-and-bound solver for 0-1 covering integer programs:
///
///     minimize    sum_j Cost[j] * x_j
///     subject to  sum_{j in Vars_i} x_j >= Need_i     for every constraint i
///     x_j in {0, 1}
///
/// The optimal-spill register allocator (Appel & George, PLDI 2001 — the
/// paper's third pipeline) expresses "at every program point at most K live
/// ranges may stay in registers" in exactly this shape: each program point
/// with pressure P > K contributes a constraint "spill at least P - K of the
/// ranges live here". The paper used CPLEX; we substitute a depth-first
/// branch-and-bound search seeded with a greedy multicover incumbent. Each
/// node propagates forced selections, prunes when the costliest single
/// constraint's cheapest completion cannot beat the incumbent, and
/// otherwise branches x = 1 then x = 0 on the free variable covering the
/// most unmet constraints per unit cost. That bound is weak on large
/// instances, so most large spill ILPs exhaust the node budget: the result
/// is then the best cover found (usually the greedy one) with
/// Optimal = false. Only some small instances are proven optimal.
///
/// No node allocates, sorts, or rescans every constraint to propagate.
/// Two invariants keep that exact: the search visits the same nodes in the
/// same order, with the same sums, as the full-rescan search kept in
/// bench/CoverReference.h.
///
///  * Selecting a variable leaves every constraint's slack
///    (free variables minus remaining demand) unchanged. So only the
///    constraints of a just-excluded variable can become tight, and one
///    propagation pass over them reaches the fixpoint.
///  * Each constraint's variables are sorted by cost once. Walking the
///    free ones in that order yields the cheapest remaining costs in
///    ascending order, so the bound adds the same values in the same order
///    as sorting the free costs at every node would.
///
//===----------------------------------------------------------------------===//

#ifndef DRA_ILP_COVERSOLVER_H
#define DRA_ILP_COVERSOLVER_H

#include <cstdint>
#include <vector>

namespace dra {

/// One covering constraint: at least \p Need of the listed variables must be
/// selected. Duplicate variable indices are not allowed.
struct CoverConstraint {
  std::vector<uint32_t> Vars;
  int Need = 0;
};

/// A covering ILP instance.
struct CoverProblem {
  /// Positive selection cost per variable.
  std::vector<double> Cost;
  std::vector<CoverConstraint> Constraints;
};

/// Solver output.
struct CoverSolution {
  /// Selected[j] == 1 iff variable j is chosen.
  std::vector<uint8_t> Selected;
  double TotalCost = 0;
  /// Cost of the greedy multicover that seeded the search.
  double GreedyCost = 0;
  /// True if the search proved optimality before exhausting the budget.
  bool Optimal = false;
  /// Branch-and-bound nodes explored.
  uint64_t NodesExplored = 0;
};

/// Solves \p P. Every constraint must be satisfiable (Need <= Vars.size());
/// this is asserted. \p NodeBudget bounds the branch-and-bound search.
CoverSolution solveCover(const CoverProblem &P, uint64_t NodeBudget = 200000);

} // namespace dra

#endif // DRA_ILP_COVERSOLVER_H

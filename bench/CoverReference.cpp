//===- bench/CoverReference.cpp - Reference cover-ILP search --------------===//

#include "CoverReference.h"

#include "core/OptimalSpill.h"
#include "workloads/MiBench.h"

#include <algorithm>
#include <cassert>
#include <limits>

using namespace dra;

namespace {

/// Mutable search state for the branch-and-bound.
class Search {
public:
  Search(const CoverProblem &P, uint64_t NodeBudget)
      : P(P), NodeBudget(NodeBudget) {
    size_t NumVars = P.Cost.size();
    VarState.assign(NumVars, Free);
    Remaining.resize(P.Constraints.size());
    FreeCount.resize(P.Constraints.size());
    ConstraintsOf.assign(NumVars, {});
    for (uint32_t C = 0; C != P.Constraints.size(); ++C) {
      const CoverConstraint &Con = P.Constraints[C];
      assert(Con.Need <= static_cast<int>(Con.Vars.size()) &&
             "unsatisfiable constraint");
      Remaining[C] = Con.Need;
      FreeCount[C] = static_cast<int>(Con.Vars.size());
      for (uint32_t V : Con.Vars) {
        assert(V < NumVars && "variable index out of range");
        ConstraintsOf[V].push_back(C);
      }
    }
    Best.Selected.assign(NumVars, 0);
    Best.TotalCost = std::numeric_limits<double>::infinity();
  }

  CoverSolution run() {
    seedGreedyIncumbent();
    double GreedyCost = Best.TotalCost;
    Exhausted = false;
    dfs(0.0);
    CoverSolution Out;
    Out.Selected = Best.Selected;
    Out.TotalCost = Best.TotalCost;
    Out.GreedyCost = GreedyCost;
    Out.Optimal = !Exhausted;
    Out.NodesExplored = Nodes;
    return Out;
  }

private:
  enum State : uint8_t { Free, In, Out };

  const CoverProblem &P;
  uint64_t NodeBudget;
  uint64_t Nodes = 0;
  bool Exhausted = false;

  std::vector<uint8_t> VarState;
  std::vector<int> Remaining; // Unmet demand per constraint.
  std::vector<int> FreeCount; // Free variables per constraint.
  std::vector<std::vector<uint32_t>> ConstraintsOf;

  struct Incumbent {
    std::vector<uint8_t> Selected;
    double TotalCost;
  } Best;

  /// Greedy multicover: repeatedly select the variable with the highest
  /// unmet-demand coverage per unit cost. Establishes the initial upper
  /// bound (and guarantees a feasible answer even if the budget runs out).
  void seedGreedyIncumbent() {
    std::vector<int> Need(Remaining);
    std::vector<uint8_t> Chosen(P.Cost.size(), 0);
    double Total = 0;
    for (;;) {
      bool AnyUnmet = false;
      for (int N : Need)
        AnyUnmet |= N > 0;
      if (!AnyUnmet)
        break;
      double BestScore = -1;
      uint32_t BestVar = ~0u;
      for (uint32_t V = 0; V != P.Cost.size(); ++V) {
        if (Chosen[V])
          continue;
        int Covers = 0;
        for (uint32_t C : ConstraintsOf[V])
          Covers += Need[C] > 0;
        if (Covers == 0)
          continue;
        double Score = static_cast<double>(Covers) /
                       std::max(P.Cost[V], 1e-9);
        if (Score > BestScore) {
          BestScore = Score;
          BestVar = V;
        }
      }
      assert(BestVar != ~0u && "greedy stuck on satisfiable instance");
      Chosen[BestVar] = 1;
      Total += P.Cost[BestVar];
      for (uint32_t C : ConstraintsOf[BestVar])
        --Need[C];
    }
    Best.Selected = Chosen;
    Best.TotalCost = Total;
  }

  /// Admissible lower bound on the extra cost needed from the current
  /// partial assignment: the most expensive single constraint to finish
  /// (cheapest Remaining[C] free variables within it).
  double lowerBound() const {
    double Bound = 0;
    std::vector<double> Costs;
    for (uint32_t C = 0; C != P.Constraints.size(); ++C) {
      if (Remaining[C] <= 0)
        continue;
      Costs.clear();
      for (uint32_t V : P.Constraints[C].Vars)
        if (VarState[V] == Free)
          Costs.push_back(P.Cost[V]);
      std::sort(Costs.begin(), Costs.end());
      double Sum = 0;
      for (int I = 0; I != Remaining[C]; ++I)
        Sum += Costs[static_cast<size_t>(I)];
      Bound = std::max(Bound, Sum);
    }
    return Bound;
  }

  bool selectVar(uint32_t V, std::vector<uint32_t> &Trail) {
    VarState[V] = In;
    Trail.push_back(V);
    for (uint32_t C : ConstraintsOf[V]) {
      --Remaining[C];
      --FreeCount[C];
    }
    return true;
  }

  /// Excludes \p V; returns false if some constraint became unsatisfiable
  /// (the state change is still fully applied and must be undone by the
  /// caller via the trail).
  bool excludeVar(uint32_t V, std::vector<uint32_t> &Trail) {
    VarState[V] = Out;
    Trail.push_back(V);
    bool Feasible = true;
    for (uint32_t C : ConstraintsOf[V]) {
      --FreeCount[C];
      Feasible &= FreeCount[C] >= Remaining[C];
    }
    return Feasible;
  }

  void undo(std::vector<uint32_t> &Trail, size_t From) {
    for (size_t I = Trail.size(); I > From; --I) {
      uint32_t V = Trail[I - 1];
      bool WasIn = VarState[V] == In;
      VarState[V] = Free;
      for (uint32_t C : ConstraintsOf[V]) {
        ++FreeCount[C];
        if (WasIn)
          ++Remaining[C];
      }
    }
    Trail.resize(From);
  }

  /// Unit propagation: constraints whose remaining demand equals their free
  /// count force all their free variables in. Returns false on conflict.
  bool propagate(std::vector<uint32_t> &Trail, double &Cost) {
    bool Progress = true;
    while (Progress) {
      Progress = false;
      for (uint32_t C = 0; C != P.Constraints.size(); ++C) {
        if (Remaining[C] <= 0)
          continue;
        if (FreeCount[C] < Remaining[C])
          return false;
        if (FreeCount[C] != Remaining[C])
          continue;
        for (uint32_t V : P.Constraints[C].Vars) {
          if (VarState[V] != Free)
            continue;
          selectVar(V, Trail);
          Cost += P.Cost[V];
          Progress = true;
        }
      }
    }
    return true;
  }

  bool allSatisfied() const {
    for (int N : Remaining)
      if (N > 0)
        return false;
    return true;
  }

  void recordIncumbent(double Cost) {
    if (Cost >= Best.TotalCost)
      return;
    Best.TotalCost = Cost;
    for (uint32_t V = 0; V != VarState.size(); ++V)
      Best.Selected[V] = VarState[V] == In;
  }

  /// Picks the free variable covering the most unmet constraints per unit
  /// cost; returns ~0u when no unmet constraint has free variables.
  uint32_t pickBranchVar() const {
    double BestScore = -1;
    uint32_t BestVar = ~0u;
    for (uint32_t V = 0; V != VarState.size(); ++V) {
      if (VarState[V] != Free)
        continue;
      int Covers = 0;
      for (uint32_t C : ConstraintsOf[V])
        Covers += Remaining[C] > 0;
      if (Covers == 0)
        continue;
      double Score =
          static_cast<double>(Covers) / std::max(P.Cost[V], 1e-9);
      if (Score > BestScore) {
        BestScore = Score;
        BestVar = V;
      }
    }
    return BestVar;
  }

  void dfs(double Cost) {
    if (++Nodes > NodeBudget) {
      Exhausted = true;
      return;
    }
    std::vector<uint32_t> Trail;
    double LocalCost = Cost;
    if (!propagate(Trail, LocalCost)) {
      undo(Trail, 0);
      return;
    }
    if (LocalCost + lowerBound() >= Best.TotalCost - 1e-12) {
      // Even finishing optimally cannot beat the incumbent.
      if (allSatisfied())
        recordIncumbent(LocalCost);
      undo(Trail, 0);
      return;
    }
    if (allSatisfied()) {
      recordIncumbent(LocalCost);
      undo(Trail, 0);
      return;
    }
    uint32_t V = pickBranchVar();
    if (V == ~0u) {
      // Unmet constraints but no free vars: infeasible branch.
      undo(Trail, 0);
      return;
    }

    // Branch x_V = 1.
    size_t Mark = Trail.size();
    selectVar(V, Trail);
    dfs(LocalCost + P.Cost[V]);
    undo(Trail, Mark);

    // Branch x_V = 0.
    if (excludeVar(V, Trail))
      dfs(LocalCost);
    undo(Trail, Mark);

    undo(Trail, 0);
  }
};

} // namespace

CoverSolution dra::solveCoverReference(const CoverProblem &P,
                                       uint64_t NodeBudget) {
  // The empty cases never reach the search in either solver.
  if (P.Constraints.empty() || P.Cost.empty())
    return solveCover(P, NodeBudget);
  Search S(P, NodeBudget);
  return S.run();
}

std::vector<NamedCoverProblem> dra::miBenchSpillProblems() {
  std::vector<NamedCoverProblem> Out;
  for (const std::string &Name : miBenchNames()) {
    Function F = miBenchProgram(Name);
    F.recomputeCFG();
    for (unsigned K : {8u, 12u}) {
      SpillProblem SP = buildSpillProblem(F, K, {});
      if (!SP.ILP.Constraints.empty())
        Out.push_back({Name + "/k" + std::to_string(K), std::move(SP.ILP)});
    }
  }
  return Out;
}

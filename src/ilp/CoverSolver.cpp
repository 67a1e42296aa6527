//===- ilp/CoverSolver.cpp - 0-1 covering ILP solver ----------------------===//

#include "ilp/CoverSolver.h"

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <limits>
#include <numeric>

using namespace dra;

namespace {

/// Mutable search state for the branch-and-bound. Every node is
/// incremental: one shared trail, a per-variable count of unmet
/// constraints, per-constraint variable lists pre-sorted by cost, and
/// propagation limited to the constraints a branch can have tightened.
class Search {
public:
  Search(const CoverProblem &P, uint64_t NodeBudget)
      : P(P), NodeBudget(NodeBudget) {
    size_t NumVars = P.Cost.size();
    size_t NumCons = P.Constraints.size();
    VarState.assign(NumVars, Free);
    Remaining.resize(NumCons);
    FreeCount.resize(NumCons);
    ConstraintsOf.assign(NumVars, {});
    UnmetOf.assign(NumVars, 0);
    SortedBegin.reserve(NumCons + 1);
    SortedBegin.push_back(0);
    for (uint32_t C = 0; C != NumCons; ++C) {
      const CoverConstraint &Con = P.Constraints[C];
      assert(Con.Need <= static_cast<int>(Con.Vars.size()) &&
             "unsatisfiable constraint");
      Remaining[C] = Con.Need;
      FreeCount[C] = static_cast<int>(Con.Vars.size());
      NumUnmet += Con.Need > 0;
      for (uint32_t V : Con.Vars) {
        assert(V < NumVars && "variable index out of range");
        ConstraintsOf[V].push_back(C);
        UnmetOf[V] += Con.Need > 0;
      }
      size_t Begin = SortedVars.size();
      SortedVars.insert(SortedVars.end(), Con.Vars.begin(), Con.Vars.end());
      std::stable_sort(SortedVars.begin() + static_cast<std::ptrdiff_t>(Begin),
                       SortedVars.end(), [&](uint32_t A, uint32_t B) {
                         return P.Cost[A] < P.Cost[B];
                       });
      SortedBegin.push_back(static_cast<uint32_t>(SortedVars.size()));
    }
    Best.Selected.assign(NumVars, 0);
    Best.TotalCost = std::numeric_limits<double>::infinity();
  }

  CoverSolution run() {
    seedGreedyIncumbent();
    double GreedyCost = Best.TotalCost;
    Exhausted = false;
    // Only the root can start with tight constraints anywhere.
    std::vector<uint32_t> All(P.Constraints.size());
    std::iota(All.begin(), All.end(), 0u);
    dfs(0.0, All.data(), All.data() + All.size());
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
  /// Unmet constraints (Remaining > 0) per variable, and in total.
  std::vector<int> UnmetOf;
  int NumUnmet = 0;
  /// Each constraint's variables, stably sorted by cost: constraint C owns
  /// SortedVars[SortedBegin[C] .. SortedBegin[C + 1]).
  std::vector<uint32_t> SortedVars;
  std::vector<uint32_t> SortedBegin;
  /// Variables selected or excluded, in order; each node undoes to the
  /// length it found.
  std::vector<uint32_t> Trail;
  /// The constraint whose bound pruned most recently; tried first.
  uint32_t LastPruner = 0;

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

  /// Cheapest completion of unmet constraint \p C: the sum of its cheapest
  /// Remaining[C] free costs, added in ascending order.
  double completionCost(uint32_t C) const {
    double Sum = 0;
    int Left = Remaining[C];
    for (uint32_t I = SortedBegin[C]; Left != 0; ++I) {
      assert(I != SortedBegin[C + 1] && "unmet constraint lacks free vars");
      uint32_t V = SortedVars[I];
      if (VarState[V] != Free)
        continue;
      Sum += P.Cost[V];
      --Left;
    }
    return Sum;
  }

  /// True if \p Cost plus the lower bound on the cost still needed — the
  /// most expensive single constraint to finish — reaches \p Limit.
  /// Rounding is monotone, so Cost + max_C Sum_C reaches the limit iff
  /// Cost + Sum_C does for some C; the test stops at the first such C.
  bool boundReaches(double Cost, double Limit) {
    bool Reaches = Cost >= Limit;
    if (!Reaches && Remaining[LastPruner] > 0)
      Reaches = Cost + completionCost(LastPruner) >= Limit;
    for (uint32_t C = 0; !Reaches && C != Remaining.size(); ++C) {
      if (Remaining[C] <= 0 || C == LastPruner)
        continue;
      if (Cost + completionCost(C) >= Limit) {
        LastPruner = C;
        Reaches = true;
      }
    }
#ifndef NDEBUG
    double Bound = 0;
    for (uint32_t C = 0; C != Remaining.size(); ++C)
      if (Remaining[C] > 0)
        Bound = std::max(Bound, completionCost(C));
    assert(Reaches == (Cost + Bound >= Limit) &&
           "early-exit bound disagrees with max-of-sums bound");
#endif
    return Reaches;
  }

  /// Constraint \p C changed between met and unmet: adjusts its variables'
  /// unmet counts by \p Delta.
  void countUnmet(uint32_t C, int Delta) {
    NumUnmet += Delta;
    for (uint32_t V : P.Constraints[C].Vars)
      UnmetOf[V] += Delta;
  }

  void selectVar(uint32_t V) {
    VarState[V] = In;
    Trail.push_back(V);
    for (uint32_t C : ConstraintsOf[V]) {
      --FreeCount[C];
      if (Remaining[C]-- == 1)
        countUnmet(C, -1);
    }
  }

  /// Excludes \p V; returns false if some constraint became unsatisfiable
  /// (the state change is still fully applied and must be undone by the
  /// caller via the trail).
  bool excludeVar(uint32_t V) {
    VarState[V] = Out;
    Trail.push_back(V);
    bool Feasible = true;
    for (uint32_t C : ConstraintsOf[V]) {
      --FreeCount[C];
      Feasible &= FreeCount[C] >= Remaining[C];
    }
    return Feasible;
  }

  void undo(size_t Mark) {
    for (size_t I = Trail.size(); I > Mark; --I) {
      uint32_t V = Trail[I - 1];
      bool WasIn = VarState[V] == In;
      VarState[V] = Free;
      for (uint32_t C : ConstraintsOf[V]) {
        ++FreeCount[C];
        if (WasIn && ++Remaining[C] == 1)
          countUnmet(C, +1);
      }
    }
    Trail.resize(Mark);
  }

  /// Unit propagation over the constraints [Begin, End), in that order:
  /// an unmet constraint whose remaining demand equals its free count
  /// forces all its free variables in. Selecting keeps every constraint's
  /// slack (FreeCount - Remaining), so one pass reaches the fixpoint, and
  /// only constraints of a just-excluded variable can have become tight.
  void propagate(const uint32_t *Begin, const uint32_t *End, double &Cost) {
    for (const uint32_t *It = Begin; It != End; ++It) {
      uint32_t C = *It;
      assert((Remaining[C] <= 0 || FreeCount[C] >= Remaining[C]) &&
             "infeasible constraint reached propagation");
      if (Remaining[C] <= 0 || FreeCount[C] != Remaining[C])
        continue;
      for (uint32_t V : P.Constraints[C].Vars) {
        if (VarState[V] != Free)
          continue;
        selectVar(V);
        Cost += P.Cost[V];
      }
    }
#ifndef NDEBUG
    int Unmet = 0;
    for (uint32_t C = 0; C != Remaining.size(); ++C) {
      if (Remaining[C] <= 0)
        continue;
      ++Unmet;
      assert(FreeCount[C] > Remaining[C] &&
             "propagation left a tight constraint with free variables");
    }
    assert(Unmet == NumUnmet && "unmet-constraint count drifted");
#endif
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
      if (VarState[V] != Free || UnmetOf[V] == 0)
        continue;
      double Score =
          static_cast<double>(UnmetOf[V]) / std::max(P.Cost[V], 1e-9);
      if (Score > BestScore) {
        BestScore = Score;
        BestVar = V;
      }
    }
    return BestVar;
  }

  /// Explores the node reached from its parent's state; [TightBegin,
  /// TightEnd) are the constraints the branch into it may have tightened.
  void dfs(double Cost, const uint32_t *TightBegin, const uint32_t *TightEnd) {
    if (++Nodes > NodeBudget) {
      Exhausted = true;
      return;
    }
    size_t Mark = Trail.size();
    double LocalCost = Cost;
    propagate(TightBegin, TightEnd, LocalCost);
    if (boundReaches(LocalCost, Best.TotalCost - 1e-12)) {
      // Even finishing optimally cannot beat the incumbent.
      if (NumUnmet == 0)
        recordIncumbent(LocalCost);
    } else if (NumUnmet == 0) {
      recordIncumbent(LocalCost);
    } else if (uint32_t V = pickBranchVar(); V != ~0u) {
      size_t BranchMark = Trail.size();
      // Branch x_V = 1: no constraint tightens.
      selectVar(V);
      dfs(LocalCost + P.Cost[V], nullptr, nullptr);
      undo(BranchMark);
      // Branch x_V = 0: only V's constraints can tighten.
      if (excludeVar(V)) {
        const std::vector<uint32_t> &Tight = ConstraintsOf[V];
        dfs(LocalCost, Tight.data(), Tight.data() + Tight.size());
      }
    }
    undo(Mark);
  }
};

} // namespace

CoverSolution dra::solveCover(const CoverProblem &P, uint64_t NodeBudget) {
  if (P.Constraints.empty() || P.Cost.empty()) {
    CoverSolution Out;
    Out.Selected.assign(P.Cost.size(), 0);
    Out.TotalCost = 0;
    // Constraints with positive need but no variables are unsatisfiable and
    // asserted against in Search; an empty constraint set is trivially
    // optimal.
    Out.Optimal = true;
    for (const CoverConstraint &C : P.Constraints) {
      (void)C;
      assert(C.Need <= 0 && "constraint over empty variable set");
    }
    return Out;
  }
  Search S(P, NodeBudget);
  return S.run();
}

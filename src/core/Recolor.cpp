//===- core/Recolor.cpp - Differential recoloring local search ------------===//

#include "core/Recolor.h"

#include "analysis/Liveness.h"
#include "core/AdjacencyGraph.h"
#include "core/DiffSelectHook.h"
#include "regalloc/InterferenceGraph.h"

#include <algorithm>
#include <numeric>

using namespace dra;

namespace {

/// Union-find over virtual registers.
class UnionFind {
public:
  explicit UnionFind(size_t N) : Parent(N) {
    std::iota(Parent.begin(), Parent.end(), 0);
  }
  RegId find(RegId N) {
    while (Parent[N] != N) {
      Parent[N] = Parent[Parent[N]];
      N = Parent[N];
    }
    return N;
  }
  void unite(RegId A, RegId B) { Parent[find(A)] = find(B); }

private:
  std::vector<RegId> Parent;
};

} // namespace

RecolorStats dra::recolorColoring(const Function &F, const EncodingConfig &C,
                                  std::vector<RegId> &ColorOf,
                                  const RecolorOptions &O,
                                  Arena *Scratch) {
  assert(ColorOf.size() == F.NumRegs && "coloring size mismatch");
  unsigned K = C.RegN;

  Function Work = F;
  Work.recomputeCFG();
  Liveness LV = Liveness::compute(Work, Scratch);
  InterferenceGraph IG = InterferenceGraph::build(Work, LV, Scratch);
  // Frequency weighting (Section 4: "the frequency should be reflected in
  // the edge weights") steers repairs out of hot loops; the *static*
  // set_last_reg count is reported separately by the encoder.
  AdjacencyGraph AG =
      AdjacencyGraph::build(Work, C, WeightMode::Frequency);

  RecolorStats Stats;
  Stats.CostBefore = AG.cost(ColorOf, C);

  // Tie move endpoints that currently share a color into clusters so
  // recoloring cannot reintroduce a coalesced move.
  UnionFind UF(F.NumRegs);
  for (const MovePair &MP : IG.moves())
    if (ColorOf[MP.Dst] == ColorOf[MP.Src])
      UF.unite(MP.Dst, MP.Src);

  std::vector<RegId> ClusterOf(F.NumRegs);
  std::vector<std::vector<RegId>> Members(F.NumRegs);
  for (RegId V = 0; V != F.NumRegs; ++V) {
    ClusterOf[V] = UF.find(V);
    Members[ClusterOf[V]].push_back(V);
  }

  std::vector<RegId> Clusters;
  for (RegId V = 0; V != F.NumRegs; ++V)
    if (!Members[V].empty())
      Clusters.push_back(V);
  Stats.Clusters = Clusters.size();

  std::vector<uint8_t> Used;
  std::vector<double> Costs;
  for (Stats.Sweeps = 0; Stats.Sweeps != O.MaxSweeps; ++Stats.Sweeps) {
    bool Changed = false;
    for (RegId Root : Clusters) {
      const std::vector<RegId> &Group = Members[Root];
      unsigned Current = ColorOf[Root];
      auto ColorOutside = [&](RegId V) {
        return ClusterOf[V] == Root ? NoReg : ColorOf[V];
      };
      selectCosts(AG, C, Group, ColorOutside, Costs);
      ++Stats.CandidateEvals;
      double CurCost = Costs[Current];
      if (CurCost == 0)
        continue;
      // Legal colors: not used by any interference neighbor outside the
      // cluster. Keep the current color on ties.
      Used.assign(K, 0);
      for (RegId V : Group)
        for (RegId N : IG.neighbors(V))
          if (ClusterOf[N] != Root && ColorOf[N] != NoReg)
            Used[ColorOf[N]] = 1;
      unsigned BestColor = Current;
      double BestCost = CurCost;
      for (unsigned Color = 0; Color != K; ++Color) {
        if (Used[Color] || Color == Current)
          continue;
        ++Stats.CandidateEvals;
        if (Costs[Color] < BestCost - 1e-9) {
          BestCost = Costs[Color];
          BestColor = Color;
        }
      }
      if (BestColor != Current) {
        for (RegId V : Group)
          ColorOf[V] = BestColor;
        ++Stats.Changes;
        Changed = true;
      }
    }
    if (!Changed)
      break;
  }

  Stats.CostAfter = AG.cost(ColorOf, C);
  assert(IG.isValidColoring(ColorOf) && "recoloring broke interference");
  return Stats;
}

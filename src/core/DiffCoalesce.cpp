//===- core/DiffCoalesce.cpp - Differential coalesce (approach 3) ---------===//

#include "core/DiffCoalesce.h"

#include "analysis/Liveness.h"
#include "core/AdjacencyGraph.h"
#include "core/DiffSelectHook.h"
#include "core/Recolor.h"
#include "regalloc/GraphColoring.h"
#include "regalloc/InterferenceGraph.h"

#include <algorithm>
#include <iterator>
#include <map>

using namespace dra;

namespace {

/// The merged view of one function's interference + adjacency graphs under
/// a set of committed coalescences. Nodes are virtual registers; merged
/// groups are represented by their root. Parent is kept flat (every vreg
/// points straight at its root), so find is a single load.
///
/// A probe merges in place and rolls back from a MergeUndo record, which
/// holds only the rows the merge touched: rollback costs O(degree), not a
/// copy of the graph.
class MergedGraph {
public:
  /// What one merge changed; reusable across probes.
  struct MergeUndo {
    RegId U = NoReg, V = NoReg;
    size_t MembersOfU = 0;     // Members[U].size() before the merge
    std::vector<RegId> AdjOfU; // Adj[U] before the merge
    std::vector<RegId> AdjOfV; // Adj[V] before the merge
    /// Per entry of AdjOfV: the merge inserted U into that neighbour's row.
    std::vector<uint8_t> AddedU;
    AdjacencyGraph::MergeUndo AG;
  };

  MergedGraph(const Function &F, const EncodingConfig &C,
              Arena *Scratch = nullptr) {
    NumVRegs = F.NumRegs;
    Parent.resize(NumVRegs);
    for (RegId R = 0; R != NumVRegs; ++R)
      Parent[R] = R;
    Members.assign(NumVRegs, {});
    for (RegId R = 0; R != NumVRegs; ++R)
      Members[R].push_back(R);

    Liveness LV = Liveness::compute(F, Scratch);
    InterferenceGraph IG = InterferenceGraph::build(F, LV, Scratch);
    Adj.assign(NumVRegs, {});
    for (RegId N = 0; N != NumVRegs; ++N) {
      InterferenceGraph::NeighborRange R = IG.neighbors(N);
      Adj[N].assign(R.begin(), R.end()); // already sorted ascending
    }
    AG = AdjacencyGraph::build(F, C, WeightMode::Frequency);

    // Distinct move pairs with accumulated (static occurrence) weight.
    for (const MovePair &MP : IG.moves()) {
      if (MP.Dst == MP.Src)
        continue;
      RegId A = std::min(MP.Dst, MP.Src), B = std::max(MP.Dst, MP.Src);
      MoveWeight[{A, B}] += 1.0;
    }
  }

  uint32_t numVRegs() const { return NumVRegs; }

  RegId find(RegId N) const { return Parent[N]; }

  bool interferes(RegId U, RegId V) const {
    U = find(U);
    V = find(V);
    return std::binary_search(Adj[U].begin(), Adj[U].end(), V);
  }

  /// Merges root \p V into root \p U (both must be roots, distinct,
  /// non-interfering). Adjacency lists are kept sorted and unique. With
  /// \p Undo, records what rollback needs.
  void merge(RegId U, RegId V, MergeUndo *Undo = nullptr) {
    assert(U == find(U) && V == find(V) && U != V && "merge of non-roots");
    assert(!interferes(U, V) && "merging interfering nodes");
    for (RegId M : Members[V])
      Parent[M] = U;
    if (Undo) {
      Undo->U = U;
      Undo->V = V;
      Undo->MembersOfU = Members[U].size();
      Undo->AddedU.clear();
    }
    // V's neighbours (never U: the two do not interfere) trade V for U.
    for (RegId N : Adj[V]) {
      SortedErase(Adj[N], V);
      bool Added = SortedInsert(Adj[N], U);
      if (Undo)
        Undo->AddedU.push_back(Added);
    }
    Union.clear();
    std::set_union(Adj[U].begin(), Adj[U].end(), Adj[V].begin(),
                   Adj[V].end(), std::back_inserter(Union));
    Adj[U].swap(Union);
    if (Undo) {
      Undo->AdjOfU.swap(Union);
      Undo->AdjOfV.swap(Adj[V]);
    }
    Adj[V].clear();
    Members[U].insert(Members[U].end(), Members[V].begin(),
                      Members[V].end());
    Members[V].clear();
    AG.mergeInto(V, U, Undo ? &Undo->AG : nullptr);
  }

  /// Reverts the merge that filled \p Undo; nothing else may have changed
  /// the graph in between.
  void rollback(MergeUndo &Undo) {
    RegId U = Undo.U, V = Undo.V;
    AG.undoMerge(Undo.AG);
    Members[V].assign(Members[U].begin() + Undo.MembersOfU, Members[U].end());
    Members[U].resize(Undo.MembersOfU);
    for (RegId M : Members[V])
      Parent[M] = V;
    Adj[U].swap(Undo.AdjOfU);
    Adj[V].swap(Undo.AdjOfV);
    for (size_t I = 0, E = Adj[V].size(); I != E; ++I) {
      RegId N = Adj[V][I];
      if (Undo.AddedU[I])
        SortedErase(Adj[N], U);
      SortedInsert(Adj[N], V);
    }
  }

  /// Remaining (cross-root) move pairs as ((rootA, rootB), weight).
  std::vector<std::pair<std::pair<RegId, RegId>, double>>
  activeMoves() const {
    std::map<std::pair<RegId, RegId>, double> Folded;
    for (const auto &[Pair, W] : MoveWeight) {
      RegId A = find(Pair.first), B = find(Pair.second);
      if (A == B)
        continue;
      if (A > B)
        std::swap(A, B);
      Folded[{A, B}] += W;
    }
    return {Folded.begin(), Folded.end()};
  }

  /// Total weight of moves whose endpoints are still distinct roots.
  double remainingMoveWeight() const {
    double Total = 0;
    for (const auto &[Pair, W] : activeMoves())
      Total += W;
    return Total;
  }

  const std::vector<RegId> &membersOf(RegId Root) const {
    return Members[Root];
  }

  const std::vector<RegId> &neighborsOf(RegId Root) const {
    return Adj[Root];
  }

  const AdjacencyGraph &adjacency() const { return AG; }

  /// All current roots, ascending.
  void roots(std::vector<RegId> &Result) const {
    Result.clear();
    for (RegId R = 0; R != NumVRegs; ++R)
      if (Parent[R] == R)
        Result.push_back(R);
  }

  /// Same union-find, interference, members and adjacency (entry for
  /// entry); move weights are fixed per round.
  bool sameState(const MergedGraph &O) const {
    return Parent == O.Parent && Members == O.Members && Adj == O.Adj &&
           AG == O.AG;
  }

private:
  uint32_t NumVRegs = 0;
  std::vector<RegId> Parent;
  std::vector<std::vector<RegId>> Members;
  /// Root-level interference; each list sorted and unique.
  std::vector<std::vector<RegId>> Adj;
  AdjacencyGraph AG;                          // Root-level adjacency.
  std::map<std::pair<RegId, RegId>, double> MoveWeight;
  std::vector<RegId> Union; // merge scratch

  static void SortedErase(std::vector<RegId> &List, RegId Value) {
    auto It = std::lower_bound(List.begin(), List.end(), Value);
    if (It != List.end() && *It == Value)
      List.erase(It);
  }
  static bool SortedInsert(std::vector<RegId> &List, RegId Value) {
    auto It = std::lower_bound(List.begin(), List.end(), Value);
    if (It != List.end() && *It == Value)
      return false;
    List.insert(It, Value);
    return true;
  }
};

/// Chaitin-Briggs simplify + (differential) select over the merged graph —
/// the rebuild&simplify + select oracle. Its buffers persist across calls.
class MergedColorer {
public:
  MergedColorer(const EncodingConfig &C, bool UseDiffSelect)
      : C(C), UseDiffSelect(UseDiffSelect) {}

  /// Colors \p G. On failure returns false and sets FailedRoot to a node
  /// that received no color.
  bool color(const MergedGraph &G);

  /// Differential cost of the last successful coloring, at vreg
  /// granularity.
  double diffCost(const MergedGraph &G) const {
    return G.adjacency().cost(RootColor, C);
  }

  /// Per-vreg colors of the last successful coloring.
  std::vector<RegId> colorOfVRegs(const MergedGraph &G) const {
    std::vector<RegId> Colors(G.numVRegs());
    for (RegId V = 0; V != G.numVRegs(); ++V)
      Colors[V] = RootColor[G.find(V)];
    return Colors;
  }

  RegId FailedRoot = NoReg;

private:
  const EncodingConfig &C;
  bool UseDiffSelect;
  /// Color per root (NoReg for non-roots and not-yet-colored roots).
  std::vector<RegId> RootColor;
  std::vector<RegId> Roots, Stack, LowDegree;
  std::vector<unsigned> Degree;
  std::vector<uint8_t> Removed, Used;
  std::vector<unsigned> OkColors;
  std::vector<double> Costs;
};

bool MergedColorer::color(const MergedGraph &G) {
  unsigned K = C.RegN;
  G.roots(Roots);

  // Degrees among roots.
  Degree.assign(G.numVRegs(), 0);
  for (RegId R : Roots)
    Degree[R] = static_cast<unsigned>(G.neighborsOf(R).size());

  // Simplify: low-degree first (worklist), optimistic max-degree removal
  // when stuck (Briggs).
  Removed.assign(G.numVRegs(), 0);
  Stack.clear();
  LowDegree.clear();
  for (RegId R : Roots)
    if (Degree[R] < K)
      LowDegree.push_back(R);
  size_t RemainingCount = Roots.size();
  while (RemainingCount != 0) {
    RegId Pick = NoReg;
    while (!LowDegree.empty()) {
      RegId Candidate = LowDegree.back();
      LowDegree.pop_back();
      if (!Removed[Candidate]) {
        Pick = Candidate;
        break;
      }
    }
    if (Pick == NoReg) {
      // Optimistic (potential spill): remove the max-degree node.
      unsigned MaxDeg = 0;
      for (RegId R : Roots)
        if (!Removed[R] && (Pick == NoReg || Degree[R] > MaxDeg)) {
          MaxDeg = Degree[R];
          Pick = R;
        }
    }
    Removed[Pick] = 1;
    Stack.push_back(Pick);
    --RemainingCount;
    for (RegId N : G.neighborsOf(Pick))
      if (!Removed[N] && --Degree[N] == K - 1)
        LowDegree.push_back(N);
  }

  // Select in reverse removal order. A member of the node being colored
  // resolves to that (still uncolored) node, so selectCosts skips it.
  RootColor.assign(G.numVRegs(), NoReg);
  auto ColorOf = [&](RegId V) { return RootColor[G.find(V)]; };
  for (size_t I = Stack.size(); I > 0; --I) {
    RegId N = Stack[I - 1];
    Used.assign(K, 0);
    for (RegId Nbr : G.neighborsOf(N))
      if (RootColor[Nbr] != NoReg)
        Used[RootColor[Nbr]] = 1;
    OkColors.clear();
    for (unsigned Color = 0; Color != K; ++Color)
      if (!Used[Color])
        OkColors.push_back(Color);
    if (OkColors.empty()) {
      FailedRoot = N;
      return false;
    }
    unsigned Chosen = OkColors.front();
    if (UseDiffSelect && OkColors.size() > 1) {
      selectCosts(G.adjacency(), C, G.membersOf(N), ColorOf, Costs);
      Chosen = cheapestColor(OkColors, Costs);
    }
    RootColor[N] = Chosen;
  }
  return true;
}

} // namespace

CoalesceResult dra::coalesceAndColor(Function &F, const EncodingConfig &C,
                                     const CoalesceOptions &O,
                                     std::vector<StageSpan> *SubSpans,
                                     Arena *Scratch) {
  CoalesceResult Result;
  unsigned K = C.RegN;
  assert(C.valid() && "invalid encoding configuration");

  const unsigned MaxSpillRetries = 24;
  unsigned SpillRetries = 0;

  MergedColorer Oracle(C, O.DiffAware);
  MergedGraph::MergeUndo Undo;
  for (;;) {
    ScopedSpan RoundSpan(SubSpans, "coalesce.round");
    F.recomputeCFG();
    MergedGraph G(F, C, Scratch);

    // Greedy best-first coalescing with undo-by-probing (Figure 9): each
    // step probes every candidate merge in place, rolls it back, and
    // commits the best cost reduction.
    double CurCost;
    double Remaining = G.remainingMoveWeight();
    {
      ++Result.OracleCalls;
      bool Colorable = Oracle.color(G);
      CurCost = (Colorable && O.DiffAware ? Oracle.diffCost(G) : 0.0) +
                Remaining;
    }

    for (unsigned Step = 0; Step != O.MaxSteps; ++Step) {
      auto Candidates = G.activeMoves();
      // Drop interfering pairs; order by descending weight.
      Candidates.erase(
          std::remove_if(Candidates.begin(), Candidates.end(),
                         [&](const auto &Cand) {
                           return G.interferes(Cand.first.first,
                                               Cand.first.second);
                         }),
          Candidates.end());
      std::sort(Candidates.begin(), Candidates.end(),
                [](const auto &A, const auto &B) {
                  if (A.second != B.second)
                    return A.second > B.second;
                  return A.first < B.first;
                });
      if (Candidates.size() > O.MaxCandidatesPerStep)
        Candidates.resize(O.MaxCandidatesPerStep);
      if (Candidates.empty())
        break;

      double BestNewCost = CurCost;
      std::pair<RegId, RegId> BestPair{NoReg, NoReg};
      double BestWeight = 0;
      for (const auto &[Pair, Weight] : Candidates) {
#ifndef NDEBUG
        const MergedGraph Before = G;
#endif
        G.merge(Pair.first, Pair.second, &Undo);
        ++Result.ProbesAttempted;
        ++Result.OracleCalls;
        bool Colorable = Oracle.color(G);
        // Move weights are integer counts, so this difference is exact.
        double NewCost =
            Colorable ? (O.DiffAware ? Oracle.diffCost(G) : 0.0) +
                            (Remaining - Weight)
                      : 0.0;
        G.rollback(Undo);
        assert(G.sameState(Before) && "probe rollback changed the graph");
        if (!Colorable) {
          ++Result.ProbesUncolorable;
          continue;
        }
        if (NewCost < BestNewCost - 1e-9) {
          BestNewCost = NewCost;
          BestPair = Pair;
          BestWeight = Weight;
        }
      }
      if (BestPair.first == NoReg)
        break; // No cost reduction or everything uncolorable.
      G.merge(BestPair.first, BestPair.second);
      Remaining -= BestWeight;
      CurCost = BestNewCost;
      ++Result.Steps;
      ++Result.MovesCoalesced;
    }

    // Final coloring.
    ++Result.OracleCalls;
    if (!Oracle.color(G)) {
      if (++SpillRetries > MaxSpillRetries) {
        Result.Success = false;
        return Result;
      }
      ++Result.SpillRestarts;
      // Spill every member of the failing root and restart.
      std::vector<RegId> ToSpill = G.membersOf(Oracle.FailedRoot);
      for (RegId V : ToSpill) {
        insertSpillCode(F, V);
        ++Result.ExtraSpilledRanges;
      }
      continue;
    }
    std::vector<RegId> ColorOfVReg = Oracle.colorOfVRegs(G);

    // Live-range-granularity refinement of the final assignment (see
    // core/Recolor.h); clusters keep coalesced moves intact.
    if (O.DiffAware) {
      RecolorStats RS = recolorColoring(F, C, ColorOfVReg);
      Result.FinalAdjCost = RS.CostAfter;
    } else {
      Result.FinalAdjCost = Oracle.diffCost(G);
    }

    // Rewrite the function onto physical registers; drop identity moves.
    for (BasicBlock &BB : F.Blocks) {
      std::vector<Instruction> Kept;
      Kept.reserve(BB.Insts.size());
      for (Instruction I : BB.Insts) {
        for (unsigned Field = 0; Field != I.numRegFields(); ++Field) {
          RegId V = I.regField(Field);
          assert(ColorOfVReg[V] != NoReg && "uncolored vreg");
          I.setRegField(Field, ColorOfVReg[V]);
        }
        if (I.Op == Opcode::Mov && I.Dst == I.Src1)
          continue;
        Kept.push_back(I);
        Result.MovesRemaining += I.Op == Opcode::Mov;
      }
      BB.Insts = std::move(Kept);
    }
    F.NumRegs = K;
    F.recomputeCFG();
    return Result;
  }
}

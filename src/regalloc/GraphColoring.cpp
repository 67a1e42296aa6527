//===- regalloc/GraphColoring.cpp - Iterated register coalescing ----------===//
//
// Data layout: the per-round state lives in flat arrays carved from one
// bump Arena that allocateGraphColoring reuses (reset, capacity retained)
// across spill rounds. Edge membership is a packed BitMatrix; the initial
// adjacency is a CSR array built in one pass from liveness (per-node
// neighbor order identical to the old push_back discovery order); edges
// added by coalescing go into per-node overflow chains. The simplify/
// freeze/spill worklists and the move worklists are IndexSets — ordered
// bit sets whose first() is the minimum element, exactly the
// *std::set::begin() the old implementation picked — so every worklist
// decision, and therefore the full allocation result, is bit-identical to
// the previous std::set/std::unordered_set layout (guarded by
// tests/alloc_identity_test).
//
//===----------------------------------------------------------------------===//

#include "regalloc/GraphColoring.h"

#include "adt/Arena.h"
#include "adt/BitMatrix.h"
#include "adt/IndexSet.h"
#include "analysis/Liveness.h"
#include "analysis/LoopInfo.h"

#include <algorithm>
#include <atomic>
#include <limits>

using namespace dra;

namespace {

bool IrcSelfCheckEnabled = false;
std::atomic<size_t> IrcSelfCheckViolationCount{0};

/// Round-reusable scratch: the arena plus the few growable buffers whose
/// size is only known mid-build. Owned by allocateGraphColoring so spill
/// rounds after the first allocate nothing.
struct IrcScratch {
  Arena A;
  /// Initial interference edges in discovery order (drives the CSR fill).
  std::vector<std::pair<RegId, RegId>> Edges;
  /// Overflow adjacency pool: per-node chains for edges added by combine.
  struct ExtraEdge {
    RegId Nbr;
    int32_t Next;
  };
  std::vector<ExtraEdge> ExtraPool;
  /// Overflow move-list pool (move lists concatenated by combine).
  struct ExtraMove {
    uint32_t Move;
    int32_t Next;
  };
  std::vector<ExtraMove> MoveExtraPool;
  std::vector<uint32_t> MoveSnap; // freezeMoves snapshot
  std::vector<RegId> SelectStack;
  std::vector<uint8_t> UsedColors;
  std::vector<unsigned> OkColors;

  void beginRound() {
    A.reset();
    Edges.clear();
    ExtraPool.clear();
    MoveExtraPool.clear();
    MoveSnap.clear();
    SelectStack.clear();
  }
};

/// One build/color round of iterated register coalescing.
class IrcRound {
public:
  IrcRound(Function &F, unsigned K, SelectHook *Hook,
           const std::vector<uint8_t> &IsSpillTemp, AllocResult &Stats,
           IrcScratch &S)
      : F(F), K(K), Hook(Hook), IsSpillTemp(IsSpillTemp), Stats(Stats),
        S(S), A(S.A) {}

  /// Runs one round. Returns the set of actual-spill virtual registers
  /// (empty means a complete coloring was produced in ColorOf).
  std::vector<RegId> run(std::vector<RegId> &ColorOutParam);

private:
  Function &F;
  unsigned K;
  SelectHook *Hook;
  const std::vector<uint8_t> &IsSpillTemp;
  AllocResult &Stats; // shared event counters, summed across rounds
  IrcScratch &S;
  Arena &A;

  uint32_t NumNodes = 0;
  uint32_t NumMoves = 0;

  // Graph: bit-matrix membership + CSR initial adjacency + overflow
  // chains for coalesce-time edges.
  BitMatrix AdjSet;
  uint32_t *AdjOff = nullptr; // NumNodes + 1 offsets into AdjNbrs
  RegId *AdjNbrs = nullptr;
  int32_t *ExtraHead = nullptr; // per node, -1 terminated chain
  unsigned *Degree = nullptr;

  // Moves (indices into MoveDst/MoveSrc), CSR per-node lists + overflow.
  RegId *MoveDst = nullptr;
  RegId *MoveSrc = nullptr;
  uint32_t *MoveOff = nullptr;
  uint32_t *MoveIdxs = nullptr;
  int32_t *MoveExtraHead = nullptr;
  enum MoveState : uint8_t {
    MSWorklist,
    MSActive,
    MSCoalesced,
    MSConstrained,
    MSFrozen
  };
  uint8_t *MoveStates = nullptr;
  IndexSet WorklistMoves;
  IndexSet ActiveMoves;

  // Node worklists: ordered index sets (first() == minimum element, the
  // exact pick order of the previous std::set implementation).
  IndexSet SimplifyWorklist;
  IndexSet FreezeWorklist;
  IndexSet SpillWorklist;
  IndexSet CoalescedNodes;
  IndexSet SpilledNodes;
  IndexSet ColoredNodes;
  uint8_t *OnSelectStack = nullptr;
  RegId *Alias = nullptr;
  RegId *ColorOf = nullptr;
  double *SpillCost = nullptr;

  // briggsConservative scratch: epoch stamps dedup the merged neighbor
  // set without a per-call container.
  uint32_t *NbrStamp = nullptr;
  uint32_t BriggsStamp = 0;

  void build();
  void computeSpillCosts();
  void addEdge(RegId U, RegId V);
  void makeWorklists();

  /// Live (not selected, not coalesced) neighbors of N: CSR row then
  /// overflow chain. Callbacks may add edges/moves to nodes other than N.
  template <typename FnT> void forEachAdjacent(RegId N, FnT Fn) const {
    for (uint32_t I = AdjOff[N], E = AdjOff[N + 1]; I != E; ++I) {
      RegId M = AdjNbrs[I];
      if (!OnSelectStack[M] && !CoalescedNodes.contains(M))
        Fn(M);
    }
    for (int32_t I = ExtraHead[N]; I != -1; I = S.ExtraPool[I].Next) {
      RegId M = S.ExtraPool[I].Nbr;
      if (!OnSelectStack[M] && !CoalescedNodes.contains(M))
        Fn(M);
    }
  }

  /// All recorded neighbors of N, unfiltered (assignColors, self-check).
  template <typename FnT> void forEachRawAdjacent(RegId N, FnT Fn) const {
    for (uint32_t I = AdjOff[N], E = AdjOff[N + 1]; I != E; ++I)
      Fn(AdjNbrs[I]);
    for (int32_t I = ExtraHead[N]; I != -1; I = S.ExtraPool[I].Next)
      Fn(S.ExtraPool[I].Nbr);
  }

  /// Worklist-or-active moves of N (the nodeMoves filter), CSR row then
  /// overflow chain. May visit a move twice if combine concatenated a
  /// list already containing it (same as the old concatenated vectors —
  /// every consumer is idempotent).
  template <typename FnT> void forEachNodeMove(RegId N, FnT Fn) const {
    for (uint32_t I = MoveOff[N], E = MoveOff[N + 1]; I != E; ++I) {
      uint32_t M = MoveIdxs[I];
      if (MoveStates[M] == MSWorklist || MoveStates[M] == MSActive)
        Fn(M);
    }
    for (int32_t I = MoveExtraHead[N]; I != -1;
         I = S.MoveExtraPool[I].Next) {
      uint32_t M = S.MoveExtraPool[I].Move;
      if (MoveStates[M] == MSWorklist || MoveStates[M] == MSActive)
        Fn(M);
    }
  }

  bool moveRelated(RegId N) const;
  void simplify();
  void decrementDegree(RegId M);
  void enableMoves(RegId N);
  void coalesce();
  void addWorkList(RegId U);
  bool georgeOk(RegId T, RegId U) const;
  bool briggsConservative(RegId U, RegId V);
  RegId getAlias(RegId N) const;
  void combine(RegId U, RegId V);
  void freeze();
  void freezeMoves(RegId U);
  void selectSpill();
  void assignColors();
  void checkInvariants() const;
};

void IrcRound::build() {
  NumNodes = F.NumRegs;
  AdjSet.init(A, NumNodes);
  Degree = A.allocZeroedArray<unsigned>(NumNodes);
  ExtraHead = A.allocArray<int32_t>(NumNodes);
  std::fill_n(ExtraHead, NumNodes, -1);
  MoveExtraHead = A.allocArray<int32_t>(NumNodes);
  std::fill_n(MoveExtraHead, NumNodes, -1);
  Alias = A.allocArray<RegId>(NumNodes);
  for (RegId N = 0; N != NumNodes; ++N)
    Alias[N] = N;
  ColorOf = A.allocArray<RegId>(NumNodes);
  std::fill_n(ColorOf, NumNodes, NoReg);
  OnSelectStack = A.allocZeroedArray<uint8_t>(NumNodes);
  NbrStamp = A.allocZeroedArray<uint32_t>(NumNodes);
  BriggsStamp = 0;

  SimplifyWorklist.init(A, NumNodes);
  FreezeWorklist.init(A, NumNodes);
  SpillWorklist.init(A, NumNodes);
  CoalescedNodes.init(A, NumNodes);
  SpilledNodes.init(A, NumNodes);
  ColoredNodes.init(A, NumNodes);

  F.recomputeCFG();
  Liveness LV = Liveness::compute(F, &A);

  // One pass over liveness: discover interference edges (bit-matrix
  // membership, pairs recorded in discovery order) and moves.
  std::vector<std::pair<RegId, RegId>> &Edges = S.Edges;
  std::vector<RegId> MoveDsts, MoveSrcs;
  for (uint32_t B = 0, E = static_cast<uint32_t>(F.Blocks.size()); B != E;
       ++B) {
    const BasicBlock &BB = F.Blocks[B];
    LV.forEachInstBackward(F, B, [&](size_t Idx, const BitVector &LiveAfter) {
      const Instruction &I = BB.Insts[Idx];
      bool IsMove = I.Op == Opcode::Mov && I.Dst != I.Src1;
      if (IsMove) {
        MoveDsts.push_back(I.Dst);
        MoveSrcs.push_back(I.Src1);
      }
      RegId Def = I.def();
      if (Def == NoReg)
        return;
      LiveAfter.forEach([&](size_t Live) {
        RegId L = static_cast<RegId>(Live);
        if (IsMove && L == I.Src1)
          return;
        if (Def == L || AdjSet.test(Def, L))
          return;
        AdjSet.setSym(Def, L);
        Edges.emplace_back(Def, L);
        ++Degree[Def];
        ++Degree[L];
      });
    });
  }

  // CSR adjacency from the recorded edges: per-node neighbor order is the
  // discovery order, matching the old per-node push_back sequence.
  AdjOff = A.allocArray<uint32_t>(NumNodes + 1);
  AdjOff[0] = 0;
  for (RegId N = 0; N != NumNodes; ++N)
    AdjOff[N + 1] = AdjOff[N] + Degree[N];
  AdjNbrs = A.allocArray<RegId>(2 * Edges.size());
  uint32_t *Fill = A.allocZeroedArray<uint32_t>(NumNodes);
  for (const auto &[U, V] : Edges) {
    AdjNbrs[AdjOff[U] + Fill[U]++] = V;
    AdjNbrs[AdjOff[V] + Fill[V]++] = U;
  }

  // CSR move lists, same fill discipline.
  NumMoves = static_cast<uint32_t>(MoveDsts.size());
  MoveDst = A.allocArray<RegId>(NumMoves);
  MoveSrc = A.allocArray<RegId>(NumMoves);
  std::copy_n(MoveDsts.data(), NumMoves, MoveDst);
  std::copy_n(MoveSrcs.data(), NumMoves, MoveSrc);
  uint32_t *MoveCount = A.allocZeroedArray<uint32_t>(NumNodes);
  for (uint32_t M = 0; M != NumMoves; ++M) {
    ++MoveCount[MoveDst[M]];
    ++MoveCount[MoveSrc[M]];
  }
  MoveOff = A.allocArray<uint32_t>(NumNodes + 1);
  MoveOff[0] = 0;
  for (RegId N = 0; N != NumNodes; ++N)
    MoveOff[N + 1] = MoveOff[N] + MoveCount[N];
  MoveIdxs = A.allocArray<uint32_t>(2 * NumMoves);
  uint32_t *MoveFill = A.allocZeroedArray<uint32_t>(NumNodes);
  for (uint32_t M = 0; M != NumMoves; ++M) {
    MoveIdxs[MoveOff[MoveDst[M]] + MoveFill[MoveDst[M]]++] = M;
    MoveIdxs[MoveOff[MoveSrc[M]] + MoveFill[MoveSrc[M]]++] = M;
  }
  MoveStates = A.allocZeroedArray<uint8_t>(NumMoves); // all MSWorklist
  WorklistMoves.init(A, NumMoves);
  for (uint32_t M = 0; M != NumMoves; ++M)
    WorklistMoves.insert(M);
  ActiveMoves.init(A, NumMoves);
}

void IrcRound::computeSpillCosts() {
  SpillCost = A.allocZeroedArray<double>(NumNodes);
  LoopInfo LI = LoopInfo::compute(F);
  for (uint32_t B = 0, E = static_cast<uint32_t>(F.Blocks.size()); B != E;
       ++B) {
    double Freq = LI.frequency(B);
    for (const Instruction &I : F.Blocks[B].Insts) {
      RegId Def = I.def();
      if (Def != NoReg)
        SpillCost[Def] += Freq;
      RegId Uses[2];
      unsigned NumUses;
      I.uses(Uses, NumUses);
      for (unsigned U = 0; U != NumUses; ++U)
        SpillCost[Uses[U]] += Freq;
    }
  }
  // Spilling a temporary created by a previous spill round would loop
  // forever; make them effectively unspillable.
  for (RegId N = 0; N != NumNodes; ++N)
    if (N < IsSpillTemp.size() && IsSpillTemp[N])
      SpillCost[N] = std::numeric_limits<double>::infinity();
}

void IrcRound::addEdge(RegId U, RegId V) {
  if (U == V || AdjSet.test(U, V))
    return;
  AdjSet.setSym(U, V);
  S.ExtraPool.push_back({V, ExtraHead[U]});
  ExtraHead[U] = static_cast<int32_t>(S.ExtraPool.size() - 1);
  S.ExtraPool.push_back({U, ExtraHead[V]});
  ExtraHead[V] = static_cast<int32_t>(S.ExtraPool.size() - 1);
  ++Degree[U];
  ++Degree[V];
}

void IrcRound::makeWorklists() {
  for (RegId N = 0; N != NumNodes; ++N) {
    if (Degree[N] >= K)
      SpillWorklist.insert(N);
    else if (moveRelated(N))
      FreezeWorklist.insert(N);
    else
      SimplifyWorklist.insert(N);
  }
}

bool IrcRound::moveRelated(RegId N) const {
  for (uint32_t I = MoveOff[N], E = MoveOff[N + 1]; I != E; ++I) {
    uint8_t St = MoveStates[MoveIdxs[I]];
    if (St == MSWorklist || St == MSActive)
      return true;
  }
  for (int32_t I = MoveExtraHead[N]; I != -1; I = S.MoveExtraPool[I].Next) {
    uint8_t St = MoveStates[S.MoveExtraPool[I].Move];
    if (St == MSWorklist || St == MSActive)
      return true;
  }
  return false;
}

void IrcRound::simplify() {
  ++Stats.SimplifySteps;
  RegId N = SimplifyWorklist.first();
  SimplifyWorklist.erase(N);
  S.SelectStack.push_back(N);
  OnSelectStack[N] = 1;
  forEachAdjacent(N, [&](RegId M) { decrementDegree(M); });
}

void IrcRound::decrementDegree(RegId M) {
  unsigned D = Degree[M];
  Degree[M] = D - 1;
  if (D != K)
    return;
  enableMoves(M);
  forEachAdjacent(M, [&](RegId T) { enableMoves(T); });
  SpillWorklist.erase(M);
  if (moveRelated(M))
    FreezeWorklist.insert(M);
  else
    SimplifyWorklist.insert(M);
}

void IrcRound::enableMoves(RegId N) {
  forEachNodeMove(N, [&](uint32_t MoveIdx) {
    if (MoveStates[MoveIdx] != MSActive)
      return;
    MoveStates[MoveIdx] = MSWorklist;
    ActiveMoves.erase(MoveIdx);
    WorklistMoves.insert(MoveIdx);
  });
}

bool IrcRound::georgeOk(RegId T, RegId U) const {
  return Degree[T] < K || AdjSet.test(T, U);
}

bool IrcRound::briggsConservative(RegId U, RegId V) {
  // Count distinct significant-degree neighbors of the combined node.
  // Epoch-stamp dedup; the count is order-independent, so no sorted
  // container is needed.
  ++BriggsStamp;
  unsigned Significant = 0;
  auto Visit = [&](RegId T) {
    if (NbrStamp[T] == BriggsStamp)
      return;
    NbrStamp[T] = BriggsStamp;
    unsigned D = Degree[T];
    // Merging U and V turns a neighbor of both into a neighbor of one.
    if (AdjSet.test(T, U) && AdjSet.test(T, V))
      --D;
    Significant += D >= K;
  };
  forEachAdjacent(U, Visit);
  forEachAdjacent(V, Visit);
  return Significant < K;
}

RegId IrcRound::getAlias(RegId N) const {
  while (CoalescedNodes.contains(N))
    N = Alias[N];
  return N;
}

void IrcRound::coalesce() {
  uint32_t MoveIdx = WorklistMoves.first();
  WorklistMoves.erase(MoveIdx);
  RegId X = getAlias(MoveDst[MoveIdx]);
  RegId Y = getAlias(MoveSrc[MoveIdx]);
  RegId U = X, V = Y;
  if (U == V) {
    MoveStates[MoveIdx] = MSCoalesced;
    addWorkList(U);
    return;
  }
  if (AdjSet.test(U, V)) {
    ++Stats.CoalesceConstrained;
    MoveStates[MoveIdx] = MSConstrained;
    addWorkList(U);
    addWorkList(V);
    return;
  }
  if (briggsConservative(U, V)) {
    ++Stats.CoalesceBriggs;
    MoveStates[MoveIdx] = MSCoalesced;
    combine(U, V);
    addWorkList(U);
    return;
  }
  // George test as a fallback: every neighbor of V is OK with U.
  bool GeorgeAll = true;
  forEachAdjacent(V, [&](RegId T) { GeorgeAll &= georgeOk(T, U); });
  if (GeorgeAll) {
    ++Stats.CoalesceGeorge;
    MoveStates[MoveIdx] = MSCoalesced;
    combine(U, V);
    addWorkList(U);
    return;
  }
  ++Stats.CoalesceDeferred;
  MoveStates[MoveIdx] = MSActive;
  ActiveMoves.insert(MoveIdx);
}

void IrcRound::addWorkList(RegId U) {
  if (!moveRelated(U) && Degree[U] < K) {
    FreezeWorklist.erase(U);
    SimplifyWorklist.insert(U);
  }
}

void IrcRound::combine(RegId U, RegId V) {
  if (FreezeWorklist.contains(V))
    FreezeWorklist.erase(V);
  else
    SpillWorklist.erase(V);
  CoalescedNodes.insert(V);
  Alias[V] = U;
  // Concatenate V's move list onto U's (duplicates allowed, as with the
  // old vector append; consumers are idempotent).
  for (uint32_t I = MoveOff[V], E = MoveOff[V + 1]; I != E; ++I) {
    S.MoveExtraPool.push_back({MoveIdxs[I], MoveExtraHead[U]});
    MoveExtraHead[U] = static_cast<int32_t>(S.MoveExtraPool.size() - 1);
  }
  for (int32_t I = MoveExtraHead[V]; I != -1;
       I = S.MoveExtraPool[I].Next) {
    uint32_t M = S.MoveExtraPool[I].Move;
    S.MoveExtraPool.push_back({M, MoveExtraHead[U]});
    MoveExtraHead[U] = static_cast<int32_t>(S.MoveExtraPool.size() - 1);
  }
  enableMoves(V);
  forEachAdjacent(V, [&](RegId T) {
    addEdge(T, U);
    decrementDegree(T);
  });
  if (Degree[U] >= K && FreezeWorklist.contains(U)) {
    FreezeWorklist.erase(U);
    SpillWorklist.insert(U);
  }
}

void IrcRound::freeze() {
  ++Stats.FreezeSteps;
  RegId U = FreezeWorklist.first();
  FreezeWorklist.erase(U);
  SimplifyWorklist.insert(U);
  freezeMoves(U);
}

void IrcRound::freezeMoves(RegId U) {
  // Snapshot first (like the old materialized nodeMoves vector): freezing
  // mutates the states the filter reads.
  S.MoveSnap.clear();
  forEachNodeMove(U, [&](uint32_t MoveIdx) { S.MoveSnap.push_back(MoveIdx); });
  for (uint32_t MoveIdx : S.MoveSnap) {
    if (MoveStates[MoveIdx] == MSActive)
      ActiveMoves.erase(MoveIdx);
    else
      WorklistMoves.erase(MoveIdx);
    MoveStates[MoveIdx] = MSFrozen;
    RegId X = getAlias(MoveDst[MoveIdx]);
    RegId Y = getAlias(MoveSrc[MoveIdx]);
    RegId V = Y == getAlias(U) ? X : Y;
    if (!moveRelated(V) && Degree[V] < K && FreezeWorklist.contains(V)) {
      FreezeWorklist.erase(V);
      SimplifyWorklist.insert(V);
    }
  }
}

void IrcRound::selectSpill() {
  ++Stats.SpillSelects;
  // Chaitin heuristic: lowest cost / degree. Spill temporaries have
  // infinite cost so they are chosen only when nothing else remains.
  RegId BestNode = NoReg;
  double BestScore = std::numeric_limits<double>::infinity();
  SpillWorklist.forEach([&](uint32_t N) {
    double Score =
        SpillCost[N] / std::max(1.0, static_cast<double>(Degree[N]));
    if (BestNode == NoReg || Score < BestScore) {
      BestNode = N;
      BestScore = Score;
    }
  });
  assert(BestNode != NoReg && "selectSpill on empty worklist");
  SpillWorklist.erase(BestNode);
  SimplifyWorklist.insert(BestNode);
  freezeMoves(BestNode);
}

void IrcRound::assignColors() {
  // Representative and members of each node, for the select hook (only
  // needed when a hook will read them). Aliases no longer change here.
  std::vector<RegId> RepOf;
  std::vector<std::vector<RegId>> MembersOf;
  if (Hook) {
    RepOf.resize(NumNodes);
    MembersOf.resize(NumNodes);
    for (RegId N = 0; N != NumNodes; ++N) {
      RepOf[N] = getAlias(N);
      MembersOf[RepOf[N]].push_back(N);
    }
  }

  SelectContext Ctx;
  Ctx.RepOf = RepOf.data();
  Ctx.ColorOfRep = ColorOf;

  std::vector<uint8_t> &Used = S.UsedColors;
  std::vector<unsigned> &OkColors = S.OkColors;
  while (!S.SelectStack.empty()) {
    RegId N = S.SelectStack.back();
    S.SelectStack.pop_back();
    Used.assign(K, 0);
    forEachRawAdjacent(N, [&](RegId W) {
      RegId Rep = getAlias(W);
      if (ColoredNodes.contains(Rep))
        Used[ColorOf[Rep]] = 1;
    });
    OkColors.clear();
    for (unsigned C = 0; C != K; ++C)
      if (!Used[C])
        OkColors.push_back(C);
    OnSelectStack[N] = 0;
    if (OkColors.empty()) {
      SpilledNodes.insert(N);
      continue;
    }
    ColoredNodes.insert(N);
    unsigned Chosen = OkColors.front();
    if (Hook && OkColors.size() > 1) {
      Ctx.Node = N;
      Ctx.Members = &MembersOf[N];
      Ctx.OkColors = &OkColors;
      Chosen = Hook->choose(Ctx);
      assert(std::find(OkColors.begin(), OkColors.end(), Chosen) !=
                 OkColors.end() &&
             "hook returned an illegal color");
    }
    ColorOf[N] = Chosen;
  }
  CoalescedNodes.forEach([&](uint32_t N) {
    RegId Rep = getAlias(N);
    if (ColoredNodes.contains(Rep))
      ColorOf[N] = ColorOf[Rep];
  });
}

/// Test-only worklist invariants (see setIrcSelfCheck): every node sits in
/// exactly one of {simplify, freeze, spill, select stack, coalesced};
/// worklist members' Degree equals their live (non-stack, non-coalesced)
/// adjacency count; spill-worklist members have significant degree.
void IrcRound::checkInvariants() const {
  size_t Violations = 0;
  for (RegId N = 0; N != NumNodes; ++N) {
    unsigned Memberships = SimplifyWorklist.contains(N) +
                           FreezeWorklist.contains(N) +
                           SpillWorklist.contains(N) +
                           CoalescedNodes.contains(N) +
                           (OnSelectStack[N] != 0);
    Violations += Memberships != 1;
    if (SimplifyWorklist.contains(N) || FreezeWorklist.contains(N) ||
        SpillWorklist.contains(N)) {
      unsigned LiveAdj = 0;
      forEachRawAdjacent(N, [&](RegId M) {
        LiveAdj += !OnSelectStack[M] && !CoalescedNodes.contains(M);
      });
      Violations += LiveAdj != Degree[N];
    }
    if (SpillWorklist.contains(N))
      Violations += Degree[N] < K;
  }
  IrcSelfCheckViolationCount += Violations;
}

std::vector<RegId> IrcRound::run(std::vector<RegId> &ColorOutParam) {
  build();
  computeSpillCosts();
  if (Hook)
    Hook->beginFunction(F);
  makeWorklists();
  if (IrcSelfCheckEnabled)
    checkInvariants();
  for (;;) {
    if (!SimplifyWorklist.empty())
      simplify();
    else if (!WorklistMoves.empty())
      coalesce();
    else if (!FreezeWorklist.empty())
      freeze();
    else if (!SpillWorklist.empty())
      selectSpill();
    else
      break;
    if (IrcSelfCheckEnabled)
      checkInvariants();
  }
  assignColors();
  ColorOutParam.assign(ColorOf, ColorOf + NumNodes);
  // A spilled representative stands for every virtual register coalesced
  // into it; all of them must go to memory.
  std::vector<RegId> AllSpilled;
  for (RegId N = 0; N != NumNodes; ++N)
    if (SpilledNodes.contains(getAlias(N)))
      AllSpilled.push_back(N);
  return AllSpilled;
}

} // namespace

void dra::setIrcSelfCheck(bool Enable) { IrcSelfCheckEnabled = Enable; }

size_t dra::ircSelfCheckViolations() {
  return IrcSelfCheckViolationCount.load();
}

std::vector<RegId> dra::insertSpillCode(Function &F, RegId VReg) {
  uint32_t Slot = F.NumSpillSlots++;
  std::vector<RegId> NewTemps;
  for (BasicBlock &BB : F.Blocks) {
    std::vector<Instruction> NewInsts;
    NewInsts.reserve(BB.Insts.size());
    for (Instruction I : BB.Insts) {
      // Loads before uses.
      RegId Uses[2];
      unsigned NumUses;
      I.uses(Uses, NumUses);
      bool UsesVReg = false;
      for (unsigned U = 0; U != NumUses; ++U)
        UsesVReg |= Uses[U] == VReg;
      if (UsesVReg) {
        RegId Tmp = F.makeReg();
        NewTemps.push_back(Tmp);
        Instruction Ld;
        Ld.Op = Opcode::SpillLd;
        Ld.Dst = Tmp;
        Ld.Imm = Slot;
        NewInsts.push_back(Ld);
        if (NumUses >= 1 && I.Src1 == VReg)
          I.Src1 = Tmp;
        if (NumUses >= 2 && I.Src2 == VReg)
          I.Src2 = Tmp;
      }
      // Store after def.
      if (I.def() == VReg) {
        RegId Tmp = F.makeReg();
        NewTemps.push_back(Tmp);
        I.Dst = Tmp;
        NewInsts.push_back(I);
        Instruction St;
        St.Op = Opcode::SpillSt;
        St.Src1 = Tmp;
        St.Imm = Slot;
        NewInsts.push_back(St);
        continue;
      }
      NewInsts.push_back(I);
    }
    BB.Insts = std::move(NewInsts);
  }
  return NewTemps;
}

void dra::rewriteToPhysical(Function &F, const std::vector<RegId> &ColorOf,
                            unsigned K, size_t *MovesRemoved) {
  for (BasicBlock &BB : F.Blocks) {
    std::vector<Instruction> NewInsts;
    NewInsts.reserve(BB.Insts.size());
    for (Instruction I : BB.Insts) {
      for (unsigned Field = 0; Field != I.numRegFields(); ++Field) {
        RegId V = I.regField(Field);
        assert(ColorOf[V] != NoReg && "uncolored register after allocation");
        assert(ColorOf[V] < K && "color out of range");
        I.setRegField(Field, ColorOf[V]);
      }
      if (I.Op == Opcode::Mov && I.Dst == I.Src1) {
        if (MovesRemoved)
          ++*MovesRemoved;
        continue;
      }
      NewInsts.push_back(I);
    }
    BB.Insts = std::move(NewInsts);
  }
  F.NumRegs = K;
  F.recomputeCFG();
}

AllocResult dra::allocateGraphColoring(Function &F, unsigned K,
                                       SelectHook *Hook,
                                       unsigned MaxIterations,
                                       std::vector<RegId> *ColorOut,
                                       std::vector<StageSpan> *SubSpans) {
  assert(K >= 4 && "need at least four physical registers");
  AllocResult Result;
  std::vector<uint8_t> IsSpillTemp(F.NumRegs, 0);

  IrcScratch Scratch;
  std::vector<RegId> ColorOf;
  for (;;) {
    if (++Result.Iterations > MaxIterations) {
      Result.Success = false;
      return Result;
    }
    ScopedSpan Span(SubSpans, "alloc.round");
    Scratch.beginRound();
    IrcRound Round(F, K, Hook, IsSpillTemp, Result, Scratch);
    std::vector<RegId> Spilled = Round.run(ColorOf);
    if (Spilled.empty())
      break;
    Result.SpilledRanges += Spilled.size();
    for (RegId V : Spilled) {
      std::vector<RegId> Temps = insertSpillCode(F, V);
      IsSpillTemp.resize(F.NumRegs, 0);
      for (RegId T : Temps)
        IsSpillTemp[T] = 1;
    }
  }

  for (const BasicBlock &BB : F.Blocks)
    for (const Instruction &I : BB.Insts) {
      Result.SpillLoads += I.Op == Opcode::SpillLd;
      Result.SpillStores += I.Op == Opcode::SpillSt;
    }

  if (ColorOut) {
    // Leave F in virtual-register form for post-coloring refinement.
    *ColorOut = std::move(ColorOf);
    for (const BasicBlock &BB : F.Blocks)
      for (const Instruction &I : BB.Insts)
        Result.MovesRemaining += I.Op == Opcode::Mov;
    return Result;
  }

  rewriteToPhysical(F, ColorOf, K, &Result.MovesRemoved);
  for (const BasicBlock &BB : F.Blocks)
    for (const Instruction &I : BB.Insts)
      Result.MovesRemaining += I.Op == Opcode::Mov;
  return Result;
}

//===- core/Remap.cpp - Differential remapping (post-pass) ----------------===//

#include "core/Remap.h"

#include "adt/Rng.h"
#include "driver/ThreadPool.h"
#include "driver/Trace.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cmath>
#include <condition_variable>
#include <cstring>
#include <exception>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <string>

using namespace dra;

namespace {

/// Cost of assignment Perm on G (Perm[node] = register number).
double permCost(const AdjacencyGraph &G, const EncodingConfig &C,
                const std::vector<RegId> &Perm) {
  return G.cost(Perm, C);
}

bool isPinned(const RemapOptions &O, RegId R) {
  for (RegId P : O.PinnedRegs)
    if (P == R)
      return true;
  return false;
}

std::vector<RegId> movableRegs(const EncodingConfig &C,
                               const RemapOptions &O) {
  std::vector<RegId> Movable;
  for (RegId R = 0; R != C.RegN; ++R)
    if (!C.isSpecial(R) && !isPinned(O, R))
      Movable.push_back(R);
  return Movable;
}

/// Exhaustive search over all permutations that fix the special and pinned
/// registers. Reports its effort through the shared counters: StartsRun is
/// the one enumeration, SwapsEvaluated the permutations costed, and
/// SwapsApplied the improvements over the running best.
RemapResult exhaustiveSearch(const AdjacencyGraph &G,
                             const EncodingConfig &C,
                             const RemapOptions &O) {
  unsigned N = C.RegN;
  std::vector<RegId> Movable = movableRegs(C, O);

  std::vector<RegId> Targets = Movable; // Values assigned to movable slots.
  std::vector<RegId> Perm(N);
  for (RegId R = 0; R != N; ++R)
    Perm[R] = R;

  RemapResult Best;
  Best.Exhaustive = true;
  Best.StartsRun = 1;
  Best.CostBefore = G.identityCost(C);
  Best.CostAfter = std::numeric_limits<double>::infinity();
  do {
    for (size_t I = 0; I != Movable.size(); ++I)
      Perm[Movable[I]] = Targets[I];
    ++Best.SwapsEvaluated;
    double Cost = permCost(G, C, Perm);
    if (Cost < Best.CostAfter) {
      ++Best.SwapsApplied;
      Best.CostAfter = Cost;
      Best.Perm = Perm;
    }
  } while (std::next_permutation(Targets.begin(), Targets.end()));
  return Best;
}

/// Per-descent effort, merged into RemapResult by the search driver.
struct DescentStats {
  size_t Eval = 0;
  size_t Applied = 0;
  size_t Arcs = 0;
};

/// One greedy descent evaluating candidates against the precomputed cost
/// model: O(degree(U) + degree(V)) per candidate, no hash lookups. The
/// permutation's cost is maintained incrementally across applied swaps
/// (Cost += best delta); debug builds cross-check the running cost
/// against a full recost after every applied swap.
double greedyDescentModel(const AdjacencyGraph &G, const EncodingConfig &C,
                          const RemapCostModel &M,
                          const std::vector<RegId> &Movable,
                          std::vector<RegId> &Perm, DescentStats &S) {
  double Cost = permCost(G, C, Perm);
  for (;;) {
    double BestDelta = 0;
    size_t BestI = 0, BestJ = 0;
    for (size_t I = 0; I + 1 < Movable.size(); ++I) {
      for (size_t J = I + 1; J < Movable.size(); ++J) {
        RegId U = Movable[I], V = Movable[J];
        ++S.Eval;
        S.Arcs += M.deltaArcs(U, V);
        double Delta = M.swapDelta(Perm, U, V);
        if (Delta < BestDelta) {
          BestDelta = Delta;
          BestI = I;
          BestJ = J;
        }
      }
    }
    if (BestDelta >= 0)
      return Cost;
    std::swap(Perm[Movable[BestI]], Perm[Movable[BestJ]]);
    ++S.Applied;
    Cost += BestDelta;
#ifndef NDEBUG
    double Full = permCost(G, C, Perm);
    assert(std::fabs(Full - Cost) <=
               1e-6 * std::max(1.0, std::fabs(Full)) &&
           "incremental remap cost drifted from full recost");
#endif
  }
}

/// Maps a non-NaN double to an unsigned key with the same total order, so
/// the shared best-cost bound can be a lock-free CAS-min on uint64_t.
uint64_t orderedCostBits(double D) {
  uint64_t B;
  std::memcpy(&B, &D, sizeof B);
  return (B & (1ull << 63)) ? ~B : B | (1ull << 63);
}

/// The restart cursor of one search, shared with the helper tasks the
/// search lends to a pool. Held by shared_ptr: a helper still queued when
/// the search returns finds Closed set and leaves without touching Run,
/// which points into the search's stack frame.
struct StartCursor {
  size_t N = 0;
  /// Runs one start; false when the zero-cost cutoff skipped it.
  const std::function<bool(size_t)> *Run = nullptr;
  ThreadPool *Pool = nullptr;
  std::atomic<uint64_t> *HelperStarts = nullptr;
  std::atomic<size_t> Next{0};
  std::mutex Mtx;
  std::condition_variable Idle;
  unsigned Active = 0;      ///< Helpers inside drain(); guarded by Mtx.
  bool Closed = false;      ///< No helper may enter; guarded by Mtx.
  std::exception_ptr Error; ///< First failed start; guarded by Mtx.

  /// Claims and runs starts until none is left; returns how many ran. A
  /// helper also stops, between two starts, once a submit()ted task waits
  /// for a worker, so a request queued behind it waits for at most one
  /// start; the caller never stops. A throwing start is recorded for the
  /// searching thread to rethrow.
  unsigned drain(bool Helper) {
    unsigned Ran = 0;
    try {
      for (size_t I;;) {
        if (Helper && Pool->waitingTasks())
          break;
        if ((I = Next.fetch_add(1, std::memory_order_relaxed)) >= N)
          break;
        bool Counted = (*Run)(I);
        Ran += Counted;
        if (Helper && Counted && HelperStarts)
          HelperStarts->fetch_add(1, std::memory_order_relaxed);
      }
    } catch (...) {
      std::lock_guard<std::mutex> Lock(Mtx);
      if (!Error)
        Error = std::current_exception();
    }
    return Ran;
  }
};

/// A helper task's body. It enters only while the search is open, and
/// everything it publishes (outcomes, trace span) happens before it
/// leaves, which is what the searching thread waits for.
void helpSearch(StartCursor &S, TraceContext *Trace) {
  {
    std::lock_guard<std::mutex> Lock(S.Mtx);
    if (S.Closed)
      return;
    ++S.Active;
  }
  const uint64_t BeginNs = Trace ? steadyClockNs() : 0;
  if (S.drain(/*Helper=*/true) && Trace) {
    Trace->nameCurrentThread(
        "worker-" + std::to_string(ThreadPool::currentWorker()));
    Trace->record("remap.help", BeginNs, steadyClockNs(), /*Depth=*/3);
  }
  std::lock_guard<std::mutex> Lock(S.Mtx);
  if (--S.Active == 0)
    S.Idle.notify_all();
}

/// Runs starts [0, N) on the calling thread, helped by one task per idle
/// worker of O.Pool, at most N - 1 (ThreadPool::submitToIdle). Returns
/// once every start has run; rethrows the first failure.
void runStarts(size_t N, const std::function<bool(size_t)> &Run,
               const RemapOptions &O, TraceContext *Trace) {
  auto S = std::make_shared<StartCursor>();
  S->N = N;
  S->Run = &Run;
  S->Pool = O.Pool;
  S->HelperStarts = O.HelperStarts;
  if (O.Pool && N > 1)
    O.Pool->submitToIdle([S, Trace] { helpSearch(*S, Trace); },
                         static_cast<unsigned>(N - 1));
  S->drain(/*Helper=*/false);
  std::unique_lock<std::mutex> Lock(S->Mtx);
  S->Closed = true;
  S->Idle.wait(Lock, [&] { return S->Active == 0; });
  if (S->Error)
    std::rethrow_exception(S->Error);
}

/// The multi-start greedy search, optionally helped by pool workers.
/// Bit-identical to a sequential loop over the starts (draw the next
/// restart vector, descend, keep it if strictly cheaper, stop at cost
/// zero) however many helpers join:
///
///  * every restart vector is drawn up front on the calling thread from
///    the one sequential Rng stream, so start k sees the same initial
///    permutation regardless of scheduling;
///  * descents are per-start deterministic (see RemapCostModel for why
///    each delta is exact to the bit);
///  * the only deterministic early cutoff is a provable global minimum —
///    a start finishing at cost zero — tracked as the minimum zero-cost
///    start index: StartsRun = FirstZero + 1 matches the sequential break,
///    counters sum only over starts below it, and speculatively-run
///    higher-indexed starts are discarded from stats and reduction;
///  * a shared atomic best-cost bound (CAS-min) additionally gates which
///    starts keep their permutation alive for the reduction — a start
///    whose final cost exceeds the bound at completion can never win
///    (cost, start-index) and drops its vector immediately;
///  * the winner is the lowest-cost start, earliest index on ties —
///    exactly the sequential update rule `Cost < Best.CostAfter`.
RemapResult greedySearch(const AdjacencyGraph &G, const EncodingConfig &C,
                         const RemapOptions &O, TraceContext *Trace) {
  unsigned N = C.RegN;
  std::vector<RegId> Movable = movableRegs(C, O);

  std::vector<RegId> Identity(N);
  for (RegId R = 0; R != N; ++R)
    Identity[R] = R;

  RemapResult Best;
  Best.CostBefore = G.identityCost(C);
  Best.CostAfter = std::numeric_limits<double>::infinity();

  unsigned Starts = std::max(1u, O.NumStarts);
  size_t M = Movable.size();

  // Replay the sequential restart stream up front (start 0 is identity).
  std::vector<RegId> StartTargets;
  StartTargets.reserve(static_cast<size_t>(Starts - 1) * M);
  {
    Rng Random(O.Seed);
    for (unsigned Start = 1; Start < Starts; ++Start) {
      std::vector<RegId> Targets = Movable;
      Random.shuffle(Targets);
      StartTargets.insert(StartTargets.end(), Targets.begin(),
                          Targets.end());
    }
  }

  RemapCostModel Model(G, C);

  struct StartOutcome {
    double Cost = std::numeric_limits<double>::infinity();
    DescentStats Stats;
    std::vector<RegId> Perm;
    bool HasPerm = false;
    bool Ran = false;
  };
  std::vector<StartOutcome> Outcomes(Starts);

  constexpr uint64_t NoZero = std::numeric_limits<uint64_t>::max();
  std::atomic<uint64_t> FirstZero{NoZero};
  std::atomic<uint64_t> BestBound{
      orderedCostBits(std::numeric_limits<double>::infinity())};

  const std::function<bool(size_t)> RunStart = [&](size_t Start) {
    // Early cutoff: some start at a lower index already reached the
    // provable minimum, so the sequential search would never get here.
    if (Start > FirstZero.load(std::memory_order_relaxed))
      return false;
    StartOutcome &Out = Outcomes[Start];
    Out.Ran = true;
    std::vector<RegId> Perm = Identity;
    if (Start != 0) {
      const RegId *T = StartTargets.data() + (Start - 1) * M;
      for (size_t I = 0; I != M; ++I)
        Perm[Movable[I]] = T[I];
    }
    Out.Cost = greedyDescentModel(G, C, Model, Movable, Perm, Out.Stats);

    // Shared best-cost bound: CAS-min, then keep the permutation only
    // while this start is still a candidate winner under the bound.
    uint64_t MyBits = orderedCostBits(Out.Cost);
    uint64_t Cur = BestBound.load(std::memory_order_relaxed);
    while (MyBits < Cur &&
           !BestBound.compare_exchange_weak(Cur, MyBits,
                                            std::memory_order_relaxed))
      ;
    if (MyBits <= BestBound.load(std::memory_order_relaxed)) {
      Out.Perm = std::move(Perm);
      Out.HasPerm = true;
    }
    if (Out.Cost == 0) {
      uint64_t Prev = FirstZero.load(std::memory_order_relaxed);
      while (Start < Prev &&
             !FirstZero.compare_exchange_weak(Prev, Start,
                                              std::memory_order_relaxed))
        ;
    }
    return true;
  };

  // One drain-and-reduce path, with or without a pool to borrow from.
  runStarts(Starts, RunStart, O, Trace);

  // Deterministic reduction. Starts at or below the first zero-cost index
  // always ran (the cutoff only ever skips higher indices); anything the
  // helpers ran beyond it is speculative work the sequential search would
  // not have done, so it contributes neither stats nor candidates.
  uint64_t FZ = FirstZero.load(std::memory_order_relaxed);
  unsigned Ran = FZ == NoZero ? Starts : static_cast<unsigned>(FZ) + 1;
  Best.StartsRun = Ran;
  Best.StartsCutOff = Starts - Ran;
  size_t Winner = SIZE_MAX;
  for (unsigned Start = 0; Start != Ran; ++Start) {
    StartOutcome &Out = Outcomes[Start];
    assert(Out.Ran && "start below the zero-cost cutoff was skipped");
    Best.SwapsEvaluated += Out.Stats.Eval;
    Best.SwapsApplied += Out.Stats.Applied;
    Best.DeltaArcsVisited += Out.Stats.Arcs;
    if (Out.Cost < Best.CostAfter) {
      Best.CostAfter = Out.Cost;
      Winner = Start;
    }
  }
  assert(Winner != SIZE_MAX && Outcomes[Winner].HasPerm &&
         "winning start did not keep its permutation");
  Best.Perm = std::move(Outcomes[Winner].Perm);

  size_t FullTerms = Best.SwapsEvaluated * Model.arcCount();
  Best.DeltaRecostSavings = FullTerms > Best.DeltaArcsVisited
                                ? FullTerms - Best.DeltaArcsVisited
                                : 0;
  return Best;
}

} // namespace

RemapCostModel::RemapCostModel(const AdjacencyGraph &G,
                               const EncodingConfig &C)
    : RegN(C.RegN), Rows(C.RegN, Row{0, 0, 0}), Viol(2 * C.RegN, 0.0) {
  // Condition (3) over every signed difference to - from, stored at
  // to - from + RegN: diff 0 is a self-transition (always encodable) and
  // DiffN >= 1, so "violated" is exactly (to - from) mod RegN >= DiffN.
  for (unsigned D = 0; D != 2 * RegN; ++D)
    Viol[D] = D % RegN >= C.DiffN;

  auto Push = [&](RegId O, double Weight) {
    // The precondition of the masked accumulation (see the class comment).
    assert(std::isfinite(Weight) && Weight >= 0 &&
           "remap cost model needs finite non-negative weights");
    Other.push_back(O);
    W.push_back(Weight);
  };
  uint32_t Nodes = std::min<uint32_t>(G.numNodes(), RegN);
  for (RegId R = 0; R != RegN; ++R) {
    Row &Rw = Rows[R];
    Rw.Begin = static_cast<uint32_t>(Other.size());
    if (R < Nodes)
      G.forEachOut(R, Push);
    Rw.Mid = static_cast<uint32_t>(Other.size());
    if (R < Nodes)
      G.forEachIn(R, Push);
    Rw.End = static_cast<uint32_t>(Other.size());
    NumArcs += Rw.Mid - Rw.Begin;
  }
}

double RemapCostModel::swapDelta(const std::vector<RegId> &Perm, RegId U,
                                 RegId V) const {
  double Before = 0, After = 0;
  const RegId *P = Perm.data();
  const RegId *Oth = Other.data();
  const double *Wt = W.data();
  // Mask[To - From]: 1.0 when From -> To violates condition (3).
  const double *Mask = Viol.data() + RegN;
  const ptrdiff_t PU = P[U], PV = P[V];
  const Row RU = Rows[U], RV = Rows[V];
  // Row U: arcs anchored at U, whose number changes PU -> PV. The far
  // endpoint keeps its number unless it is V (the shared edge), which
  // takes PU. Self edges are never stored, so Other != U here and
  // Other != V below.
  for (uint32_t I = RU.Begin; I != RU.Mid; ++I) {
    ptrdiff_t O = P[Oth[I]];
    ptrdiff_t OS = Oth[I] == V ? PU : O;
    Before += Wt[I] * Mask[O - PU];
    After += Wt[I] * Mask[OS - PV];
  }
  for (uint32_t I = RU.Mid; I != RU.End; ++I) {
    ptrdiff_t O = P[Oth[I]];
    ptrdiff_t OS = Oth[I] == V ? PU : O;
    Before += Wt[I] * Mask[PU - O];
    After += Wt[I] * Mask[PV - OS];
  }
  // Row V, skipping the shared edge already counted under row U (at most
  // one arc per direction, so the test is almost always not-taken).
  for (uint32_t I = RV.Begin; I != RV.Mid; ++I) {
    if (Oth[I] == U)
      continue;
    ptrdiff_t O = P[Oth[I]];
    Before += Wt[I] * Mask[O - PV];
    After += Wt[I] * Mask[O - PU];
  }
  for (uint32_t I = RV.Mid; I != RV.End; ++I) {
    if (Oth[I] == U)
      continue;
    ptrdiff_t O = P[Oth[I]];
    Before += Wt[I] * Mask[PV - O];
    After += Wt[I] * Mask[PU - O];
  }
  return After - Before;
}

RemapResult dra::findRemap(const AdjacencyGraph &G, const EncodingConfig &C,
                           const RemapOptions &O, TraceContext *Trace) {
  assert(G.numNodes() <= C.RegN && "adjacency graph larger than RegN");
  unsigned MovableCount = 0;
  for (RegId R = 0; R != C.RegN; ++R)
    MovableCount += !C.isSpecial(R) && !isPinned(O, R);
  RemapResult Result;
  if (MovableCount <= O.ExhaustiveLimit)
    Result = exhaustiveSearch(G, C, O);
  else
    Result = greedySearch(G, C, O, Trace);
  // Never accept a permutation worse than the identity.
  if (Result.CostAfter > Result.CostBefore) {
    Result.CostAfter = Result.CostBefore;
    Result.Perm.resize(C.RegN);
    for (RegId R = 0; R != C.RegN; ++R)
      Result.Perm[R] = R;
  }
  return Result;
}

void dra::applyPermutation(Function &F, const std::vector<RegId> &Perm) {
  for (BasicBlock &BB : F.Blocks)
    for (Instruction &I : BB.Insts)
      for (unsigned Field = 0; Field != I.numRegFields(); ++Field) {
        RegId R = I.regField(Field);
        assert(R < Perm.size() && "register outside permutation domain");
        I.setRegField(Field, Perm[R]);
      }
}

RemapResult dra::remapFunction(Function &F, const EncodingConfig &C,
                               const RemapOptions &O, TraceContext *Trace) {
  assert(F.NumRegs <= C.RegN && "function register universe exceeds RegN");
  Function Widened = F; // Build the graph over the full RegN universe.
  Widened.NumRegs = C.RegN;
  Widened.recomputeCFG();
  AdjacencyGraph G =
      AdjacencyGraph::build(Widened, C, WeightMode::Frequency);
  RemapResult Result = findRemap(G, C, O, Trace);
  applyPermutation(F, Result.Perm);
  F.NumRegs = C.RegN;
  return Result;
}

//===- core/Remap.h - Differential remapping (post-pass) --------*- C++ -*-===//
//
// Part of the differential-register-allocation reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Approach 1 of the paper (Section 5): after any register allocator has
/// run, permute the physical register numbers to minimize the
/// differential-encoding cost on the register-level adjacency graph. The
/// permutation preserves every property a traditional allocator enforced
/// (interfering ranges keep distinct numbers).
///
/// Search strategies:
///  * exhaustive — all RegN! permutations, O(RegN^2 * RegN!), used for
///    small RegN and as the optimality oracle in tests;
///  * greedy — the paper's heuristic: repeated best-pairwise-swap descent
///    to a local minimum, restarted from a configurable number of initial
///    register vectors (the paper uses 1000).
///
/// The greedy search evaluates candidate swaps incrementally against a
/// `RemapCostModel` — flat per-register adjacency arc rows and a 0/1
/// violation mask precomputed once per graph, so one candidate costs a
/// branch-free O(degree(a) + degree(b)) sum instead of a full recost.
///
/// Helping. The restarts are independent, so other threads may run some
/// of them. The searching thread always drains the restart cursor itself.
/// Given a pool (`RemapOptions::Pool`) it also queues one helper task per
/// worker idle at that moment (ThreadPool::submitToIdle). dra-server lends
/// its request pool this way; dra-opt and dra-batch `--remap-jobs=N`, and
/// dra-fuzz's remap-parallel variant, lend a pool of N workers they own.
/// A helper that starts while restarts are left claims them from the same
/// cursor; one that starts after the search has closed is a no-op. The
/// caller waits only for helpers inside the drain, never for a queued
/// task or a worker busy with other work, so a pool whose workers are all
/// busy degrades to the sequential search on the caller, and no thread is
/// created per call.
///
/// Helpers only use spare capacity: they are queued only for idle workers,
/// a worker takes them only when no submit()ted task waits, and a helper
/// leaves the search, between two restarts, as soon as a submit()ted task
/// waits. In dra-server a request that arrives while helpers hold every
/// idle worker therefore waits for one restart of another request's
/// search (tens of microseconds for the small functions of perfbench
/// serve_miss), not for the rest of it. Helpers hold no admission slot
/// and are never shed; what they add to a request's time in flight is
/// that one-restart wait.
///
/// The result is bit-identical at any level of participation: restart
/// vectors are drawn up front from the one sequential seed stream, each
/// descent is deterministic (see RemapCostModel), and the winner is
/// reduced by (cost, start-index) over an index-addressed outcome array,
/// whichever thread ran each start.
///
/// Special registers are pinned to themselves so reserved direct codes and
/// calling conventions stay intact (Sections 9.2/9.3).
///
//===----------------------------------------------------------------------===//

#ifndef DRA_CORE_REMAP_H
#define DRA_CORE_REMAP_H

#include "core/AdjacencyGraph.h"
#include "core/EncodingConfig.h"
#include "ir/Function.h"

#include <atomic>
#include <cstdint>
#include <vector>

namespace dra {

class ThreadPool;   // driver/ThreadPool.h
class TraceContext; // driver/Trace.h

/// Remapping knobs.
struct RemapOptions {
  /// Use exhaustive search when RegN <= this bound.
  unsigned ExhaustiveLimit = 7;
  /// Number of random restarts for the greedy search (first start is the
  /// identity vector). The paper uses 1000.
  unsigned NumStarts = 1000;
  /// Seed for the restart generator.
  uint64_t Seed = 0xd1ffe7e9c0ffee00ull;
  /// Registers the permutation must map to themselves, in addition to the
  /// encoding config's special registers. Section 9.3: pinning the
  /// caller-/callee-saved registers keeps the calling convention intact
  /// without the paper's post-hoc set_last_reg repair of save/restore
  /// sequences.
  std::vector<RegId> PinnedRegs;
  /// A pool whose idle workers help the multi-start greedy search (see
  /// the file comment); non-owning, null runs on the calling thread. The
  /// result is bit-identical with or without it, so this is purely a
  /// wall-clock knob and, like HelperStarts, in no cache key. Ignored by
  /// the exhaustive arm.
  ThreadPool *Pool = nullptr;
  /// When non-null, counts the starts helpers ran (dra-server's
  /// `server.remap_helper_starts`). A portfolio race passes it on to
  /// every arm, so a losing arm's helpers count too: the counter measures
  /// worker time lent, not the result.
  std::atomic<uint64_t> *HelperStarts = nullptr;
};

/// Remapping outcome.
struct RemapResult {
  /// Adjacency cost of the identity assignment (before remapping).
  double CostBefore = 0;
  /// Adjacency cost after applying the chosen permutation.
  double CostAfter = 0;
  /// The chosen permutation: register r becomes Perm[r].
  std::vector<RegId> Perm;
  /// True if the exhaustive search ran (result provably optimal).
  bool Exhaustive = false;
  /// Search effort. Greedy arms: restarts actually run (early exit once a
  /// zero-cost permutation is found), pairwise swaps evaluated across all
  /// descents, and swaps applied (descent steps taken). Exhaustive arm:
  /// StartsRun is 1 (one enumeration), SwapsEvaluated counts permutations
  /// evaluated, SwapsApplied counts improvements over the running best.
  unsigned StartsRun = 0;
  size_t SwapsEvaluated = 0;
  size_t SwapsApplied = 0;
  /// Restarts never run because a lower-indexed start already reached the
  /// provable minimum (cost zero): NumStarts - StartsRun.
  unsigned StartsCutOff = 0;
  /// Greedy search only: adjacency arcs actually summed while
  /// evaluating swap candidates, and the arc-visit count a full recost of
  /// every candidate would have needed instead (the delta-recost saving).
  size_t DeltaArcsVisited = 0;
  size_t DeltaRecostSavings = 0;
};

/// Precomputed per-register view of an AdjacencyGraph for O(degree) swap
/// evaluation with no data-dependent branch in the accumulation.
///
/// Layout: flat CSR rows — one `Other[]` and one `W[]` array over every
/// register's anchored arcs, outgoing arcs before incoming ones, each in
/// the graph's neighbor order — with begin/mid/end offsets per register,
/// plus a mask over the signed number difference to - from, holding 1.0
/// where the transition violates condition (3) and 0.0 where it does not
/// (2 * RegN doubles: the same entries as a RegN x RegN from/to table,
/// without its RegN^2 memory for a request's large RegN). A candidate's
/// terms are then `W[i] * Mask[to - from]` summed unconditionally. The
/// modular-difference test is true about half the time, so a branch per
/// arc mispredicted on most of them: on Frequency graphs of ProgramGen
/// functions at lowEndConfig(12), about 37 arc terms per candidate, a
/// candidate took about 590 ns branchy and 58-89 ns masked (one core of a
/// 4-vCPU Xeon VM).
///
/// Exactness: weights are finite and >= 0 (asserted in debug builds), so
/// `W * 1.0 == W` and `W * 0.0 == +0.0`; the running sums start at +0.0
/// and never become -0.0, so adding a masked-out term leaves them
/// unchanged, and an FMA-contracted `s + W * m` rounds identically. Every
/// Before/After partial sum is therefore the same sequence of roundings as
/// the branchy incident-edge walk — row U out, row U in, row V out, row V
/// in — and every delta, and hence every descent trajectory, is
/// bit-identical to it. Instances are immutable after construction and
/// safe to share across search threads.
class RemapCostModel {
public:
  RemapCostModel(const AdjacencyGraph &G, const EncodingConfig &C);

  /// Exact change in differential cost from exchanging the register
  /// numbers of \p U and \p V under \p Perm (only arcs incident to either
  /// register can change). O(degree(U) + degree(V)).
  double swapDelta(const std::vector<RegId> &Perm, RegId U, RegId V) const;

  /// Arc terms one swapDelta(_, U, V) call sums (row sizes).
  size_t deltaArcs(RegId U, RegId V) const {
    return Rows[U].End - Rows[U].Begin + Rows[V].End - Rows[V].Begin;
  }

  /// Directed arcs in the graph: the term count of one full recost.
  size_t arcCount() const { return NumArcs; }

private:
  /// Register R's arcs: [Begin, Mid) outgoing (R -> Other), [Mid, End)
  /// incoming (Other -> R).
  struct Row {
    uint32_t Begin, Mid, End;
  };

  unsigned RegN = 0;
  size_t NumArcs = 0;
  std::vector<Row> Rows;
  std::vector<RegId> Other;  ///< The endpoint that is not the row's register.
  std::vector<double> W;     ///< Edge weight, parallel to Other.
  std::vector<double> Viol;  ///< [to - from + RegN]: 1.0 if violated.
};

/// Finds a cost-minimizing permutation for the register-level adjacency
/// graph \p G (NumNodes == C.RegN). Does not touch any function.
/// With \p Trace, every helper that ran a start records a `remap.help`
/// span (depth 3, inside the caller's depth-2 `remap` stage) on its own
/// named track.
RemapResult findRemap(const AdjacencyGraph &G, const EncodingConfig &C,
                      const RemapOptions &O = {},
                      TraceContext *Trace = nullptr);

/// Convenience: builds the register-level adjacency graph of the allocated
/// function \p F, finds a permutation, and rewrites F's register operands
/// in place. F.NumRegs must be <= C.RegN; it becomes C.RegN.
RemapResult remapFunction(Function &F, const EncodingConfig &C,
                          const RemapOptions &O = {},
                          TraceContext *Trace = nullptr);

/// Applies \p Perm to every register operand of \p F.
void applyPermutation(Function &F, const std::vector<RegId> &Perm);

} // namespace dra

#endif // DRA_CORE_REMAP_H

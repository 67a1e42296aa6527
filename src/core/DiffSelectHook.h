//===- core/DiffSelectHook.h - Differential select (approach 2) -*- C++ -*-===//
//
// Part of the differential-register-allocation reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Approach 2 of the paper (Section 6, Figure 8): the select stage of the
/// graph-coloring allocator consults the live-range adjacency graph and,
/// among the colors legal on the interference graph, picks the one with
/// the minimal differential-encoding cost against the neighbors already
/// colored. Implemented as a SelectHook for the iterated-register-
/// coalescing allocator (and reused by the differential-coalesce driver).
///
//===----------------------------------------------------------------------===//

#ifndef DRA_CORE_DIFFSELECTHOOK_H
#define DRA_CORE_DIFFSELECTHOOK_H

#include "core/AdjacencyGraph.h"
#include "core/EncodingConfig.h"
#include "regalloc/SelectHook.h"

#include <cassert>
#include <vector>

namespace dra {

/// Differential-select costs of every color in one walk over the node's
/// adjacency edges. Costs[c] (c < C.RegN) receives the weight of the edges
/// between a member of \p Members and an already-colored vreg that would
/// violate condition (3) were the node given color c. \p ColorOf(V)
/// returns V's color, or NoReg when V is uncolored or one of \p Members.
///
/// An edge to a neighbour colored t violates for exactly RegN - DiffN
/// colors (those at modular distance DiffN..RegN-1 from t), so each edge
/// adds its weight to those totals only. Each Costs[c] is still the same
/// sequence of additions, in the same edge order, as a walk that prices
/// color c alone, so every total is bit-identical to that walk's.
template <typename ColorOfFn>
void selectCosts(const AdjacencyGraph &G, const EncodingConfig &C,
                 const std::vector<RegId> &Members, ColorOfFn ColorOf,
                 std::vector<double> &Costs) {
  const unsigned N = C.RegN;
  Costs.assign(N, 0.0);
  for (RegId M : Members) {
    if (M >= G.numNodes())
      continue;
    // M -> To is unencodable when (t - c) mod N >= DiffN: c = t - D.
    G.forEachOut(M, [&](RegId To, double W) {
      RegId T = ColorOf(To);
      if (T == NoReg)
        return;
      assert(T < N && "color out of range");
      for (unsigned D = C.DiffN; D != N; ++D)
        Costs[T >= D ? T - D : T + N - D] += W;
    });
    // From -> M is unencodable when (c - f) mod N >= DiffN: c = f + D.
    G.forEachIn(M, [&](RegId From, double W) {
      RegId F = ColorOf(From);
      if (F == NoReg)
        return;
      assert(F < N && "color out of range");
      for (unsigned D = C.DiffN; D != N; ++D)
        Costs[F + D < N ? F + D : F + D - N] += W;
    });
  }
}

/// The differential-select rule over selectCosts' totals: the first of
/// \p Colors, replaced only by a strictly cheaper later one, stopping at
/// cost 0 (so ties go to the earliest color).
unsigned cheapestColor(const std::vector<unsigned> &Colors,
                       const std::vector<double> &Costs);

/// The differential select strategy.
class DiffSelectHook : public SelectHook {
public:
  explicit DiffSelectHook(EncodingConfig Config) : Config(Config) {}

  /// Rebuilds the live-range adjacency graph for \p F.
  void beginFunction(const Function &F) override;

  /// Picks the legal color with minimal differential cost (ties broken
  /// toward the lowest color, matching the default allocator).
  unsigned choose(const SelectContext &Ctx) override;

  const AdjacencyGraph &adjacency() const { return Adjacency; }

private:
  EncodingConfig Config;
  AdjacencyGraph Adjacency;
  std::vector<double> Costs; // per-call scratch
};

} // namespace dra

#endif // DRA_CORE_DIFFSELECTHOOK_H

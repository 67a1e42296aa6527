//===- bench/RemapReference.cpp - Reference remap search arms -------------===//

#include "RemapReference.h"

#include "adt/Rng.h"

#include <algorithm>
#include <limits>

using namespace dra;

namespace {

bool isFixed(const EncodingConfig &C, const RemapOptions &O, RegId R) {
  return C.isSpecial(R) || std::find(O.PinnedRegs.begin(), O.PinnedRegs.end(),
                                     R) != O.PinnedRegs.end();
}

/// Sum of violated-edge weights among the edges incident to node \p U or
/// node \p V under \p Perm; each edge counted once.
double incidentCost(const AdjacencyGraph &G, const EncodingConfig &C,
                    const std::vector<RegId> &Perm, RegId U, RegId V) {
  double Total = 0;
  auto Violated = [&](RegId From, RegId To) {
    RegId FromNo = Perm[From], ToNo = Perm[To];
    return FromNo != ToNo && !C.encodable(FromNo, ToNo);
  };
  G.forEachOut(U, [&](RegId To, double W) {
    if (Violated(U, To))
      Total += W;
  });
  G.forEachIn(U, [&](RegId From, double W) {
    if (Violated(From, U))
      Total += W;
  });
  G.forEachOut(V, [&](RegId To, double W) {
    if (To != U && Violated(V, To))
      Total += W;
  });
  G.forEachIn(V, [&](RegId From, double W) {
    if (From != U && Violated(From, V))
      Total += W;
  });
  return Total;
}

/// One greedy descent from \p Perm: evaluate every movable pair with
/// \p Delta(current cost, U, V), apply the first strictly best swap, and
/// repeat until no swap improves. Counts its effort into \p Stats.
template <typename DeltaFn>
double greedyDescent(const AdjacencyGraph &G, const EncodingConfig &C,
                     const std::vector<RegId> &Movable,
                     std::vector<RegId> &Perm, RemapResult &Stats,
                     DeltaFn Delta) {
  double Cost = G.cost(Perm, C);
  for (;;) {
    double BestDelta = 0;
    size_t BestI = 0, BestJ = 0;
    for (size_t I = 0; I + 1 < Movable.size(); ++I) {
      for (size_t J = I + 1; J < Movable.size(); ++J) {
        ++Stats.SwapsEvaluated;
        double D = Delta(Cost, Movable[I], Movable[J]);
        if (D < BestDelta) {
          BestDelta = D;
          BestI = I;
          BestJ = J;
        }
      }
    }
    if (BestDelta >= 0)
      return Cost; // Local minimum.
    std::swap(Perm[Movable[BestI]], Perm[Movable[BestJ]]);
    ++Stats.SwapsApplied;
    Cost += BestDelta;
  }
}

/// The sequential multi-start search: start 0 is the identity, start k
/// the k-th shuffle of the movable registers from the one seed stream;
/// the first strictly cheapest start wins and a zero-cost start ends the
/// search.
RemapResult greedySearchSequential(const AdjacencyGraph &G,
                                   const EncodingConfig &C,
                                   const RemapOptions &O,
                                   const std::vector<RegId> &Movable,
                                   RemapReferenceArm Arm) {
  std::vector<RegId> Identity(C.RegN);
  for (RegId R = 0; R != C.RegN; ++R)
    Identity[R] = R;

  RemapResult Best;
  Best.CostBefore = G.identityCost(C);
  Best.CostAfter = std::numeric_limits<double>::infinity();

  Rng Random(O.Seed);
  unsigned Starts = std::max(1u, O.NumStarts);
  for (unsigned Start = 0; Start != Starts; ++Start) {
    std::vector<RegId> Perm = Identity;
    if (Start != 0) {
      std::vector<RegId> Targets = Movable;
      Random.shuffle(Targets);
      for (size_t I = 0; I != Movable.size(); ++I)
        Perm[Movable[I]] = Targets[I];
    }
    ++Best.StartsRun;
    double Cost;
    if (Arm == RemapReferenceArm::FullRecost)
      Cost = greedyDescent(G, C, Movable, Perm, Best,
                           [&](double Cur, RegId U, RegId V) {
                             std::swap(Perm[U], Perm[V]);
                             double D = G.cost(Perm, C) - Cur;
                             std::swap(Perm[U], Perm[V]);
                             return D;
                           });
    else
      Cost = greedyDescent(G, C, Movable, Perm, Best,
                           [&](double, RegId U, RegId V) {
                             return incidentSwapDelta(G, C, Perm, U, V);
                           });
    if (Cost < Best.CostAfter) {
      Best.CostAfter = Cost;
      Best.Perm = std::move(Perm);
    }
    if (Best.CostAfter == 0)
      break; // Cannot improve further.
  }
  Best.StartsCutOff = Starts - Best.StartsRun;
  return Best;
}

} // namespace

double dra::incidentSwapDelta(const AdjacencyGraph &G,
                              const EncodingConfig &C,
                              std::vector<RegId> &Perm, RegId U, RegId V) {
  double Before = incidentCost(G, C, Perm, U, V);
  std::swap(Perm[U], Perm[V]);
  double After = incidentCost(G, C, Perm, U, V);
  std::swap(Perm[U], Perm[V]);
  return After - Before;
}

RemapResult dra::findRemapReference(const AdjacencyGraph &G,
                                    const EncodingConfig &C,
                                    const RemapOptions &O,
                                    RemapReferenceArm Arm) {
  std::vector<RegId> Movable;
  for (RegId R = 0; R != C.RegN; ++R)
    if (!isFixed(C, O, R))
      Movable.push_back(R);
  if (Movable.size() <= O.ExhaustiveLimit)
    return findRemap(G, C, O);
  RemapResult Result = greedySearchSequential(G, C, O, Movable, Arm);
  // Never accept a permutation worse than the identity (as findRemap).
  if (Result.CostAfter > Result.CostBefore) {
    Result.CostAfter = Result.CostBefore;
    Result.Perm.resize(C.RegN);
    for (RegId R = 0; R != C.RegN; ++R)
      Result.Perm[R] = R;
  }
  return Result;
}

//===- tests/remap_search_test.cpp - Incremental/parallel remap search ----===//
//
// Property and determinism coverage for the incremental delta-cost remap
// search (core/Remap.cpp):
//
//  * RemapCostModel::swapDelta must equal a full recost difference for
//    every candidate — including after every applied swap of a random
//    walk — across the RegN matrix {8, 12, 32, 40, 64};
//  * swapDelta must equal the reference incident walk's delta bit for bit
//    on random k * 10^d / p weights, where a sum's value depends on the
//    order of its additions, and on the Frequency graph of an allocated
//    ProgramGen function (whose weights, powers of ten and their halves,
//    happen to sum exactly: it pins a real graph's shape, not the order);
//  * the search, at Jobs 1, 2 and 8, must be bit-identical to the
//    sequential incident-walk reference arm (bench/RemapReference.h) on
//    integer, fractional and Frequency weights;
//  * the parallel multi-start search must return an identical RemapResult
//    for Jobs in {1, 2, 8} — the TSan CI job runs this binary so the
//    shared best-bound and zero-cost cutoff are race-checked;
//  * the exhaustive arm must report real search stats (regression test:
//    it used to report all zeros).
//
// Graph weights are small integers unless a test says otherwise, so every
// cost and delta is an exactly representable double and the comparisons
// below are exact, not tolerance-based.
//
//===----------------------------------------------------------------------===//

#include "RemapReference.h"
#include "adt/Rng.h"
#include "core/Remap.h"
#include "regalloc/GraphColoring.h"
#include "workloads/ProgramGen.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>

using namespace dra;

namespace {

const unsigned RegNMatrix[] = {8, 12, 32, 40, 64};

/// An encoding config with a non-trivial violated-difference range for
/// each matrix RegN (DiffN == RegN would make every assignment free).
EncodingConfig cfgFor(unsigned RegN) {
  switch (RegN) {
  case 8: {
    EncodingConfig C;
    C.RegN = 8;
    C.DiffN = 4;
    C.DiffW = 2;
    return C;
  }
  case 12:
    return lowEndConfig(12);
  case 32: {
    EncodingConfig C = vliwConfig(32);
    C.DiffN = 16; // Half the differences violate, as in the 64-reg case.
    C.DiffW = 4;
    return C;
  }
  default:
    return vliwConfig(RegN);
  }
}

/// Seeded random adjacency graph with integer weights in [1, 9].
AdjacencyGraph randomGraph(uint64_t Seed, unsigned RegN, unsigned Edges) {
  Rng R(Seed);
  AdjacencyGraph G(RegN);
  for (unsigned E = 0; E != Edges; ++E) {
    RegId A = static_cast<RegId>(R.nextBelow(RegN));
    RegId B = static_cast<RegId>(R.nextBelow(RegN));
    if (A != B)
      G.addWeight(A, B, static_cast<double>(1 + R.nextBelow(9)));
  }
  return G;
}

/// Seeded random adjacency graph with weights k * 10^d / p, k in [1, 9],
/// d in [0, 2], p in {2, 3, 7}: mostly inexact doubles, so sums of them
/// round differently when their terms are added in a different order.
AdjacencyGraph fractionalGraph(uint64_t Seed, unsigned RegN, unsigned Edges) {
  const double Pow10[] = {1, 10, 100};
  const double Preds[] = {2, 3, 7};
  Rng R(Seed);
  AdjacencyGraph G(RegN);
  for (unsigned E = 0; E != Edges; ++E) {
    RegId A = static_cast<RegId>(R.nextBelow(RegN));
    RegId B = static_cast<RegId>(R.nextBelow(RegN));
    double K = static_cast<double>(1 + R.nextBelow(9));
    double W = K * Pow10[R.nextBelow(3)] / Preds[R.nextBelow(3)];
    if (A != B)
      G.addWeight(A, B, W);
  }
  return G;
}

/// The graph remapFunction builds for a ProgramGen function allocated to
/// lowEndConfig(12): the register universe, weighted by 10^loop-depth with
/// cross-block edges split over their predecessors.
AdjacencyGraph frequencyGraph(const EncodingConfig &C) {
  ProgramProfile P;
  P.Seed = 7;
  Function F = generateProgram("remapfreq", P);
  allocateGraphColoring(F, C.RegN);
  F.NumRegs = C.RegN;
  F.recomputeCFG();
  return AdjacencyGraph::build(F, C, WeightMode::Frequency);
}

bool isPermutation(const std::vector<RegId> &Perm, unsigned N) {
  if (Perm.size() != N)
    return false;
  std::vector<RegId> Sorted = Perm;
  std::sort(Sorted.begin(), Sorted.end());
  for (RegId R = 0; R != N; ++R)
    if (Sorted[R] != R)
      return false;
  return true;
}

/// Field-by-field equality of two results, exact on the doubles. The
/// delta-arc counters are compared when \p WithDeltaStats (the reference
/// arm leaves them zero by design).
void expectSameResult(const RemapResult &A, const RemapResult &B,
                      bool WithDeltaStats) {
  EXPECT_EQ(A.Perm, B.Perm);
  EXPECT_EQ(A.CostBefore, B.CostBefore);
  EXPECT_EQ(A.CostAfter, B.CostAfter);
  EXPECT_EQ(A.Exhaustive, B.Exhaustive);
  EXPECT_EQ(A.StartsRun, B.StartsRun);
  EXPECT_EQ(A.StartsCutOff, B.StartsCutOff);
  EXPECT_EQ(A.SwapsEvaluated, B.SwapsEvaluated);
  EXPECT_EQ(A.SwapsApplied, B.SwapsApplied);
  if (WithDeltaStats) {
    EXPECT_EQ(A.DeltaArcsVisited, B.DeltaArcsVisited);
    EXPECT_EQ(A.DeltaRecostSavings, B.DeltaRecostSavings);
  }
}

} // namespace

TEST(RemapCostModel, DeltaEqualsFullRecostAfterEveryAppliedSwap) {
  for (unsigned RegN : RegNMatrix) {
    EncodingConfig C = cfgFor(RegN);
    for (uint64_t Seed = 1; Seed != 4; ++Seed) {
      AdjacencyGraph G = randomGraph(Seed * 71 + RegN, RegN, RegN * 6);
      RemapCostModel Model(G, C);

      // Random walk of applied swaps: at every step the incremental
      // delta must equal the difference of two full recosts, exactly.
      std::vector<RegId> Perm(RegN);
      for (RegId R = 0; R != RegN; ++R)
        Perm[R] = R;
      Rng Walk(Seed ^ 0xabcdef);
      Walk.shuffle(Perm);
      double Cost = G.cost(Perm, C);
      for (int Step = 0; Step != 200; ++Step) {
        RegId U = static_cast<RegId>(Walk.nextBelow(RegN));
        RegId V = static_cast<RegId>(Walk.nextBelow(RegN));
        if (U == V)
          continue;
        double Delta = Model.swapDelta(Perm, U, V);
        std::swap(Perm[U], Perm[V]);
        double Recost = G.cost(Perm, C);
        ASSERT_EQ(Delta, Recost - Cost)
            << "RegN=" << RegN << " seed=" << Seed << " step=" << Step;
        Cost = Recost; // Keep the swap applied; the model must stay exact.
      }
    }
  }
}

/// Every ordered pair's swapDelta against the reference incident walk,
/// compared bit for bit, at each step of a seeded random walk of applied
/// swaps over \p G.
void expectDeltasMatchIncidentWalk(const AdjacencyGraph &G,
                                   const EncodingConfig &C, uint64_t Seed) {
  unsigned RegN = C.RegN;
  RemapCostModel Model(G, C);
  std::vector<RegId> Perm(RegN);
  for (RegId R = 0; R != RegN; ++R)
    Perm[R] = R;
  Rng Walk(Seed);
  Walk.shuffle(Perm);
  for (int Step = 0; Step != 12; ++Step) {
    for (RegId U = 0; U != RegN; ++U)
      for (RegId V = 0; V != RegN; ++V) {
        if (U == V)
          continue;
        double Got = Model.swapDelta(Perm, U, V);
        double Want = incidentSwapDelta(G, C, Perm, U, V);
        ASSERT_EQ(std::bit_cast<uint64_t>(Got), std::bit_cast<uint64_t>(Want))
            << "RegN=" << RegN << " seed=" << Seed << " step=" << Step
            << " swap (" << U << " " << V << "): " << Got << " vs " << Want;
      }
    RegId A = static_cast<RegId>(Walk.nextBelow(RegN));
    RegId B = static_cast<RegId>(Walk.nextBelow(RegN));
    std::swap(Perm[A], Perm[B]);
  }
}

TEST(RemapCostModel, DeltaMatchesIncidentWalkBitForBitOnFractionalWeights) {
  for (unsigned RegN : RegNMatrix)
    for (uint64_t Seed = 1; Seed != 4; ++Seed)
      expectDeltasMatchIncidentWalk(
          fractionalGraph(Seed * 131 + RegN, RegN, RegN * 6), cfgFor(RegN),
          Seed);
  EncodingConfig C = lowEndConfig(12);
  expectDeltasMatchIncidentWalk(frequencyGraph(C), C, 5);
}

TEST(RemapSearch, IncrementalIsBitIdenticalToLegacyArm) {
  // Integer weights, fractional weights (where a different addition order
  // shows), and the Frequency graph of a real function; every search at
  // Jobs 1, 2 and 8 against the sequential reference arm.
  struct Case {
    EncodingConfig C;
    AdjacencyGraph G;
    unsigned NumStarts;
  };
  std::vector<Case> Cases;
  for (unsigned RegN : RegNMatrix) {
    unsigned Starts = RegN >= 40 ? 6 : 16;
    Cases.push_back({cfgFor(RegN), randomGraph(900 + RegN, RegN, RegN * 5),
                     Starts});
    Cases.push_back({cfgFor(RegN),
                     fractionalGraph(600 + RegN, RegN, RegN * 5), Starts});
  }
  Cases.push_back({lowEndConfig(12), frequencyGraph(lowEndConfig(12)), 32});

  for (const Case &K : Cases) {
    RemapOptions O;
    O.ExhaustiveLimit = 0;
    O.NumStarts = K.NumStarts;
    RemapResult Ref = findRemapReference(K.G, K.C, O);
    for (unsigned Jobs : {1u, 2u, 8u}) {
      O.Jobs = Jobs;
      SCOPED_TRACE(testing::Message()
                   << "RegN=" << K.C.RegN << " jobs=" << Jobs);
      RemapResult R = findRemap(K.G, K.C, O);
      expectSameResult(Ref, R, /*WithDeltaStats=*/false);
      EXPECT_TRUE(isPermutation(R.Perm, K.C.RegN));
      EXPECT_LE(R.CostAfter, R.CostBefore);
      EXPECT_GT(R.SwapsEvaluated, 0u);
      EXPECT_GT(R.DeltaArcsVisited, 0u);
    }
  }
}

TEST(RemapSearch, ResultIdenticalForJobs1_2_8) {
  for (unsigned RegN : {12u, 64u}) {
    EncodingConfig C = cfgFor(RegN);
    AdjacencyGraph G = randomGraph(77 + RegN, RegN, RegN * 5);

    RemapOptions O;
    O.ExhaustiveLimit = 0;
    O.NumStarts = 16;

    RemapResult Ref;
    for (unsigned Jobs : {1u, 2u, 8u}) {
      O.Jobs = Jobs;
      RemapResult R = findRemap(G, C, O);
      if (Jobs == 1)
        Ref = R;
      else
        expectSameResult(Ref, R, /*WithDeltaStats=*/true);
    }
    EXPECT_TRUE(isPermutation(Ref.Perm, RegN));
  }
}

TEST(RemapSearch, SpecialsAndPinnedStayFixedUnderParallelSearch) {
  EncodingConfig C = vliwConfig(32);
  C.DiffN = 30;
  C.DiffW = 5;
  C.SpecialRegs = {31, 30};
  AdjacencyGraph G = randomGraph(4242, 32, 180);

  RemapOptions O;
  O.ExhaustiveLimit = 0;
  O.NumStarts = 12;
  O.Jobs = 4;
  O.PinnedRegs = {0, 7};
  RemapResult R = findRemap(G, C, O);
  EXPECT_TRUE(isPermutation(R.Perm, 32));
  for (RegId Fixed : {31u, 30u, 0u, 7u})
    EXPECT_EQ(R.Perm[Fixed], Fixed);

  O.Jobs = 1;
  expectSameResult(findRemap(G, C, O), R, /*WithDeltaStats=*/true);
}

TEST(RemapSearch, ZeroCostCutoffMatchesSequentialAtEveryJobCount) {
  // A single violated edge: the very first descent reaches cost zero, so
  // the remaining starts must be cut off — and StartsRun/StartsCutOff
  // must say so identically at every worker count and in the reference
  // arm.
  EncodingConfig C = cfgFor(8);
  AdjacencyGraph G(8);
  G.addWeight(0, 5, 3); // diff 5 >= DiffN=4: violated under identity.

  RemapOptions O;
  O.ExhaustiveLimit = 0;
  O.NumStarts = 32;

  RemapResult Ref = findRemapReference(G, C, O);
  EXPECT_EQ(Ref.CostAfter, 0.0);
  EXPECT_LT(Ref.StartsRun, 32u);
  EXPECT_EQ(Ref.StartsCutOff, 32u - Ref.StartsRun);

  for (unsigned Jobs : {1u, 2u, 8u}) {
    O.Jobs = Jobs;
    RemapResult R = findRemap(G, C, O);
    expectSameResult(Ref, R, /*WithDeltaStats=*/false);
  }
}

TEST(RemapExhaustive, ReportsEnumerationStats) {
  // Regression: the exhaustive arm used to return all-zero stats. With 4
  // movable registers it must report exactly 4! = 24 permutations
  // evaluated, one enumeration run, and at least one improvement.
  EncodingConfig C;
  C.RegN = 4;
  C.DiffN = 2;
  C.DiffW = 1;
  AdjacencyGraph G(4);
  G.addWeight(0, 2, 2); // diff 2: violated under identity.
  G.addWeight(1, 3, 1); // diff 2: violated under identity.

  RemapResult R = findRemap(G, C); // ExhaustiveLimit=7 routes to exhaustive.
  ASSERT_TRUE(R.Exhaustive);
  EXPECT_EQ(R.StartsRun, 1u);
  EXPECT_EQ(R.StartsCutOff, 0u);
  EXPECT_EQ(R.SwapsEvaluated, 24u);
  EXPECT_GE(R.SwapsApplied, 1u);
  EXPECT_LE(R.CostAfter, R.CostBefore);
}

TEST(RemapSearch, GreedyArmsReportStatsAndValidCosts) {
  for (unsigned RegN : RegNMatrix) {
    EncodingConfig C = cfgFor(RegN);
    AdjacencyGraph G = randomGraph(31 + RegN, RegN, RegN * 4);
    RemapOptions O;
    O.ExhaustiveLimit = 0;
    O.NumStarts = 8;
    O.Jobs = 2;
    RemapResult R = findRemap(G, C, O);
    EXPECT_TRUE(isPermutation(R.Perm, RegN));
    EXPECT_GE(R.StartsRun, 1u);
    EXPECT_EQ(R.StartsRun + R.StartsCutOff, 8u);
    EXPECT_GT(R.SwapsEvaluated, 0u);
    EXPECT_LE(R.CostAfter, R.CostBefore);
    // Integer weights make the incrementally maintained cost exact: it
    // must equal a from-scratch recost of the returned permutation.
    EXPECT_EQ(R.CostAfter, G.cost(R.Perm, C));
    // The whole point of the delta rows: far fewer arc visits than
    // recosting every candidate from scratch would have needed.
    EXPECT_GT(R.DeltaRecostSavings, 0u);
  }
}

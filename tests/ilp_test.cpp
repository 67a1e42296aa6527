//===- tests/ilp_test.cpp - Cover-ILP solver tests ------------------------===//

#include "ilp/CoverSolver.h"

#include "CoverReference.h"
#include "adt/Rng.h"

#include <cmath>
#include <cstring>
#include <gtest/gtest.h>
#include <string>

using namespace dra;

namespace {

/// Checks feasibility of a solution.
bool feasible(const CoverProblem &P, const std::vector<uint8_t> &Sel) {
  for (const CoverConstraint &C : P.Constraints) {
    int Got = 0;
    for (uint32_t V : C.Vars)
      Got += Sel[V];
    if (Got < C.Need)
      return false;
  }
  return true;
}

double costOf(const CoverProblem &P, const std::vector<uint8_t> &Sel) {
  double Total = 0;
  for (size_t V = 0; V != Sel.size(); ++V)
    if (Sel[V])
      Total += P.Cost[V];
  return Total;
}

/// Brute force over all 2^n assignments (n <= 20).
double bruteForceOptimum(const CoverProblem &P) {
  size_t N = P.Cost.size();
  double Best = 1e300;
  for (uint32_t Mask = 0; Mask != (1u << N); ++Mask) {
    std::vector<uint8_t> Sel(N);
    for (size_t V = 0; V != N; ++V)
      Sel[V] = (Mask >> V) & 1;
    if (feasible(P, Sel))
      Best = std::min(Best, costOf(P, Sel));
  }
  return Best;
}

uint64_t bitsOf(double D) {
  uint64_t B;
  std::memcpy(&B, &D, sizeof B);
  return B;
}

/// Solves \p P with both searches and requires the same search: selection,
/// cost bits, optimality flag and node count. Returns the incremental
/// result.
CoverSolution expectSameSearch(const CoverProblem &P, uint64_t Budget,
                               const std::string &What) {
  CoverSolution New = solveCover(P, Budget);
  CoverSolution Ref = solveCoverReference(P, Budget);
  EXPECT_EQ(New.Selected, Ref.Selected) << What;
  EXPECT_EQ(bitsOf(New.TotalCost), bitsOf(Ref.TotalCost))
      << What << ": " << New.TotalCost << " vs " << Ref.TotalCost;
  EXPECT_EQ(bitsOf(New.GreedyCost), bitsOf(Ref.GreedyCost)) << What;
  EXPECT_EQ(New.Optimal, Ref.Optimal) << What;
  EXPECT_EQ(New.NodesExplored, Ref.NodesExplored) << What;
  return New;
}

/// A random covering instance. \p CostOf draws one variable's cost; needs
/// reach 4 so bounds add several costs.
template <typename CostFn>
CoverProblem randomInstance(Rng &R, CostFn CostOf) {
  CoverProblem P;
  size_t NumVars = 12 + R.nextBelow(30);
  for (size_t V = 0; V != NumVars; ++V)
    P.Cost.push_back(CostOf());
  size_t NumCons = 4 + R.nextBelow(20);
  for (size_t C = 0; C != NumCons; ++C) {
    CoverConstraint Con;
    for (uint32_t V = 0; V != NumVars; ++V)
      if (R.withChance(1, 3))
        Con.Vars.push_back(V);
    if (Con.Vars.size() < 2)
      Con.Vars = {0, 1};
    Con.Need = 1 + static_cast<int>(R.nextBelow(
                       std::min<uint64_t>(Con.Vars.size() - 1, 4)));
    P.Constraints.push_back(Con);
  }
  return P;
}

} // namespace

TEST(CoverSolver, EmptyProblemTriviallyOptimal) {
  CoverProblem P;
  CoverSolution S = solveCover(P);
  EXPECT_TRUE(S.Optimal);
  EXPECT_DOUBLE_EQ(S.TotalCost, 0.0);
}

TEST(CoverSolver, SingleConstraintPicksCheapest) {
  CoverProblem P;
  P.Cost = {5.0, 1.0, 3.0};
  P.Constraints.push_back({{0, 1, 2}, 1});
  CoverSolution S = solveCover(P);
  EXPECT_TRUE(S.Optimal);
  EXPECT_DOUBLE_EQ(S.TotalCost, 1.0);
  EXPECT_TRUE(S.Selected[1]);
}

TEST(CoverSolver, NeedTwoPicksTwoCheapest) {
  CoverProblem P;
  P.Cost = {5.0, 1.0, 3.0, 10.0};
  P.Constraints.push_back({{0, 1, 2, 3}, 2});
  CoverSolution S = solveCover(P);
  EXPECT_TRUE(S.Optimal);
  EXPECT_DOUBLE_EQ(S.TotalCost, 4.0);
}

TEST(CoverSolver, SharedVariableIsReused) {
  // Var 2 covers both constraints; picking it alone (cost 3) beats picking
  // the per-constraint cheapest (3.2 + 2.5).
  CoverProblem P;
  P.Cost = {3.2, 2.5, 3.0};
  P.Constraints.push_back({{0, 2}, 1});
  P.Constraints.push_back({{1, 2}, 1});
  CoverSolution S = solveCover(P);
  EXPECT_TRUE(S.Optimal);
  EXPECT_DOUBLE_EQ(S.TotalCost, 3.0);
  EXPECT_TRUE(S.Selected[2]);
}

TEST(CoverSolver, ForcedSelection) {
  CoverProblem P;
  P.Cost = {1.0, 1.0};
  P.Constraints.push_back({{0, 1}, 2});
  CoverSolution S = solveCover(P);
  EXPECT_TRUE(S.Optimal);
  EXPECT_TRUE(S.Selected[0]);
  EXPECT_TRUE(S.Selected[1]);
}

TEST(CoverSolver, SatisfiedConstraintIgnored) {
  CoverProblem P;
  P.Cost = {1.0};
  P.Constraints.push_back({{0}, 0});
  CoverSolution S = solveCover(P);
  EXPECT_TRUE(S.Optimal);
  EXPECT_DOUBLE_EQ(S.TotalCost, 0.0);
}

TEST(CoverSolver, BudgetExhaustionStillFeasible) {
  // A big random instance with a tiny budget: the greedy incumbent must
  // still be feasible.
  Rng R(99);
  CoverProblem P;
  for (int V = 0; V != 60; ++V)
    P.Cost.push_back(1.0 + static_cast<double>(R.nextBelow(100)));
  for (int C = 0; C != 40; ++C) {
    CoverConstraint Con;
    std::vector<uint32_t> Pool;
    for (uint32_t V = 0; V != 60; ++V)
      if (R.withChance(1, 3))
        Pool.push_back(V);
    if (Pool.size() < 4)
      Pool = {0, 1, 2, 3};
    Con.Vars = Pool;
    Con.Need = 1 + static_cast<int>(R.nextBelow(3));
    P.Constraints.push_back(Con);
  }
  CoverSolution S = solveCover(P, /*NodeBudget=*/10);
  EXPECT_TRUE(feasible(P, S.Selected));
}

/// Randomized optimality check against brute force on small instances.
class CoverSolverRandom : public ::testing::TestWithParam<int> {};

TEST_P(CoverSolverRandom, MatchesBruteForce) {
  Rng R(1000 + GetParam());
  CoverProblem P;
  size_t NumVars = 6 + R.nextBelow(7); // 6..12.
  for (size_t V = 0; V != NumVars; ++V)
    P.Cost.push_back(1.0 + static_cast<double>(R.nextBelow(20)));
  size_t NumCons = 2 + R.nextBelow(5);
  for (size_t C = 0; C != NumCons; ++C) {
    CoverConstraint Con;
    for (uint32_t V = 0; V != NumVars; ++V)
      if (R.withChance(1, 2))
        Con.Vars.push_back(V);
    if (Con.Vars.empty())
      Con.Vars.push_back(0);
    Con.Need = 1 + static_cast<int>(
                       R.nextBelow(std::min<uint64_t>(Con.Vars.size(), 3)));
    P.Constraints.push_back(Con);
  }
  CoverSolution S = solveCover(P);
  ASSERT_TRUE(S.Optimal);
  ASSERT_TRUE(feasible(P, S.Selected));
  EXPECT_NEAR(S.TotalCost, bruteForceOptimum(P), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CoverSolverRandom, ::testing::Range(0, 25));

/// The incremental search must explore exactly the reference's tree.
/// Fractional costs k*10^d/p make every sum depend on addition order, so
/// a bound that added a constraint's costs in another order flips prune
/// decisions that land on the incumbent; equal costs check that the
/// stable cost order needs no tie-break; the MiBench spill ILPs are the
/// instances the pipeline solves, at budgets that exhaust and that prove.
TEST(CoverSolver, SearchMatchesReferenceBitForBit) {
  Rng R(4242);
  const double Primes[] = {3, 7, 11};
  for (int Seed = 0; Seed != 60; ++Seed) {
    CoverProblem P = randomInstance(R, [&] {
      double K = static_cast<double>(1 + R.nextBelow(999));
      double Scale = std::pow(10.0, static_cast<double>(R.nextBelow(7)));
      return K * Scale / Primes[R.nextBelow(3)];
    });
    expectSameSearch(P, 5000, "fractional #" + std::to_string(Seed));
  }
  // One constraint: the greedy cover adds the cheapest costs in ascending
  // order, so the root bound reaches it, and prunes, exactly when the
  // bound adds the same values in the same order.
  for (int Seed = 0; Seed != 60; ++Seed) {
    CoverProblem P;
    size_t NumVars = 6 + R.nextBelow(20);
    CoverConstraint Con;
    for (uint32_t V = 0; V != NumVars; ++V) {
      double K = static_cast<double>(1 + R.nextBelow(999));
      P.Cost.push_back(K * 1e6 / Primes[R.nextBelow(3)]);
      Con.Vars.push_back(V);
    }
    Con.Need = 3 + static_cast<int>(R.nextBelow(NumVars - 3));
    P.Constraints.push_back(Con);
    expectSameSearch(P, 5000, "one constraint #" + std::to_string(Seed));
  }
  for (int Seed = 0; Seed != 40; ++Seed) {
    CoverProblem P = randomInstance(
        R, [&] { return static_cast<double>(1 + R.nextBelow(3)) / 3.0; });
    expectSameSearch(P, 5000, "equal costs #" + std::to_string(Seed));
  }

  bool SawProven = false, SawExhausted = false;
  for (const NamedCoverProblem &W : miBenchSpillProblems()) {
    for (uint64_t Budget : {10u, 1000u, 20000u}) {
      // The full budget on the largest instances only repeats what the
      // smaller ones show, at several seconds per reference solve.
      if (Budget == 20000 && W.ILP.Cost.size() > 500)
        continue;
      CoverSolution S = expectSameSearch(
          W.ILP, Budget, W.Name + " budget " + std::to_string(Budget));
      if (Budget == 20000) {
        SawProven |= S.Optimal;
        SawExhausted |= !S.Optimal;
      }
    }
  }
  EXPECT_TRUE(SawProven);
  EXPECT_TRUE(SawExhausted);
}

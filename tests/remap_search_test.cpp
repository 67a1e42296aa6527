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
//  * the search, alone and helped by pools of 2 and 8 workers ("Jobs"
//    below, as in --remap-jobs), must be bit-identical to the
//    sequential incident-walk reference arm (bench/RemapReference.h) on
//    integer, fractional and Frequency weights;
//  * the helped multi-start search must return an identical RemapResult
//    for Jobs in {1, 2, 8} — the TSan CI job runs this binary so the
//    shared best-bound and zero-cost cutoff are race-checked;
//  * the exhaustive arm must report real search stats (regression test:
//    it used to report all zeros);
//  * a search that borrows a pool (RemapOptions::Pool, as dra-server
//    lends its request pool) must return the sequential RemapResult at
//    pool sizes 1, 2, 4 and 8 and with concurrent searches on one pool,
//    must finish on the caller alone when every worker is blocked, must
//    leave only no-op helpers behind for a pool destroyed later, and its
//    helpers must step aside for a task submitted to the pool.
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

#include "driver/ThreadPool.h"
#include "driver/Trace.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <future>
#include <memory>
#include <optional>
#include <thread>

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

/// One borrowed-pool search input, with the sequential result to match.
struct PoolCase {
  EncodingConfig C;
  AdjacencyGraph G;
  unsigned NumStarts;
};

/// Integer, fractional and Frequency weights, plus a graph whose first
/// descent reaches cost zero (the cutoff skips every later start).
std::vector<PoolCase> poolCases() {
  std::vector<PoolCase> Cases;
  Cases.push_back({cfgFor(12), randomGraph(5012, 12, 60), 48});
  Cases.push_back({cfgFor(12), fractionalGraph(5112, 12, 60), 48});
  Cases.push_back({cfgFor(64), randomGraph(5064, 64, 320), 6});
  Cases.push_back({lowEndConfig(12), frequencyGraph(lowEndConfig(12)), 32});
  PoolCase Zero{cfgFor(8), AdjacencyGraph(8), 32};
  Zero.G.addWeight(0, 5, 3); // diff 5 >= DiffN=4: violated under identity.
  Cases.push_back(std::move(Zero));
  return Cases;
}

RemapOptions greedyOptions(unsigned NumStarts) {
  RemapOptions O;
  O.ExhaustiveLimit = 0;
  O.NumStarts = NumStarts;
  return O;
}

/// findRemap helped by a fresh pool of \p Jobs workers (1: no pool), as
/// --remap-jobs=Jobs runs it.
RemapResult findRemapJobs(const AdjacencyGraph &G, const EncodingConfig &C,
                          RemapOptions O, unsigned Jobs) {
  std::optional<ThreadPool> Pool;
  if (Jobs > 1)
    O.Pool = &Pool.emplace(Jobs);
  return findRemap(G, C, O);
}

/// Occupies every worker thread of a pool (all but the caller's slot 0)
/// until release(), so helpers submitted meanwhile stay queued.
class BlockedWorkers {
public:
  explicit BlockedWorkers(ThreadPool &Pool) {
    unsigned Threads = Pool.workerCount() - 1;
    for (unsigned W = 0; W != Threads; ++W)
      Pool.submit([this, Gate = Gate] {
        Started.fetch_add(1);
        Gate.wait();
      });
    while (Started.load() != Threads)
      std::this_thread::yield();
  }
  void release() { Open.set_value(); }

private:
  std::promise<void> Open;
  std::shared_future<void> Gate = Open.get_future().share();
  std::atomic<unsigned> Started{0};
};

} // namespace

TEST(RemapSearch, BorrowedPoolIsBitIdenticalAtPoolSizes1_2_4_8) {
  for (const PoolCase &K : poolCases()) {
    RemapOptions O = greedyOptions(K.NumStarts);
    RemapResult Ref = findRemap(K.G, K.C, O);
    for (unsigned Size : {1u, 2u, 4u, 8u}) {
      SCOPED_TRACE(testing::Message()
                   << "RegN=" << K.C.RegN << " pool=" << Size);
      ThreadPool Pool(Size);
      std::atomic<uint64_t> HelperStarts{0};
      O.Pool = &Pool;
      O.HelperStarts = &HelperStarts;
      expectSameResult(Ref, findRemap(K.G, K.C, O), /*WithDeltaStats=*/true);
      // A one-worker pool has no thread to lend; otherwise helpers run at
      // most every start (including speculative ones past a cutoff).
      if (Size == 1) {
        EXPECT_EQ(0u, HelperStarts.load());
      }
      EXPECT_LE(HelperStarts.load(), K.NumStarts);
    }
  }
}

TEST(RemapSearch, ConcurrentSearchesShareOneBorrowedPool) {
  // As in dra-server: several requests' searches borrow one pool at once,
  // each helping the others through the same task queue.
  std::vector<PoolCase> Cases = poolCases();
  std::vector<RemapResult> Ref;
  for (const PoolCase &K : Cases)
    Ref.push_back(findRemap(K.G, K.C, greedyOptions(K.NumStarts)));
  ThreadPool Pool(4);
  std::vector<RemapResult> Got(Cases.size());
  std::vector<std::thread> Callers;
  for (size_t I = 0; I != Cases.size(); ++I)
    Callers.emplace_back([&, I] {
      RemapOptions O = greedyOptions(Cases[I].NumStarts);
      O.Pool = &Pool;
      Got[I] = findRemap(Cases[I].G, Cases[I].C, O);
    });
  for (std::thread &T : Callers)
    T.join();
  for (size_t I = 0; I != Cases.size(); ++I)
    expectSameResult(Ref[I], Got[I], /*WithDeltaStats=*/true);
}

TEST(RemapSearch, BorrowedPoolWithBlockedWorkersRunsOnTheCaller) {
  // Every worker is busy (blocked on a latch), so no helper can start:
  // the caller must drain all starts itself rather than wait for one.
  PoolCase K = std::move(poolCases().front());
  RemapOptions O = greedyOptions(K.NumStarts);
  RemapResult Ref = findRemap(K.G, K.C, O);

  auto Pool = std::make_unique<ThreadPool>(4);
  BlockedWorkers Busy(*Pool);
  std::atomic<uint64_t> HelperStarts{0};
  TraceContext Trace(deriveTraceId(1, 1));
  O.Pool = Pool.get();
  O.HelperStarts = &HelperStarts;
  expectSameResult(Ref, findRemap(K.G, K.C, O, &Trace),
                   /*WithDeltaStats=*/true);
  EXPECT_EQ(0u, HelperStarts.load());
  // No worker was idle, so no helper was even queued: nothing is left to
  // run a start or record a span once the workers are free again.
  Busy.release();
  Pool.reset();
  EXPECT_EQ(0u, HelperStarts.load());
  EXPECT_EQ(0u, Trace.spanCount());
}

TEST(RemapSearch, PoolDestroyedWithQueuedHelpersDoesNotHang) {
  // The first start reaches cost zero, so the caller usually closes the
  // two-start search before the idle worker wakes for its helper; the search's stack frame, counter and trace are gone by the
  // time the helper runs, or by the time the pool's destructor drains it.
  // Each late helper must leave without touching any of it (the sanitizer
  // builds catch a use after free) and without blocking. Whether a given
  // round leaves a helper queued is scheduling, hence the many rounds.
  PoolCase K = std::move(poolCases().back());
  RemapOptions O = greedyOptions(2);
  RemapResult Ref = findRemap(K.G, K.C, O);
  ASSERT_EQ(0.0, Ref.CostAfter);
  for (unsigned Round = 0; Round != 200; ++Round) {
    auto Pool = std::make_unique<ThreadPool>(3);
    auto HelperStarts = std::make_unique<std::atomic<uint64_t>>(0);
    auto Trace = std::make_unique<TraceContext>(deriveTraceId(2, Round));
    O.Pool = Pool.get();
    O.HelperStarts = HelperStarts.get();
    expectSameResult(Ref, findRemap(K.G, K.C, O, Trace.get()),
                     /*WithDeltaStats=*/true);
    HelperStarts.reset();
    Trace.reset();
    Pool.reset();
  }
}

TEST(RemapSearch, HelpersStepAsideForSubmittedTasks) {
  // dra-server's pool runs requests as submit()ted tasks. A request that
  // arrives while a helper holds the only idle worker must get that
  // worker after at most one more restart, not after the whole search.
  PoolCase K{cfgFor(64), randomGraph(5164, 64, 320), 24};
  RemapOptions O = greedyOptions(K.NumStarts);
  RemapResult Ref = findRemap(K.G, K.C, O);

  ThreadPool Pool(2); // one worker thread to lend
  std::atomic<uint64_t> HelperStarts{0};
  O.Pool = &Pool;
  O.HelperStarts = &HelperStarts;
  using Clock = std::chrono::steady_clock;
  std::promise<Clock::time_point> SearchEnd;
  std::atomic<bool> Done{false};
  std::thread Caller([&] {
    expectSameResult(Ref, findRemap(K.G, K.C, O), /*WithDeltaStats=*/true);
    SearchEnd.set_value(Clock::now());
    Done.store(true);
  });
  while (HelperStarts.load() == 0 && !Done.load()) // helper inside?
    std::this_thread::yield();
  if (HelperStarts.load() == 0) {
    Caller.join();
    GTEST_SKIP() << "the worker never woke during the search";
  }
  std::promise<Clock::time_point> TaskStart;
  const Clock::time_point Submitted = Clock::now();
  Pool.submit([&] { TaskStart.set_value(Clock::now()); });
  Clock::time_point Started = TaskStart.get_future().get();
  Clock::time_point Ended = SearchEnd.get_future().get();
  Caller.join();
  // Without stepping aside the task would start only once the helper
  // ran out of restarts, at about the end of the search.
  EXPECT_LT(Started - Submitted, (Ended - Submitted) / 2)
      << "helper kept the worker for the rest of the search";
  EXPECT_LT(HelperStarts.load(), K.NumStarts / 2);
}

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
      SCOPED_TRACE(testing::Message()
                   << "RegN=" << K.C.RegN << " jobs=" << Jobs);
      RemapResult R = findRemapJobs(K.G, K.C, O, Jobs);
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
      RemapResult R = findRemapJobs(G, C, O, Jobs);
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
  O.PinnedRegs = {0, 7};
  RemapResult R = findRemapJobs(G, C, O, 4);
  EXPECT_TRUE(isPermutation(R.Perm, 32));
  for (RegId Fixed : {31u, 30u, 0u, 7u})
    EXPECT_EQ(R.Perm[Fixed], Fixed);

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
    RemapResult R = findRemapJobs(G, C, O, Jobs);
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
    RemapResult R = findRemapJobs(G, C, O, 2);
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

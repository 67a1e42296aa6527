//===- core/OptimalSpill.cpp - ILP-based near-optimal spilling ------------===//

#include "core/OptimalSpill.h"

#include "analysis/Liveness.h"
#include "analysis/LoopInfo.h"
#include "ilp/CoverSolver.h"
#include "regalloc/GraphColoring.h"

#include <unordered_map>
#include <unordered_set>

using namespace dra;

namespace {

/// Hash of a sorted live set, to deduplicate identical constraints.
uint64_t liveSetHash(const std::vector<uint32_t> &Regs) {
  uint64_t H = 1469598103934665603ull;
  for (uint32_t R : Regs) {
    H ^= R;
    H *= 1099511628211ull;
  }
  return H;
}

} // namespace

SpillProblem dra::buildSpillProblem(const Function &F, unsigned K,
                                    const std::vector<uint8_t> &IsSpillTemp,
                                    Arena *Scratch) {
  SpillProblem Out;
  Liveness LV = Liveness::compute(F, Scratch);
  LoopInfo LI = LoopInfo::compute(F);

  // Frequency-weighted spill cost of every virtual register.
  std::vector<double> CostOf(F.NumRegs, 0.0);
  for (uint32_t B = 0, E = static_cast<uint32_t>(F.Blocks.size()); B != E;
       ++B) {
    double Freq = LI.frequency(B);
    for (const Instruction &I : F.Blocks[B].Insts) {
      RegId Def = I.def();
      if (Def != NoReg)
        CostOf[Def] += Freq;
      RegId Uses[2];
      unsigned NumUses;
      I.uses(Uses, NumUses);
      for (unsigned U = 0; U != NumUses; ++U)
        CostOf[Uses[U]] += Freq;
    }
  }
  // Spill temporaries must essentially never be re-spilled.
  for (RegId R = 0; R != F.NumRegs; ++R) {
    if (R < IsSpillTemp.size() && IsSpillTemp[R])
      CostOf[R] = 1e12;
    CostOf[R] = std::max(CostOf[R], 1e-6);
  }

  // Collect over-pressure points; the ILP only sees virtual registers
  // that occur in at least one constraint (compaction keeps the search
  // space proportional to the over-pressure regions, not the whole
  // function).
  std::unordered_set<uint64_t> Seen;
  std::unordered_map<uint32_t, uint32_t> VarOf;
  auto AddPoint = [&](const BitVector &Live) {
    size_t Pressure = Live.count();
    if (Pressure <= K)
      return;
    std::vector<uint32_t> Regs = Live.toVector();
    if (!Seen.insert(liveSetHash(Regs)).second)
      return;
    CoverConstraint Con;
    Con.Need = static_cast<int>(Pressure - K);
    for (uint32_t R : Regs) {
      auto [It, Inserted] =
          VarOf.try_emplace(R, static_cast<uint32_t>(Out.RegOfVar.size()));
      if (Inserted) {
        Out.RegOfVar.push_back(R);
        Out.ILP.Cost.push_back(CostOf[R]);
      }
      Con.Vars.push_back(It->second);
    }
    Out.ILP.Constraints.push_back(std::move(Con));
  };
  for (uint32_t B = 0, E = static_cast<uint32_t>(F.Blocks.size()); B != E;
       ++B) {
    AddPoint(LV.liveIn(B));
    LV.forEachInstBackward(
        F, B, [&](size_t, const BitVector &LiveAfter) {
          AddPoint(LiveAfter);
        });
  }
  return Out;
}

OptimalSpillResult dra::optimalSpill(Function &F, unsigned K,
                                     uint64_t NodeBudget,
                                     std::vector<StageSpan> *SubSpans,
                                     Arena *Scratch) {
  OptimalSpillResult Result;
  std::vector<uint8_t> IsSpillTemp(F.NumRegs, 0);

  const unsigned MaxRounds = 12;
  while (Result.Rounds < MaxRounds) {
    ScopedSpan RoundSpan(SubSpans, "ospill.round");
    ++Result.Rounds;
    F.recomputeCFG();
    SpillProblem Problem = buildSpillProblem(F, K, IsSpillTemp, Scratch);
    if (Problem.ILP.Constraints.empty())
      return Result; // Pressure everywhere within K: done.

    Result.ILPConstraints += Problem.ILP.Constraints.size();
    Result.ILPVariables += Problem.RegOfVar.size();
    CoverSolution Sol = solveCover(Problem.ILP, NodeBudget);
    Result.ILPOptimal &= Sol.Optimal;
    Result.ILPNodes += Sol.NodesExplored;
    Result.ILPGreedyCost += Sol.GreedyCost;
    Result.ILPFinalCost += Sol.TotalCost;

    bool AnySpill = false;
    for (uint32_t Var = 0; Var != Problem.RegOfVar.size(); ++Var) {
      if (!Sol.Selected[Var])
        continue;
      AnySpill = true;
      ++Result.SpilledRanges;
      std::vector<RegId> Temps = insertSpillCode(F, Problem.RegOfVar[Var]);
      IsSpillTemp.resize(F.NumRegs, 0);
      for (RegId T : Temps)
        IsSpillTemp[T] = 1;
    }
    assert(AnySpill && "cover solution selected nothing for a nonempty "
                       "constraint set");
    (void)AnySpill;
  }
  return Result;
}

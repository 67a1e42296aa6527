//===- tests/opt_test.cpp - SimplifyCfg + ConstantFold tests --------------===//

#include "interp/Interpreter.h"
#include "ir/IRBuilder.h"
#include "opt/ConstantFold.h"
#include "opt/DeadCode.h"
#include "opt/SimplifyCfg.h"
#include "workloads/MiBench.h"

#include <gtest/gtest.h>

using namespace dra;

TEST(SimplifyCfg, MergesJumpChains) {
  Function F;
  F.MemWords = 4;
  uint32_t B0 = F.makeBlock();
  uint32_t B1 = F.makeBlock();
  uint32_t B2 = F.makeBlock();
  IRBuilder B(F);
  B.setBlock(B0);
  RegId V = B.createMovImm(1);
  B.createJmp(B1);
  B.setBlock(B1);
  RegId W = B.createBinImm(Opcode::AddI, V, 2);
  B.createJmp(B2);
  B.setBlock(B2);
  B.createRet(W);
  F.recomputeCFG();
  SimplifyCfgStats S = simplifyCfg(F);
  EXPECT_EQ(S.BlocksMerged, 2u);
  EXPECT_EQ(F.Blocks.size(), 1u);
  EXPECT_EQ(interpret(F).ReturnValue, 3);
}

TEST(SimplifyCfg, FoldsSameTargetBranch) {
  Function F;
  F.MemWords = 4;
  uint32_t B0 = F.makeBlock();
  uint32_t B1 = F.makeBlock();
  IRBuilder B(F);
  B.setBlock(B0);
  RegId V = B.createMovImm(1);
  B.createBr(V, B1, B1);
  B.setBlock(B1);
  B.createRet(V);
  F.recomputeCFG();
  SimplifyCfgStats S = simplifyCfg(F);
  EXPECT_EQ(S.BranchesFolded, 1u);
  // Folding the branch makes B1 single-pred-merged too.
  EXPECT_EQ(F.Blocks.size(), 1u);
}

TEST(SimplifyCfg, RemovesUnreachable) {
  Function F;
  F.MemWords = 4;
  uint32_t B0 = F.makeBlock();
  uint32_t Dead = F.makeBlock();
  IRBuilder B(F);
  B.setBlock(B0);
  RegId V = B.createMovImm(4);
  B.createRet(V);
  B.setBlock(Dead);
  B.createRet(V);
  F.recomputeCFG();
  SimplifyCfgStats S = simplifyCfg(F);
  EXPECT_EQ(S.UnreachableRemoved, 1u);
  EXPECT_EQ(F.Blocks.size(), 1u);
  (void)Dead;
}

TEST(SimplifyCfg, KeepsLoops) {
  Function F;
  F.MemWords = 4;
  uint32_t Entry = F.makeBlock();
  uint32_t Body = F.makeBlock();
  uint32_t Exit = F.makeBlock();
  IRBuilder B(F);
  B.setBlock(Entry);
  RegId I = B.createMovImm(5);
  B.createJmp(Body);
  B.setBlock(Body);
  B.createBinImmTo(Opcode::AddI, I, I, -1);
  B.createBr(I, Body, Exit);
  B.setBlock(Exit);
  B.createRet(I);
  F.recomputeCFG();
  int64_t Before = interpret(F).ReturnValue;
  simplifyCfg(F);
  EXPECT_EQ(interpret(F).ReturnValue, Before);
  // The loop body cannot merge into the entry (two predecessors).
  EXPECT_GE(F.Blocks.size(), 2u);
}

TEST(ConstantFold, FoldsArithmeticChains) {
  Function F;
  F.MemWords = 4;
  F.makeBlock();
  IRBuilder B(F);
  B.setBlock(0);
  RegId A = B.createMovImm(6);
  RegId C = B.createMovImm(7);
  RegId D = B.createBin(Opcode::Mul, A, C);  // 42, foldable.
  RegId E2 = B.createBinImm(Opcode::AddI, D, -2); // 40, foldable.
  B.createRet(E2);
  F.recomputeCFG();
  ConstantFoldStats S = foldConstants(F);
  EXPECT_EQ(S.InstsFolded, 2u);
  EXPECT_EQ(F.Blocks[0].Insts[2].Op, Opcode::MovI);
  EXPECT_EQ(F.Blocks[0].Insts[2].Imm, 42);
  EXPECT_EQ(interpret(F).ReturnValue, 40);
}

TEST(ConstantFold, FoldsOverflowLikeTheInterpreter) {
  Function F;
  F.MemWords = 4;
  F.makeBlock();
  IRBuilder B(F);
  B.setBlock(0);
  RegId A = B.createMovImm(INT64_MAX);
  RegId C = B.createMovImm(3);
  RegId D = B.createBin(Opcode::Mul, A, C);     // INT64_MAX - 2
  RegId E = B.createBinImm(Opcode::AddI, D, 5); // INT64_MIN + 2
  B.createRet(E);
  F.recomputeCFG();
  const int64_t Expected = interpret(F).ReturnValue;
  EXPECT_EQ(foldConstants(F).InstsFolded, 2u);
  EXPECT_EQ(interpret(F).ReturnValue, Expected);
  EXPECT_EQ(Expected, INT64_MIN + 2);
}

TEST(ConstantFold, FoldsKnownBranch) {
  Function F;
  F.MemWords = 4;
  uint32_t B0 = F.makeBlock();
  uint32_t TrueB = F.makeBlock();
  uint32_t FalseB = F.makeBlock();
  IRBuilder B(F);
  B.setBlock(B0);
  RegId Z = B.createMovImm(0);
  B.createBr(Z, TrueB, FalseB);
  B.setBlock(TrueB);
  B.createRet(B.createMovImm(1));
  B.setBlock(FalseB);
  B.createRet(B.createMovImm(2));
  F.recomputeCFG();
  ConstantFoldStats S = foldConstants(F);
  EXPECT_EQ(S.BranchesFolded, 1u);
  EXPECT_EQ(F.Blocks[B0].Insts.back().Op, Opcode::Jmp);
  EXPECT_EQ(interpret(F).ReturnValue, 2);
}

TEST(ConstantFold, UnknownOperandsUntouched) {
  Function F;
  F.MemWords = 4;
  F.makeBlock();
  IRBuilder B(F);
  B.setBlock(0);
  RegId X = B.createLoad(B.createMovImm(0), 0); // Unknown value.
  RegId Y = B.createBinImm(Opcode::AddI, X, 1);
  B.createRet(Y);
  F.recomputeCFG();
  ConstantFoldStats S = foldConstants(F);
  EXPECT_EQ(S.InstsFolded, 0u);
  EXPECT_EQ(F.Blocks[0].Insts[2].Op, Opcode::AddI);
}

TEST(ConstantFold, RedefinitionInvalidates) {
  Function F;
  F.MemWords = 4;
  F.makeBlock();
  IRBuilder B(F);
  B.setBlock(0);
  RegId A = B.createMovImm(1);
  RegId Addr = B.createMovImm(0);
  Instruction Ld; // A = load(...) — A is no longer the constant 1.
  Ld.Op = Opcode::Load;
  Ld.Dst = A;
  Ld.Src1 = Addr;
  F.Blocks[0].Insts.push_back(Ld);
  RegId C = B.createBinImm(Opcode::AddI, A, 1);
  B.createRet(C);
  F.recomputeCFG();
  ConstantFoldStats S = foldConstants(F);
  EXPECT_EQ(S.InstsFolded, 0u);
}

/// The full cleanup pipeline (fold -> simplify -> DCE) preserves semantics
/// on whole benchmark programs.
class CleanupPipeline : public ::testing::TestWithParam<std::string> {};

TEST_P(CleanupPipeline, PreservesSemantics) {
  Function F = miBenchProgram(GetParam());
  ExecResult Before = interpret(F);
  foldConstants(F);
  simplifyCfg(F);
  eliminateDeadCode(F);
  std::string Err;
  ASSERT_TRUE(verifyFunction(F, &Err)) << Err;
  ExecResult After = interpret(F);
  EXPECT_EQ(fingerprint(Before), fingerprint(After));
}

INSTANTIATE_TEST_SUITE_P(Suite, CleanupPipeline,
                         ::testing::Values("crc32", "qsort", "dijkstra",
                                           "stringsearch", "patricia"));

//===- ir/Instruction.cpp - Three-address instructions --------------------===//

#include "ir/Instruction.h"

#include <sstream>

using namespace dra;

const char *dra::opcodeName(Opcode Op) {
  switch (Op) {
  case Opcode::Add:
    return "add";
  case Opcode::Sub:
    return "sub";
  case Opcode::Mul:
    return "mul";
  case Opcode::DivS:
    return "divs";
  case Opcode::Rem:
    return "rem";
  case Opcode::And:
    return "and";
  case Opcode::Or:
    return "or";
  case Opcode::Xor:
    return "xor";
  case Opcode::Shl:
    return "shl";
  case Opcode::Shr:
    return "shr";
  case Opcode::AddI:
    return "addi";
  case Opcode::MulI:
    return "muli";
  case Opcode::AndI:
    return "andi";
  case Opcode::XorI:
    return "xori";
  case Opcode::ShlI:
    return "shli";
  case Opcode::ShrI:
    return "shri";
  case Opcode::CmpEQ:
    return "cmpeq";
  case Opcode::CmpNE:
    return "cmpne";
  case Opcode::CmpLT:
    return "cmplt";
  case Opcode::CmpLE:
    return "cmple";
  case Opcode::Mov:
    return "mov";
  case Opcode::MovI:
    return "movi";
  case Opcode::Load:
    return "load";
  case Opcode::Store:
    return "store";
  case Opcode::SpillLd:
    return "spill.ld";
  case Opcode::SpillSt:
    return "spill.st";
  case Opcode::Br:
    return "br";
  case Opcode::Jmp:
    return "jmp";
  case Opcode::Ret:
    return "ret";
  case Opcode::SetLastReg:
    return "set_last_reg";
  }
  assert(false && "unknown opcode");
  return "<bad>";
}

bool Instruction::hasDef() const {
  switch (Op) {
  case Opcode::Store:
  case Opcode::SpillSt:
  case Opcode::Br:
  case Opcode::Jmp:
  case Opcode::Ret:
  case Opcode::SetLastReg:
    return false;
  default:
    return true;
  }
}

void Instruction::uses(RegId Out[2], unsigned &Count) const {
  Count = 0;
  switch (Op) {
  case Opcode::MovI:
  case Opcode::Jmp:
  case Opcode::SetLastReg:
  case Opcode::SpillLd:
    return;
  case Opcode::Mov:
  case Opcode::AddI:
  case Opcode::MulI:
  case Opcode::AndI:
  case Opcode::XorI:
  case Opcode::ShlI:
  case Opcode::ShrI:
  case Opcode::Load:
  case Opcode::Br:
  case Opcode::Ret:
  case Opcode::SpillSt:
    Out[Count++] = Src1;
    return;
  case Opcode::Store:
    Out[Count++] = Src1;
    Out[Count++] = Src2;
    return;
  default:
    Out[Count++] = Src1;
    Out[Count++] = Src2;
    return;
  }
}

unsigned Instruction::numRegFields() const {
  RegId Uses[2];
  unsigned NumUses;
  uses(Uses, NumUses);
  return NumUses + (def() != NoReg ? 1 : 0);
}

RegId Instruction::regField(unsigned Idx) const {
  RegId Uses[2];
  unsigned NumUses;
  uses(Uses, NumUses);
  if (Idx < NumUses)
    return Uses[Idx];
  assert(Idx == NumUses && def() != NoReg && "register field out of range");
  return Dst;
}

void Instruction::setRegField(unsigned Idx, RegId R) {
  RegId Uses[2];
  unsigned NumUses;
  uses(Uses, NumUses);
  if (Idx == 0 && NumUses >= 1) {
    Src1 = R;
    return;
  }
  if (Idx == 1 && NumUses >= 2) {
    Src2 = R;
    return;
  }
  // Decoders fill the destination in here, so Dst may still be NoReg.
  assert(Idx == NumUses && hasDef() && "register field out of range");
  Dst = R;
}

std::string dra::toString(const Instruction &I) {
  std::ostringstream OS;
  OS << opcodeName(I.Op);
  auto Reg = [](RegId R) {
    return R == NoReg ? std::string("<none>") : "r" + std::to_string(R);
  };
  switch (I.Op) {
  case Opcode::MovI:
    OS << " " << Reg(I.Dst) << ", " << I.Imm;
    break;
  case Opcode::Mov:
    OS << " " << Reg(I.Dst) << ", " << Reg(I.Src1);
    break;
  case Opcode::AddI:
  case Opcode::MulI:
  case Opcode::AndI:
  case Opcode::XorI:
  case Opcode::ShlI:
  case Opcode::ShrI:
    OS << " " << Reg(I.Dst) << ", " << Reg(I.Src1) << ", " << I.Imm;
    break;
  case Opcode::Load:
    OS << " " << Reg(I.Dst) << ", [" << Reg(I.Src1) << " + " << I.Imm << "]";
    break;
  case Opcode::Store:
    OS << " [" << Reg(I.Src1) << " + " << I.Imm << "], " << Reg(I.Src2);
    break;
  case Opcode::SpillLd:
    OS << " " << Reg(I.Dst) << ", slot" << I.Imm;
    break;
  case Opcode::SpillSt:
    OS << " slot" << I.Imm << ", " << Reg(I.Src1);
    break;
  case Opcode::Br:
    OS << " " << Reg(I.Src1) << ", bb" << I.Target0 << ", bb" << I.Target1;
    break;
  case Opcode::Jmp:
    OS << " bb" << I.Target0;
    break;
  case Opcode::Ret:
    OS << " " << Reg(I.Src1);
    break;
  case Opcode::SetLastReg:
    OS << "(" << I.Imm;
    if (I.Aux != 0)
      OS << ", " << I.Aux;
    OS << ")";
    break;
  default:
    OS << " " << Reg(I.Dst) << ", " << Reg(I.Src1) << ", " << Reg(I.Src2);
    break;
  }
  return OS.str();
}

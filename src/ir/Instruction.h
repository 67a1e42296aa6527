//===- ir/Instruction.h - Three-address instructions ------------*- C++ -*-===//
//
// Part of the differential-register-allocation reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The instruction set of the reproduction IR: a RISC-flavored, non-SSA
/// three-address code with executable semantics. The same representation is
/// used before register allocation (register ids are virtual registers) and
/// after (register ids are physical register numbers), which mirrors how the
/// paper's post-pass schemes (differential remapping, encoding) consume the
/// allocator's output.
///
//===----------------------------------------------------------------------===//

#ifndef DRA_IR_INSTRUCTION_H
#define DRA_IR_INSTRUCTION_H

#include <cassert>
#include <cstdint>
#include <string>

namespace dra {

/// Register identifier. Before allocation this is a virtual register index;
/// after allocation it is a physical register number in [0, RegN).
using RegId = uint32_t;

/// Sentinel for "no register in this operand slot".
constexpr RegId NoReg = ~RegId(0);

/// Sentinel for "no branch target".
constexpr uint32_t NoBlock = ~uint32_t(0);

/// Instruction opcodes.
///
/// Memory model: each function owns a flat word-addressed data array
/// (`Function::MemWords`) plus a separate spill area. `Load`/`Store` address
/// the data array as Src1 + Imm (wrapped modulo the array size by the
/// interpreter, so every generated program is memory-safe). `SpillLd` /
/// `SpillSt` address the spill area directly by slot index `Imm`; they model
/// SP-relative accesses and need no address register, matching how a
/// THUMB-like target spills through the (special, unallocated) stack
/// pointer.
enum class Opcode : uint8_t {
  // Dst = Src1 op Src2.
  Add,
  Sub,
  Mul,
  DivS, // Signed division; division by zero yields 0 (defined semantics).
  Rem,  // Signed remainder; remainder by zero yields 0.
  And,
  Or,
  Xor,
  Shl, // Shift amount taken modulo 64.
  Shr, // Logical shift right, amount modulo 64.
  // Dst = Src1 op Imm.
  AddI,
  MulI,
  AndI,
  XorI,
  ShlI,
  ShrI,
  // Dst = (Src1 relop Src2) ? 1 : 0.
  CmpEQ,
  CmpNE,
  CmpLT,
  CmpLE,
  // Data movement.
  Mov,  // Dst = Src1.
  MovI, // Dst = Imm.
  // Memory.
  Load,    // Dst = data[Src1 + Imm].
  Store,   // data[Src1 + Imm] = Src2.
  SpillLd, // Dst = spill[Imm].
  SpillSt, // spill[Imm] = Src1.
  // Control flow (only valid as the last instruction of a block).
  Br,  // if (Src1 != 0) goto Target0 else goto Target1.
  Jmp, // goto Target0.
  Ret, // return Src1.
  // Decode-stage pseudo instruction (Section 2.3 of the paper). Imm holds
  // the value assigned to last_reg; Aux holds the delay_num (0 for the
  // immediate form). Never enters the execute stage.
  SetLastReg,
};

/// Returns a human-readable mnemonic for \p Op.
const char *opcodeName(Opcode Op);

/// Add/Sub/Mul (and AddI/MulI, and Load/Store addresses) compute in two's
/// complement modulo 2^64. The interpreter and the constant folder both
/// evaluate through these, in uint64_t, because signed overflow is
/// undefined behaviour in C++.
inline int64_t wrapAdd(int64_t A, int64_t B) {
  return static_cast<int64_t>(static_cast<uint64_t>(A) +
                              static_cast<uint64_t>(B));
}
inline int64_t wrapSub(int64_t A, int64_t B) {
  return static_cast<int64_t>(static_cast<uint64_t>(A) -
                              static_cast<uint64_t>(B));
}
inline int64_t wrapMul(int64_t A, int64_t B) {
  return static_cast<int64_t>(static_cast<uint64_t>(A) *
                              static_cast<uint64_t>(B));
}

/// A single three-address instruction. Operand slots not used by the opcode
/// hold NoReg / 0 / NoBlock.
struct Instruction {
  Opcode Op = Opcode::MovI;
  RegId Dst = NoReg;
  RegId Src1 = NoReg;
  RegId Src2 = NoReg;
  int64_t Imm = 0;
  uint32_t Target0 = NoBlock;
  uint32_t Target1 = NoBlock;
  /// SetLastReg delay_num: the number of register fields decoded before the
  /// assignment to last_reg takes effect.
  uint32_t Aux = 0;

  /// True for Br/Jmp/Ret.
  bool isTerminator() const {
    return Op == Opcode::Br || Op == Opcode::Jmp || Op == Opcode::Ret;
  }

  /// True for instructions that read or write the data array or spill area.
  bool isMemory() const {
    return Op == Opcode::Load || Op == Opcode::Store ||
           Op == Opcode::SpillLd || Op == Opcode::SpillSt;
  }

  /// True for the spill-area accesses inserted by the register allocators.
  bool isSpill() const {
    return Op == Opcode::SpillLd || Op == Opcode::SpillSt;
  }

  /// True when the opcode has a destination register field (whether or
  /// not Dst is filled in yet).
  bool hasDef() const;

  /// Defined register or NoReg.
  RegId def() const { return hasDef() ? Dst : NoReg; }

  /// Appends the used registers (at most two, in access-order position:
  /// src1 then src2) to \p Uses.
  void uses(RegId Out[2], unsigned &Count) const;

  /// Number of register fields this instruction encodes, in access order
  /// src1, src2, dst. SetLastReg has none (its payload is an immediate).
  unsigned numRegFields() const;

  /// Returns the register in access-order field \p Idx (0-based).
  RegId regField(unsigned Idx) const;

  /// Overwrites the register in access-order field \p Idx.
  void setRegField(unsigned Idx, RegId R);
};

/// Builds a compact single-line textual form, e.g. "add r1, r2, r3".
std::string toString(const Instruction &I);

} // namespace dra

#endif // DRA_IR_INSTRUCTION_H

//===- core/Encoder.h - Differential encoding and decoding ------*- C++ -*-===//
//
// Part of the differential-register-allocation reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The differential register encoder and decoder (Sections 2 and 2.3).
///
/// Encoding walks the function in layout order keeping the `last_reg`
/// decode state. Each register field is emitted as the modular difference
/// from the previous access (Equation (1)); special registers use reserved
/// direct codes. Two situations require a `set_last_reg` pseudo
/// instruction:
///
///  * difference out of range (Section 2.2.1) — patched with the delayed
///    form `set_last_reg(value, delay)` placed before the instruction, so
///    the field can then encode difference 0;
///  * multi-path inconsistency (Section 2.2.2) — when the predecessors of
///    a block disagree on `last_reg`, a `set_last_reg(value)` is placed at
///    the block head.
///
/// Decoding is the exact inverse; `decodeFunction` reconstructs every
/// register number (Equation (2)) from the codes alone, walking the blocks
/// the way the hardware would. `verifyDecodable` independently checks, by
/// dataflow over all CFG paths, that the decode state is uniquely
/// determined at every field.
///
/// The encoder, decoder and verifier also take a ClassedConfig (Section
/// 9.1): one `last_reg` per register class, differences taken within the
/// class. An EncodingConfig is the one-class case, so both run the same
/// code.
///
//===----------------------------------------------------------------------===//

#ifndef DRA_CORE_ENCODER_H
#define DRA_CORE_ENCODER_H

#include "core/EncodingConfig.h"
#include "ir/Function.h"

#include <optional>
#include <string>
#include <vector>

namespace dra {

/// Static accounting of one encoding run.
struct EncodeStats {
  /// set_last_reg instructions inserted at block heads (join repair).
  size_t SetLastJoin = 0;
  /// set_last_reg instructions inserted for out-of-range differences.
  size_t SetLastRange = 0;
  /// Total instructions in the annotated function (including slr).
  size_t NumInsts = 0;
  /// Register-field bits emitted (the sum of each field's DiffW).
  size_t FieldBits = 0;
  /// Register fields encoded.
  size_t NumFields = 0;

  size_t setLastTotal() const { return SetLastJoin + SetLastRange; }
};

/// The result of encoding: the function with set_last_reg instructions
/// inserted, plus the per-field difference codes.
struct EncodedFunction {
  /// Input function plus inserted set_last_reg pseudo instructions. Its
  /// register operands are untouched (the codes below are the encoded
  /// form); interpreting it must produce the input's result.
  Function Annotated;
  /// Codes[Block][InstIdx][FieldPos] = the DiffW-bit code of that field,
  /// fields numbered in the configured access order. SetLastReg
  /// instructions have an empty field list.
  std::vector<std::vector<std::vector<uint8_t>>> Codes;
  EncodeStats Stats;
};

/// Encodes \p F (all register operands must be < C.RegN). \p C must be
/// valid().
EncodedFunction encodeFunction(const Function &F, const EncodingConfig &C);

/// Decodes \p E back into a function with absolute register numbers,
/// keeping the set_last_reg instructions in place (so the result can be
/// compared against E.Annotated field by field). Only the codes and the
/// set_last_reg instructions are read, never E.Annotated's register
/// fields. Blocks are decoded in reverse postorder from the entry: a
/// block starts from last_reg = 0 (block 0), else from the exit of its
/// first already-decoded predecessor, and a head set_last_reg overrides
/// either. Unreachable blocks follow, decoded from their head repair.
/// Every code must be a difference or a reserved special code.
Function decodeFunction(const EncodedFunction &E, const EncodingConfig &C);

/// Checks that the decode state (`last_reg`) of \p Annotated is uniquely
/// determined at every register field along every CFG path. Returns true
/// on success; otherwise false with a diagnostic in \p Err (if non-null).
bool verifyDecodable(const Function &Annotated, const EncodingConfig &C,
                     std::string *Err = nullptr);

/// The multi-class forms of the three functions above (Section 9.1).
/// Every register operand of \p F must belong to some class of \p C, and
/// C.valid(F.NumRegs) must hold. A head set_last_reg is placed for every
/// class whose entry state is ambiguous, as in the one-class case. The
/// decoder takes each field's class (never its number) from the annotated
/// operand, standing in for the opcode that fixes it in a real ISA.
EncodedFunction encodeFunction(const Function &F, const ClassedConfig &C);
Function decodeFunction(const EncodedFunction &E, const ClassedConfig &C);
bool verifyDecodable(const Function &Annotated, const ClassedConfig &C,
                     std::string *Err = nullptr);

/// Returns a copy of \p F with every SetLastReg instruction removed.
Function stripSetLastReg(const Function &F);

/// The decode-state dataflow the encoder/decoder use: for each block, the
/// unique last_reg value at its entry, or std::nullopt when predecessors
/// disagree (the encoder then inserts a head set_last_reg) or the block is
/// unreachable. Exposed so access-order passes (core/OperandSwap.h) can
/// evaluate block-leading transitions exactly like the encoder will.
std::vector<std::optional<RegId>>
decodeEntryStates(const Function &F, const EncodingConfig &C);

/// Code-size model of the low-end target: every instruction (including
/// set_last_reg, which occupies a fetch/decode slot) is \p BytesPerInst
/// bytes.
size_t codeSizeBytes(const Function &F, unsigned BytesPerInst = 2);

} // namespace dra

#endif // DRA_CORE_ENCODER_H

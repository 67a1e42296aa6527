//===- core/EncodingConfig.h - Differential encoding parameters -*- C++ -*-===//
//
// Part of the differential-register-allocation reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Parameters of the differential register encoding scheme (Section 2 of
/// the paper): how many architected registers exist (RegN), how many
/// distinct differences the register field can express (DiffN), the field
/// width in bits (DiffW), which registers are special-purpose (reserved
/// direct codes, Section 9.2), and the nominal register access order.
///
//===----------------------------------------------------------------------===//

#ifndef DRA_CORE_ENCODINGCONFIG_H
#define DRA_CORE_ENCODINGCONFIG_H

#include "ir/Instruction.h"

#include <cassert>
#include <string>
#include <vector>

namespace dra {

/// The nominal register access order within one instruction (Section 2).
/// Both the encoder and the decoder must agree on it. SrcFirst is the
/// paper's running example (src1, src2, dst); DstFirst is the Section 9.4
/// alternative (dst, src1, src2) used by the access-order ablation.
enum class AccessOrder : uint8_t { SrcFirst, DstFirst };

/// Parameters of one register class's differential encoding.
struct EncodingConfig {
  /// Architected registers addressable by the scheme.
  unsigned RegN = 12;
  /// Distinct differences representable in a register field (excludes any
  /// codes reserved for special registers).
  unsigned DiffN = 8;
  /// Width of the register field in bits.
  unsigned DiffW = 3;
  /// Special-purpose registers (stack pointer etc.). They receive reserved
  /// direct codes DiffN, DiffN+1, ... and neither consume difference codes
  /// nor update last_reg (Section 9.2). Must be register numbers < RegN.
  std::vector<RegId> SpecialRegs;
  /// Nominal access order.
  AccessOrder Order = AccessOrder::SrcFirst;

  /// True if \p R is one of the special registers.
  bool isSpecial(RegId R) const {
    for (RegId S : SpecialRegs)
      if (S == R)
        return true;
    return false;
  }

  /// Reserved direct code for special register \p R (its index plus DiffN).
  unsigned specialCode(RegId R) const {
    for (unsigned I = 0; I != SpecialRegs.size(); ++I)
      if (SpecialRegs[I] == R)
        return DiffN + I;
    assert(false && "not a special register");
    return 0;
  }

  /// Structural sanity: all codes fit into DiffW bits, differences make
  /// sense, specials are in range.
  bool valid() const {
    if (DiffN == 0 || RegN == 0 || DiffW == 0 || DiffW > 16)
      return false;
    if (DiffN + SpecialRegs.size() > (1u << DiffW))
      return false;
    if (DiffN > RegN)
      return false;
    for (RegId S : SpecialRegs)
      if (S >= RegN)
        return false;
    return true;
  }

  /// The modular difference the field must encode for a transition from
  /// register \p Prev to register \p Next (Equation (1)).
  unsigned diffOf(RegId Prev, RegId Next) const {
    assert(Prev < RegN && Next < RegN && "register out of range");
    return (Next + RegN - Prev) % RegN;
  }

  /// Condition (3): can a Prev -> Next transition be encoded without a
  /// set_last_reg?
  bool encodable(RegId Prev, RegId Next) const {
    return diffOf(Prev, Next) < DiffN;
  }

  /// Field width a direct encoding would need for RegN registers
  /// (RegW = ceil(log2 RegN)).
  unsigned directWidth() const {
    unsigned W = 0;
    while ((1u << W) < RegN)
      ++W;
    return W;
  }
};

/// Precomputed special-register lookup: one table indexed by register
/// number, built once per configuration. `EncodingConfig::isSpecial` /
/// `specialCode` are linear scans over `SpecialRegs`; called per register
/// field on the encode hot path they dominate the walk for configs that
/// reserve registers. Build one of these next to the loop instead
/// (bench_micro_throughput's BM_EncodeWithSpecials measures the win).
class SpecialRegLookup {
public:
  SpecialRegLookup() = default;
  explicit SpecialRegLookup(const EncodingConfig &C)
      : Table(C.RegN, NotSpecial) {
    for (unsigned I = 0; I != C.SpecialRegs.size(); ++I) {
      assert(C.SpecialRegs[I] < C.RegN && "special register out of range");
      Table[C.SpecialRegs[I]] = C.DiffN + I;
    }
  }

  /// True if \p R is special. \p R may be any value (out-of-range ids are
  /// not special), so callers can query unvalidated operands.
  bool isSpecial(RegId R) const {
    return R < Table.size() && Table[R] != NotSpecial;
  }

  /// Reserved direct code of special register \p R (DiffN + index).
  unsigned specialCode(RegId R) const {
    assert(isSpecial(R) && "not a special register");
    return Table[R];
  }

private:
  static constexpr unsigned NotSpecial = ~0u;
  std::vector<unsigned> Table;
};

/// One register class of a multi-class machine (Section 9.1): its member
/// registers (class-local number = index in Members) and its
/// field-encoding parameters. Differences are taken modulo the class size.
struct RegClass {
  std::string Name;
  /// Machine register numbers belonging to this class, in class-local
  /// numbering order.
  std::vector<RegId> Members;
  /// Distinct differences encodable in this class's register fields.
  unsigned DiffN = 8;
  /// Field width in bits.
  unsigned DiffW = 3;
};

/// A partition of the machine registers into classes, each with its own
/// last_reg (Section 9.1: "during decoding, we need a separate last_reg
/// register for each class"). A set_last_reg's class is implied by its
/// value, so no new instruction bits are needed. The encoder, decoder and
/// verifier in core/Encoder.h take this or an EncodingConfig, which is the
/// one-class case.
struct ClassedConfig {
  std::vector<RegClass> Classes;
  AccessOrder Order = AccessOrder::SrcFirst;

  /// Total registers across classes.
  unsigned totalRegs() const {
    unsigned Total = 0;
    for (const RegClass &Cls : Classes)
      Total += static_cast<unsigned>(Cls.Members.size());
    return Total;
  }

  /// Class index of register \p R (asserts when unassigned).
  unsigned classOf(RegId R) const {
    for (unsigned Idx = 0; Idx != Classes.size(); ++Idx)
      for (RegId M : Classes[Idx].Members)
        if (M == R)
          return Idx;
    assert(false && "register not in any class");
    return 0;
  }

  /// Class-local index of register \p R.
  unsigned localIndex(RegId R) const {
    const std::vector<RegId> &Members = Classes[classOf(R)].Members;
    for (unsigned I = 0; I != Members.size(); ++I)
      if (Members[I] == R)
        return I;
    assert(false && "register not in its class");
    return 0;
  }

  /// True if every register below \p NumRegs belongs to exactly one class
  /// and every class's codes fit its field width.
  bool valid(unsigned NumRegs) const {
    std::vector<int> Owner(NumRegs, -1);
    for (unsigned Idx = 0; Idx != Classes.size(); ++Idx) {
      const RegClass &Cls = Classes[Idx];
      if (Cls.Members.empty() || Cls.DiffN == 0 || Cls.DiffW == 0 ||
          Cls.DiffN > (1u << Cls.DiffW) || Cls.DiffN > Cls.Members.size())
        return false;
      for (RegId M : Cls.Members) {
        if (M >= NumRegs || Owner[M] != -1)
          return false;
        Owner[M] = static_cast<int>(Idx);
      }
    }
    for (int O : Owner)
      if (O == -1)
        return false;
    return true;
  }
};

/// The paper's low-end configuration (Section 10.1): 3-bit fields, 8
/// differences, RegN architected registers (12 in Figures 11-14).
inline EncodingConfig lowEndConfig(unsigned RegN = 12) {
  EncodingConfig C;
  C.RegN = RegN;
  C.DiffN = 8;
  C.DiffW = 3;
  return C;
}

/// The paper's high-end/VLIW configuration (Section 10.2): 5-bit fields,
/// DiffN = 32, RegN in {32, 40, 48, 56, 64}.
inline EncodingConfig vliwConfig(unsigned RegN) {
  EncodingConfig C;
  C.RegN = RegN;
  C.DiffN = 32;
  C.DiffW = 5;
  return C;
}

} // namespace dra

#endif // DRA_CORE_ENCODINGCONFIG_H

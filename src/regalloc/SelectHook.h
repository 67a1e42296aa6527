//===- regalloc/SelectHook.h - Color-selection extension point --*- C++ -*-===//
//
// Part of the differential-register-allocation reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The select stage of the graph-coloring allocator consults a SelectHook
/// when more than one color is legal for a node. The paper's *differential
/// select* (Section 6) is implemented as such a hook: it tracks the
/// adjacency graph over live ranges and picks the color minimizing the
/// differential-encoding cost. The default hook reproduces the conventional
/// "pick an arbitrary (lowest) color" behaviour.
///
//===----------------------------------------------------------------------===//

#ifndef DRA_REGALLOC_SELECTHOOK_H
#define DRA_REGALLOC_SELECTHOOK_H

#include "ir/Instruction.h"

#include <vector>

namespace dra {

/// Everything a hook may inspect when choosing a color.
struct SelectContext {
  /// Representative virtual register of the node being colored.
  RegId Node = NoReg;
  /// All virtual registers coalesced into this node (includes Node).
  const std::vector<RegId> *Members = nullptr;
  /// Colors legal for this node, ascending.
  const std::vector<unsigned> *OkColors = nullptr;
  /// Node (coalescing representative) of every virtual register.
  const RegId *RepOf = nullptr;
  /// Color of every node so far; NoReg while the node is uncolored.
  const RegId *ColorOfRep = nullptr;

  /// Color of virtual register \p V's node, or NoReg if that node is not
  /// yet colored.
  RegId colorOf(RegId V) const { return ColorOfRep[RepOf[V]]; }
};

/// Strategy interface for the select stage.
class SelectHook {
public:
  virtual ~SelectHook();

  /// Called once per function before selection starts, with the function in
  /// its final (post-spill) form.
  virtual void beginFunction(const struct Function &F) { (void)F; }

  /// Returns the chosen color; must be an element of *Ctx.OkColors.
  virtual unsigned choose(const SelectContext &Ctx) = 0;
};

/// Picks the lowest legal color (conventional allocator behaviour).
class FirstFitSelectHook : public SelectHook {
public:
  unsigned choose(const SelectContext &Ctx) override {
    return Ctx.OkColors->front();
  }
};

} // namespace dra

#endif // DRA_REGALLOC_SELECTHOOK_H

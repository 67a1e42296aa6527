//===- core/Encoder.cpp - Differential encoding and decoding --------------===//

#include "core/Encoder.h"

#include "core/AccessSequence.h"

#include <algorithm>

using namespace dra;

namespace {

/// Three-valued decode-state lattice of one register class: Unknown (no
/// information yet, only from unprocessed/unreachable paths), a concrete
/// class-local register, or Conflict (paths disagree).
struct DecodeState {
  enum Kind : uint8_t { Unknown, Value, Conflict } K = Unknown;
  unsigned Local = 0;

  static DecodeState value(unsigned L) { return {Value, L}; }

  // Only Value states carry a Local; the others keep it at 0.
  bool operator==(const DecodeState &O) const = default;

  /// Lattice meet.
  DecodeState meet(const DecodeState &O) const {
    if (K == Unknown)
      return O;
    if (O.K == Unknown)
      return *this;
    if (K == Conflict || O.K == Conflict || Local != O.Local)
      return {Conflict, 0};
    return *this;
  }
};

/// The register class table every walk runs on, built once per call. Each
/// register maps to a (class, class-local index) pair or to a reserved
/// special code; each class has its own size, DiffN and DiffW, and its own
/// last_reg. An EncodingConfig is the one-class table (local index =
/// register number, class size = RegN); a ClassedConfig gives N classes.
struct ClassTable {
  static constexpr unsigned NotSpecial = ~0u;

  struct Class {
    unsigned DiffN;
    unsigned DiffW;
    /// Class-local index -> machine register; the class size is its size.
    std::vector<RegId> Members;
  };
  /// Where a register lives. A special register keeps (class 0, local =
  /// its number) as well, so a set_last_reg naming it means what it means
  /// with one class.
  struct Slot {
    unsigned Cls = 0;
    unsigned Local = 0;
    unsigned Special = NotSpecial;
  };

  AccessOrder Order;
  std::vector<Class> Classes;
  std::vector<Slot> Slots;
  /// Reserved code DiffN + I decodes to SpecialRegs[I].
  std::vector<RegId> SpecialRegs;

  explicit ClassTable(const EncodingConfig &C)
      : Order(C.Order), Classes{{C.DiffN, C.DiffW, {}}}, Slots(C.RegN),
        SpecialRegs(C.SpecialRegs) {
    for (RegId R = 0; R != C.RegN; ++R) {
      Classes[0].Members.push_back(R);
      Slots[R].Local = R;
    }
    for (unsigned I = 0; I != SpecialRegs.size(); ++I) {
      assert(SpecialRegs[I] < C.RegN && "special register out of range");
      Slots[SpecialRegs[I]].Special = C.DiffN + I;
    }
  }

  explicit ClassTable(const ClassedConfig &C) : Order(C.Order) {
    for (unsigned Idx = 0; Idx != C.Classes.size(); ++Idx) {
      const RegClass &RC = C.Classes[Idx];
      Classes.push_back({RC.DiffN, RC.DiffW, RC.Members});
      for (unsigned L = 0; L != RC.Members.size(); ++L) {
        if (RC.Members[L] >= Slots.size())
          Slots.resize(RC.Members[L] + 1);
        Slots[RC.Members[L]] = {Idx, L, NotSpecial};
      }
    }
  }

  /// Slot of register \p R. Numbers past the table (a set_last_reg
  /// immediate in parsed machine code, say) keep the one-class meaning.
  Slot slot(RegId R) const {
    if (R < Slots.size())
      return Slots[R];
    assert(Classes.size() == 1 && "register not in any class");
    return {0, R, NotSpecial};
  }
};

/// Reverse postorder of the blocks reachable from the entry; \p Reachable
/// marks them.
std::vector<uint32_t> reversePostorder(const Function &F,
                                       std::vector<uint8_t> &Reachable) {
  Reachable.assign(F.Blocks.size(), 0);
  std::vector<uint32_t> Order;
  if (F.Blocks.empty())
    return Order;
  std::vector<std::pair<uint32_t, size_t>> Stack{{0u, 0u}};
  Reachable[0] = 1;
  while (!Stack.empty()) {
    auto &[B, NextSucc] = Stack.back();
    const std::vector<uint32_t> &Succs = F.Blocks[B].Succs;
    if (NextSucc < Succs.size()) {
      uint32_t S = Succs[NextSucc++];
      if (!Reachable[S]) {
        Reachable[S] = 1;
        Stack.push_back({S, 0});
      }
      continue;
    }
    Order.push_back(B);
    Stack.pop_back();
  }
  std::reverse(Order.begin(), Order.end());
  return Order;
}

std::vector<uint8_t> reachableBlocks(const Function &F) {
  std::vector<uint8_t> Reachable;
  reversePostorder(F, Reachable);
  return Reachable;
}

/// Class-local index of each class's first non-special access in \p BB,
/// or 0 for a class the block never accesses.
std::vector<unsigned> firstAccesses(const BasicBlock &BB,
                                    const ClassTable &T) {
  std::vector<unsigned> First(T.Classes.size(), 0);
  std::vector<uint8_t> Seen(T.Classes.size(), 0);
  for (const Instruction &I : BB.Insts)
    for (unsigned FieldPos : fieldOrder(I, T.Order)) {
      ClassTable::Slot S = T.slot(I.regField(FieldPos));
      if (S.Special == ClassTable::NotSpecial && !Seen[S.Cls]) {
        Seen[S.Cls] = 1;
        First[S.Cls] = S.Local;
      }
    }
  return First;
}

/// Fixpoint of the decode-state dataflow over \p F (which may or may not
/// already contain SetLastReg instructions — they set the state like the
/// hardware does). Returns the entry state of every (block, class) pair,
/// at index Block * NumClasses + Class.
std::vector<DecodeState> entryStates(const Function &F, const ClassTable &T,
                                     const std::vector<uint8_t> &Reachable) {
  size_t NumBlocks = F.Blocks.size();
  size_t NumClasses = T.Classes.size();

  // Per-block transfer: exit = f(entry). A SetLastReg or a register access
  // overwrites its class's state; otherwise the entry state flows through.
  // Precompute the last "state writer" of each (block, class); Unknown
  // means the block writes nothing to that class.
  std::vector<DecodeState> LastWriter(NumBlocks * NumClasses);
  for (uint32_t B = 0; B != NumBlocks; ++B) {
    DecodeState *Last = &LastWriter[B * NumClasses];
    for (const Instruction &I : F.Blocks[B].Insts) {
      if (I.Op == Opcode::SetLastReg) {
        ClassTable::Slot S = T.slot(static_cast<RegId>(I.Imm));
        Last[S.Cls] = DecodeState::value(S.Local);
        continue;
      }
      for (unsigned FieldPos : fieldOrder(I, T.Order)) {
        ClassTable::Slot S = T.slot(I.regField(FieldPos));
        if (S.Special == ClassTable::NotSpecial)
          Last[S.Cls] = DecodeState::value(S.Local);
      }
    }
  }

  std::vector<DecodeState> Entry(NumBlocks * NumClasses);
  auto ExitOf = [&](size_t Idx) {
    return LastWriter[Idx].K == DecodeState::Value ? LastWriter[Idx]
                                                   : Entry[Idx];
  };

  // last_reg is dynamic machine state: execution can never arrive at a
  // join through an unreachable predecessor, so its static exit state
  // must not constrain the meet. This matters for consistency, not just
  // precision — the encoder inserts a head set_last_reg into unreachable
  // blocks (their entry is Unknown), which gives them a concrete exit in
  // the *annotated* function. If that exit participated in the dataflow,
  // a reachable join that was clean before annotation could become
  // Conflict after it, and verifyDecodable would reject a block the
  // encoder (correctly) left unrepaired.
  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (uint32_t B = 0; B != NumBlocks; ++B) {
      for (size_t Cls = 0; Cls != NumClasses; ++Cls) {
        // The hardware initializes every last_reg to class-local 0 at
        // function entry (the paper's n0 = 0 convention), modeled as a
        // virtual predecessor of block 0.
        DecodeState New = B == 0 ? DecodeState::value(0) : DecodeState();
        for (uint32_t Pred : F.Blocks[B].Preds)
          if (Reachable[Pred])
            New = New.meet(ExitOf(Pred * NumClasses + Cls));
        if (!(New == Entry[B * NumClasses + Cls])) {
          Entry[B * NumClasses + Cls] = New;
          Changed = true;
        }
      }
    }
  }
  return Entry;
}

EncodedFunction encodeWith(const Function &F, const ClassTable &T) {
  EncodedFunction Out;
  Out.Annotated = F;
  // Annotated keeps the machine register universe.
  Out.Annotated.NumRegs =
      std::max(F.NumRegs, static_cast<uint32_t>(T.Slots.size()));

  size_t NumClasses = T.Classes.size();
  std::vector<DecodeState> Entry = entryStates(F, T, reachableBlocks(F));
  std::vector<unsigned> Last(NumClasses);

  size_t NumBlocks = F.Blocks.size();
  Out.Codes.resize(NumBlocks);

  for (uint32_t B = 0; B != NumBlocks; ++B) {
    const BasicBlock &OldBB = F.Blocks[B];
    std::vector<Instruction> NewInsts;
    std::vector<std::vector<uint8_t>> NewCodes;

    // Establish the block-entry decode state of every class. A class is
    // forced when its predecessors disagree (Conflict) or the block is
    // unreachable (Unknown): insert a head set_last_reg aimed at the
    // class's first access in the block, so that field encodes
    // difference 0.
    std::vector<unsigned> First;
    for (size_t Cls = 0; Cls != NumClasses; ++Cls) {
      const DecodeState &S = Entry[B * NumClasses + Cls];
      if (S.K == DecodeState::Value) {
        Last[Cls] = S.Local;
        continue;
      }
      if (First.empty())
        First = firstAccesses(OldBB, T);
      Last[Cls] = First[Cls];
      Instruction Slr;
      Slr.Op = Opcode::SetLastReg;
      Slr.Imm = T.Classes[Cls].Members[Last[Cls]];
      Slr.Aux = 0;
      NewInsts.push_back(Slr);
      NewCodes.emplace_back();
      ++Out.Stats.SetLastJoin;
    }

    for (const Instruction &I : OldBB.Insts) {
      assert(I.Op != Opcode::SetLastReg &&
             "input to encodeFunction already annotated");
      // Simulate field decoding, gathering out-of-range repairs.
      std::vector<Instruction> Pending;
      std::vector<uint8_t> FieldCodes;
      std::vector<unsigned> Fields = fieldOrder(I, T.Order);
      for (unsigned Pos = 0; Pos != Fields.size(); ++Pos) {
        RegId R = I.regField(Fields[Pos]);
        ClassTable::Slot S = T.slot(R);
        const ClassTable::Class &RC = T.Classes[S.Cls];
        Out.Stats.FieldBits += RC.DiffW;
        if (S.Special != ClassTable::NotSpecial) {
          FieldCodes.push_back(static_cast<uint8_t>(S.Special));
          continue;
        }
        unsigned N = static_cast<unsigned>(RC.Members.size());
        assert(S.Local < N && "register out of encodable range");
        unsigned Diff = (S.Local + N - Last[S.Cls]) % N;
        if (Diff >= RC.DiffN) {
          Instruction Slr;
          Slr.Op = Opcode::SetLastReg;
          Slr.Imm = R;
          Slr.Aux = Pos; // Takes effect after Pos fields are decoded.
          Pending.push_back(Slr);
          ++Out.Stats.SetLastRange;
          Diff = 0;
        }
        FieldCodes.push_back(static_cast<uint8_t>(Diff));
        Last[S.Cls] = S.Local;
      }
      for (const Instruction &Slr : Pending) {
        NewInsts.push_back(Slr);
        NewCodes.emplace_back();
      }
      NewInsts.push_back(I);
      NewCodes.push_back(std::move(FieldCodes));
      Out.Stats.NumFields += Fields.size();
    }

    Out.Annotated.Blocks[B].Insts = std::move(NewInsts);
    Out.Codes[B] = std::move(NewCodes);
  }

  Out.Annotated.recomputeCFG();
  Out.Stats.NumInsts = Out.Annotated.numInsts();
  return Out;
}

/// The hardware decode walk: it reads the codes and the set_last_reg
/// instructions only (plus, with several classes, each field's class).
Function decodeWith(const EncodedFunction &E, const ClassTable &T) {
  const Function &A = E.Annotated;
  Function Out = A;
  size_t NumClasses = T.Classes.size();
  std::vector<unsigned> Exit(A.Blocks.size() * NumClasses);
  std::vector<uint8_t> Decoded(A.Blocks.size(), 0);

  // Reachable blocks in reverse postorder, then the unreachable ones.
  std::vector<uint8_t> Reachable;
  std::vector<uint32_t> Order = reversePostorder(A, Reachable);
  for (uint32_t B = 0; B != A.Blocks.size(); ++B)
    if (!Reachable[B])
      Order.push_back(B);

  for (uint32_t B : Order) {
    const BasicBlock &BB = A.Blocks[B];
    // Block 0 starts from the n0 = 0 convention; any other block from the
    // exit of its first already-decoded predecessor (the encoder made all
    // reachable predecessors agree, or placed a head set_last_reg). A
    // block with no decoded predecessor is unreachable and starts from
    // its head repair; the 0 below is a placeholder.
    std::vector<unsigned> Last(NumClasses, 0);
    if (B != 0)
      for (uint32_t Pred : BB.Preds)
        if (Decoded[Pred]) {
          std::copy_n(Exit.begin() + Pred * NumClasses, NumClasses,
                      Last.begin());
          break;
        }

    // Pending delayed set_last_reg assignments: (delay, value) applied
    // before the field with that position in the *next* non-slr
    // instruction.
    std::vector<std::pair<uint32_t, RegId>> PendingSlr;
    auto SetLast = [&](RegId R) {
      ClassTable::Slot S = T.slot(R);
      Last[S.Cls] = S.Local;
    };

    for (uint32_t IIdx = 0; IIdx != BB.Insts.size(); ++IIdx) {
      const Instruction &I = BB.Insts[IIdx];
      if (I.Op == Opcode::SetLastReg) {
        if (I.Aux == 0)
          SetLast(static_cast<RegId>(I.Imm));
        else
          PendingSlr.push_back({I.Aux, static_cast<RegId>(I.Imm)});
        continue;
      }
      const std::vector<uint8_t> &FieldCodes = E.Codes[B][IIdx];
      std::vector<unsigned> Fields = fieldOrder(I, T.Order);
      assert(FieldCodes.size() == Fields.size() && "code/field mismatch");
      Instruction &OutInst = Out.Blocks[B].Insts[IIdx];
      for (unsigned Pos = 0; Pos != Fields.size(); ++Pos) {
        for (const auto &[Delay, Value] : PendingSlr)
          if (Delay == Pos)
            SetLast(Value);
        unsigned Cls =
            NumClasses == 1 ? 0 : T.slot(I.regField(Fields[Pos])).Cls;
        const ClassTable::Class &RC = T.Classes[Cls];
        unsigned Code = FieldCodes[Pos];
        RegId Reg;
        if (Code >= RC.DiffN) {
          // Reserved direct code for a special register.
          assert(Code - RC.DiffN < T.SpecialRegs.size() &&
                 "invalid special code");
          Reg = T.SpecialRegs[Code - RC.DiffN];
        } else {
          Last[Cls] = (Last[Cls] + Code) % RC.Members.size();
          Reg = RC.Members[Last[Cls]];
        }
        OutInst.setRegField(Fields[Pos], Reg);
      }
      PendingSlr.clear();
    }
    std::copy(Last.begin(), Last.end(), Exit.begin() + B * NumClasses);
    Decoded[B] = 1;
  }
  return Out;
}

bool verifyWith(const Function &Annotated, const ClassTable &T,
                std::string *Err) {
  auto Fail = [&](uint32_t Block, const std::string &Msg) {
    if (Err)
      *Err = "bb" + std::to_string(Block) + ": " + Msg;
    return false;
  };
  // Unreachable blocks are exempt. A function with no blocks has no
  // register fields to decode; it is vacuously decodable.
  std::vector<uint8_t> Reachable = reachableBlocks(Annotated);
  std::vector<DecodeState> Entry = entryStates(Annotated, T, Reachable);
  size_t NumClasses = T.Classes.size();

  for (uint32_t B = 0; B != Annotated.Blocks.size(); ++B) {
    if (!Reachable[B])
      continue;
    std::vector<DecodeState> State(Entry.begin() + B * NumClasses,
                                   Entry.begin() + (B + 1) * NumClasses);
    auto SetLast = [&](RegId R) {
      ClassTable::Slot S = T.slot(R);
      State[S.Cls] = DecodeState::value(S.Local);
    };
    // Delayed set_last_reg forms pending application, exactly as in the
    // hardware decoder: (delay, value) applies right before the field with
    // that position in the next real instruction.
    std::vector<std::pair<uint32_t, RegId>> PendingSlr;
    for (const Instruction &I : Annotated.Blocks[B].Insts) {
      if (I.Op == Opcode::SetLastReg) {
        if (I.Aux == 0)
          SetLast(static_cast<RegId>(I.Imm));
        else
          PendingSlr.push_back({I.Aux, static_cast<RegId>(I.Imm)});
        continue;
      }
      std::vector<unsigned> Fields = fieldOrder(I, T.Order);
      // The decoder clears pending assignments after every real
      // instruction, so a delay_num beyond this instruction's field count
      // would silently never apply — the hardware model would keep it
      // pending instead. Reject such annotations rather than letting the
      // decoder diverge from the hardware.
      for (const auto &[Delay, Value] : PendingSlr)
        if (Delay >= Fields.size())
          return Fail(B, "delayed set_last_reg (delay " +
                             std::to_string(Delay) +
                             ") never applies: next instruction has only " +
                             std::to_string(Fields.size()) +
                             " register field(s)");
      for (unsigned Pos = 0; Pos != Fields.size(); ++Pos) {
        for (const auto &[Delay, Value] : PendingSlr)
          if (Delay == Pos)
            SetLast(Value);
        ClassTable::Slot S = T.slot(I.regField(Fields[Pos]));
        if (S.Special != ClassTable::NotSpecial)
          continue;
        DecodeState &Cur = State[S.Cls];
        if (Cur.K != DecodeState::Value)
          return Fail(B, "register field decoded with ambiguous last_reg");
        const ClassTable::Class &RC = T.Classes[S.Cls];
        unsigned N = static_cast<unsigned>(RC.Members.size());
        assert(S.Local < N && Cur.Local < N && "register out of range");
        if ((S.Local + N - Cur.Local) % N >= RC.DiffN)
          return Fail(B, "difference out of range without set_last_reg");
        Cur = DecodeState::value(S.Local);
      }
      PendingSlr.clear();
    }
    if (!PendingSlr.empty())
      return Fail(B, "delayed set_last_reg dangles at block end (no "
                     "following instruction)");
  }
  return true;
}

} // namespace

EncodedFunction dra::encodeFunction(const Function &F,
                                    const EncodingConfig &C) {
  assert(C.valid() && "invalid encoding configuration");
  assert(F.NumRegs <= C.RegN && "function uses more registers than RegN");
  return encodeWith(F, ClassTable(C));
}

EncodedFunction dra::encodeFunction(const Function &F,
                                    const ClassedConfig &C) {
  assert(C.valid(F.NumRegs) && "invalid class partition for this function");
  return encodeWith(F, ClassTable(C));
}

Function dra::decodeFunction(const EncodedFunction &E,
                             const EncodingConfig &C) {
  assert(C.valid() && "invalid encoding configuration");
  return decodeWith(E, ClassTable(C));
}

Function dra::decodeFunction(const EncodedFunction &E,
                             const ClassedConfig &C) {
  return decodeWith(E, ClassTable(C));
}

bool dra::verifyDecodable(const Function &Annotated, const EncodingConfig &C,
                          std::string *Err) {
  return verifyWith(Annotated, ClassTable(C), Err);
}

bool dra::verifyDecodable(const Function &Annotated, const ClassedConfig &C,
                          std::string *Err) {
  return verifyWith(Annotated, ClassTable(C), Err);
}

std::vector<std::optional<RegId>>
dra::decodeEntryStates(const Function &F, const EncodingConfig &C) {
  std::vector<DecodeState> States =
      entryStates(F, ClassTable(C), reachableBlocks(F));
  std::vector<std::optional<RegId>> Out(States.size());
  for (size_t B = 0; B != States.size(); ++B)
    if (States[B].K == DecodeState::Value)
      Out[B] = States[B].Local;
  return Out;
}

Function dra::stripSetLastReg(const Function &F) {
  Function Out = F;
  for (BasicBlock &BB : Out.Blocks) {
    std::vector<Instruction> Kept;
    Kept.reserve(BB.Insts.size());
    for (const Instruction &I : BB.Insts)
      if (I.Op != Opcode::SetLastReg)
        Kept.push_back(I);
    BB.Insts = std::move(Kept);
  }
  Out.recomputeCFG();
  return Out;
}

size_t dra::codeSizeBytes(const Function &F, unsigned BytesPerInst) {
  return F.numInsts() * BytesPerInst;
}

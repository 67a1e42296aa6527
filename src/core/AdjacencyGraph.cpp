//===- core/AdjacencyGraph.cpp - Access-adjacency graphs ------------------===//

#include "core/AdjacencyGraph.h"

#include "analysis/LoopInfo.h"

using namespace dra;

void AdjacencyGraph::killHalf(bool OutSide, RegId Row, RegId Node,
                              MergeUndo *Undo) {
  std::vector<HalfEdge> &List = row(OutSide, Row);
  for (size_t I = 0, E = List.size(); I != E; ++I)
    if (List[I].Live && List[I].Node == Node) {
      List[I].Live = false;
      if (Undo)
        Undo->Changes.push_back({MergeUndo::Kind::Kill, OutSide, Row,
                                 static_cast<uint32_t>(I), 0.0});
      return;
    }
}

void AdjacencyGraph::addWeight(RegId From, RegId To, double W) {
  addWeight(From, To, W, nullptr);
}

void AdjacencyGraph::addWeight(RegId From, RegId To, double W,
                               MergeUndo *Undo) {
  if (From == To || W == 0)
    return;
  assert(From < NumNodes && To < NumNodes && "node out of range");
  auto FindLive = [](const std::vector<HalfEdge> &List, RegId Node) {
    for (size_t I = 0, E = List.size(); I != E; ++I)
      if (List[I].Live && List[I].Node == Node)
        return I;
    return List.size();
  };
  size_t OutI = FindLive(Out[From], To);
  if (OutI != Out[From].size()) {
    size_t InI = FindLive(In[To], From);
    assert(InI != In[To].size() && "out/in half-edge lists out of sync");
    HalfEdge &OutE = Out[From][OutI];
    if (Undo) {
      Undo->Changes.push_back({MergeUndo::Kind::SetWeight, true, From,
                               static_cast<uint32_t>(OutI), OutE.W});
      Undo->Changes.push_back({MergeUndo::Kind::SetWeight, false, To,
                               static_cast<uint32_t>(InI), In[To][InI].W});
    }
    OutE.W += W;
    In[To][InI].W = OutE.W;
    return;
  }
  Out[From].push_back({To, true, W});
  In[To].push_back({From, true, W});
  if (Undo) {
    Undo->Changes.push_back({MergeUndo::Kind::Push, true, From, 0, 0.0});
    Undo->Changes.push_back({MergeUndo::Kind::Push, false, To, 0, 0.0});
  }
}

double AdjacencyGraph::weight(RegId From, RegId To) const {
  for (const HalfEdge &E : Out[From])
    if (E.Live && E.Node == To)
      return E.W;
  return 0.0;
}

double AdjacencyGraph::totalWeight() const {
  double Total = 0;
  for (RegId From = 0; From != NumNodes; ++From)
    for (const HalfEdge &E : Out[From])
      if (E.Live)
        Total += E.W;
  return Total;
}

double AdjacencyGraph::cost(const std::vector<RegId> &RegNoOf,
                            const EncodingConfig &C) const {
  assert(RegNoOf.size() >= NumNodes && "assignment too small");
  double Total = 0;
  for (RegId From = 0; From != NumNodes; ++From) {
    RegId FromNo = RegNoOf[From];
    if (FromNo == NoReg)
      continue;
    for (const HalfEdge &E : Out[From]) {
      if (!E.Live)
        continue;
      RegId ToNo = RegNoOf[E.Node];
      if (ToNo == NoReg)
        continue;
      if (FromNo != ToNo && !C.encodable(FromNo, ToNo))
        Total += E.W;
    }
  }
  return Total;
}

double AdjacencyGraph::identityCost(const EncodingConfig &C) const {
  std::vector<RegId> Identity(NumNodes);
  for (RegId N = 0; N != NumNodes; ++N)
    Identity[N] = N;
  return cost(Identity, C);
}

void AdjacencyGraph::mergeInto(RegId From, RegId To, MergeUndo *Undo) {
  assert(From != To && From < NumNodes && To < NumNodes && "bad merge");
  if (Undo) {
    Undo->From = From;
    Undo->OutFrom = Out[From];
    Undo->InFrom = In[From];
    Undo->Changes.clear();
  }
  // Index-based walks: addWeight may grow other nodes' lists, but never
  // From's (self edges are excluded), so Out[From]/In[From] are stable.
  for (size_t I = 0, E = Out[From].size(); I != E; ++I) {
    HalfEdge &Half = Out[From][I];
    if (!Half.Live)
      continue;
    RegId X = Half.Node;
    double W = Half.W;
    Half.Live = false;
    killHalf(false, X, From, Undo);
    if (X != To)
      addWeight(To, X, W, Undo);
  }
  for (size_t I = 0, E = In[From].size(); I != E; ++I) {
    HalfEdge &Half = In[From][I];
    if (!Half.Live)
      continue;
    RegId X = Half.Node;
    double W = Half.W;
    Half.Live = false;
    killHalf(true, X, From, Undo);
    if (X != To)
      addWeight(X, To, W, Undo);
  }
  Out[From].clear();
  In[From].clear();
}

void AdjacencyGraph::undoMerge(MergeUndo &Undo) {
  for (size_t I = Undo.Changes.size(); I != 0; --I) {
    const MergeUndo::Change &Ch = Undo.Changes[I - 1];
    std::vector<HalfEdge> &List = row(Ch.OutSide, Ch.Row);
    switch (Ch.K) {
    case MergeUndo::Kind::Kill:
      List[Ch.Index].Live = true;
      break;
    case MergeUndo::Kind::SetWeight:
      List[Ch.Index].W = Ch.OldW;
      break;
    case MergeUndo::Kind::Push:
      List.pop_back();
      break;
    }
  }
  // From's rows were cleared wholesale; swapping the saved copies back
  // keeps both buffers' capacity for the next merge.
  Out[Undo.From].swap(Undo.OutFrom);
  In[Undo.From].swap(Undo.InFrom);
}

AdjacencyGraph AdjacencyGraph::build(const Function &F,
                                     const EncodingConfig &C,
                                     WeightMode Mode) {
  AdjacencyGraph G(F.NumRegs);
  LoopInfo LI = Mode == WeightMode::Frequency ? LoopInfo::compute(F)
                                              : LoopInfo();

  // Per-block sequences plus first/last accessed register for the
  // cross-block edges.
  size_t NumBlocks = F.Blocks.size();
  std::vector<RegId> FirstReg(NumBlocks, NoReg), LastReg(NumBlocks, NoReg);
  for (uint32_t B = 0; B != NumBlocks; ++B) {
    std::vector<Access> Seq = blockAccessSequence(F, B, C);
    double Freq = Mode == WeightMode::Frequency ? LI.frequency(B) : 1.0;
    for (size_t I = 1; I < Seq.size(); ++I)
      G.addWeight(Seq[I - 1].Reg, Seq[I].Reg, Freq);
    if (!Seq.empty()) {
      FirstReg[B] = Seq.front().Reg;
      LastReg[B] = Seq.back().Reg;
    }
  }

  // Cross-block edges: last access of each predecessor -> first access of
  // the block, weight divided by the predecessor count (one set_last_reg
  // at the block head repairs every incoming edge). Blocks without
  // accesses forward their own entry state; we approximate by skipping
  // them (they contribute no transition of their own).
  for (uint32_t B = 0; B != NumBlocks; ++B) {
    if (FirstReg[B] == NoReg || F.Blocks[B].Preds.empty())
      continue;
    double Share = 1.0 / static_cast<double>(F.Blocks[B].Preds.size());
    double Freq = Mode == WeightMode::Frequency ? LI.frequency(B) : 1.0;
    for (uint32_t Pred : F.Blocks[B].Preds) {
      RegId PredLast = LastReg[Pred];
      if (PredLast == NoReg)
        continue;
      G.addWeight(PredLast, FirstReg[B], Share * Freq);
    }
  }
  return G;
}

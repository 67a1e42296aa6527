//===- core/AdjacencyGraph.h - Access-adjacency graphs ----------*- C++ -*-===//
//
// Part of the differential-register-allocation reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The adjacency graph of Definition 2: a directed weighted graph whose
/// nodes are live ranges (or, post-allocation, registers) and where an edge
/// vi -> vj with weight w means vj immediately follows vi in the access
/// sequence w times. Self edges are omitted (a zero difference is always
/// encodable). Cross-block adjacencies — from the last access of a
/// predecessor to the first access of a block — contribute weight divided
/// by the number of predecessors, because at most one set_last_reg repairs
/// all of a block's incoming edges (Section 4).
///
/// The differential-encoding cost of a register assignment is the sum of
/// edge weights violating condition (3):
///     0 <= (reg_no(vj) - reg_no(vi)) mod RegN < DiffN.
///
/// Storage is flat per-node half-edge lists (weight carried on both the
/// out- and in-side), kept in first-insertion order; mergeInto tombstones
/// dead entries in place. No hashing on any path; per-edge accumulation
/// order — and with it every weight's exact floating-point value — matches
/// the program order of addWeight calls.
///
//===----------------------------------------------------------------------===//

#ifndef DRA_CORE_ADJACENCYGRAPH_H
#define DRA_CORE_ADJACENCYGRAPH_H

#include "core/AccessSequence.h"
#include "core/EncodingConfig.h"
#include "ir/Function.h"

#include <vector>

namespace dra {

/// How edge weights are accumulated.
enum class WeightMode : uint8_t {
  /// One unit per occurrence — predicts the *static* number of
  /// set_last_reg instructions (the paper's evaluation metric).
  Static,
  /// Occurrences scaled by the block's static execution-frequency estimate
  /// (10^loop-depth) — available for profile-style cost estimation.
  Frequency,
};

/// Directed weighted adjacency graph over register/live-range ids.
class AdjacencyGraph {
public:
  explicit AdjacencyGraph(uint32_t NumNodes = 0) { reset(NumNodes); }

  /// Builds the graph for \p F. Nodes are F's register ids (virtual
  /// registers before allocation, physical numbers after), so the same
  /// routine serves differential select (live ranges) and differential
  /// remapping (registers).
  static AdjacencyGraph build(const Function &F, const EncodingConfig &C,
                              WeightMode Mode = WeightMode::Static);

  void reset(uint32_t NewNumNodes) {
    NumNodes = NewNumNodes;
    Out.assign(NumNodes, {});
    In.assign(NumNodes, {});
  }

  uint32_t numNodes() const { return NumNodes; }

  /// Adds \p W to edge From -> To. Self edges are ignored.
  void addWeight(RegId From, RegId To, double W);

  /// Weight of edge From -> To (0 when absent).
  double weight(RegId From, RegId To) const;

  /// Invokes \p Fn(To, Weight) for every outgoing edge of \p N, in
  /// first-insertion order.
  template <typename FnT> void forEachOut(RegId N, FnT Fn) const {
    for (const HalfEdge &E : Out[N])
      if (E.Live)
        Fn(E.Node, E.W);
  }

  /// Invokes \p Fn(From, Weight) for every incoming edge of \p N, in
  /// first-insertion order.
  template <typename FnT> void forEachIn(RegId N, FnT Fn) const {
    for (const HalfEdge &E : In[N])
      if (E.Live)
        Fn(E.Node, E.W);
  }

  /// Sum of all edge weights.
  double totalWeight() const;

  /// Differential cost of the assignment \p RegNoOf (node -> register
  /// number): sum of weights of edges violating condition (3). Edges with
  /// either endpoint mapped to NoReg are skipped (not yet assigned).
  double cost(const std::vector<RegId> &RegNoOf,
              const EncodingConfig &C) const;

  /// Cost of the identity assignment (node id == register number); only
  /// meaningful for post-allocation graphs where nodes are registers.
  double identityCost(const EncodingConfig &C) const;

private:
  /// One direction of an edge; the weight is duplicated on the out- and
  /// in-side so both iteration directions are a single linear walk.
  struct HalfEdge {
    RegId Node;  // other endpoint
    bool Live;   // false once mergeInto removed the edge
    double W;

    bool operator==(const HalfEdge &) const = default;
  };

public:
  /// What one mergeInto changed, so undoMerge can restore the graph
  /// exactly (tombstones, insertion order and weights included) in time
  /// proportional to the merged node's degree. Reusable across merges.
  class MergeUndo {
    friend class AdjacencyGraph;
    enum class Kind : uint8_t { Kill, SetWeight, Push };
    struct Change {
      Kind K;
      bool OutSide; // the row is Out[Row], else In[Row]
      RegId Row;
      uint32_t Index;
      double OldW;
    };
    RegId From = NoReg;
    std::vector<HalfEdge> OutFrom, InFrom; // From's rows before the merge
    std::vector<Change> Changes;           // in the order they were made
  };

  /// Merges node \p From into node \p To: From's in/out edges are re-aimed
  /// at To (dropping resulting self edges). Used by differential coalesce.
  /// With \p Undo, records the changes for undoMerge.
  void mergeInto(RegId From, RegId To, MergeUndo *Undo = nullptr);

  /// Reverts the mergeInto that filled \p Undo; no other change to the
  /// graph may come between the two.
  void undoMerge(MergeUndo &Undo);

  /// Exact equality: node count, and every half-edge row entry for entry.
  bool operator==(const AdjacencyGraph &) const = default;

private:
  uint32_t NumNodes = 0;
  std::vector<std::vector<HalfEdge>> Out; // Out[From] -> {To, W}
  std::vector<std::vector<HalfEdge>> In;  // In[To] -> {From, W}

  std::vector<HalfEdge> &row(bool OutSide, RegId Node) {
    return OutSide ? Out[Node] : In[Node];
  }
  void addWeight(RegId From, RegId To, double W, MergeUndo *Undo);
  void killHalf(bool OutSide, RegId Row, RegId Node, MergeUndo *Undo);
};

} // namespace dra

#endif // DRA_CORE_ADJACENCYGRAPH_H

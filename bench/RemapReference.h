//===- bench/RemapReference.h - Reference remap search arms -----*- C++ -*-===//
//
// Part of the differential-register-allocation reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The pre-model greedy remap search, kept beside its only users — the
/// remap search tests and bench_remap_search — as the bit-identity
/// reference for `findRemap` and as its throughput baselines:
///
///  * the incident arm evaluates a candidate swap by walking the two
///    registers' incident edges through the adjacency graph with one
///    branch per arc, once before and once after the trial swap;
///  * the full-recost arm recosts the whole permutation per candidate —
///    the O(|E|)-per-candidate baseline.
///
/// Both run the starts sequentially on the calling thread (Jobs is
/// ignored) from the same seed stream, pair order and first-best rule as
/// `findRemap`. The incident arm sums each candidate's terms in the order
/// RemapCostModel does, so on any finite non-negative weights its result
/// matches findRemap's bit for bit (the delta-arc counters stay zero).
/// The full-recost arm matches only where every cost is exact (integer
/// weights): its deltas are differences of two full sums.
///
//===----------------------------------------------------------------------===//

#ifndef DRA_BENCH_REMAPREFERENCE_H
#define DRA_BENCH_REMAPREFERENCE_H

#include "core/Remap.h"

namespace dra {

enum class RemapReferenceArm { Incident, FullRecost };

/// Cost change of exchanging the numbers of \p U and \p V under \p Perm,
/// evaluated by the incident arm's walk (violated weights among the edges
/// incident to U or V, summed before and after the trial swap). \p Perm
/// is swapped and restored.
double incidentSwapDelta(const AdjacencyGraph &G, const EncodingConfig &C,
                         std::vector<RegId> &Perm, RegId U, RegId V);

/// findRemap with the greedy search replaced by the sequential \p Arm.
/// Exhaustive cases (movable registers <= O.ExhaustiveLimit) go to
/// findRemap unchanged.
RemapResult findRemapReference(const AdjacencyGraph &G,
                               const EncodingConfig &C,
                               const RemapOptions &O,
                               RemapReferenceArm Arm =
                                   RemapReferenceArm::Incident);

} // namespace dra

#endif // DRA_BENCH_REMAPREFERENCE_H

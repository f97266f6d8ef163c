// The filter step of the index nested loop join (paper Section 3.1,
// Algorithm 2) and its bulk variant (Section 4.1, Algorithm 7, plus the
// Section 4.2 symmetric pruning rule used by OBJ).
//
// Filter(q, T_P) walks T_P best-first in ascending mindist from q (the
// incremental-NN order of Hjaltason & Samet) and returns every point of P
// that no previously discovered candidate can prune via Lemma 1 (points) /
// Lemma 3 (MBRs). The output is a superset of q's true RCJ partners — the
// verification step removes the rest.
//
// Cell test. Each group member also keeps its Lemma-1 cell: T_P's root
// MBR clipped by every anchor half-plane of the member, with the cell's
// bounding box grown by a proved rounding margin (kernels.h MemberCell,
// derivation in filter.cc). A point outside the box is pruned by some
// anchor (Lemma 1), so the box decides it without the per-anchor tests;
// a node whose MBR misses the box holds only such points, which prunes
// nodes that no single anchor covers (stronger than Lemma 3). An item
// outside the union of the members' boxes is pruned for the whole group
// with one test: a popped point, a popped node, or a leaf entry or child
// about to be pushed. Candidate sets and their order are those of the
// anchor tests alone; only node reads fall.
#ifndef RINGJOIN_CORE_FILTER_H_
#define RINGJOIN_CORE_FILTER_H_

#include <unordered_set>
#include <vector>

#include "common/status.h"
#include "core/rcj_types.h"
#include "rtree/rtree.h"

namespace rcj {

/// Algorithm 2. Retrieves the candidate partners of q from T_P.
///
/// `self_skip_id`: in a self-join T_P contains q itself; pass q's id so the
/// identity point is neither reported nor used as a pruning anchor. Pass
/// kInvalidPointId for a regular (two-dataset) join.
///
/// `exclude`: tombstoned point ids of a live environment's delta overlay
/// (null for a static join). Excluded points are treated exactly like the
/// identity point — never reported and never a pruning anchor — so every
/// remaining anchor is a live point and Lemma-1/3 pruning stays sound.
Status FilterCandidates(const RTree& tp, const Point& q,
                        PointId self_skip_id,
                        std::vector<PointRecord>* candidates,
                        const std::unordered_set<PointId>* exclude = nullptr);

/// Options for the bulk filter.
struct BulkFilterOptions {
  /// Enables the Lemma-5 symmetric pruning rule (Section 4.2): sibling
  /// points of the same T_Q leaf act as pruning anchors even before any
  /// candidate from P is found. This is what turns BIJ into OBJ.
  bool symmetric_pruning = false;
  /// Self-join mode: skip identity points (T_P is the same tree as T_Q).
  bool self_join = false;
};

/// Algorithm 7. One best-first traversal of T_P (ordered by mindist from the
/// centroid of `qs`) retrieves candidate sets for all points of one T_Q leaf
/// concurrently. `per_q_candidates` is resized to qs.size(), aligned with qs.
/// `exclude` as in FilterCandidates; the caller must also drop tombstoned
/// points from `qs` itself (dead siblings must not seed symmetric anchors).
Status BulkFilterCandidates(const RTree& tp,
                            const std::vector<PointRecord>& qs,
                            const BulkFilterOptions& options,
                            std::vector<std::vector<PointRecord>>*
                                per_q_candidates,
                            const std::unordered_set<PointId>* exclude =
                                nullptr);

}  // namespace rcj

#endif  // RINGJOIN_CORE_FILTER_H_

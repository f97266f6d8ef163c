#include "quadtree/quad_rcj.h"

#include <queue>

#include "geometry/circle.h"
#include "geometry/halfplane.h"

namespace rcj {
namespace {

struct HeapItem {
  double key = 0.0;
  bool is_point = false;
  PointRecord rec;
  uint64_t page = 0;
  Rect region;
};
struct HeapCompare {
  bool operator()(const HeapItem& a, const HeapItem& b) const {
    return a.key > b.key;
  }
};

// Kills `circle` if the subtree under (page, region) of `tree` contains a
// point strictly inside the candidate circle (excluding `skip_id`).
Status QuadVerifyRec(const QuadTree& tree, uint64_t page, const Rect& region,
                     const CandidateCircle& candidate, PointId skip_id,
                     PointId skip_id2, bool* alive) {
  if (!*alive) return Status::OK();
  // Conservative traversal bound (same inflation rationale as the R-tree
  // verifier).
  if (region.MinDist2(candidate.circle.center) >=
      candidate.circle.TraversalBound2()) {
    return Status::OK();
  }
  Result<QuadNode> node = tree.ReadNode(page);
  if (!node.ok()) return node.status();
  if (node.value().is_leaf) {
    for (const LeafEntry& e : node.value().points) {
      if (e.rec.id == skip_id || e.rec.id == skip_id2) continue;
      if (StrictlyInsideDiametral(e.rec.pt, candidate.p.pt,
                                  candidate.q.pt)) {
        *alive = false;
        return Status::OK();
      }
    }
    return Status::OK();
  }
  for (int i = 0; i < 4 && *alive; ++i) {
    RINGJOIN_RETURN_IF_ERROR(
        QuadVerifyRec(tree, node.value().children[i],
                      QuadNode::ChildRegion(region, i), candidate, skip_id,
                      skip_id2, alive));
  }
  return Status::OK();
}

}  // namespace

Status QuadFilterCandidates(const QuadTree& tp, const Point& q,
                            PointId self_skip_id,
                            std::vector<PointRecord>* candidates) {
  candidates->clear();
  std::vector<PruneRegion> regions;

  std::priority_queue<HeapItem, std::vector<HeapItem>, HeapCompare> heap;
  {
    HeapItem root;
    root.page = tp.root_page();
    root.region = tp.domain();
    root.key = root.region.MinDist2(q);
    heap.push(root);
  }

  while (!heap.empty()) {
    HeapItem top = heap.top();
    heap.pop();

    bool pruned = false;
    for (const PruneRegion& region : regions) {
      if (top.is_point ? region.PrunesPoint(top.rec.pt)
                       : region.PrunesRect(top.region)) {
        pruned = true;
        break;
      }
    }
    if (pruned) continue;

    if (top.is_point) {
      if (top.rec.id == self_skip_id) continue;
      candidates->push_back(top.rec);
      regions.emplace_back(q, top.rec.pt);
      continue;
    }

    Result<QuadNode> node = tp.ReadNode(top.page);
    if (!node.ok()) return node.status();
    if (node.value().is_leaf) {
      for (const LeafEntry& e : node.value().points) {
        HeapItem item;
        item.is_point = true;
        item.rec = e.rec;
        item.key = Dist2(q, e.rec.pt);
        heap.push(item);
      }
    } else {
      for (int i = 0; i < 4; ++i) {
        HeapItem item;
        item.page = node.value().children[i];
        item.region = QuadNode::ChildRegion(top.region, i);
        item.key = item.region.MinDist2(q);
        heap.push(item);
      }
    }
  }
  return Status::OK();
}

Status RunQuadRcj(const QuadTree& tq, const QuadTree& tp, PairSink* sink,
                  JoinStats* stats) {
  uint64_t emitted = 0;
  std::vector<PointRecord> candidates;

  Status inner_status;
  Status visit_status = tq.VisitLeavesDepthFirst(
      [&](const QuadNode& leaf, const Rect& /*region*/) {
        for (const LeafEntry& entry : leaf.points) {
          const PointRecord& q = entry.rec;
          inner_status =
              QuadFilterCandidates(tp, q.pt, kInvalidPointId, &candidates);
          if (!inner_status.ok()) return false;
          stats->candidates += candidates.size();
          for (const PointRecord& p : candidates) {
            CandidateCircle candidate = CandidateCircle::Make(p, q);
            bool alive = true;
            inner_status =
                QuadVerifyRec(tq, tq.root_page(), tq.domain(), candidate,
                              q.id, kInvalidPointId, &alive);
            if (!inner_status.ok()) return false;
            if (alive) {
              inner_status =
                  QuadVerifyRec(tp, tp.root_page(), tp.domain(), candidate,
                                p.id, kInvalidPointId, &alive);
              if (!inner_status.ok()) return false;
            }
            if (alive) {
              ++emitted;
              // Early termination: stop the traversal; inner_status stays
              // OK, so the join reports success with a prefix emitted.
              if (!sink->Emit(RcjPair{p, q, candidate.circle})) return false;
            }
          }
        }
        return true;
      });
  RINGJOIN_RETURN_IF_ERROR(visit_status);
  RINGJOIN_RETURN_IF_ERROR(inner_status);
  stats->results += emitted;
  return Status::OK();
}

}  // namespace rcj

#include "core/filter.h"

#include <queue>

#include "core/kernels.h"
#include "core/lanes.h"

namespace rcj {
namespace kernel {

template <int W>
bool AnchorLanes<W>::PrunesPoint(const Point& x) const {
  using L = Lanes<W>;
  const typename L::V px = L::Set(x.x);
  const typename L::V py = L::Set(x.y);
  const typename L::V zero = L::Set(0.0);
  for (const Block& b : blocks_) {
    // (x - a) . n > 0, as PruneRegion::PrunesPoint.
    const typename L::V offset =
        L::Add(L::Mul(L::Sub(px, L::Load(b.ax)), L::Load(b.nx)),
               L::Mul(L::Sub(py, L::Load(b.ay)), L::Load(b.ny)));
    if (L::Greater(offset, zero) != 0) return true;
  }
  return false;
}

template <int W>
bool AnchorLanes<W>::PrunesRect(const Rect& r) const {
  using L = Lanes<W>;
  const typename L::V lo_x = L::Set(r.lo.x);
  const typename L::V lo_y = L::Set(r.lo.y);
  const typename L::V hi_x = L::Set(r.hi.x);
  const typename L::V hi_y = L::Set(r.hi.y);
  const typename L::V zero = L::Set(0.0);
  for (const Block& b : blocks_) {
    // The corner nearest the anchor's line, as PruneRegion::PrunesRect.
    const typename L::V nx = L::Load(b.nx);
    const typename L::V ny = L::Load(b.ny);
    const typename L::V cx = L::IfPositive(nx, lo_x, hi_x);
    const typename L::V cy = L::IfPositive(ny, lo_y, hi_y);
    const typename L::V offset =
        L::Add(L::Mul(L::Sub(cx, L::Load(b.ax)), nx),
               L::Mul(L::Sub(cy, L::Load(b.ay)), ny));
    if (L::Greater(offset, zero) != 0) return true;
  }
  return false;
}

// Explicit instantiations, before any use: the width-4 ones inside the
// AVX2 region, so they and the lane operations inlined into them compile
// to AVX2 code.
#if RINGJOIN_AVX2_KERNELS
RINGJOIN_AVX2_BEGIN
template bool AnchorLanes<4>::PrunesPoint(const Point&) const;
template bool AnchorLanes<4>::PrunesRect(const Rect&) const;
RINGJOIN_AVX2_END
#endif
template bool AnchorLanes<1>::PrunesPoint(const Point&) const;
template bool AnchorLanes<1>::PrunesRect(const Rect&) const;

}  // namespace kernel

namespace {

// Heap element of the best-first traversal: either a node page or a point.
struct HeapItem {
  double key = 0.0;  // squared mindist from the reference point
  bool is_point = false;
  PointRecord rec;
  uint64_t child_page = 0;
  Rect mbr;  // valid for nodes
};
struct HeapCompare {
  bool operator()(const HeapItem& a, const HeapItem& b) const {
    return a.key > b.key;
  }
};
using MinHeap =
    std::priority_queue<HeapItem, std::vector<HeapItem>, HeapCompare>;

// One Algorithm 7 traversal: T_P best-first from the centroid of `qs`,
// appending the candidates of qs[i] to (*per_q)[i].
struct FilterJob {
  const RTree& tp;
  const std::vector<PointRecord>& qs;
  bool symmetric_pruning;
  // A point whose id equals qs[i].id is neither a candidate nor an anchor
  // of qs[i] (the identity point of a self-join).
  bool skip_self;
  const std::unordered_set<PointId>* exclude;  // tombstones; may be null
  std::vector<std::vector<PointRecord>>* per_q;
};

template <int W>
Status FilterTraversal(const FilterJob& job) {
  const RTree& tp = job.tp;
  const std::vector<PointRecord>& qs = job.qs;
  const size_t group = qs.size();

  // Centroid of the group: the single reference point of the traversal
  // order (Algorithm 7 examines T_P in ascending distance from it).
  Point centroid{0.0, 0.0};
  for (const PointRecord& q : qs) {
    centroid.x += q.pt.x;
    centroid.y += q.pt.y;
  }
  centroid.x /= static_cast<double>(group);
  centroid.y /= static_cast<double>(group);

  // anchors[i]: pruning half-planes usable for qs[i]. With symmetric
  // pruning (Section 4.2) the sibling points of the leaf seed the anchor
  // sets before any candidate from P has been discovered.
  std::vector<kernel::AnchorLanes<W>> anchors(group);
  if (job.symmetric_pruning) {
    for (size_t i = 0; i < group; ++i) {
      for (size_t j = 0; j < group; ++j) {
        if (i == j || qs[i].pt == qs[j].pt) continue;
        anchors[i].Add(qs[i].pt, qs[j].pt);
      }
    }
  }

  MinHeap heap;
  {
    HeapItem root;
    root.is_point = false;
    root.child_page = tp.root_page();
    root.key = 0.0;
    heap.push(root);
  }

  std::vector<size_t> unpruned;  // members a popped point is not pruned for
  while (!heap.empty()) {
    HeapItem top = heap.top();
    heap.pop();

    if (top.is_point) {
      if (job.exclude != nullptr && job.exclude->count(top.rec.id) != 0) {
        continue;  // tombstoned: neither a candidate nor an anchor
      }
      // One test per member serves both the prune-for-all check
      // (Algorithm 7, line 7) and the per-member candidate pass.
      unpruned.clear();
      for (size_t i = 0; i < group; ++i) {
        if (!anchors[i].PrunesPoint(top.rec.pt)) unpruned.push_back(i);
      }
      for (const size_t i : unpruned) {
        if (job.skip_self && top.rec.id == qs[i].id) continue;
        (*job.per_q)[i].push_back(top.rec);
        anchors[i].Add(qs[i].pt, top.rec.pt);
      }
      continue;
    }

    // Discard the node only if it is prunable with respect to *every*
    // group member (Algorithm 7, line 7).
    bool prunable_for_all = true;
    for (size_t i = 0; i < group; ++i) {
      if (!anchors[i].PrunesRect(top.mbr)) {
        prunable_for_all = false;
        break;
      }
    }
    if (prunable_for_all) continue;

    Result<Node> node = tp.ReadNode(top.child_page);
    if (!node.ok()) return node.status();
    if (node.value().is_leaf()) {
      for (const LeafEntry& e : node.value().points) {
        HeapItem item;
        item.is_point = true;
        item.rec = e.rec;
        item.key = Dist2(centroid, e.rec.pt);
        heap.push(item);
      }
    } else {
      for (const BranchEntry& e : node.value().children) {
        HeapItem item;
        item.is_point = false;
        item.child_page = e.child;
        item.mbr = e.mbr;
        item.key = e.mbr.MinDist2(centroid);
        heap.push(item);
      }
    }
  }
  return Status::OK();
}

#if RINGJOIN_AVX2_KERNELS
RINGJOIN_AVX2_BEGIN
template Status FilterTraversal<4>(const FilterJob&);
RINGJOIN_AVX2_END
#endif

// Picks the lane width once per traversal.
Status DispatchFilter(const FilterJob& job) {
#if RINGJOIN_AVX2_KERNELS
  if (kernel::Avx2Available()) return FilterTraversal<4>(job);
#endif
  return FilterTraversal<1>(job);
}

}  // namespace

Status FilterCandidates(const RTree& tp, const Point& q,
                        PointId self_skip_id,
                        std::vector<PointRecord>* candidates,
                        const std::unordered_set<PointId>* exclude) {
  candidates->clear();
  if (tp.height() == 0) return Status::OK();
  // Algorithm 2 is the group-of-one case of Algorithm 7: the centroid of
  // one point is that point, and self_skip_id takes the member id's place.
  const std::vector<PointRecord> group = {PointRecord{q, self_skip_id}};
  std::vector<std::vector<PointRecord>> per_q(1);
  per_q[0].swap(*candidates);
  const FilterJob job{tp, group, /*symmetric_pruning=*/false,
                      /*skip_self=*/true, exclude, &per_q};
  const Status status = DispatchFilter(job);
  candidates->swap(per_q[0]);
  return status;
}

Status BulkFilterCandidates(const RTree& tp,
                            const std::vector<PointRecord>& qs,
                            const BulkFilterOptions& options,
                            std::vector<std::vector<PointRecord>>*
                                per_q_candidates,
                            const std::unordered_set<PointId>* exclude) {
  per_q_candidates->assign(qs.size(), {});
  if (qs.empty() || tp.height() == 0) return Status::OK();
  const FilterJob job{tp, qs, options.symmetric_pruning, options.self_join,
                      exclude, per_q_candidates};
  return DispatchFilter(job);
}

}  // namespace rcj

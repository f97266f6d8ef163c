#include "core/filter.h"

#include <algorithm>
#include <cmath>
#include <queue>

#include "core/kernels.h"
#include "core/lanes.h"

namespace rcj {
namespace kernel {

// ---- MemberCell: why Excludes(x) implies that the lanes prune x ----------
//
// Let u = 2^-53, S the largest coordinate magnitude of the extent (the
// domain plus every anchor), m = 2^-26 S the margin, and for one anchor
// (a, n) let o(x) = (x - a) . n exactly, with the stored a and n.
//
// 1. Predicate rounding. For x and a in the extent, the lanes' fl(o(x))
//    is within eta = 8u S |n|_1 + 2^-1070 of o(x) (three roundings on
//    terms of size <= 2S |n_i|; 2^-1070 covers gradual underflow;
//    S <= 2^500 rules out overflow). So a point the lanes do not prune
//    has o(x) <= eta for every anchor.
// 2. The clip keeps the side o(v) - s <= 0 of a line pushed outward by
//    s = m |n|_1 >= 2^-1000 (smaller shifts, n = 0 included, cut
//    nothing). A new vertex is interpolated along the old edge p0 p1,
//    v = p0 + t (p1 - p0) with t = f0 / (f0 - f1) in [0, 1], so it lies
//    within delta = 8u S per coordinate of a point w of that edge with
//    |o(w) - s| <= 2 eta: the new vertex stays on its edge to a few ulps
//    however the two lines meet.
// 3. Invariant after k effective clips: every domain point the clipped
//    anchors do not prune lies within k delta (per coordinate) of the
//    polygon. The clip cuts the polygon along the chord w0 w1 into the
//    kept part, within delta of the new polygon, and a dropped part
//    whose vertices all have o >= s - 2 eta. A point x the new anchor
//    does not prune has o(x) <= eta; any y within k delta of x has
//    o(y) <= eta + k delta |n|_1 < s - 2 eta, so y is not in the dropped
//    part. An empty polygon thus means every domain point is pruned.
// 4. Clipping stops after 2^20 effective clips, so k delta <= 2^-30 S,
//    which the margin m = 2^-26 S covers along with the rounding of the
//    grown box's bounds. Hence a domain point outside the grown box is
//    pruned by some anchor, and a domain rectangle missing the box holds
//    only such points.

namespace {

constexpr double kRelativeMargin = 0x1p-26;
constexpr double kMinShift = 0x1p-1000;
constexpr int kMaxClips = 1 << 20;

}  // namespace

void MemberCell::Reset(const Rect& domain, const Rect& extent) {
  const double scale =
      std::max(std::max(std::fabs(extent.lo.x), std::fabs(extent.hi.x)),
               std::max(std::fabs(extent.lo.y), std::fabs(extent.hi.y)));
  clips_ = 0;
  box_ = Everything();
  // Outside [2^-500, 2^500] (or NaN) the rounding argument above does
  // not hold: the cell stays the whole plane.
  frozen_ = !(scale >= 0x1p-500 && scale <= 0x1p500) || domain.IsEmpty();
  if (frozen_) {
    size_ = 0;
    return;
  }
  margin_ = kRelativeMargin * scale;
  size_ = 4;
  vx_[0] = domain.lo.x;
  vy_[0] = domain.lo.y;
  vx_[1] = domain.hi.x;
  vy_[1] = domain.lo.y;
  vx_[2] = domain.hi.x;
  vy_[2] = domain.hi.y;
  vx_[3] = domain.lo.x;
  vy_[3] = domain.hi.y;
  UpdateBox();
}

void MemberCell::Clip(const Point& a, const Point& n) {
  if (frozen_ || size_ == 0) return;
  const double shift = margin_ * (std::fabs(n.x) + std::fabs(n.y));
  if (!(shift >= kMinShift)) return;
  double f[kMaxVertices];
  bool any_out = false;
  bool any_in = false;
  for (int i = 0; i < size_; ++i) {
    f[i] = (vx_[i] - a.x) * n.x + (vy_[i] - a.y) * n.y - shift;
    if (f[i] > 0.0) {
      any_out = true;
    } else {
      any_in = true;
    }
  }
  if (!any_out) return;
  if (++clips_ == kMaxClips) frozen_ = true;
  if (!any_in) {
    size_ = 0;
    box_ = Rect::Empty();
    return;
  }
  // Sutherland-Hodgman on a convex polygon: keep the inside vertices and
  // add one vertex, interpolated along the old edge, per crossing edge.
  double ox[kMaxVertices + 1];
  double oy[kMaxVertices + 1];
  int out = 0;
  for (int i = 0; i < size_; ++i) {
    const int j = i + 1 == size_ ? 0 : i + 1;
    const bool in_i = !(f[i] > 0.0);
    if (in_i) {
      if (out == kMaxVertices + 1) break;
      ox[out] = vx_[i];
      oy[out] = vy_[i];
      ++out;
    }
    if (in_i != !(f[j] > 0.0)) {
      if (out == kMaxVertices + 1) break;
      const double t = f[i] / (f[i] - f[j]);
      ox[out] = vx_[i] + t * (vx_[j] - vx_[i]);
      oy[out] = vy_[i] + t * (vy_[j] - vy_[i]);
      ++out;
    }
  }
  if (out > kMaxVertices) {
    frozen_ = true;  // keep the larger polygon
    return;
  }
  std::copy(ox, ox + out, vx_);
  std::copy(oy, oy + out, vy_);
  size_ = out;
  UpdateBox();
}

void MemberCell::UpdateBox() {
  Rect box = Rect::Empty();
  for (int i = 0; i < size_; ++i) box.Expand(Point{vx_[i], vy_[i]});
  box_ = Rect{Point{box.lo.x - margin_, box.lo.y - margin_},
              Point{box.hi.x + margin_, box.hi.y + margin_}};
}

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

// The union of the members' cell boxes: an item outside it is pruned for
// every member of the group at once.
template <int W>
Rect UnionOfCells(const std::vector<kernel::AnchorLanes<W>>& members) {
  Rect reach = Rect::Empty();
  for (const kernel::AnchorLanes<W>& member : members) {
    reach.ExpandRect(member.cell().box());
  }
  return reach;
}

template <int W>
Status FilterTraversal(const FilterJob& job) {
  const RTree& tp = job.tp;
  const std::vector<PointRecord>& qs = job.qs;
  const size_t group = qs.size();

  // Centroid of the group: the single reference point of the traversal
  // order (Algorithm 7 examines T_P in ascending distance from it).
  Point centroid{0.0, 0.0};
  Rect group_box = Rect::Empty();
  for (const PointRecord& q : qs) {
    centroid.x += q.pt.x;
    centroid.y += q.pt.y;
    group_box.Expand(q.pt);
  }
  centroid.x /= static_cast<double>(group);
  centroid.y /= static_cast<double>(group);

  // anchors[i]: pruning half-planes usable for qs[i], and the cell they
  // leave of T_P's root MBR. With symmetric pruning (Section 4.2) the
  // sibling points of the leaf seed the anchor sets before any candidate
  // from P has been discovered.
  std::vector<kernel::AnchorLanes<W>> anchors(group);
  if (job.symmetric_pruning) {
    for (size_t i = 0; i < group; ++i) {
      for (size_t j = 0; j < group; ++j) {
        if (i == j || qs[i].pt == qs[j].pt) continue;
        anchors[i].Add(qs[i].pt, qs[j].pt);
      }
    }
  }
  // Until the root is read the cells have no domain and exclude nothing.
  bool cells_ready = false;
  Rect reach = UnionOfCells(anchors);

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
      if (kernel::Outside(reach, top.rec.pt)) continue;
      // One test per member serves both the prune-for-all check
      // (Algorithm 7, line 7) and the per-member candidate pass.
      unpruned.clear();
      for (size_t i = 0; i < group; ++i) {
        if (!anchors[i].cell().Excludes(top.rec.pt) &&
            !anchors[i].PrunesPoint(top.rec.pt)) {
          unpruned.push_back(i);
        }
      }
      bool anchored = false;
      for (const size_t i : unpruned) {
        if (job.skip_self && top.rec.id == qs[i].id) continue;
        (*job.per_q)[i].push_back(top.rec);
        anchors[i].Add(qs[i].pt, top.rec.pt);
        anchored = true;
      }
      if (anchored) reach = UnionOfCells(anchors);
      continue;
    }

    // Discard the node only if it is prunable with respect to *every*
    // group member (Algorithm 7, line 7): its MBR misses the member's
    // cell, or one anchor covers it (Lemma 3).
    if (kernel::Outside(reach, top.mbr)) continue;
    bool prunable_for_all = true;
    for (size_t i = 0; i < group; ++i) {
      if (!anchors[i].cell().Excludes(top.mbr) &&
          !anchors[i].PrunesRect(top.mbr)) {
        prunable_for_all = false;
        break;
      }
    }
    if (prunable_for_all) continue;

    Result<Node> node = tp.ReadNode(top.child_page);
    if (!node.ok()) return node.status();
    if (!cells_ready) {
      // The first node read is the root: its MBR bounds every point and
      // node the traversal will test.
      const Rect domain = node.value().ComputeMbr();
      Rect extent = domain;
      extent.ExpandRect(group_box);
      for (kernel::AnchorLanes<W>& member : anchors) {
        member.SetDomain(domain, extent);
      }
      reach = UnionOfCells(anchors);
      cells_ready = true;
    }
    if (node.value().is_leaf()) {
      for (const LeafEntry& e : node.value().points) {
        if (kernel::Outside(reach, e.rec.pt)) continue;
        HeapItem item;
        item.is_point = true;
        item.rec = e.rec;
        item.key = Dist2(centroid, e.rec.pt);
        heap.push(item);
      }
    } else {
      for (const BranchEntry& e : node.value().children) {
        if (kernel::Outside(reach, e.mbr)) continue;
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

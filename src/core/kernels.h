// Structure-of-arrays operands of the filter and verify kernels, laid out
// in blocks of W lanes so one instruction evaluates W predicates.
//
// The join runs each traversal at one lane width: W = 4 (AVX2) when the
// CPU has it, W = 1 (scalar) otherwise. The choice is made once at the top
// of every BulkFilterCandidates / VerifyCandidates call, never per test.
// Each lane evaluates exactly the scalar predicate's expression, in the
// same operation order (PruneRegion::PrunesPoint/PrunesRect, DotFrom,
// Rect::MinDist2), and the kernel sources are compiled without
// floating-point contraction, so both widths make bit-identical decisions.
#ifndef RINGJOIN_CORE_KERNELS_H_
#define RINGJOIN_CORE_KERNELS_H_

#include <cstddef>
#include <limits>
#include <vector>

#include "core/rcj_types.h"
#include "geometry/point.h"
#include "geometry/rect.h"

// The width-4 kernels need AVX2 code inside an otherwise baseline build.
// GCC compiles them in a `#pragma GCC target("avx2")` region; other
// compilers get them only when the whole build already targets AVX2.
#if !defined(__x86_64__)
#define RINGJOIN_AVX2_KERNELS 0
#elif defined(__AVX2__) || (defined(__GNUC__) && !defined(__clang__))
#define RINGJOIN_AVX2_KERNELS 1
#else
#define RINGJOIN_AVX2_KERNELS 0
#endif

namespace rcj {
namespace kernel {

/// True when the width-4 kernels are compiled in and this CPU runs AVX2.
inline bool Avx2Available() {
#if RINGJOIN_AVX2_KERNELS
  return __builtin_cpu_supports("avx2");
#else
  return false;
#endif
}

/// True iff x lies outside `box`. False whenever a bound is NaN or an
/// infinity on x's side, so an inert box never excludes.
inline bool Outside(const Rect& box, const Point& x) {
  return x.x < box.lo.x || x.x > box.hi.x || x.y < box.lo.y ||
         x.y > box.hi.y;
}
/// True iff r misses `box`, with the same NaN rule.
inline bool Outside(const Rect& box, const Rect& r) {
  return r.hi.x < box.lo.x || r.lo.x > box.hi.x || r.hi.y < box.lo.y ||
         r.lo.y > box.hi.y;
}

/// The Lemma-1 cell of one group member: the part of a domain (T_P's root
/// MBR) that none of the member's anchor half-planes prunes. It is kept
/// as a convex polygon in fixed inline storage, plus that polygon's
/// bounding box grown by a proved margin (see filter.cc), so that
///   Excludes(x)  =>  some anchor's PrunesPoint(x) holds,
/// for every point x of the domain. A rectangle of the domain that the
/// box excludes holds only such points, even when no single anchor
/// covers it (Lemma 3 tests one anchor at a time).
///
/// Until Reset() gives it a domain, and for domains whose coordinates
/// leave [2^-500, 2^500] in magnitude, the box is the whole plane and
/// excludes nothing.
class MemberCell {
 public:
  /// Vertex capacity. A clip that would exceed it, or the 2^20th
  /// effective clip, freezes the polygon instead: a larger polygon is
  /// still sound.
  static constexpr int kMaxVertices = 16;

  /// Starts over as `domain`. `extent` must contain the domain and every
  /// anchor the member will be clipped by; it scales the margin.
  void Reset(const Rect& domain, const Rect& extent);
  /// Intersects the polygon with the closed side, containing q = a - n,
  /// of the line through anchor `a` with normal `n` (the complement of
  /// Psi-(q, a), as the lanes store it). A zero normal cuts nothing.
  void Clip(const Point& a, const Point& n);

  /// The grown bounding box; empty once the polygon has vanished.
  const Rect& box() const { return box_; }
  /// True iff x lies outside box().
  bool Excludes(const Point& x) const { return Outside(box_, x); }
  /// True iff r misses box().
  bool Excludes(const Rect& r) const { return Outside(box_, r); }
  int vertices() const { return size_; }
  /// True once clipping has stopped for this member (overflow or cap).
  bool frozen() const { return frozen_; }

 private:
  void UpdateBox();

  double vx_[kMaxVertices] = {};
  double vy_[kMaxVertices] = {};
  int size_ = 0;
  int clips_ = 0;
  bool frozen_ = true;  // no domain yet
  double margin_ = 0.0;
  Rect box_ = Everything();

  static Rect Everything() {
    const double inf = std::numeric_limits<double>::infinity();
    return Rect{Point{-inf, -inf}, Point{inf, inf}};
  }
};

/// The pruning half-planes (PruneRegion: Lemmas 1, 3 and 5) of one group
/// member, and its cell. Lane k of a block holds anchor a and normal
/// n = a - q; unused lanes of the last block are inert (a = n = 0, so the
/// offset is 0 or NaN and never > 0). The cell is clipped by the same
/// (a, n) the lanes hold.
template <int W>
class AnchorLanes {
 public:
  /// Appends the half-plane Psi-(q, anchor), as PruneRegion(q, anchor),
  /// and clips the cell by it.
  void Add(const Point& q, const Point& anchor) {
    if (size_ % W == 0) blocks_.push_back(Block{});
    Block& block = blocks_.back();
    const size_t lane = size_ % W;
    block.ax[lane] = anchor.x;
    block.ay[lane] = anchor.y;
    block.nx[lane] = anchor.x - q.x;
    block.ny[lane] = anchor.y - q.y;
    ++size_;
    cell_.Clip(anchor, Point{block.nx[lane], block.ny[lane]});
  }

  /// Gives the cell its domain (see MemberCell::Reset) and clips it by
  /// every anchor added so far.
  void SetDomain(const Rect& domain, const Rect& extent) {
    cell_.Reset(domain, extent);
    for (size_t k = 0; k < size_; ++k) {
      const Block& block = blocks_[k / W];
      const size_t lane = k % W;
      cell_.Clip(Point{block.ax[lane], block.ay[lane]},
                 Point{block.nx[lane], block.ny[lane]});
    }
  }

  /// True iff some anchor's PruneRegion::PrunesPoint(x) holds.
  bool PrunesPoint(const Point& x) const;
  /// True iff some anchor's PruneRegion::PrunesRect(r) holds.
  bool PrunesRect(const Rect& r) const;

  const MemberCell& cell() const { return cell_; }

 private:
  struct alignas(8 * W) Block {
    double ax[W] = {};
    double ay[W] = {};
    double nx[W] = {};
    double ny[W] = {};
  };
  std::vector<Block> blocks_;
  size_t size_ = 0;
  MemberCell cell_;
};

/// The live candidate circles at one R-tree branch node, copied once per
/// node visit. Lane k of a block holds the pair endpoints p and q, the
/// circle center, and the traversal bound Circle::TraversalBound2(); unused
/// lanes are inert (bound 0 and a zero-diameter circle, so neither test
/// below ever sets their bit).
template <int W>
class CircleLanes {
 public:
  /// Copies the circles of `alive` whose alive flag is set.
  void Assign(const std::vector<CandidateCircle*>& alive) {
    circles_.clear();
    blocks_.clear();
    for (CandidateCircle* c : alive) {
      if (!c->alive) continue;
      const size_t lane = circles_.size() % W;
      if (lane == 0) blocks_.push_back(Block{});
      Block& block = blocks_.back();
      block.px[lane] = c->p.pt.x;
      block.py[lane] = c->p.pt.y;
      block.qx[lane] = c->q.pt.x;
      block.qy[lane] = c->q.pt.y;
      block.cx[lane] = c->circle.center.x;
      block.cy[lane] = c->circle.center.y;
      block.bound[lane] = c->circle.TraversalBound2();
      circles_.push_back(c);
    }
    face_.resize(blocks_.size());
    reach_.resize(blocks_.size());
  }

  /// Evaluates every block against MBR r. Afterwards bit k of face(b) is
  /// set iff DiametralContainsRectFace(p, q, r) holds for lane k of block
  /// b (always 0 without `face_rule`), and bit k of reach(b) iff
  /// r.MinDist2(center) < bound.
  void Test(const Rect& r, bool face_rule);

  size_t blocks() const { return blocks_.size(); }
  size_t size() const { return circles_.size(); }
  unsigned face(size_t b) const { return face_[b]; }
  unsigned reach(size_t b) const { return reach_[b]; }
  /// The circle in lane k of block b.
  CandidateCircle* circle(size_t b, unsigned k) const {
    return circles_[b * W + k];
  }

 private:
  struct alignas(8 * W) Block {
    double px[W] = {};
    double py[W] = {};
    double qx[W] = {};
    double qy[W] = {};
    double cx[W] = {};
    double cy[W] = {};
    double bound[W] = {};
  };
  std::vector<Block> blocks_;
  std::vector<CandidateCircle*> circles_;
  std::vector<unsigned> face_;   // per block, from the last Test()
  std::vector<unsigned> reach_;  // per block, from the last Test()
};

}  // namespace kernel
}  // namespace rcj

#endif  // RINGJOIN_CORE_KERNELS_H_

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

/// The pruning half-planes (PruneRegion: Lemmas 1, 3 and 5) of one group
/// member. Lane k of a block holds anchor a and normal n = a - q; unused
/// lanes of the last block are inert (a = n = 0, so the offset is 0 or NaN
/// and never > 0).
template <int W>
class AnchorLanes {
 public:
  /// Appends the half-plane Psi-(q, anchor), as PruneRegion(q, anchor).
  void Add(const Point& q, const Point& anchor) {
    if (size_ % W == 0) blocks_.push_back(Block{});
    Block& block = blocks_.back();
    const size_t lane = size_ % W;
    block.ax[lane] = anchor.x;
    block.ay[lane] = anchor.y;
    block.nx[lane] = anchor.x - q.x;
    block.ny[lane] = anchor.y - q.y;
    ++size_;
  }

  /// True iff some anchor's PruneRegion::PrunesPoint(x) holds.
  bool PrunesPoint(const Point& x) const;
  /// True iff some anchor's PruneRegion::PrunesRect(r) holds.
  bool PrunesRect(const Rect& r) const;

 private:
  struct alignas(8 * W) Block {
    double ax[W] = {};
    double ay[W] = {};
    double nx[W] = {};
    double ny[W] = {};
  };
  std::vector<Block> blocks_;
  size_t size_ = 0;
};

/// The live candidate circles at one R-tree branch node, copied once per
/// node visit. Lane k of a block holds the pair endpoints p and q, the
/// circle center, and the traversal bound radius2 * (1 + 1e-9); unused
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
      block.bound[lane] = c->circle.radius2 * (1.0 + 1e-9);
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

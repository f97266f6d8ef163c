#include "core/verify.h"

#include "core/kernels.h"
#include "core/lanes.h"

namespace rcj {
namespace kernel {

template <int W>
void CircleLanes<W>::Test(const Rect& r, bool face_rule) {
  using L = Lanes<W>;
  using V = typename L::V;
  const V lo_x = L::Set(r.lo.x);
  const V lo_y = L::Set(r.lo.y);
  const V hi_x = L::Set(r.hi.x);
  const V hi_y = L::Set(r.hi.y);
  const V zero = L::Set(0.0);
  for (size_t b = 0; b < blocks_.size(); ++b) {
    const Block& blk = blocks_[b];
    face_[b] = 0;
    if (face_rule) {
      // DotFrom(corner, p, q) < 0 for the corners (lo,lo), (hi,lo),
      // (hi,hi), (lo,hi); each corner's dot product is its x term plus its
      // y term, and adjacent corners share one of them.
      const V px = L::Load(blk.px);
      const V py = L::Load(blk.py);
      const V qx = L::Load(blk.qx);
      const V qy = L::Load(blk.qy);
      const V x_lo = L::Mul(L::Sub(px, lo_x), L::Sub(qx, lo_x));
      const V x_hi = L::Mul(L::Sub(px, hi_x), L::Sub(qx, hi_x));
      const V y_lo = L::Mul(L::Sub(py, lo_y), L::Sub(qy, lo_y));
      const V y_hi = L::Mul(L::Sub(py, hi_y), L::Sub(qy, hi_y));
      const unsigned in0 = L::Less(L::Add(x_lo, y_lo), zero);
      const unsigned in1 = L::Less(L::Add(x_hi, y_lo), zero);
      const unsigned in2 = L::Less(L::Add(x_hi, y_hi), zero);
      const unsigned in3 = L::Less(L::Add(x_lo, y_hi), zero);
      face_[b] = (in0 & in1) | (in1 & in2) | (in2 & in3) | (in3 & in0);
    }
    // Rect::MinDist2(center) in the branch-free form: per axis
    // max(lo - c, c - hi, 0), which equals the branchy form on finite
    // input.
    const V cx = L::Load(blk.cx);
    const V cy = L::Load(blk.cy);
    const V dx = L::Max(L::Max(L::Sub(lo_x, cx), L::Sub(cx, hi_x)), zero);
    const V dy = L::Max(L::Max(L::Sub(lo_y, cy), L::Sub(cy, hi_y)), zero);
    const V dist2 = L::Add(L::Mul(dx, dx), L::Mul(dy, dy));
    reach_[b] = L::Less(dist2, L::Load(blk.bound));
  }
}

// Explicit instantiations before any use (see filter.cc).
#if RINGJOIN_AVX2_KERNELS
RINGJOIN_AVX2_BEGIN
template void CircleLanes<4>::Test(const Rect&, bool);
RINGJOIN_AVX2_END
#endif
template void CircleLanes<1>::Test(const Rect&, bool);

}  // namespace kernel

namespace {

template <int W>
struct VerifyContext {
  const RTree* tree;
  TreeSide side;
  bool self_join;
  const std::unordered_set<PointId>* exclude;  // tombstones; may be null
  // Per-level scratch, indexed by node level and sized from the tree
  // height before the traversal starts: a branch node at level l copies
  // its live circles into lanes[l] and collects each entry's descend set
  // in descend[l], which its child reads. Nothing is resized during the
  // recursion, so the references a caller holds stay valid.
  std::vector<kernel::CircleLanes<W>> lanes;
  std::vector<std::vector<CandidateCircle*>> descend;
};

template <int W>
bool ExcludedAtLeaf(const VerifyContext<W>& ctx, const CandidateCircle& c,
                    PointId id) {
  if (ctx.self_join) return id == c.p.id || id == c.q.id;
  return ctx.side == TreeSide::kPSide ? id == c.p.id : id == c.q.id;
}

// Recursive Algorithm 3 over the candidates in `alive` (pointers into the
// caller's vector; the alive flags are shared across sibling recursions so a
// kill in one subtree immediately prunes work in the next).
//
// `parent_level` is the level of the calling node (the tree height for
// the root); a node must sit strictly below it.
template <int W>
Status VerifyRec(VerifyContext<W>* ctx, uint64_t page_no,
                 uint32_t parent_level,
                 const std::vector<CandidateCircle*>& alive) {
  Result<Node> node = ctx->tree->ReadNode(page_no);
  if (!node.ok()) return node.status();

  if (node.value().is_leaf()) {
    for (const LeafEntry& e : node.value().points) {
      if (ctx->exclude != nullptr && ctx->exclude->count(e.rec.id) != 0) {
        continue;  // tombstoned: a dead point is not a witness
      }
      for (CandidateCircle* c : alive) {
        if (!c->alive) continue;
        if (StrictlyInsideDiametral(e.rec.pt, c->p.pt, c->q.pt) &&
            !ExcludedAtLeaf(*ctx, *c, e.rec.id)) {
          c->alive = false;
        }
      }
    }
    return Status::OK();
  }

  const uint32_t level = node.value().level;
  if (level >= parent_level) {
    return Status::Corruption("verify: node level not below its parent's");
  }
  kernel::CircleLanes<W>& lanes = ctx->lanes[level];
  std::vector<CandidateCircle*>& descend = ctx->descend[level];
  lanes.Assign(alive);
  // Face rule: a whole MBR face strictly inside a circle certifies an
  // invalidating point in the subtree (paper Fig. 7d). The certified
  // point cannot be a candidate endpoint: in the exact diametral
  // predicate, endpoints evaluate to 0 — never strictly inside. With an
  // exclude set the rule is unsound — the certified point might be the
  // dead one — so the verifier descends instead.
  const bool face_rule = ctx->exclude == nullptr;
  for (const BranchEntry& e : node.value().children) {
    // Conservative traversal bound (CircleLanes::reach). The center/radius
    // form can disagree with the exact diametral predicate by ~1 ulp near
    // the boundary, so the radius is inflated slightly: visiting one extra
    // subtree is cheap, missing a witness is a correctness bug.
    lanes.Test(e.mbr, face_rule);
    descend.clear();
    for (size_t b = 0; b < lanes.blocks(); ++b) {
      // Lanes in alive order; a circle killed since the copy (in an
      // earlier sibling's subtree) is skipped.
      const unsigned face = lanes.face(b);
      for (unsigned bits = face | lanes.reach(b); bits != 0;
           bits &= bits - 1) {
        const unsigned k = static_cast<unsigned>(__builtin_ctz(bits));
        CandidateCircle* c = lanes.circle(b, k);
        if (!c->alive) continue;
        if ((face >> k) & 1u) {
          c->alive = false;
        } else {
          descend.push_back(c);
        }
      }
    }
    if (!descend.empty()) {
      RINGJOIN_RETURN_IF_ERROR(VerifyRec(ctx, e.child, level, descend));
    }
  }
  return Status::OK();
}

template <int W>
Status VerifyTraversal(const RTree& tree, TreeSide side, bool self_join,
                       const std::unordered_set<PointId>* exclude,
                       const std::vector<CandidateCircle*>& alive) {
  VerifyContext<W> ctx{&tree, side, self_join, exclude, {}, {}};
  ctx.lanes.resize(tree.height());
  ctx.descend.resize(tree.height());
  return VerifyRec(&ctx, tree.root_page(), tree.height(), alive);
}

#if RINGJOIN_AVX2_KERNELS
RINGJOIN_AVX2_BEGIN
template Status VerifyRec<4>(VerifyContext<4>*, uint64_t, uint32_t,
                             const std::vector<CandidateCircle*>&);
template Status VerifyTraversal<4>(const RTree&, TreeSide, bool,
                                   const std::unordered_set<PointId>*,
                                   const std::vector<CandidateCircle*>&);
RINGJOIN_AVX2_END
#endif

}  // namespace

Status VerifyCandidates(const RTree& tree, TreeSide side, bool self_join,
                        std::vector<CandidateCircle>* candidates,
                        const std::unordered_set<PointId>* exclude) {
  if (tree.height() == 0 || candidates->empty()) return Status::OK();
  std::vector<CandidateCircle*> alive;
  alive.reserve(candidates->size());
  for (CandidateCircle& c : *candidates) {
    if (c.alive) alive.push_back(&c);
  }
  if (alive.empty()) return Status::OK();
  // The lane width is chosen once per traversal.
#if RINGJOIN_AVX2_KERNELS
  if (kernel::Avx2Available()) {
    return VerifyTraversal<4>(tree, side, self_join, exclude, alive);
  }
#endif
  return VerifyTraversal<1>(tree, side, self_join, exclude, alive);
}

}  // namespace rcj

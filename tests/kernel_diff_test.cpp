// Differential test of the filter and verify kernels: the width-1 (scalar)
// and width-4 (AVX2) instantiations must make bit-identical decisions, and
// every decision must equal the scalar predicate it mirrors:
//   AnchorLanes::PrunesPoint/PrunesRect  vs  PruneRegion::PrunesPoint/Rect,
//   CircleLanes face bits                vs  DiametralContainsRectFace,
//   CircleLanes reach bits               vs  Rect::MinDist2(center) < bound.
// Inputs are seeded corpora (random, integer grids, duplicates, collinear
// and cocircular points, points exactly on an anchor's line, signed zeros,
// 1e-300 and 1e300 magnitudes) plus hand-built cases whose decision flips
// if a multiply and an add are fused. A failure names its corpus and seed.
#include "core/kernels.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "geometry/circle.h"
#include "geometry/halfplane.h"
#include "test_util.h"

namespace rcj {
namespace {

using kernel::AnchorLanes;
using kernel::CircleLanes;
using testing_util::SplitMix;

// ---- corpora ----------------------------------------------------------------

enum class Kind {
  kRandom,
  kGrid,
  kDuplicates,
  kCollinear,
  kCocircular,
  kSignedZero,
  kTiny,
  kHuge,
};

const char* KindName(Kind kind) {
  switch (kind) {
    case Kind::kRandom:
      return "random";
    case Kind::kGrid:
      return "grid";
    case Kind::kDuplicates:
      return "duplicates";
    case Kind::kCollinear:
      return "collinear";
    case Kind::kCocircular:
      return "cocircular";
    case Kind::kSignedZero:
      return "signed-zero";
    case Kind::kTiny:
      return "tiny";
    case Kind::kHuge:
      return "huge";
  }
  return "?";
}

// Every Kind, in declaration order.
std::vector<Kind> AllKinds() {
  std::vector<Kind> out;
  for (int k = 0; k <= static_cast<int>(Kind::kHuge); ++k) {
    out.push_back(static_cast<Kind>(k));
  }
  return out;
}

Point NextCorpusPoint(Kind kind, SplitMix* rng) {
  switch (kind) {
    case Kind::kRandom:
      return rng->NextPoint(0.0, 10000.0);
    case Kind::kGrid:
      return Point{static_cast<double>(rng->Next() % 9),
                   static_cast<double>(rng->Next() % 9)};
    case Kind::kDuplicates: {
      static const Point kPool[] = {{1, 1}, {2, 3}, {5, 5}, {2, 3}, {0, 7}};
      return kPool[rng->Next() % 5];
    }
    case Kind::kCollinear: {
      const double t = static_cast<double>(rng->Next() % 21) - 10.0;
      return Point{3.0 + 2.0 * t, 1.0 - t};
    }
    case Kind::kCocircular: {
      // The 12 integer points on the circle of radius 5 around (10, 10).
      std::vector<Point> ring;
      for (int dx = -5; dx <= 5; ++dx) {
        for (int dy = -5; dy <= 5; ++dy) {
          if (dx * dx + dy * dy == 25) {
            ring.push_back(Point{10.0 + dx, 10.0 + dy});
          }
        }
      }
      return ring[rng->Next() % ring.size()];
    }
    case Kind::kSignedZero: {
      static const double kVals[] = {0.0, -0.0, 1.0, -1.0};
      return Point{kVals[rng->Next() % 4], kVals[rng->Next() % 4]};
    }
    case Kind::kTiny:
      return Point{rng->NextDouble(-1.0, 1.0) * 1e-300,
                   rng->NextDouble(-1.0, 1.0) * 1e-300};
    case Kind::kHuge:
      return Point{rng->NextDouble(-1.0, 1.0) * 1e300,
                   rng->NextDouble(-1.0, 1.0) * 1e300};
  }
  return Point{};
}

std::vector<Point> Corpus(Kind kind, uint64_t seed, size_t n) {
  SplitMix rng(seed);
  std::vector<Point> out;
  for (size_t i = 0; i < n; ++i) out.push_back(NextCorpusPoint(kind, &rng));
  return out;
}

Rect RectOf(const Point& a, const Point& b) {
  return Rect{Point{std::fmin(a.x, b.x), std::fmin(a.y, b.y)},
              Point{std::fmax(a.x, b.x), std::fmax(a.y, b.y)}};
}

std::vector<Rect> Rects(const std::vector<Point>& pts) {
  std::vector<Rect> out;
  for (size_t i = 0; i + 1 < pts.size(); ++i) {
    out.push_back(RectOf(pts[i], pts[i + 1]));
    out.push_back(Rect::FromPoint(pts[i]));  // degenerate: all corners equal
  }
  return out;
}

// ---- filter -----------------------------------------------------------------

struct FilterDecisions {
  std::vector<bool> point;  // per (anchor set, point)
  std::vector<bool> rect;   // per (anchor set, rect)
};

// Anchor set s of q: the single anchor s (s < anchors.size()), then the
// whole set at once.
template <int W>
FilterDecisions RunAnchors(const Point& q, const std::vector<Point>& anchors,
                           const std::vector<Point>& pts,
                           const std::vector<Rect>& rects) {
  FilterDecisions out;
  std::vector<AnchorLanes<W>> sets(anchors.size() + 1);
  for (size_t s = 0; s < anchors.size(); ++s) {
    sets[s].Add(q, anchors[s]);
    sets.back().Add(q, anchors[s]);
  }
  for (const AnchorLanes<W>& set : sets) {
    for (const Point& x : pts) out.point.push_back(set.PrunesPoint(x));
    for (const Rect& r : rects) out.rect.push_back(set.PrunesRect(r));
  }
  return out;
}

FilterDecisions ReferenceAnchors(const Point& q,
                                 const std::vector<Point>& anchors,
                                 const std::vector<Point>& pts,
                                 const std::vector<Rect>& rects) {
  FilterDecisions out;
  std::vector<PruneRegion> regions;
  for (const Point& a : anchors) regions.emplace_back(q, a);
  for (size_t s = 0; s <= regions.size(); ++s) {
    const size_t begin = s < regions.size() ? s : 0;
    const size_t end = s < regions.size() ? s + 1 : regions.size();
    for (const Point& x : pts) {
      bool pruned = false;
      for (size_t k = begin; k < end; ++k) {
        pruned = pruned || regions[k].PrunesPoint(x);
      }
      out.point.push_back(pruned);
    }
    for (const Rect& r : rects) {
      bool pruned = false;
      for (size_t k = begin; k < end; ++k) {
        pruned = pruned || regions[k].PrunesRect(r);
      }
      out.rect.push_back(pruned);
    }
  }
  return out;
}

struct FilterCase {
  std::string label;
  Point q;
  std::vector<Point> anchors;
  std::vector<Point> pts;
  std::vector<Rect> rects;
};

std::vector<FilterCase> FilterCases() {
  std::vector<FilterCase> cases;
  for (const Kind kind : AllKinds()) {
    for (uint64_t seed = 1; seed <= 8; ++seed) {
      FilterCase c;
      c.label = std::string(KindName(kind)) + " seed " + std::to_string(seed);
      SplitMix rng(seed * 7919);
      c.q = NextCorpusPoint(kind, &rng);
      for (const Point& a : Corpus(kind, seed * 31, 11)) {
        if (a != c.q) c.anchors.push_back(a);  // callers never pass q == a
      }
      c.pts = Corpus(kind, seed * 101, 40);
      // Points exactly on each anchor's line: a + t * (-n.y, n.x). With
      // small integers the offset (x - a) . n is exactly 0.
      if (kind == Kind::kGrid || kind == Kind::kCollinear) {
        for (const Point& a : c.anchors) {
          const double nx = a.x - c.q.x;
          const double ny = a.y - c.q.y;
          for (double t = -2.0; t <= 2.0; t += 1.0) {
            c.pts.push_back(Point{a.x - t * ny, a.y + t * nx});
          }
        }
      }
      c.rects = Rects(c.pts);
      cases.push_back(std::move(c));
    }
  }
  return cases;
}

template <int W>
void ExpectFilterMatchesReference() {
  for (const FilterCase& c : FilterCases()) {
    SCOPED_TRACE(c.label);
    const FilterDecisions want =
        ReferenceAnchors(c.q, c.anchors, c.pts, c.rects);
    const FilterDecisions got = RunAnchors<W>(c.q, c.anchors, c.pts, c.rects);
    const FilterDecisions scalar =
        RunAnchors<1>(c.q, c.anchors, c.pts, c.rects);
    ASSERT_EQ(got.point.size(), want.point.size());
    for (size_t i = 0; i < want.point.size(); ++i) {
      ASSERT_EQ(got.point[i], want.point[i]) << "point decision " << i;
      ASSERT_EQ(got.point[i], scalar.point[i]) << "point decision " << i;
    }
    ASSERT_EQ(got.rect.size(), want.rect.size());
    for (size_t i = 0; i < want.rect.size(); ++i) {
      ASSERT_EQ(got.rect[i], want.rect[i]) << "rect decision " << i;
      ASSERT_EQ(got.rect[i], scalar.rect[i]) << "rect decision " << i;
    }
  }
}

// ---- verify -----------------------------------------------------------------

// The smallest radius2 with fl(radius2 * (1 + 1e-9)) == bound, so a case
// can pin the traversal bound exactly.
double Radius2ForBound(double bound) {
  double r = bound / (1.0 + 1e-9);
  for (int step = 0; step < 64; ++step) {
    const double down = std::nextafter(r, 0.0);
    if (down * (1.0 + 1e-9) < bound) break;
    r = down;
  }
  for (int step = 0; step < 64 && r * (1.0 + 1e-9) < bound; ++step) {
    r = std::nextafter(r, INFINITY);
  }
  return r;
}

struct VerifyDecisions {
  std::vector<bool> face;   // per (rect, live circle)
  std::vector<bool> reach;  // per (rect, live circle)
};

// Every fourth circle is dead before Assign(): the lanes must hold only
// the live ones, in order.
template <int W>
VerifyDecisions RunCircles(std::vector<CandidateCircle> circles,
                           const std::vector<Rect>& rects, bool face_rule) {
  std::vector<CandidateCircle*> alive;
  for (CandidateCircle& c : circles) alive.push_back(&c);
  CircleLanes<W> lanes;
  lanes.Assign(alive);
  VerifyDecisions out;
  for (const Rect& r : rects) {
    lanes.Test(r, face_rule);
    for (size_t b = 0; b < lanes.blocks(); ++b) {
      const size_t used = std::min<size_t>(W, lanes.size() - b * W);
      for (size_t k = 0; k < used; ++k) {
        out.face.push_back(((lanes.face(b) >> k) & 1u) != 0);
        out.reach.push_back(((lanes.reach(b) >> k) & 1u) != 0);
      }
      // Inert lanes never report.
      EXPECT_EQ((lanes.face(b) | lanes.reach(b)) >> used, 0u);
    }
  }
  return out;
}

VerifyDecisions ReferenceCircles(const std::vector<CandidateCircle>& circles,
                                 const std::vector<Rect>& rects,
                                 bool face_rule) {
  VerifyDecisions out;
  for (const Rect& r : rects) {
    for (const CandidateCircle& c : circles) {
      if (!c.alive) continue;
      const bool face = DiametralContainsRectFace(c.p.pt, c.q.pt, r);
      const double bound = c.circle.radius2 * (1.0 + 1e-9);
      out.face.push_back(face_rule && face);
      out.reach.push_back(r.MinDist2(c.circle.center) < bound);
    }
  }
  return out;
}

struct VerifyCase {
  std::string label;
  std::vector<CandidateCircle> circles;
  std::vector<Rect> rects;
};

std::vector<VerifyCase> VerifyCases() {
  std::vector<VerifyCase> cases;
  for (const Kind kind : AllKinds()) {
    for (uint64_t seed = 1; seed <= 8; ++seed) {
      VerifyCase c;
      c.label = std::string(KindName(kind)) + " seed " + std::to_string(seed);
      const std::vector<Point> ends = Corpus(kind, seed * 53, 38);
      for (size_t i = 0; i + 1 < ends.size(); ++i) {
        CandidateCircle circle = CandidateCircle::Make(
            PointRecord{ends[i], static_cast<PointId>(i)},
            PointRecord{ends[i + 1], static_cast<PointId>(i + 1)});
        circle.alive = i % 4 != 3;
        c.circles.push_back(circle);
      }
      c.rects = Rects(Corpus(kind, seed * 97, 30));
      cases.push_back(std::move(c));
    }
  }
  return cases;
}

template <int W>
void ExpectVerifyMatchesReference() {
  for (const VerifyCase& c : VerifyCases()) {
    for (const bool face_rule : {true, false}) {
      SCOPED_TRACE(c.label + (face_rule ? " face rule" : " no face rule"));
      const VerifyDecisions want =
          ReferenceCircles(c.circles, c.rects, face_rule);
      const VerifyDecisions got = RunCircles<W>(c.circles, c.rects, face_rule);
      const VerifyDecisions scalar =
          RunCircles<1>(c.circles, c.rects, face_rule);
      ASSERT_EQ(got.face.size(), want.face.size());
      for (size_t i = 0; i < want.face.size(); ++i) {
        ASSERT_EQ(got.face[i], want.face[i]) << "face decision " << i;
        ASSERT_EQ(got.reach[i], want.reach[i]) << "reach decision " << i;
        ASSERT_EQ(got.face[i], scalar.face[i]) << "face decision " << i;
        ASSERT_EQ(got.reach[i], scalar.reach[i]) << "reach decision " << i;
      }
    }
  }
}

// ---- inputs a fused multiply-add would decide differently -------------------

// Each case's unfused answer is derived by hand; fusing either product of
// `a*b + c*d` into the add flips it. Both operand orders are covered, so a
// compiler may fuse either product.
template <int W>
void ExpectUnfusedAnswers() {
  const double e30 = std::ldexp(1.0, -30);
  const double e29 = std::ldexp(1.0, -29);

  // Filter: (x - a) . n with fl((1 + 2^-30)^2) = 1 + 2^-29 exactly
  // cancelling -(1 + 2^-29) * 1. Unfused: 0, not > 0. Fused: +2^-60.
  for (const bool swap_axes : {false, true}) {
    // u is both x - a and n on one axis; on the other, x - a = w, n = 1.
    const double u = 1.0 + e30;
    const double w = -(1.0 + e29);
    Point q{0.0, 0.0};
    Point anchor{u, 1.0};
    Point x{u + u, 1.0 + w};
    if (swap_axes) {
      std::swap(anchor.x, anchor.y);
      std::swap(x.x, x.y);
    }
    ASSERT_EQ(x.x - anchor.x, swap_axes ? w : u);  // the construction is exact
    AnchorLanes<W> lanes;
    lanes.Add(q, anchor);
    EXPECT_FALSE(lanes.PrunesPoint(x)) << "swap " << swap_axes;
    EXPECT_FALSE(lanes.PrunesRect(Rect::FromPoint(x))) << "swap " << swap_axes;
  }

  // Face rule on a degenerate rect at o = (0, 0):
  // (p.x)(q.x) + (p.y)(q.y) with fl((1 + 2^-30)(1 - 2^-30)) = 1 cancelling
  // (-1)(1). Unfused: 0, not inside. Fused: -2^-60, inside.
  // Bound: dx = 1 + 2^-27 and dy = 5 * 2^-29 give
  // fl(fl(dx^2) + dy^2) = 1 + 2^-26 < bound = 1 + 2^-26 + 2^-52, but the
  // fused sum rounds up to the bound itself.
  const double dx = 1.0 + std::ldexp(1.0, -27);
  const double dy = 5.0 * e29;
  const double bound = 1.0 + std::ldexp(1.0, -26) + std::ldexp(1.0, -52);
  for (const bool swap_axes : {false, true}) {
    CandidateCircle c;
    c.p.pt = Point{1.0 + e30, -1.0};
    c.q.pt = Point{1.0 - e30, 1.0};
    c.circle.center = Point{-dx, -dy};
    c.circle.radius2 = Radius2ForBound(bound);
    ASSERT_EQ(c.circle.radius2 * (1.0 + 1e-9), bound);
    if (swap_axes) {
      std::swap(c.p.pt.x, c.p.pt.y);
      std::swap(c.q.pt.x, c.q.pt.y);
      std::swap(c.circle.center.x, c.circle.center.y);
    }
    std::vector<CandidateCircle*> alive = {&c};
    CircleLanes<W> lanes;
    lanes.Assign(alive);
    lanes.Test(Rect::FromPoint(Point{0.0, 0.0}), /*face_rule=*/true);
    EXPECT_EQ(lanes.face(0), 0u) << "swap " << swap_axes;
    EXPECT_EQ(lanes.reach(0), 1u) << "swap " << swap_axes;
  }
}

// ---- tests ------------------------------------------------------------------

TEST(KernelDiffTest, ScalarFilterMatchesPruneRegion) {
  ExpectFilterMatchesReference<1>();
}

TEST(KernelDiffTest, ScalarVerifyMatchesCirclePredicates) {
  ExpectVerifyMatchesReference<1>();
}

TEST(KernelDiffTest, ScalarKeepsUnfusedAnswers) { ExpectUnfusedAnswers<1>(); }

TEST(KernelDiffTest, Avx2FilterMatchesScalar) {
  if (!kernel::Avx2Available()) GTEST_SKIP() << "no AVX2 kernels here";
#if RINGJOIN_AVX2_KERNELS
  ExpectFilterMatchesReference<4>();
#endif
}

TEST(KernelDiffTest, Avx2VerifyMatchesScalar) {
  if (!kernel::Avx2Available()) GTEST_SKIP() << "no AVX2 kernels here";
#if RINGJOIN_AVX2_KERNELS
  ExpectVerifyMatchesReference<4>();
#endif
}

TEST(KernelDiffTest, Avx2KeepsUnfusedAnswers) {
  if (!kernel::Avx2Available()) GTEST_SKIP() << "no AVX2 kernels here";
#if RINGJOIN_AVX2_KERNELS
  ExpectUnfusedAnswers<4>();
#endif
}

}  // namespace
}  // namespace rcj

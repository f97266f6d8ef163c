// The ring constraint's geometric object: the smallest circle enclosing a
// candidate pair <p, q>, plus the circle/rectangle predicates used by the
// verification step (paper Section 3.2).
//
// Containment convention (see DESIGN.md): a pair is invalidated only by a
// point *strictly inside* its circle. All predicates below are therefore
// strict ("open disk"), which makes Lemmas 1-5 exactly sound and keeps every
// algorithm (filter, verify, brute force, Gabriel oracle) consistent.
#ifndef RINGJOIN_GEOMETRY_CIRCLE_H_
#define RINGJOIN_GEOMETRY_CIRCLE_H_

#include <cmath>

#include "geometry/point.h"
#include "geometry/rect.h"

namespace rcj {

/// A circle stored as center + squared radius. The squared radius is the
/// canonical representation: every predicate compares squared distances so
/// no sqrt is taken in correctness-critical paths.
struct Circle {
  Point center;
  double radius2 = 0.0;

  /// The smallest circle enclosing points a and b: centered at their
  /// midpoint with diameter dist(a, b). This is the circle of paper Fig. 1.
  static Circle Enclosing(const Point& a, const Point& b) {
    return Circle{Midpoint(a, b), 0.25 * Dist2(a, b)};
  }

  double Radius() const { return std::sqrt(radius2); }
  double Diameter() const { return 2.0 * Radius(); }

  /// Conservative bound on a rectangle's MinDist2(center) for descending
  /// into it when the disk is the diametral disk of two points: any point
  /// the exact predicate puts strictly inside lies within this bound. The
  /// squared radius gets a relative 1e-9 (rounding of radius2 and of
  /// MinDist2). Center rounding is absolute: Midpoint() rounds a.x + b.x
  /// once, so each center coordinate is off by up to 2^-52 |c|, and the
  /// radius also grows by delta = 2^-51 (|c.x| + |c.y|), twice that. The
  /// term matters only for circles whose radius is below ~2e9 delta (for
  /// coordinates near 1e4, a radius below ~0.02); for every other circle
  /// the bound is exactly radius2 * (1 + 1e-9). A zero radius (p == q)
  /// keeps bound 0: no point is strictly inside, since the diametral
  /// predicate is then a sum of squares.
  double TraversalBound2() const {
    const double inflated = radius2 * (1.0 + 1e-9);
    const double delta =
        0x1p-51 * (std::fabs(center.x) + std::fabs(center.y));
    if (radius2 == 0.0 || radius2 >= 0x1p64 * delta * delta) {
      return inflated;
    }
    const double reach = std::sqrt(radius2) + delta;
    return std::fmax(inflated, reach * reach * (1.0 + 0x1p-40));
  }

  /// True iff p lies strictly inside the circle (open disk).
  bool ContainsStrict(const Point& p) const {
    return Dist2(p, center) < radius2;
  }

  /// True iff the closed rectangle r intersects the open disk, i.e. the
  /// subtree under MBR r *may* contain a point that invalidates the pair.
  bool IntersectsRect(const Rect& r) const {
    return r.MinDist2(center) < radius2;
  }

  /// True iff the whole rectangle lies strictly inside the open disk.
  bool ContainsRectStrict(const Rect& r) const {
    return r.MaxDist2(center) < radius2;
  }

  /// True iff some face (side) of rectangle r lies strictly inside the open
  /// disk. By the MBR property every face of an R-tree node MBR touches at
  /// least one data point of its subtree, so a face strictly inside the
  /// circle certifies an invalidating point without descending into the
  /// subtree (paper Fig. 7d). A disk is convex, so a segment is strictly
  /// inside iff both endpoints are.
  bool ContainsRectFaceStrict(const Rect& r) const {
    bool inside[4];
    for (int i = 0; i < 4; ++i) inside[i] = ContainsStrict(r.Corner(i));
    for (int i = 0; i < 4; ++i) {
      if (inside[i] && inside[(i + 1) & 3]) return true;
    }
    return false;
  }
};

/// The exact pair-circle containment predicate: o lies strictly inside the
/// open disk with diameter ab iff the angle a-o-b is obtuse, i.e.
/// dot(a - o, b - o) < 0 (Thales). Unlike the center/radius form this
/// involves no midpoint rounding, so the diameter endpoints themselves
/// evaluate to exactly 0 (never "inside"), and it is bit-for-bit consistent
/// with the half-plane pruning tests of Lemmas 1/3/5 (which evaluate the
/// negation of the same expression). Every correctness-critical containment
/// check in the library (brute force, verification, Gabriel oracle) uses
/// this predicate; Circle::ContainsStrict is kept for generic circle range
/// queries and conservative traversal bounds.
inline bool StrictlyInsideDiametral(const Point& o, const Point& a,
                                    const Point& b) {
  return DotFrom(o, a, b) < 0.0;
}

/// Face rule in the exact diametral form: true iff some face (side) of r
/// lies strictly inside the open disk with diameter ab (both adjacent
/// corners strictly inside; disks are convex).
inline bool DiametralContainsRectFace(const Point& a, const Point& b,
                                      const Rect& r) {
  bool inside[4];
  for (int i = 0; i < 4; ++i) {
    inside[i] = StrictlyInsideDiametral(r.Corner(i), a, b);
  }
  for (int i = 0; i < 4; ++i) {
    if (inside[i] && inside[(i + 1) & 3]) return true;
  }
  return false;
}

}  // namespace rcj

#endif  // RINGJOIN_GEOMETRY_CIRCLE_H_

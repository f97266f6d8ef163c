// Axis-aligned rectangles (minimum bounding rectangles) and the MBR algebra
// needed by the R*-tree: area/margin/overlap for the split heuristics and
// mindist for best-first search (Roussopoulos et al.).
#ifndef RINGJOIN_GEOMETRY_RECT_H_
#define RINGJOIN_GEOMETRY_RECT_H_

#include <algorithm>
#include <limits>

#include "geometry/point.h"

namespace rcj {

/// A closed axis-aligned rectangle [lo.x, hi.x] x [lo.y, hi.y].
/// An "empty" rectangle (from Rect::Empty()) has inverted bounds and acts as
/// the identity for Expand().
struct Rect {
  Point lo{0.0, 0.0};
  Point hi{0.0, 0.0};

  /// The empty rectangle: identity element for Expand / ExpandRect.
  static Rect Empty() {
    const double inf = std::numeric_limits<double>::infinity();
    return Rect{Point{inf, inf}, Point{-inf, -inf}};
  }

  /// A degenerate rectangle covering exactly one point.
  static Rect FromPoint(const Point& p) { return Rect{p, p}; }

  bool IsEmpty() const { return lo.x > hi.x || lo.y > hi.y; }

  /// Closed containment of a point.
  bool Contains(const Point& p) const {
    return lo.x <= p.x && p.x <= hi.x && lo.y <= p.y && p.y <= hi.y;
  }

  /// Closed containment of another rectangle.
  bool ContainsRect(const Rect& r) const {
    return lo.x <= r.lo.x && r.hi.x <= hi.x && lo.y <= r.lo.y && r.hi.y <= hi.y;
  }

  /// Closed intersection test.
  bool Intersects(const Rect& r) const {
    return lo.x <= r.hi.x && r.lo.x <= hi.x && lo.y <= r.hi.y && r.lo.y <= hi.y;
  }

  /// Grows this rectangle to cover point p.
  void Expand(const Point& p) {
    lo.x = std::min(lo.x, p.x);
    lo.y = std::min(lo.y, p.y);
    hi.x = std::max(hi.x, p.x);
    hi.y = std::max(hi.y, p.y);
  }

  /// Grows this rectangle to cover rectangle r.
  void ExpandRect(const Rect& r) {
    if (r.IsEmpty()) return;
    Expand(r.lo);
    Expand(r.hi);
  }

  double Width() const { return hi.x - lo.x; }
  double Height() const { return hi.y - lo.y; }

  /// Area; 0 for empty or degenerate rectangles.
  double Area() const {
    if (IsEmpty()) return 0.0;
    return Width() * Height();
  }

  /// Half-perimeter, the R*-tree "margin" goodness measure.
  double Margin() const {
    if (IsEmpty()) return 0.0;
    return Width() + Height();
  }

  Point Center() const {
    return Point{0.5 * (lo.x + hi.x), 0.5 * (lo.y + hi.y)};
  }

  /// Corner i in cyclic order: 0=(lo,lo), 1=(hi,lo), 2=(hi,hi), 3=(lo,hi).
  /// Cyclic adjacency matters for the face-inside-circle test.
  Point Corner(int i) const {
    switch (i & 3) {
      case 0:
        return lo;
      case 1:
        return Point{hi.x, lo.y};
      case 2:
        return hi;
      default:
        return Point{lo.x, hi.y};
    }
  }

  /// Area of the intersection with r (0 if disjoint).
  double OverlapArea(const Rect& r) const;

  /// Squared Euclidean mindist from point p to this rectangle (0 if inside).
  double MinDist2(const Point& p) const {
    double dx = 0.0;
    if (p.x < lo.x) {
      dx = lo.x - p.x;
    } else if (p.x > hi.x) {
      dx = p.x - hi.x;
    }
    double dy = 0.0;
    if (p.y < lo.y) {
      dy = lo.y - p.y;
    } else if (p.y > hi.y) {
      dy = p.y - hi.y;
    }
    return dx * dx + dy * dy;
  }

  /// Squared Euclidean distance from p to the farthest point of the
  /// rectangle.
  double MaxDist2(const Point& p) const;

  friend bool operator==(const Rect& a, const Rect& b) {
    return a.lo == b.lo && a.hi == b.hi;
  }
};

/// Smallest rectangle covering both a and b.
inline Rect Union(const Rect& a, const Rect& b) {
  Rect out = a;
  out.ExpandRect(b);
  return out;
}

/// Increase in area caused by growing `base` to cover `add`.
inline double Enlargement(const Rect& base, const Rect& add) {
  return Union(base, add).Area() - base.Area();
}

/// Squared Euclidean mindist between two rectangles (0 if they intersect).
/// Used by the synchronized-traversal join baselines.
double MinDist2(const Rect& a, const Rect& b);

}  // namespace rcj

#endif  // RINGJOIN_GEOMETRY_RECT_H_

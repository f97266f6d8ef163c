#include "geometry/rect.h"

namespace rcj {

double Rect::OverlapArea(const Rect& r) const {
  const double w =
      std::min(hi.x, r.hi.x) - std::max(lo.x, r.lo.x);
  if (w <= 0.0) return 0.0;
  const double h =
      std::min(hi.y, r.hi.y) - std::max(lo.y, r.lo.y);
  if (h <= 0.0) return 0.0;
  return w * h;
}

double Rect::MaxDist2(const Point& p) const {
  const double dx = std::max(std::fabs(p.x - lo.x), std::fabs(p.x - hi.x));
  const double dy = std::max(std::fabs(p.y - lo.y), std::fabs(p.y - hi.y));
  return dx * dx + dy * dy;
}

double MinDist2(const Rect& a, const Rect& b) {
  double dx = 0.0;
  if (a.hi.x < b.lo.x) {
    dx = b.lo.x - a.hi.x;
  } else if (b.hi.x < a.lo.x) {
    dx = a.lo.x - b.hi.x;
  }
  double dy = 0.0;
  if (a.hi.y < b.lo.y) {
    dy = b.lo.y - a.hi.y;
  } else if (b.hi.y < a.lo.y) {
    dy = a.lo.y - b.hi.y;
  }
  return dx * dx + dy * dy;
}

}  // namespace rcj

#pragma once

#include <cmath>

namespace wnet::geom {

/// 2-D point / vector in meters. Node locations and wall endpoints use this.
struct Vec2 {
  double x = 0.0;
  double y = 0.0;

  friend Vec2 operator+(Vec2 a, Vec2 b) { return {a.x + b.x, a.y + b.y}; }
  friend Vec2 operator-(Vec2 a, Vec2 b) { return {a.x - b.x, a.y - b.y}; }
  friend Vec2 operator*(double s, Vec2 v) { return {s * v.x, s * v.y}; }
  friend Vec2 operator*(Vec2 v, double s) { return s * v; }
  friend bool operator==(Vec2 a, Vec2 b) { return a.x == b.x && a.y == b.y; }

  [[nodiscard]] double dot(Vec2 o) const { return x * o.x + y * o.y; }
  /// z-component of the 3-D cross product; sign gives orientation.
  [[nodiscard]] double cross(Vec2 o) const { return x * o.y - y * o.x; }
  /// sqrt(x^2 + y^2), deliberately NOT std::hypot: sqrt is IEEE-exact on
  /// every platform while hypot's rounding varies across libm versions, and
  /// the wall-crossing / distance kernels (util/kernels.h) must reproduce
  /// this value bit-for-bit. Coordinates are meters, so the overflow range
  /// hypot protects against is unreachable.
  [[nodiscard]] double norm() const { return std::sqrt(x * x + y * y); }
  [[nodiscard]] double dist(Vec2 o) const { return (*this - o).norm(); }
};

}  // namespace wnet::geom

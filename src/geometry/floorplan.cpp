#include "geometry/floorplan.h"

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <stdexcept>

#include "util/kernels.h"
#include "util/strings.h"

namespace wnet::geom {

double default_wall_loss_db(WallMaterial m) {
  switch (m) {
    case WallMaterial::kLight: return 3.4;
    case WallMaterial::kConcrete: return 6.9;
    case WallMaterial::kBrick: return 5.0;
    case WallMaterial::kGlass: return 2.0;
    case WallMaterial::kMetal: return 12.0;
  }
  return 3.4;
}

const char* wall_material_name(WallMaterial m) {
  switch (m) {
    case WallMaterial::kLight: return "light";
    case WallMaterial::kConcrete: return "concrete";
    case WallMaterial::kBrick: return "brick";
    case WallMaterial::kGlass: return "glass";
    case WallMaterial::kMetal: return "metal";
  }
  return "light";
}

namespace {

WallMaterial material_from_name(std::string_view name) {
  const std::string n = util::to_lower(name);
  if (n == "light") return WallMaterial::kLight;
  if (n == "concrete") return WallMaterial::kConcrete;
  if (n == "brick") return WallMaterial::kBrick;
  if (n == "glass") return WallMaterial::kGlass;
  if (n == "metal") return WallMaterial::kMetal;
  throw std::runtime_error("unknown wall material: " + std::string(name));
}

}  // namespace

namespace {

/// Matches the default eps of segments_intersect; the kernel fast path and
/// the scalar fallback must use the same tolerance.
constexpr double kCrossEps = 1e-12;
constexpr int kClassifyChunk = 256;

}  // namespace

double FloorPlan::wall_loss_db(Vec2 a, Vec2 b) const {
  // Kernel classify over wall chunks. Class 0/1 (all four orientations
  // decisively nonzero) equals segments_intersect exactly — the collinear
  // clauses there only fire when some orientation is zero — and class 2
  // falls back to the full scalar test.
  const Segment link{a, b};
  double loss = 0.0;
  uint8_t cls[kClassifyChunk];
  const int n = static_cast<int>(walls_.size());
  for (int off = 0; off < n; off += kClassifyChunk) {
    const int len = std::min(kClassifyChunk, n - off);
    util::kernels::segment_classify(a.x, a.y, b.x, b.y, wax_.data() + off, way_.data() + off,
                                    wbx_.data() + off, wby_.data() + off, len, kCrossEps, cls);
    for (int i = 0; i < len; ++i) {
      if (cls[i] == 1 ||
          (cls[i] == 2 &&
           segments_intersect(link, walls_[static_cast<size_t>(off + i)].span))) {
        loss += loss_[static_cast<size_t>(off + i)];
      }
    }
  }
  return loss;
}

int FloorPlan::walls_crossed(Vec2 a, Vec2 b) const {
  const Segment link{a, b};
  int n_crossed = 0;
  uint8_t cls[kClassifyChunk];
  const int n = static_cast<int>(walls_.size());
  for (int off = 0; off < n; off += kClassifyChunk) {
    const int len = std::min(kClassifyChunk, n - off);
    util::kernels::segment_classify(a.x, a.y, b.x, b.y, wax_.data() + off, way_.data() + off,
                                    wbx_.data() + off, wby_.data() + off, len, kCrossEps, cls);
    for (int i = 0; i < len; ++i) {
      if (cls[i] == 1 ||
          (cls[i] == 2 &&
           segments_intersect(link, walls_[static_cast<size_t>(off + i)].span))) {
        ++n_crossed;
      }
    }
  }
  return n_crossed;
}

FloorPlan parse_floorplan(const std::string& text) {
  FloorPlan plan;
  bool have_floor = false;
  std::istringstream is(text);
  std::string line;
  int lineno = 0;
  while (std::getline(is, line)) {
    ++lineno;
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    const auto tokens = util::split_ws(line);
    if (tokens.empty()) continue;
    const auto fail = [&](const std::string& why) -> std::runtime_error {
      return std::runtime_error("floorplan line " + std::to_string(lineno) + ": " + why);
    };
    if (tokens[0] == "floor") {
      if (tokens.size() != 3) throw fail("expected: floor <width> <height>");
      const auto w = util::parse_double(tokens[1]);
      const auto h = util::parse_double(tokens[2]);
      if (!w || !h || *w <= 0 || *h <= 0) throw fail("bad floor dimensions");
      plan = FloorPlan(*w, *h);
      have_floor = true;
    } else if (tokens[0] == "wall") {
      if (tokens.size() != 5 && tokens.size() != 6) {
        throw fail("expected: wall <x1> <y1> <x2> <y2> [material]");
      }
      double coord[4];
      for (int i = 0; i < 4; ++i) {
        const auto v = util::parse_double(tokens[static_cast<size_t>(i) + 1]);
        if (!v) throw fail("bad wall coordinate");
        coord[i] = *v;
      }
      const WallMaterial m =
          tokens.size() == 6 ? material_from_name(tokens[5]) : WallMaterial::kLight;
      plan.add_wall({coord[0], coord[1]}, {coord[2], coord[3]}, m);
    } else {
      throw fail("unknown directive: " + tokens[0]);
    }
  }
  if (!have_floor) throw std::runtime_error("floorplan: missing 'floor' directive");
  return plan;
}

std::string to_text(const FloorPlan& plan) {
  std::ostringstream os;
  os << "floor " << plan.width() << ' ' << plan.height() << '\n';
  for (const Wall& w : plan.walls()) {
    os << "wall " << w.span.a.x << ' ' << w.span.a.y << ' ' << w.span.b.x << ' '
       << w.span.b.y << ' ' << wall_material_name(w.material) << '\n';
  }
  return os.str();
}

FloorPlan make_office_floor(double width_m, double height_m, int rooms_per_row) {
  FloorPlan plan(width_m, height_m);
  // Concrete shell.
  plan.add_wall({0, 0}, {width_m, 0}, WallMaterial::kConcrete);
  plan.add_wall({width_m, 0}, {width_m, height_m}, WallMaterial::kConcrete);
  plan.add_wall({width_m, height_m}, {0, height_m}, WallMaterial::kConcrete);
  plan.add_wall({0, height_m}, {0, 0}, WallMaterial::kConcrete);
  // Corridor walls at 40% / 60% of the height, leaving door gaps every room.
  const double c0 = 0.4 * height_m;
  const double c1 = 0.6 * height_m;
  const double room_w = width_m / rooms_per_row;
  for (int r = 0; r < rooms_per_row; ++r) {
    const double x0 = r * room_w;
    const double door = 1.0;  // meter-wide doorway at the right end of each room
    plan.add_wall({x0, c0}, {x0 + room_w - door, c0}, WallMaterial::kBrick);
    plan.add_wall({x0, c1}, {x0 + room_w - door, c1}, WallMaterial::kBrick);
    // Partition between adjacent rooms (skip the leftmost edge, shell covers it).
    if (r > 0) {
      plan.add_wall({x0, 0}, {x0, c0}, WallMaterial::kLight);
      plan.add_wall({x0, c1}, {x0, height_m}, WallMaterial::kLight);
    }
  }
  return plan;
}

}  // namespace wnet::geom

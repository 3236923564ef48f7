#pragma once

#include <string>
#include <vector>

#include "geometry/segment.h"
#include "geometry/vec2.h"

namespace wnet::geom {

/// Wall material classes with distinct attenuation (dB per crossing).
/// Values follow the COST-231 multi-wall model conventions.
enum class WallMaterial {
  kLight,     ///< plasterboard / thin partition (~3.4 dB)
  kConcrete,  ///< load-bearing concrete (~6.9 dB)
  kBrick,     ///< brick (~5.0 dB)
  kGlass,     ///< glazed partition / window (~2.0 dB)
  kMetal,     ///< metal door / shaft (~12.0 dB)
};

/// Default per-crossing attenuation for a material, in dB.
[[nodiscard]] double default_wall_loss_db(WallMaterial m);

/// Human-readable material name ("light", "concrete", ...).
[[nodiscard]] const char* wall_material_name(WallMaterial m);

/// A wall: a segment plus its per-crossing attenuation.
struct Wall {
  Segment span;
  WallMaterial material = WallMaterial::kLight;
  double loss_db = 3.4;
};

/// An indoor floor plan: bounding box plus a set of attenuating walls.
/// This is the geometric substrate of the multi-wall channel model — the
/// paper reads it from an SVG; we use a plain text format and programmatic
/// builders (see DESIGN.md substitution table).
class FloorPlan {
 public:
  FloorPlan() = default;
  FloorPlan(double width_m, double height_m) : width_(width_m), height_(height_m) {}

  void add_wall(Wall w) {
    walls_.push_back(w);
    // Structure-of-arrays mirror of the wall endpoints/losses, kept in sync
    // here so the crossing tests can run through the classify kernel.
    wax_.push_back(w.span.a.x);
    way_.push_back(w.span.a.y);
    wbx_.push_back(w.span.b.x);
    wby_.push_back(w.span.b.y);
    loss_.push_back(w.loss_db);
  }
  void add_wall(Vec2 a, Vec2 b, WallMaterial m) {
    add_wall({{a, b}, m, default_wall_loss_db(m)});
  }

  [[nodiscard]] const std::vector<Wall>& walls() const { return walls_; }
  [[nodiscard]] double width() const { return width_; }
  [[nodiscard]] double height() const { return height_; }

  /// Total wall attenuation (dB) accumulated along the straight radio path
  /// from `a` to `b` — the multi-wall model's sum over crossed walls.
  [[nodiscard]] double wall_loss_db(Vec2 a, Vec2 b) const;

  /// Number of walls crossed by the straight path from `a` to `b`.
  [[nodiscard]] int walls_crossed(Vec2 a, Vec2 b) const;

  /// True if `p` is inside the bounding box.
  [[nodiscard]] bool contains(Vec2 p) const {
    return p.x >= 0 && p.x <= width_ && p.y >= 0 && p.y <= height_;
  }

 private:
  double width_ = 0.0;
  double height_ = 0.0;
  std::vector<Wall> walls_;
  // SoA wall endpoints + per-wall loss, appended in add_wall. FloorPlan is
  // shared read-only across worker threads, so the crossing tests use stack
  // scratch, never mutable members.
  std::vector<double> wax_, way_, wbx_, wby_, loss_;
};

/// Parses the plain-text floor-plan format:
///
///   floor <width> <height>
///   wall <x1> <y1> <x2> <y2> <material>          # material name optional
///   # comment
///
/// Throws std::runtime_error with a line number on malformed input.
[[nodiscard]] FloorPlan parse_floorplan(const std::string& text);

/// Serializes a floor plan back to the text format (round-trips parse).
[[nodiscard]] std::string to_text(const FloorPlan& plan);

/// Builds the paper's reference office floor: an 80 x 45 m slab with a
/// central corridor and two rows of offices, mixing concrete shell walls
/// and light partitions. `rooms_per_row` controls partition density.
[[nodiscard]] FloorPlan make_office_floor(double width_m = 80.0, double height_m = 45.0,
                                          int rooms_per_row = 8);

}  // namespace wnet::geom

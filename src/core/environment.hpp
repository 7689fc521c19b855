#pragma once
/// \file environment.hpp
/// The extension environment: every polygon a candidate pattern's URA must be
/// checked against — the routable-area outline, obstacle holes (inflated for
/// d_obs), and the URAs of the other segments of the trace under extension.
///
/// Static polygons (area + obstacles) keep their bounding boxes in a flat
/// list for edge-level prefiltering. Dynamic polygons (the trace's
/// self-URAs, which change after every insertion) are swapped per segment
/// and scanned linearly: one per segment of the trace, so a straight member
/// starts with a handful and a saturated one (the `saturated` family's
/// 36-pattern meander) carries 100+. `collect` returns both kinds for one
/// segment's reach; HeightSolver transforms them into its local frame once
/// and orders them by lowest ordinate, so a height query stops scanning at
/// the first polygon above its running hob (see height_solver.hpp). Alg. 2's
/// node check (§IV-D) scans the candidates' nodes directly, with no range
/// tree.

#include <cstdint>
#include <vector>

#include "geom/box.hpp"
#include "geom/polygon.hpp"

namespace lmr::core {

/// Role of an environment polygon; the height solver treats walls (area
/// outlines) as never-enclosable, while obstacles fully inside a pattern's
/// inner border are legal (the pattern routes around them).
enum class EnvKind : std::uint8_t {
  Obstacle,     ///< solid polygon the trace must clear (enclosable)
  AreaOutline,  ///< routable-area boundary (the trace lives inside it)
  SelfUra,      ///< URA of another segment of the same trace (not enclosable)
};

/// One polygon with its role and cached bbox.
struct EnvPolygon {
  geom::Polygon poly;
  EnvKind kind = EnvKind::Obstacle;
  geom::Box bbox;
};

/// Immutable-after-build static environment plus swappable dynamic overlay.
class Environment {
 public:
  Environment() = default;

  /// Add a static polygon.
  void add_static(geom::Polygon poly, EnvKind kind);

  /// Replace the dynamic overlay (self-URAs of the current trace).
  void set_dynamic(std::vector<geom::Polygon> uras);

  /// Collect every environment polygon whose bbox intersects `query`
  /// (static + dynamic). Pointers remain valid until the next mutation.
  [[nodiscard]] std::vector<const EnvPolygon*> collect(const geom::Box& query) const;

  [[nodiscard]] const std::vector<EnvPolygon>& statics() const { return statics_; }
  [[nodiscard]] const std::vector<EnvPolygon>& dynamics() const { return dynamics_; }

 private:
  std::vector<EnvPolygon> statics_;
  std::vector<EnvPolygon> dynamics_;
};

}  // namespace lmr::core

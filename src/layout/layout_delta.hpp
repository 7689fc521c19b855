#pragma once
/// \file layout_delta.hpp
/// The record of one board mutation.
///
/// Every `Layout` mutator (add/move/remove obstacle, routable-area change,
/// group membership / target change) applies its edit immediately and
/// appends one `LayoutDelta` to the layout's journal: what happened, the
/// version the board reached, and the dirty bounding box the change can
/// influence. Deltas are *records*, not commands — replay is never needed;
/// `pipeline::Router::reroute` only reads them to prove which members an
/// edit can touch (dirty bbox inflated by the clearance radius vs. cached
/// per-member route domains) and to reject stale or out-of-order edits via
/// the version stamps, and `layout::ObstacleIndex::apply` folds obstacle
/// deltas into a kept index.

#include <cstddef>
#include <cstdint>

#include "geom/box.hpp"
#include "layout/trace.hpp"

namespace lmr::layout {

/// "No index" sentinel for the optional obstacle / group fields.
inline constexpr std::size_t kNoIndex = static_cast<std::size_t>(-1);

/// What kind of mutation a delta records.
enum class DeltaKind {
  AddTrace,           ///< trace added (affects nothing until grouped)
  AddPair,            ///< differential pair added (ditto)
  SetBoard,           ///< board outline replaced (conservative: everything)
  AddObstacle,        ///< obstacle appended
  MoveObstacle,       ///< obstacle translated or reshaped in place
  RemoveObstacle,     ///< obstacle erased (later indices shift down)
  SetRoutableArea,    ///< one trace's routable area replaced
  AddGroup,           ///< matching group appended
  AddGroupMember,     ///< member appended to a group
  RemoveGroupMember,  ///< member erased from a group
  SetGroupTarget,     ///< group target length changed
  SetMemberTarget,    ///< one member's target override changed
};

/// One recorded mutation. `version` is the layout's version *after* the
/// mutation, so a journal suffix `prior_version + 1 ... layout.version()`
/// is exactly the edits a cached route has not seen yet.
struct LayoutDelta {
  DeltaKind kind = DeltaKind::AddObstacle;
  std::uint64_t version = 0;
  /// Union of everything the mutation touched (old and new geometry for
  /// moves). Empty for purely structural edits (group membership, targets)
  /// — those name their group directly instead.
  geom::Box dirty;
  /// Obstacle index the mutation applied to, at the time it applied
  /// (a RemoveObstacle shifts later indices down). kNoIndex otherwise.
  std::size_t obstacle = kNoIndex;
  /// Group index for group-structure deltas; kNoIndex otherwise.
  std::size_t group = kNoIndex;
  /// Trace/pair id for AddTrace/AddPair/SetRoutableArea/membership deltas.
  TraceId trace = 0;
};

}  // namespace lmr::layout

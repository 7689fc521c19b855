#pragma once
/// \file pair_restore.hpp
/// Differential-pair <-> median-trace round trip (§V).
///
/// `merge_pair` converts a (possibly decoupled) differential pair into a
/// median single-ended trace via MSDTW plus the virtual-DRC conversion, so
/// the ordinary DP extension engine can length-match it. `restore_pair`
/// regenerates the two sub-traces by offsetting the (meandered) median by
/// +/- pitch/2 — piecewise, at each median node's own Design-Rule-Area pitch
/// when the pair crosses several DRAs — and `compensate_skew` re-inserts a
/// tiny pattern on the shorter sub-trace when the restored pair carries
/// residual intra-pair skew, validating the pattern against the routable
/// area and obstacles before splicing it (the paper's "compensate tiny
/// patterns to sub-traces if needed").
///
/// The rule-aware flow a caller wires together (see pipeline::Router):
///  1. `merge_pair` records per-node DRA pitches (from MSDTW round
///     attribution) and the original breakout points;
///  2. the median is extended with an ExtenderConfig::restore_margin built
///     from `local_restore_pitch`, so no pattern is placed whose restore
///     offsets would violate the sub-trace rules;
///  3. `transfer_node_pitch` re-derives per-node pitches for the extended
///     median (pattern nodes inherit their host segment's DRA);
///  4. `restore_pair` offsets each node at its own pitch with smooth
///     miter-joint tapers at pitch transitions and re-anchors the preserved
///     breakout verbatim.

#include <span>
#include <vector>

#include "drc/rules.hpp"
#include "dtw/msdtw.hpp"
#include "layout/drc_checker.hpp"
#include "layout/layout.hpp"
#include "layout/routable_area.hpp"
#include "layout/trace.hpp"

namespace lmr::dtw {

/// Result of merging a pair.
struct MergedPair {
  layout::Trace median;          ///< single-ended stand-in
  drc::DesignRules virtual_rules;  ///< rules the median must obey
  MsdtwResult matching;          ///< diagnostic: the MSDTW matching used
  double base_pitch = 0.0;       ///< the pair's nominal pitch
  /// Per median-path node: the DRA distance rule that matched it (breakout
  /// and single-DRA nodes carry the base pitch). Aligned with
  /// `median.path.points()`; pitch-transition markers survive simplification
  /// even when geometrically collinear.
  std::vector<double> node_pitch;
  /// The original (un-averaged) preserved breakout points of each sub-trace,
  /// so the restore can re-anchor the pin positions verbatim.
  std::vector<geom::Point> breakout_p;
  std::vector<geom::Point> breakout_n;
  double skipped_p_length = 0.0;  ///< traceP length carried by unpaired nodes
  double skipped_n_length = 0.0;  ///< traceN length carried by unpaired nodes
};

/// Merge `pair` using the ascending distance-rule set `rules_r` (Alg. 3's R;
/// pass {pair.pitch} when the pair stays inside one DRA). `sub_rules` is the
/// DRC in force for the sub-traces. The first `pair.breakout_nodes` nodes of
/// each sub-trace are copied into the median unmatched (preserved breakout).
[[nodiscard]] MergedPair merge_pair(const layout::DiffPair& pair,
                                    const drc::DesignRules& sub_rules,
                                    const std::vector<double>& rules_r);

/// How to restore a differential pair from its (length-matched) median.
struct RestoreSpec {
  double pitch = 0.0;      ///< nominal pitch (also the uniform fallback)
  double sub_width = 0.0;  ///< restored sub-trace width
  /// Per median-node restore pitch (empty = uniform `pitch` everywhere).
  /// Must align with the median path when non-empty.
  std::span<const double> node_pitch;
  /// Original breakout points to re-anchor verbatim (may be empty). The
  /// anchoring stops at the first median node that no longer equals the
  /// averaged breakout (extension inserted nodes there).
  std::span<const geom::Point> breakout_p;
  std::span<const geom::Point> breakout_n;
};

/// Restore a differential pair from a (length-matched) median trace:
/// traceP at +pitch/2 (left of travel), traceN at -pitch/2, each node offset
/// at its own DRA pitch (miter-vector offsets, so uniform pitches reproduce
/// the classic parallel offset and pitch transitions become straight
/// tapers). Throws std::invalid_argument when `node_pitch` is non-empty but
/// misaligned with the median path.
[[nodiscard]] layout::DiffPair restore_pair(const layout::Trace& median,
                                            const RestoreSpec& spec);

/// Uniform-pitch restore (single-DRA pairs and baselines).
[[nodiscard]] layout::DiffPair restore_pair(const layout::Trace& median, double pitch,
                                            double sub_width);

/// Re-derive per-node pitches for a median whose geometry changed under
/// extension: each node of `extended` inherits the pitch of its own node in
/// `reference` when it survived verbatim, otherwise the pitch of the nearest
/// `reference` segment (max of its endpoint pitches — patterns bulge
/// perpendicular to their host segment, so the host stays nearest).
[[nodiscard]] std::vector<double> transfer_node_pitch(
    const geom::Polyline& reference, std::span<const double> reference_pitch,
    const geom::Polyline& extended);

/// Widest restore pitch in force along `seg` (probed at both ends and the
/// midpoint against `reference`), for ExtenderConfig::restore_margin.
[[nodiscard]] double local_restore_pitch(const geom::Polyline& reference,
                                         std::span<const double> reference_pitch,
                                         const geom::Segment& seg);

/// Equalize sub-trace lengths by inserting one tiny serpentine pattern on a
/// straight segment of the shorter sub-trace. Pattern height is skew/2,
/// width is max(2*d_protect, effective gap); heights below d_protect are
/// skipped (skew already negligible). Hosts are tried longest-first and each
/// candidate splice is validated through the DRC oracle (self rules, and —
/// when `area` / `obstacles` are given — containment and obstacle
/// clearance, through an obstacle index; the Router shares one per route
/// call): the hat pokes *away* from the partner sub-trace, straight into the
/// via field, so splicing blind can leave the routing area, crowd an
/// obstacle, or close under the gap rule against a neighbouring meander leg.
/// A host whose splice would add any violation is rejected in favour of the
/// next-longest. Returns the residual skew after compensation (unchanged
/// when no host fits).
double compensate_skew(layout::DiffPair& pair, const drc::DesignRules& sub_rules,
                       const layout::RoutableArea* area = nullptr,
                       const layout::ObstacleIndex* obstacles = nullptr);

}  // namespace lmr::dtw

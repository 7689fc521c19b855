#include "layout/clearance_index.hpp"

#include <algorithm>
#include <cmath>

#include "core/contract.hpp"
#include "geom/distance.hpp"

namespace lmr::layout {

ClearanceIndex::ClearanceIndex(const drc::DesignRules& rules, DrcCheckOptions opts)
    : rules_(rules), opts_(opts) {}

std::uint32_t ClearanceIndex::add_slot(double width, std::uint32_t net) {
  LMR_REQUIRE(std::isfinite(width) && width >= 0.0,
              "slot width sizes the grid cells and query windows");
  max_width_ = std::max(max_width_, width);
  slots_.push_back({nullptr, net});
  slot_epoch_.push_back(1);
  LMR_ASSERT(slot_epoch_.size() == slots_.size(),
             "slot/epoch vectors march in lockstep");
  return static_cast<std::uint32_t>(slots_.size() - 1);
}

void ClearanceIndex::insert(std::uint32_t slot, const Trace& trace) {
  LMR_REQUIRE(slot < slots_.size(), "insert() into an undeclared slot");
  slots_[slot].trace = &trace;
  ++slot_epoch_[slot];
}

void ClearanceIndex::remove(std::uint32_t slot) {
  LMR_REQUIRE(slot < slots_.size(), "remove() of an undeclared slot");
  slots_[slot].trace = nullptr;
  ++slot_epoch_[slot];
}

void ClearanceIndex::refresh_grid() const {
  if (grid_built_epoch_.empty()) {
    // First grid build: size cells to the worst-case interaction reach, so a
    // query window (segment bbox + gap_max) spans O(1) cells for segments of
    // typical (pattern-scale) length.
    const double cell = std::max(rules_.effective_gap() + max_width_, rules_.protect);
    grid_.reset(cell);
  }
  if (grid_built_epoch_.size() != slots_.size()) {
    grid_built_epoch_.resize(slots_.size(), 0);  // epoch 0 = never built
    grid_ids_.resize(slots_.size());
  }
  for (std::uint32_t t = 0; t < slots_.size(); ++t) {
    if (slot_epoch_[t] == grid_built_epoch_[t]) continue;
    for (const std::uint32_t id : grid_ids_[t]) grid_.remove(id);
    grid_ids_[t].clear();
    const Slot& s = slots_[t];
    if (s.trace != nullptr) {
      const geom::Polyline& path = s.trace->path;
      grid_ids_[t].reserve(path.segment_count());
      for (std::uint32_t seg_idx = 0; seg_idx < path.segment_count(); ++seg_idx) {
        const std::uint64_t payload = (static_cast<std::uint64_t>(t) << 32) | seg_idx;
        grid_ids_[t].push_back(grid_.insert(path.segment(seg_idx), payload));
      }
    }
    grid_built_epoch_[t] = slot_epoch_[t];
  }
  LMR_ASSERT(std::equal(grid_built_epoch_.begin(), grid_built_epoch_.end(),
                        slot_epoch_.begin(), slot_epoch_.end()),
             "grid store agrees with every slot epoch after refresh");
}

std::vector<Violation> ClearanceIndex::sweep() const {
  // A cached result is only comparable to the live epochs when it was taken
  // over the same slot universe (slots are never undeclared, so a shorter
  // result_epochs_ just means new slots arrived since).
  LMR_ASSERT(result_epochs_.empty() || result_epochs_.size() <= slot_epoch_.size(),
             "result epochs never outnumber declared slots");
  // Nothing changed since the last sweep: the cached violations are exact.
  if (slot_epoch_ == result_epochs_) return result_;

  std::size_t inserted = 0;
  for (const Slot& s : slots_) inserted += s.trace != nullptr ? 1 : 0;
  if (inserted < 2) {
    result_.clear();
    result_epochs_ = slot_epoch_;
    return result_;
  }

  refresh_grid();

  // Collect candidate pairs: each segment window-queries the grid for
  // segments of higher slots only, so every pair is found exactly once, by
  // its lower slot. The grid stores whole segments, so the window needs no
  // slack beyond the widest gap: if two segments are closer than their gap
  // (<= gap_max), the other segment has a point inside this one's bbox
  // inflated by gap_max.
  struct Candidate {
    std::uint32_t slot_a, slot_b, seg_a, seg_b;
    bool operator<(const Candidate& o) const {
      if (slot_a != o.slot_a) return slot_a < o.slot_a;
      if (slot_b != o.slot_b) return slot_b < o.slot_b;
      if (seg_a != o.seg_a) return seg_a < o.seg_a;
      return seg_b < o.seg_b;
    }
    bool operator==(const Candidate&) const = default;
  };
  std::vector<Candidate> candidates;
  const double inflate = rules_.gap + max_width_ + opts_.tolerance + 1e-9;
  for (std::uint32_t t = 0; t < slots_.size(); ++t) {
    const Slot& s = slots_[t];
    if (s.trace == nullptr) continue;
    const geom::Polyline& path = s.trace->path;
    const std::uint64_t floor = (static_cast<std::uint64_t>(t) + 1) << 32;
    for (std::uint32_t seg_idx = 0; seg_idx < path.segment_count(); ++seg_idx) {
      const geom::Box window = path.segment(seg_idx).bbox().inflated(inflate);
      grid_.visit_above(window, floor, [&](const index::SegGrid::Entry& e) {
        // The payload floor already guarantees other slot > t.
        const auto slot_b = static_cast<std::uint32_t>(e.payload >> 32);
        if (slots_[slot_b].net == s.net) return true;
        candidates.push_back(
            {t, slot_b, seg_idx, static_cast<std::uint32_t>(e.payload & 0xffffffffu)});
        return true;
      });
    }
  }
  // Each (slot a, segment a) is one query and the grid reports an entry at
  // most once per query, so sorting alone yields the distinct candidates in
  // the brute-force loop's order.
  std::sort(candidates.begin(), candidates.end());
  LMR_ASSERT(std::adjacent_find(candidates.begin(), candidates.end()) == candidates.end(),
             "the grid reports each segment pair once");

  std::vector<Violation> out;
  for (const Candidate& c : candidates) {
    const Trace& a = *slots_[c.slot_a].trace;
    const Trace& b = *slots_[c.slot_b].trace;
    const double gap = rules_.gap + (a.width + b.width) / 2.0;
    const double d =
        geom::dist_segment_segment(a.path.segment(c.seg_a), b.path.segment(c.seg_b));
    if (d + opts_.tolerance < gap) {
      out.push_back({ViolationKind::TraceGap, a.id, b.id, c.seg_a, c.seg_b, d, gap,
                     "segments of different traces closer than gap"});
    }
  }
  result_ = std::move(out);
  result_epochs_ = slot_epoch_;
  return result_;
}

}  // namespace lmr::layout

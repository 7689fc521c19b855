/// \file grid_core.cpp

#include "index/grid_core.hpp"

namespace lmr::index {
namespace {

/// Upper bound on grid cells per gridded entry (about: per-axis rounding
/// adds one border row and column).
constexpr double kCellsPerEntry = 4.0;

}  // namespace

void GridCore::reset(double min_cell) {
  LMR_REQUIRE(std::isfinite(min_cell), "cell size must be a real length");
  min_cell_ = std::max(min_cell, 1e-9);
  clear();
  cell_ = min_cell_;
}

void GridCore::clear() {
  extent_ = geom::Box{};
  nx_ = ny_ = 0;
  offsets_.clear();
  ids_.clear();
  edit_of_.clear();
  edits_.clear();
  always_.clear();
}

void GridCore::size_cells(std::size_t entries) {
  cell_ = min_cell_;
  if (entries > 0) {
    // The minimum cell, coarsened so the grid never holds more than about
    // kCellsPerEntry cells per entry however far apart the entries sit.
    const double budget = kCellsPerEntry * static_cast<double>(entries);
    const double w = extent_.width();
    const double h = extent_.height();
    cell_ = std::max({min_cell_, std::sqrt(w) * std::sqrt(h) / std::sqrt(budget), w / budget,
                      h / budget});
    origin_ = extent_.lo;
    nx_ = static_cast<std::size_t>(std::min(std::floor(w / cell_), budget)) + 1;
    ny_ = static_cast<std::size_t>(std::min(std::floor(h / cell_), budget)) + 1;
    LMR_REQUIRE(nx_ * ny_ < UINT32_MAX, "cell indices fit in 32 bits");
  }
  offsets_.assign(nx_ * ny_ + 1, 0);
}

void GridCore::fill_slices(
    const std::vector<std::pair<std::uint32_t, std::uint32_t>>& cell_ids) {
  LMR_REQUIRE(cell_ids.size() < UINT32_MAX, "cell list offsets fit in 32 bits");
  for (std::size_t c = 0; c + 1 < offsets_.size(); ++c) offsets_[c + 1] += offsets_[c];
  ids_.resize(cell_ids.size());
  std::vector<std::uint32_t> cursor(offsets_.begin(), offsets_.end() - 1);
  for (const auto& [c, id] : cell_ids) ids_[cursor[c]++] = id;
  LMR_ASSERT(std::equal(cursor.begin(), cursor.end(), offsets_.begin() + 1),
             "the fill lands exactly on the counted slices");
}

}  // namespace lmr::index

#pragma once
/// \file clearance_oracle.hpp
/// Brute-force reference for layout::ClearanceIndex in tests: the index's
/// contract is "exactly what DrcChecker::check_trace_pair finds over every
/// inserted slot pair a < b of different nets, in slot order". The oracle
/// spells that sentence out as a double loop, so it shares nothing with the
/// index but the exact distance kernel, and the comparison is field for
/// field and in order — never sorted.

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <vector>

#include "drc/rules.hpp"
#include "layout/drc_checker.hpp"
#include "layout/trace.hpp"

namespace lmr::layout::oracle {

/// One declared slot as a test mirrors it: the trace it currently holds
/// (null when never inserted, or removed) and its net.
struct Slot {
  const Trace* trace = nullptr;
  std::uint32_t net = 0;
};

inline std::vector<Violation> sweep(const std::vector<Slot>& slots,
                                    const drc::DesignRules& rules,
                                    const DrcCheckOptions& opts = {}) {
  const DrcChecker checker(opts);
  std::vector<Violation> out;
  for (std::size_t a = 0; a < slots.size(); ++a) {
    for (std::size_t b = a + 1; b < slots.size(); ++b) {
      if (slots[a].trace == nullptr || slots[b].trace == nullptr) continue;
      if (slots[a].net == slots[b].net) continue;
      const auto v = checker.check_trace_pair(*slots[a].trace, *slots[b].trace, rules);
      out.insert(out.end(), v.begin(), v.end());
    }
  }
  return out;
}

/// Every field of every violation equal, in the same order.
inline ::testing::AssertionResult same_violations(const std::vector<Violation>& got,
                                                  const std::vector<Violation>& want) {
  if (got.size() != want.size()) {
    return ::testing::AssertionFailure()
           << got.size() << " violations, oracle has " << want.size();
  }
  for (std::size_t i = 0; i < got.size(); ++i) {
    const Violation& x = got[i];
    const Violation& y = want[i];
    if (x.kind != y.kind || x.trace != y.trace || x.other_trace != y.other_trace ||
        x.index_a != y.index_a || x.index_b != y.index_b || x.measured != y.measured ||
        x.required != y.required || x.note != y.note) {
      return ::testing::AssertionFailure()
             << "violation " << i << " differs: (" << x.trace << ", " << x.other_trace
             << ", " << x.index_a << ", " << x.index_b << ", " << x.measured
             << ") vs oracle (" << y.trace << ", " << y.other_trace << ", " << y.index_a
             << ", " << y.index_b << ", " << y.measured << ")";
    }
  }
  return ::testing::AssertionSuccess();
}

}  // namespace lmr::layout::oracle

#pragma once
/// \file spans.hpp
/// In-memory span recorder for the traced run.
///
/// A span is (name, start, end, parent, thread, operation id). Spans are only
/// recorded in the benchmark's own files, around calls into the routing
/// library; the library itself is not instrumented. Everything stays in
/// memory until the run ends, then `write_chrome_json` exports Chrome
/// trace-event JSON (chrome://tracing, Perfetto) and `rollup` folds the spans
/// into per-name self time: a span's duration minus the time its child spans
/// cover.
///
/// Disarmed (null tracer) a `Span` costs one null test.

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "core/clock.hpp"

namespace lmrbench {

/// Per-name roll-up of recorded spans.
struct SpanTotals {
  std::uint64_t count = 0;
  double self_ms = 0.0;  ///< summed durations minus child-covered time
};

class Tracer {
 public:
  Tracer();

  /// Open a span on the calling thread; the innermost open span of the same
  /// thread becomes its parent. Returns the span's record index. `name` must
  /// be a string literal (it is stored by pointer).
  std::int64_t open(const char* name, std::uint64_t op);
  void close(std::int64_t index);

  [[nodiscard]] std::map<std::string, SpanTotals> rollup() const;
  /// Write every span as a Chrome "X" (complete) event. Returns false when
  /// the file cannot be written.
  bool write_chrome_json(const std::string& path) const;
  [[nodiscard]] std::size_t size() const;

 private:
  struct Record {
    const char* name = nullptr;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = -1;  ///< -1 while open
    std::int64_t parent = -1;
    std::uint32_t tid = 0;
    std::uint64_t op = 0;
  };

  [[nodiscard]] std::int64_t ns_since_origin() const;

  lmr::core::Clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<Record> records_;  ///< guarded by mu_
  std::map<std::uint64_t, std::uint32_t> thread_ids_;  ///< guarded by mu_
};

/// RAII span. With a null tracer nothing is recorded.
class Span {
 public:
  Span(Tracer* tracer, const char* name, std::uint64_t op = 0)
      : tracer_(tracer), index_(tracer != nullptr ? tracer->open(name, op) : -1) {}
  ~Span() {
    if (tracer_ != nullptr) tracer_->close(index_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* tracer_;
  std::int64_t index_;
};

}  // namespace lmrbench

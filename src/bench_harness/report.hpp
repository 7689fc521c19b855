#pragma once
/// \file report.hpp
/// Result-file conventions of the benchmark harness.
///
/// Everything in a tracked result document that depends on the machine,
/// the thread count or the clock lives under one top-level member named
/// `kVolatile`: host and build context, the effective parallelism, every
/// wall-clock timing and the timing-only sweep and replay sections.
/// `strip_volatile` erases that member and nothing else, so two runs with
/// the same seeds — at *any* thread counts — must produce byte-identical
/// stripped dumps: the reproducibility check CI and the unit tests perform
/// (`bench_suite --compare A B`).

#include <string>

#include "bench_harness/json.hpp"

namespace lmr::bench {

/// Name of the one top-level member that holds a document's volatile data.
inline constexpr const char* kVolatile = "volatile";

/// Machine / build context recorded with every result file.
struct RunInfo {
  std::string host;
  std::string os;
  std::string compiler;
  std::string build_type;
  std::string timestamp_utc;  ///< ISO-8601, collection time
  int hardware_threads = 0;
};

/// Collect the current machine's context.
[[nodiscard]] RunInfo collect_run_info();

/// `run` object for a result document.
[[nodiscard]] Json run_info_json(const RunInfo& info);

/// Copy of `doc` without its top-level `kVolatile` member — the
/// deterministic view of a result document.
[[nodiscard]] Json strip_volatile(const Json& doc);

/// Write `doc` (pretty-printed, trailing newline) to `path`. Throws
/// std::runtime_error when the file cannot be written.
void write_json_file(const std::string& path, const Json& doc);

/// Bench-main epilogue: write `doc` to `path`, print "wrote PATH" on
/// stdout, report failures on stderr. Returns a process exit code (0 ok,
/// 2 on write failure) so mains can `return write_results_file(...)`.
[[nodiscard]] int write_results_file(const std::string& path, const Json& doc);

/// Read and parse a JSON document from `path`. Throws std::runtime_error on
/// I/O or parse failure.
[[nodiscard]] Json read_json_file(const std::string& path);

}  // namespace lmr::bench

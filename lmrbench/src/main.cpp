/// \file main.cpp
/// lmrbench: one benchmark for batch routes and live edits.
///
///   lmrbench --workload mega_route|paper_route|edit_stream --seed N
///            --seconds S --trace 0|1 [--threads T] [--trace-out FILE]
///
/// Prints human-readable lines, then as its last line one JSON object:
/// {"correct", "attempted", "failed", "metrics"}. `--trace 0` reports the
/// end-to-end metrics, `--trace 1` the per-layer metrics of a separate,
/// span-traced run (and writes the spans as Chrome trace-event JSON).
/// Exit code 0 only when every correctness gate held.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <span>
#include <string>

#include "bench.hpp"

namespace {

using lmrbench::Outcome;
using lmrbench::RunConfig;

struct MetricDef {
  const char* name;
  const char* unit;
};

/// End-to-end metrics (--trace 0), every workload. The per-workload names
/// (route_ms_p50, edit_ms_p50, nets_per_s, max_ok_rate_eps) are printed
/// above the result line.
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"latency_ms_p50", "ms"},
    {"latency_ms_tail", "ms"},
    {"capacity_per_s", "1/s"},
    {"peak_rss_mb", "MB"},
};

/// Per-layer metrics (--trace 1). A layer a workload does not exercise
/// reads 0.
constexpr MetricDef kPerLayer[] = {
    {"scenario.materialize_ms", "ms"},
    {"core.extender_build_ms", "ms"},
    {"core.extend_ms", "ms"},
    {"core.dp_runs", "count"},
    {"core.segments_processed", "count"},
    {"core.patterns", "count"},
    {"core.pattern_yield", "ratio"},
    {"dtw.merge_ms", "ms"},
    {"layout.drc_rules_ms", "ms"},
    {"layout.drc_obstacles_ms", "ms"},
    {"layout.drc_containment_ms", "ms"},
    {"layout.drc_obstacle_pairs", "count"},
    {"layout.clearance_cold_ms", "ms"},
    {"layout.clearance_one_dirty_ms", "ms"},
    {"layout.apply_edit_ms", "ms"},
    {"pipeline.critical_group_ms", "ms"},
    {"pipeline.session_apply_ms", "ms"},
    {"pipeline.board_clearance_ms", "ms"},
    {"pipeline.reroute_fraction", "ratio"},
    {"exec.parallel_efficiency", "ratio"},
    {"exec.work_inflation", "ratio"},
    {"service.queue_wait_ms_mean", "ms"},
    {"service.queue_wait_ms_max", "ms"},
    {"service.apply_ms_mean", "ms"},
    {"service.coalesce_ratio", "ratio"},
    {"service.max_queue_depth", "count"},
    {"service.generator_late_ms", "ms"},
    {"trace.overhead_ms", "ms"},
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "lmrbench: %s\nusage: lmrbench --workload mega_route|paper_route|edit_stream "
               "--seed N --seconds S --trace 0|1 [--threads T] [--trace-out FILE]\n",
               why);
  std::exit(2);
}

RunConfig parse(int argc, char** argv) {
  RunConfig cfg;
  bool have_seed = false;
  std::size_t threads = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + a).c_str());
    const std::string v = argv[++i];
    try {
      if (a == "--workload") {
        cfg.workload = v;
      } else if (a == "--seed") {
        cfg.seed = std::stoull(v);
        have_seed = true;
      } else if (a == "--seconds") {
        cfg.seconds = std::stod(v);
      } else if (a == "--trace") {
        if (v != "0" && v != "1") usage("--trace takes 0 or 1");
        cfg.trace = v == "1";
      } else if (a == "--threads") {
        threads = std::stoul(v);
      } else if (a == "--trace-out") {
        cfg.trace_out = v;
      } else {
        usage(("unknown argument " + a).c_str());
      }
    } catch (const std::logic_error&) {
      usage(("bad value for " + a).c_str());
    }
  }
  if (cfg.workload != "mega_route" && cfg.workload != "paper_route" &&
      cfg.workload != "edit_stream") {
    usage("unknown workload");
  }
  if (!have_seed) usage("--seed is required");
  if (!(cfg.seconds > 0.0 && cfg.seconds <= 120.0)) usage("--seconds must be in (0, 120]");
  const std::size_t nproc = lmr::exec::resolve_threads(0);
  if (threads > nproc) {
    std::fprintf(stderr, "lmrbench: refusing --threads %zu: the host has %zu\n", threads,
                 nproc);
    std::exit(2);
  }
  cfg.threads = threads == 0 ? nproc : threads;
  if (cfg.threads < 2 && cfg.workload == "edit_stream") {
    usage("edit_stream needs 2 threads: a service worker and the generator");
  }
  return cfg;
}

}  // namespace

int main(int argc, char** argv) {
  const RunConfig cfg = parse(argc, argv);
  Outcome out;
  lmrbench::Tracer tracer;
  lmrbench::Tracer* t = cfg.trace ? &tracer : nullptr;

  std::printf("# lmrbench %s seed %llu, %.1f s, threads %zu of nproc %zu%s\n",
              cfg.workload.c_str(), static_cast<unsigned long long>(cfg.seed), cfg.seconds,
              cfg.threads, lmr::exec::resolve_threads(0), cfg.trace ? ", traced" : "");
  try {
    if (cfg.workload == "edit_stream") {
      lmrbench::run_edit_stream(cfg, t, out);
    } else {
      lmrbench::run_route_workload(cfg, t, out);
    }
  } catch (const std::exception& e) {
    out.fail(std::string("run aborted: ") + e.what());
  }
  out.set("peak_rss_mb", lmrbench::peak_rss_mb());
  if (out.attempted == 0) out.attempted = 1;

  if (t != nullptr && !cfg.trace_out.empty()) {
    if (tracer.write_chrome_json(cfg.trace_out)) {
      out.note("trace: " + std::to_string(tracer.size()) + " spans written to " +
               cfg.trace_out);
    } else {
      out.fail("cannot write " + cfg.trace_out);
    }
  }

  for (const std::string& line : out.notes()) std::printf("# %s\n", line.c_str());
  std::printf("# failed_frac       %.6f  (%zu of %zu)\n",
              static_cast<double>(out.failed) / static_cast<double>(out.attempted), out.failed,
              out.attempted);
  for (const std::string& why : out.failures()) std::printf("# FAILED: %s\n", why.c_str());

  bool finite = true;
  std::string metrics;
  for (const MetricDef& m : cfg.trace ? std::span<const MetricDef>(kPerLayer)
                                      : std::span<const MetricDef>(kEndToEnd)) {
    const auto it = out.values().find(m.name);
    const double v = it == out.values().end() ? 0.0 : it->second;
    if (!std::isfinite(v)) finite = false;
    char buf[256];
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  metrics.empty() ? "" : ", ", m.name, std::isfinite(v) ? v : 0.0, m.unit);
    metrics += buf;
    if (!cfg.trace) std::printf("# %-17s %.6g %s\n", m.name, v, m.unit);
  }
  const bool correct = out.failed == 0 && finite;
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": {%s}}\n",
              correct ? "true" : "false", out.attempted, out.failed, metrics.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

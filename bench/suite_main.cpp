/// \file suite_main.cpp
/// `bench_suite` — run the scenario-family benchmark suite and write the
/// tracked results file (see EXPERIMENTS.md "Benchmark suite").
///
///   bench_suite [--smoke] [--out PATH] [--family NAME]... [--threads N]
///               [--no-drc] [--edit-storm] [--service]
///               [--fault-storm] [--seed N] [--list]
///   bench_suite --compare A B
///
/// Exit code 0 when every case is ok (matched where expected, DRC-clean).
/// Timings, run context and the sections below land under the document's
/// one volatile member (report.hpp). `--edit-storm` replays the seeded edit
/// scripts on live sessions under `"edit_storm"` and *fails the run* unless
/// every incremental end state is bit-identical to a fresh route of the
/// edited board; `--service` replays the multi-board service_storm streams
/// through a RoutingService at every default thread count
/// (Suite::default_scaling_threads) under `"service"`, with the same hard
/// bit-identical-per-board gate (evictions and thaws included);
/// `--fault-storm` replays the seeded fault_storm catalogue (transient
/// faults, deadline timeouts, quarantine + resurrect) at the same thread
/// counts under `"fault_storm"` and fails unless every board converges to
/// the fault-free end state and each storm's fault gates fired
/// (`--seed N` re-seeds the rule synthesis for reproduction).
/// `--compare A B` exits 0 when two result files are equal without their
/// volatile member, 1 when they differ and 2 when one cannot be read.

#include <charconv>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_harness/report.hpp"
#include "bench_harness/suite.hpp"

namespace {

void usage(const char* argv0) {
  std::printf(
      "usage: %s [--smoke] [--out PATH] [--family NAME]... [--threads N] [--no-drc] "
      "[--edit-storm] [--service] [--fault-storm] "
      "[--seed N] [--list]\n"
      "       %s --compare A B\n"
      "  --smoke        tiny per-family variants (CI-sized seeds)\n"
      "  --out PATH     results file (default BENCH_results.json)\n"
      "  --family NAME  run only this family (repeatable; default all)\n"
      "  --threads N    pool parallelism across cases/groups/members (0 = hardware)\n"
      "  --no-drc       skip the final oracle sweep\n"
      "  --edit-storm   also replay seeded edit scripts on live sessions; fails\n"
      "                 unless each end state matches a fresh route bit for bit\n"
      "  --service      also replay multi-board service storms through a\n"
      "                 RoutingService at 1/2/4/hw threads; fails unless every\n"
      "                 board's end state matches a fresh route bit for bit\n"
      "  --fault-storm  also replay fault-injected service storms (transient,\n"
      "                 timeout, quarantine kinds) at 1/2/4/hw threads; fails\n"
      "                 unless every board converges to the fault-free end state\n"
      "                 and each storm's fault gates fired\n"
      "  --seed N       re-seed the fault-storm rule synthesis (reproduction)\n"
      "  --list         print family names and exit\n"
      "  --compare A B  exit 0 if two result files are equal without their\n"
      "                 volatile member, 1 if they differ, 2 if unreadable\n",
      argv0, argv0);
}

/// Parse all of `text` as a decimal count into `out`; on a sign, a
/// trailing character, an empty string or overflow, say so and fail.
template <class T>
bool parse_count(const char* flag, const char* text, T& out) {
  const char* end = text + std::strlen(text);
  const auto [ptr, ec] = std::from_chars(text, end, out);
  if (ec == std::errc{} && ptr == end) return true;
  std::fprintf(stderr, "%s wants a non-negative integer, got '%s'\n", flag, text);
  return false;
}

int compare(const char* a, const char* b) {
  try {
    if (lmr::bench::strip_volatile(lmr::bench::read_json_file(a)) ==
        lmr::bench::strip_volatile(lmr::bench::read_json_file(b))) {
      std::printf("stripped documents identical\n");
      return 0;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "compare failed: %s\n", e.what());
    return 2;
  }
  std::fprintf(stderr, "stripped documents differ: %s vs %s\n", a, b);
  return 1;
}

/// Print one storm table, report every missed gate or failed board on
/// stderr, and file the storms as `key` under the document's volatile
/// member. Returns true when every point of every storm is ok.
bool report_storms(lmr::bench::Json& doc, const char* key, const char* title,
                   const std::vector<lmr::bench::StormOutcome>& storms) {
  std::printf("\n%s:\n", title);
  std::printf("%-28s %-7s %-9s %-9s %-7s %-6s %-5s %-7s %-6s %-6s %-4s %-5s %-4s %-4s %-3s\n",
              "storm", "threads", "replay[s]", "edits/s", "batches", "coalsc", "thaws",
              "retries", "faults", "tmouts", "quar", "resur", "drop", "gate", "eq");
  bool ok = true;
  for (const lmr::bench::StormOutcome& s : storms) {
    for (const lmr::bench::StormPoint& p : s.points) {
      const lmr::service::ServiceTotals& t = p.totals;
      std::printf("%-28s %-7zu %-9.3f %-9.1f %-7" PRIu64 " %-6" PRIu64 " %-5" PRIu64
                  " %-7" PRIu64 " %-6" PRIu64 " %-6" PRIu64 " %-4" PRIu64 " %-5" PRIu64
                  " %-4" PRIu64 " %-4s %-3s\n",
                  s.name.c_str(), p.threads, p.replay_s, p.edits_per_s, t.batches,
                  t.coalesced_batches, t.thaws, t.retries, t.injected_faults, t.timeouts,
                  t.quarantines, t.resurrections, t.dropped_edits, p.gates_ok ? "yes" : "NO",
                  p.all_equivalent ? "yes" : "NO");
      if (!p.gates_ok) {
        std::fprintf(stderr, "%s storm %s @%zu threads: gates missed\n", s.kind.c_str(),
                     s.name.c_str(), p.threads);
        ok = false;
      }
      for (const lmr::bench::StormBoard& b : p.boards) {
        if (b.ok()) continue;
        std::fprintf(stderr, "%s storm %s @%zu threads: board %s %s%s%s: %s\n",
                     s.kind.c_str(), s.name.c_str(), p.threads, b.board.c_str(),
                     b.equivalent ? "" : "NOT equivalent ",
                     b.prefix_equivalent ? "" : "prefix mismatch ",
                     b.recovered ? "" : "NOT recovered", b.mismatch.c_str());
        ok = false;
      }
    }
  }
  doc[lmr::bench::kVolatile][key] = lmr::bench::Suite::storm_json(storms);
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  lmr::bench::SuiteOptions opts;
  std::string out_path = "BENCH_results.json";
  bool edit_storm = false;
  bool service = false;
  bool fault_storm = false;
  std::uint64_t fault_seed = 0;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      opts.smoke = true;
    } else if (arg == "--edit-storm") {
      edit_storm = true;
    } else if (arg == "--service") {
      service = true;
    } else if (arg == "--fault-storm") {
      fault_storm = true;
    } else if (arg == "--seed" && i + 1 < argc) {
      if (!parse_count("--seed", argv[++i], fault_seed)) return 2;
    } else if (arg == "--compare" && i + 2 < argc) {
      return compare(argv[i + 1], argv[i + 2]);
    } else if (arg == "--no-drc") {
      opts.router.run_drc = false;
    } else if (arg == "--list") {
      for (const std::string& name : lmr::scenario::family_names()) {
        std::printf("%s\n", name.c_str());
      }
      return 0;
    } else if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else if (arg == "--family" && i + 1 < argc) {
      opts.families.emplace_back(argv[++i]);
    } else if (arg == "--threads" && i + 1 < argc) {
      if (!parse_count("--threads", argv[++i], opts.threads)) return 2;
    } else if (arg == "--help" || arg == "-h") {
      usage(argv[0]);
      return 0;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      usage(argv[0]);
      return 2;
    }
  }

  const lmr::bench::Suite suite(opts);
  lmr::bench::SuiteResult result;
  try {
    result = suite.run();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "suite failed: %s\n", e.what());
    return 2;
  }

  std::printf("%-16s %-24s %-5s %-8s %-8s %-8s %-6s %-5s %-8s\n", "family", "scenario",
              "seed", "MaxIni%", "Max%", "Avg%", "drc", "ok", "t[s]");
  for (const lmr::bench::CaseOutcome& c : result.cases) {
    double max_ini = 0.0, max_e = 0.0, avg_sum = 0.0;
    std::size_t members = 0, viol = 0;
    for (const lmr::bench::GroupOutcome& g : c.groups) {
      max_ini = std::max(max_ini, g.initial_max_error_pct);
      max_e = std::max(max_e, g.max_error_pct);
      avg_sum += g.avg_error_pct * static_cast<double>(g.members);
      members += g.members;
      viol += g.net_violations + g.cross_violations;
    }
    const double avg_e = members > 0 ? avg_sum / static_cast<double>(members) : 0.0;
    std::printf("%-16s %-24s %-5llu %-8.2f %-8.2f %-8.2f %-6zu %-5s %-8.2f\n",
                c.family.c_str(), c.scenario.c_str(),
                static_cast<unsigned long long>(c.seed), max_ini, max_e, avg_e, viol,
                c.ok() ? "yes" : "NO", c.runtime_s);
  }
  std::printf("total: %zu cases in %.2f s\n", result.cases.size(), result.runtime_s);

  lmr::bench::Json doc = lmr::bench::Suite::to_json(result, opts);

  const std::vector<std::size_t> counts = lmr::bench::Suite::default_scaling_threads();

  bool storms_ok = true;
  if (edit_storm) {
    std::vector<lmr::bench::EditStormOutcome> storms;
    try {
      storms = suite.run_edit_storm();
    } catch (const std::exception& e) {
      std::fprintf(stderr, "edit-storm replay failed: %s\n", e.what());
      return 2;
    }
    std::printf("\nedit storms (incremental reroute vs fresh route of edited board):\n");
    std::printf("%-28s %-6s %-10s %-6s %-10s %-10s %-8s %-5s\n", "storm", "edits",
                "rerouted", "total", "reroute[s]", "full[s]", "speedup", "eq");
    for (const lmr::bench::EditStormOutcome& s : storms) {
      std::printf("%-28s %-6zu %-10zu %-6zu %-10.3f %-10.3f %-8.2f %-5s\n",
                  s.name.c_str(), s.edits, s.rerouted_total, s.groups_total,
                  s.reroute_total_s, s.full_route_s, s.speedup,
                  s.equivalent ? "yes" : "NO");
      if (!s.equivalent) {
        std::fprintf(stderr, "edit storm %s NOT equivalent to fresh route: %s\n",
                     s.name.c_str(), s.mismatch.c_str());
        storms_ok = false;
      }
    }
    doc[lmr::bench::kVolatile]["edit_storm"] = lmr::bench::Suite::edit_storm_json(storms);
  }

  try {
    if (service) {
      storms_ok = report_storms(doc, "service",
                                "service storms (multi-board replay through RoutingService)",
                                suite.run_service(counts)) &&
                  storms_ok;
    }
    if (fault_storm) {
      storms_ok = report_storms(doc, "fault_storm",
                                "fault storms (fault-injected replay through RoutingService)",
                                suite.run_fault_storm(counts, fault_seed)) &&
                  storms_ok;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "storm replay failed: %s\n", e.what());
    return 2;
  }

  const int write_rc = lmr::bench::write_results_file(out_path, doc);
  if (write_rc != 0) return write_rc;
  return result.all_ok() && storms_ok ? 0 : 1;
}

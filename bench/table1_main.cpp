/// \file table1_main.cpp
/// Regenerates Table I: overall length-matching performance on the five
/// generated cases — Initial vs AiDT-style baseline vs Ours (DP + MSDTW).
/// Both flows run through the `pipeline::Router` facade (baseline selection
/// via `RouterOptions::engine`). Prints measured Max/Avg error (Eq. 19) and
/// runtime, with the paper's reported values alongside for shape comparison
/// (see EXPERIMENTS.md), and writes the measurements through the harness
/// writer:
///
///   bench_table1 [--json PATH]     (default BENCH_table1.json)

#include <cstdio>
#include <cstring>
#include <string>

#include "bench_harness/report.hpp"
#include "pipeline/router.hpp"
#include "workload/metrics.hpp"
#include "workload/table1_cases.hpp"

namespace {

struct Row {
  int id;
  double target;
  double dgap;
  int group_size;
  const char* type;
  const char* spacing;
  lmr::workload::ErrorStats initial, aidt, ours;
  double t_aidt, t_ours;
};

Row run_case(int k) {
  Row row{};
  {
    const auto c = lmr::workload::table1_case(k);
    row.id = c.id;
    row.target = c.target;
    row.dgap = c.rules.gap;
    row.group_size = c.group_size;
    row.type = c.trace_type == "differential" ? "differential" : "single-ended";
    row.spacing = c.spacing == "dense" ? "dense" : "sparse";
    row.initial = lmr::workload::matching_errors(
        lmr::workload::group_member_lengths(c.layout), c.target);
  }
  {
    // The AiDT-style run: greedy fixed-geometry tuning per member; pairs the
    // "common way" (§V-A) — naive DTW median tuned as a wide trace, restored.
    auto c = lmr::workload::table1_case(k);
    lmr::pipeline::RouterOptions opts;
    opts.engine = lmr::pipeline::Engine::AidtStyle;
    opts.run_drc = false;  // Table I times the matching flow only
    opts.threads = 1;      // both timed columns measure serial work
    const lmr::pipeline::Router router(c.rules, opts);
    row.t_aidt = router.route_batch(c.layout).group.runtime_s;
    row.aidt = lmr::workload::matching_errors(
        lmr::workload::group_member_lengths(c.layout), c.target);
  }
  {
    auto c = lmr::workload::table1_case(k);
    lmr::pipeline::RouterOptions opts;
    // Fine grid: quantized pattern widths stay within one step of the gap
    // rule, matching the baseline's constant width.
    opts.extender.l_disc = 0.5;
    opts.extender.max_width_steps = 24;
    opts.run_drc = false;
    opts.threads = 1;
    const lmr::pipeline::Router router(c.rules, opts);
    row.t_ours = router.route_batch(c.layout).group.runtime_s;
    row.ours = lmr::workload::matching_errors(
        lmr::workload::group_member_lengths(c.layout), c.target);
  }
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path = "BENCH_table1.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--json PATH]\n", argv[0]);
      return 2;
    }
  }
  std::printf("Table I: length-matching performance (AiDT-style baseline vs Ours)\n");
  std::printf(
      "%-4s %-8s %-5s %-4s %-13s %-7s | %-7s %-7s %-7s | %-7s %-7s %-7s | %-8s %-8s\n",
      "case", "ltarget", "dgap", "n", "type", "space", "MaxIni%", "MaxAiDT", "MaxOurs",
      "AvgIni%", "AvgAiDT", "AvgOurs", "t_AiDT", "t_Ours");
  // Paper-reported rows for shape comparison.
  const double paper[5][8] = {
      // MaxIni, MaxAllegro, MaxOurs, AvgIni, AvgAllegro, AvgOurs, tAllegro, tOurs
      {37.38, 33.52, 3.02, 19.02, 14.23, 1.30, 0.92, 6.87},
      {35.99, 28.06, 3.93, 19.41, 11.04, 1.39, 0.78, 3.98},
      {35.91, 20.91, 3.51, 20.06, 8.66, 1.37, 0.81, 5.27},
      {30.99, 22.25, 5.46, 17.22, 9.85, 1.83, 0.72, 2.86},
      {26.55, 10.21, 10.30, 15.18, 5.14, 3.32, 5.07, 3.22},
  };
  lmr::bench::Json cases = lmr::bench::Json::array();
  for (int k = 1; k <= 5; ++k) {
    const Row r = run_case(k);
    std::printf(
        "%-4d %-8.2f %-5.2f %-4d %-13s %-7s | %-7.2f %-7.2f %-7.2f | %-7.2f %-7.2f %-7.2f "
        "| %-8.2f %-8.2f\n",
        r.id, r.target, r.dgap, r.group_size, r.type, r.spacing, r.initial.max_error_pct,
        r.aidt.max_error_pct, r.ours.max_error_pct, r.initial.avg_error_pct,
        r.aidt.avg_error_pct, r.ours.avg_error_pct, r.t_aidt, r.t_ours);
    const double* p = paper[k - 1];
    std::printf(
        "     (paper: Max %5.2f / %5.2f / %5.2f   Avg %5.2f / %5.2f / %5.2f   t %4.2f / "
        "%4.2f)\n",
        p[0], p[1], p[2], p[3], p[4], p[5], p[6], p[7]);

    lmr::bench::Json jc = lmr::bench::Json::object();
    jc["case"] = static_cast<std::int64_t>(r.id);
    jc["target"] = r.target;
    jc["group_size"] = static_cast<std::int64_t>(r.group_size);
    jc["type"] = r.type;
    jc["spacing"] = r.spacing;
    jc["initial_max_error_pct"] = r.initial.max_error_pct;
    jc["initial_avg_error_pct"] = r.initial.avg_error_pct;
    jc["aidt_max_error_pct"] = r.aidt.max_error_pct;
    jc["aidt_avg_error_pct"] = r.aidt.avg_error_pct;
    jc["ours_max_error_pct"] = r.ours.max_error_pct;
    jc["ours_avg_error_pct"] = r.ours.avg_error_pct;
    jc["aidt_runtime_s"] = r.t_aidt;
    jc["ours_runtime_s"] = r.t_ours;
    cases.push_back(std::move(jc));
  }

  lmr::bench::Json doc = lmr::bench::Json::object();
  doc["schema"] = "lmroute-bench-table1/v1";
  doc["run"] = lmr::bench::run_info_json(lmr::bench::collect_run_info());
  doc["cases"] = std::move(cases);
  return lmr::bench::write_results_file(json_path, doc);
}

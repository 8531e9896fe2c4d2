// Figure 10: normalized ILM/Pack parameters across steady-cache-utilization
// thresholds — TPM, NumRowsPacked, NumRowsSkipped (each normalized to its
// maximum across the sweep, as in the paper).
//
// Paper result: at lower thresholds more rows are packed; the number of
// hot rows skipped grows slowly with the threshold (more rows qualify as
// hot); TPM is mostly unaffected because hot data is retained at every
// threshold.

#include <cstdio>

#include "harness/experiment.h"

using namespace btrim;
using namespace btrim::bench;

int main() {
  PrintHeader("Fig. 10 — Normalized ILM/Pack parameters vs steady threshold",
              "TPM / rows packed / rows skipped-hot, normalized to the "
              "sweep maximum.");

  struct Point {
    int pct;
    double tpm;
    double packed;
    double skipped;
  };
  std::vector<Point> points;
  for (int pct : {50, 60, 70, 80, 90}) {
    RunConfig on;
    on.label = "steady=" + std::to_string(pct) + "%";
    on.scale = DefaultScale();
    on.steady_cache_pct = pct / 100.0;
    // Faster drain per cycle so HWM tracks the knob tightly even during
    // the initial fill burst (single-core runs schedule pack less often).
    on.pack_cycle_pct = 0.10;
    RunOutcome run = RunTpcc(on);
    const obs::MetricsRegistry& m = *run.db->metrics_registry();
    points.push_back(
        Point{pct, run.tpm, static_cast<double>(m.Value("pack.rows_packed")),
              static_cast<double>(m.Value("pack.rows_skipped_hot"))});
  }

  double max_tpm = 0, max_packed = 0, max_skipped = 0;
  for (const Point& p : points) {
    max_tpm = std::max(max_tpm, p.tpm);
    max_packed = std::max(max_packed, p.packed);
    max_skipped = std::max(max_skipped, p.skipped);
  }
  auto norm = [](double v, double m) { return m > 0 ? v / m : 0.0; };

  std::vector<std::vector<double>> rows;
  for (const Point& p : points) {
    rows.push_back({static_cast<double>(p.pct), norm(p.tpm, max_tpm),
                    norm(p.packed, max_packed),
                    norm(p.skipped, max_skipped)});
  }
  PrintSeries("fig10",
              {"steady_threshold_pct", "norm_tpm", "norm_rows_packed",
               "norm_rows_skipped"},
              rows);

  printf("raw values:\n");
  for (const Point& p : points) {
    printf("  %2d%%: tpm=%.0f rows_packed=%.0f rows_skipped=%.0f\n", p.pct,
           p.tpm, p.packed, p.skipped);
  }
  printf("paper shape: rows packed falls as the threshold rises; TPM stays "
         "roughly flat; skips stay modest.\n");
  return 0;
}

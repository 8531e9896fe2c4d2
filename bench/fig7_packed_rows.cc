// Figure 7: Distribution of packed rows across tables, aggregated over 4
// runs (as in the paper).
//
// Paper result: pack concentrates almost entirely on the large low-reuse
// tables (order_line, orders, history, new_orders); the hot warehouse
// table loses only a few hundred rows across all runs.

#include <cstdio>
#include <map>

#include "harness/experiment.h"

using namespace btrim;
using namespace btrim::bench;

int main() {
  PrintHeader("Fig. 7 — Packed rows across tables (4 runs aggregated)",
              "rows selected for pack per table; high-footprint low-reuse "
              "partitions are taxed most (Sec. VI.C).");

  std::map<std::string, int64_t> packed;
  std::map<std::string, int64_t> reuse;
  std::map<std::string, int64_t> footprint;
  constexpr int kRuns = 4;
  for (int r = 0; r < kRuns; ++r) {
    RunConfig on;
    on.label = "ILM_ON run " + std::to_string(r + 1);
    on.scale = DefaultScale();
    on.seed = 100 + static_cast<uint64_t>(r);
    RunOutcome run = RunTpcc(on);
    for (const TableReport& t : run.table_reports) {
      packed[t.name] += t.rows_packed;
      reuse[t.name] += t.reuse_ops;
      footprint[t.name] += t.imrs_bytes;
    }
    printf("run %d: tpm=%.0f rows_packed=%lld\n", r + 1, run.tpm,
           static_cast<long long>(
               run.db->metrics_registry()->Value("pack.rows_packed")));
  }

  printf("\n%-11s %14s %14s %16s\n", "table", "rows_packed",
         "total_reuse", "avg_imrs_KiB");
  printf("\n# CSV fig7\n# table,rows_packed\n");
  for (const std::string& name : TableNames()) {
    printf("%-11s %14lld %14lld %16.1f\n", name.c_str(),
           static_cast<long long>(packed[name]),
           static_cast<long long>(reuse[name]),
           static_cast<double>(footprint[name]) / kRuns / 1024.0);
  }
  for (const std::string& name : TableNames()) {
    printf("# %s,%lld\n", name.c_str(), static_cast<long long>(packed[name]));
  }
  printf("\npaper shape: order_line/orders/history/new_orders dominate the "
         "packed-row counts; warehouse/district are barely touched.\n");
  return 0;
}

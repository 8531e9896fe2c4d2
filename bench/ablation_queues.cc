// Ablation A: per-partition relaxed-LRU queues (the paper's design,
// Sec. VI.B) versus a single database-wide queue.
//
// The paper argues per-partition queues (a) reflect per-partition activity,
// (b) let pack consolidate work per table, and (c) avoid a global queue in
// which cold rows are interleaved with hot rows from other tables. The
// ablation measures pack selection efficiency under both layouts.

#include <cstdio>

#include "harness/experiment.h"

using namespace btrim;
using namespace btrim::bench;

namespace {

struct Report {
  double tpm;
  int64_t rows_packed;
  int64_t rows_skipped;
  int64_t pack_txns;
  double hit_rate;
  int64_t hot_table_rows_packed;  // warehouse + district + customer
};

Report RunMode(QueueMode mode, const char* label) {
  RunConfig config;
  config.label = label;
  config.scale = DefaultScale();
  config.queue_mode = mode;
  RunOutcome run = RunTpcc(config);
  const obs::MetricsRegistry& m = *run.db->metrics_registry();
  Report r;
  r.tpm = run.tpm;
  r.rows_packed = m.Value("pack.rows_packed");
  r.rows_skipped = m.Value("pack.rows_skipped_hot");
  r.pack_txns = m.Value("pack.transactions");
  r.hit_rate = run.HitRate();
  r.hot_table_rows_packed = 0;
  for (const TableReport& t : run.table_reports) {
    if (t.name == "warehouse" || t.name == "district" ||
        t.name == "customer") {
      r.hot_table_rows_packed += t.rows_packed;
    }
  }
  return r;
}

}  // namespace

int main() {
  PrintHeader("Ablation A — per-partition queues vs one global queue",
              "pack selection efficiency under both queue layouts "
              "(Sec. VI.B justification).");

  Report per_part = RunMode(QueueMode::kPerPartition, "per-partition");
  Report global = RunMode(QueueMode::kSingleGlobal, "single global");

  printf("%-26s %16s %16s\n", "metric", "per_partition", "global_queue");
  printf("%-26s %16.0f %16.0f\n", "TPM", per_part.tpm, global.tpm);
  printf("%-26s %16lld %16lld\n", "rows packed",
         static_cast<long long>(per_part.rows_packed),
         static_cast<long long>(global.rows_packed));
  printf("%-26s %16lld %16lld\n", "hot rows skipped",
         static_cast<long long>(per_part.rows_skipped),
         static_cast<long long>(global.rows_skipped));
  printf("%-26s %16lld %16lld\n", "pack transactions",
         static_cast<long long>(per_part.pack_txns),
         static_cast<long long>(global.pack_txns));
  printf("%-26s %16.1f %16.1f\n", "hit rate %", 100.0 * per_part.hit_rate,
         100.0 * global.hit_rate);
  printf("%-26s %16lld %16lld\n", "hot-table rows packed",
         static_cast<long long>(per_part.hot_table_rows_packed),
         static_cast<long long>(global.hot_table_rows_packed));

  const double pp_eff =
      per_part.rows_packed > 0
          ? static_cast<double>(per_part.rows_skipped) /
                static_cast<double>(per_part.rows_packed)
          : 0.0;
  const double g_eff = global.rows_packed > 0
                           ? static_cast<double>(global.rows_skipped) /
                                 static_cast<double>(global.rows_packed)
                           : 0.0;
  printf("%-26s %16.3f %16.3f\n", "skips per packed row", pp_eff, g_eff);
  printf(
      "\ndiscussion: the paper's per-partition queues are about *control*:\n"
      "they make PI-based byte apportioning possible (see "
      "ablation_apportion)\nand protect rows that are cold globally but hot "
      "within their small\npartition. At TPC-C scale the global queue's "
      "head is dominated by the\ncold bulk (order_line), so its raw "
      "locate-cost can look competitive;\nthe per-partition design instead "
      "spends pops skipping delivery-revived\nhot rows inside order_line "
      "(visible as skips-per-packed-row), which is\nexactly the TSF "
      "protecting recently accessed rows that the global order\nwould have "
      "packed. Compare hot-table rows packed and TPM across modes\nand "
      "scales rather than a single scalar.\n");

  printf("\n# CSV ablation_queues\n");
  printf("# mode,tpm,rows_packed,rows_skipped,hot_table_rows_packed\n");
  printf("# per_partition,%.0f,%lld,%lld,%lld\n", per_part.tpm,
         static_cast<long long>(per_part.rows_packed),
         static_cast<long long>(per_part.rows_skipped),
         static_cast<long long>(per_part.hot_table_rows_packed));
  printf("# global,%.0f,%lld,%lld,%lld\n", global.tpm,
         static_cast<long long>(global.rows_packed),
         static_cast<long long>(global.rows_skipped),
         static_cast<long long>(global.hot_table_rows_packed));
  return 0;
}

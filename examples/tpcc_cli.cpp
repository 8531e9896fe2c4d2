// tpcc_cli: standalone TPC-C runner over BTrimDB with command-line knobs —
// the quickest way to poke at ILM behaviour interactively.
//
//   ./build/examples/tpcc_cli [options]
//     --warehouses N      scale factor                     (default 2)
//     --txns N            committed transactions to run    (default 12000)
//     --workers N         concurrent terminals             (default 3)
//     --threads N         alias for --workers (stress runs)
//     --imrs-mb N         IMRS cache size in MiB           (default 12)
//     --steady-pct N      steady cache utilization %       (default 70)
//     --pack-workers N    background pack/GC pool size     (default 1)
//     --ilm on|off        ILM heuristics                   (default on)
//     --page-only         page-store baseline (no IMRS)
//     --partitioned       partition tables by warehouse
//     --window N          report every N commits           (default 2000)
//     --seed N            workload seed                    (default 7)
//     --data-dir DIR      file backend at DIR (default: in-memory)
//     --durability P      none | sync | group              (default none)
//                         sync / group imply a file backend
//     --max-batch N       group commit: groups per batch   (default 64)
//     --max-latency-us N  group commit: leader linger cap  (default 200)
//     --metrics-out FILE  write metrics JSON (registry dump + per-window
//                         time series) to FILE on exit
//     --trace-out FILE    write the trace ring as Chrome trace_event JSON
//                         (load at chrome://tracing) to FILE on exit
//
// Example: compare ILM on/off at a glance:
//   ./build/examples/tpcc_cli --ilm on  --txns 20000
//   ./build/examples/tpcc_cli --ilm off --txns 20000

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "engine/stats_printer.h"
#include "obs/metrics_io.h"
#include "tpcc/driver.h"
#include "tpcc/loader.h"

using namespace btrim;
using namespace btrim::tpcc;

namespace {

struct CliOptions {
  int warehouses = 2;
  int64_t txns = 12000;
  int workers = 3;
  int imrs_mb = 12;
  int steady_pct = 70;
  int pack_workers = 1;
  bool ilm = true;
  bool page_only = false;
  bool partitioned = false;
  int64_t window = 2000;
  uint64_t seed = 7;
  std::string data_dir;
  DurabilityPolicy durability = DurabilityPolicy::kNoSync;
  bool durable = false;  // true once --durability asked for real syncs
  int64_t max_batch = 64;
  int64_t max_latency_us = 200;
  std::string metrics_out;
  std::string trace_out;
};

bool ParseArgs(int argc, char** argv, CliOptions* opts) {
  for (int i = 1; i < argc; ++i) {
    auto int_arg = [&](const char* name, auto* out) {
      if (strcmp(argv[i], name) == 0 && i + 1 < argc) {
        *out = static_cast<std::remove_pointer_t<decltype(out)>>(
            atoll(argv[++i]));
        return true;
      }
      return false;
    };
    if (int_arg("--warehouses", &opts->warehouses)) continue;
    if (int_arg("--txns", &opts->txns)) continue;
    if (int_arg("--workers", &opts->workers)) continue;
    if (int_arg("--threads", &opts->workers)) continue;  // alias for --workers
    if (int_arg("--imrs-mb", &opts->imrs_mb)) continue;
    if (int_arg("--steady-pct", &opts->steady_pct)) continue;
    if (int_arg("--pack-workers", &opts->pack_workers)) continue;
    if (int_arg("--window", &opts->window)) continue;
    if (int_arg("--seed", &opts->seed)) continue;
    if (int_arg("--max-batch", &opts->max_batch)) continue;
    if (int_arg("--max-latency-us", &opts->max_latency_us)) continue;
    if (strcmp(argv[i], "--data-dir") == 0 && i + 1 < argc) {
      opts->data_dir = argv[++i];
      continue;
    }
    if (strcmp(argv[i], "--metrics-out") == 0 && i + 1 < argc) {
      opts->metrics_out = argv[++i];
      continue;
    }
    if (strcmp(argv[i], "--trace-out") == 0 && i + 1 < argc) {
      opts->trace_out = argv[++i];
      continue;
    }
    if (strcmp(argv[i], "--durability") == 0 && i + 1 < argc) {
      const char* p = argv[++i];
      if (strcmp(p, "none") == 0) {
        opts->durability = DurabilityPolicy::kNoSync;
      } else if (strcmp(p, "sync") == 0) {
        opts->durability = DurabilityPolicy::kSyncPerCommit;
      } else if (strcmp(p, "group") == 0) {
        opts->durability = DurabilityPolicy::kGroupCommit;
      } else {
        fprintf(stderr, "--durability wants none|sync|group, got %s\n", p);
        return false;
      }
      opts->durable = opts->durability != DurabilityPolicy::kNoSync;
      continue;
    }
    if (strcmp(argv[i], "--ilm") == 0 && i + 1 < argc) {
      opts->ilm = strcmp(argv[++i], "on") == 0;
      continue;
    }
    if (strcmp(argv[i], "--page-only") == 0) {
      opts->page_only = true;
      continue;
    }
    if (strcmp(argv[i], "--partitioned") == 0) {
      opts->partitioned = true;
      continue;
    }
    fprintf(stderr, "unknown option: %s (see the header of tpcc_cli.cpp)\n",
            argv[i]);
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions cli;
  if (!ParseArgs(argc, argv, &cli)) return 2;

  DatabaseOptions options;
  options.buffer_cache_frames = 8192;
  options.imrs_cache_bytes =
      static_cast<size_t>(cli.imrs_mb) << 20;
  options.lock_timeout_ms = 50;
  options.ilm.ilm_enabled = cli.ilm;
  options.ilm.steady_cache_pct = cli.steady_pct / 100.0;
  options.pack_workers = cli.pack_workers;
  if (!cli.ilm) options.imrs_cache_bytes = 512ull << 20;  // "unlimited"
  if (cli.durable && cli.data_dir.empty()) {
    cli.data_dir = std::filesystem::temp_directory_path().string() +
                   "/btrim_tpcc_cli";
  }
  if (!cli.data_dir.empty()) {
    std::filesystem::create_directories(cli.data_dir);
    options.in_memory = false;
    options.data_dir = cli.data_dir;
  }
  options.durability.policy = cli.durability;
  options.durability.max_batch_groups = cli.max_batch;
  options.durability.max_group_latency_us = cli.max_latency_us;

  Result<std::unique_ptr<Database>> opened = Database::Open(options);
  if (!opened.ok()) {
    fprintf(stderr, "open: %s\n", opened.status().ToString().c_str());
    return 1;
  }
  std::unique_ptr<Database> db = std::move(*opened);

  Scale scale;
  scale.warehouses = cli.warehouses;
  scale.partition_by_warehouse = cli.partitioned;
  Result<Tables> tables = CreateTables(db.get(), scale);
  if (!tables.ok()) {
    fprintf(stderr, "tables: %s\n", tables.status().ToString().c_str());
    return 1;
  }

  printf("loading TPC-C: %d warehouse(s)...\n", cli.warehouses);
  WallTimer load_timer;
  Status load = LoadDatabase(db.get(), *tables, scale, cli.seed);
  if (!load.ok()) {
    fprintf(stderr, "load: %s\n", load.ToString().c_str());
    return 1;
  }
  printf("loaded in %.2fs\n\n", load_timer.ElapsedSeconds());

  if (cli.page_only) db->ilm()->SetForcePageStore(true);

  TpccContext ctx;
  ctx.db = db.get();
  ctx.tables = *tables;
  ctx.scale = scale;
  ctx.next_history_id = static_cast<int64_t>(scale.warehouses) *
                            scale.districts_per_warehouse *
                            scale.customers_per_district +
                        1;

  db->StartBackground();
  DriverOptions dopt;
  dopt.workers = cli.workers;
  dopt.total_txns = cli.txns;
  dopt.seed = cli.seed;
  dopt.window_txns = cli.window;
  WallTimer run_timer;
  dopt.window_observer = [&](int64_t committed) {
    // One time-series sample per window: the figures' x-axis (committed
    // transactions) comes straight from the sampler markers.
    db->metrics_sampler()->SampleNow(committed);
    const obs::MetricsRegistry& m = *db->metrics_registry();
    const int64_t imrs_ops = m.Value("engine.imrs_ops");
    const double hit =
        100.0 * static_cast<double>(imrs_ops) /
        static_cast<double>(
            std::max<int64_t>(imrs_ops + m.Value("engine.page_ops"), 1));
    printf("  %8lld txns  %7.1fs  imrs=%6lld KiB  hit=%5.1f%%  "
           "packed=%lld rows\n",
           static_cast<long long>(committed), run_timer.ElapsedSeconds(),
           static_cast<long long>(m.Value("imrs_cache.in_use_bytes") / 1024),
           hit, static_cast<long long>(m.Value("pack.rows_packed")));
  };
  TpccDriver driver(&ctx, dopt);
  Status reg = driver.RegisterMetrics(db->metrics_registry());
  if (!reg.ok()) {
    fprintf(stderr, "driver metrics: %s\n", reg.ToString().c_str());
    return 1;
  }
  DriverStats stats = driver.Run();
  db->StopBackground();
  // Final tpcc.* values survive as retained samples in the export below.
  driver.UnregisterMetrics(db->metrics_registry());

  printf("\n%.0f TPM  (%lld committed, %lld aborts, %lld rollbacks)\n",
         stats.Tpm(), static_cast<long long>(stats.committed),
         static_cast<long long>(stats.system_aborts),
         static_cast<long long>(stats.user_aborts));
  printf("latency us: mean=%.0f p50=%lld p95=%lld p99=%lld\n",
         stats.latency_mean_us,
         static_cast<long long>(stats.latency_p50_us),
         static_cast<long long>(stats.latency_p95_us),
         static_cast<long long>(stats.latency_p99_us));
  const obs::MetricsRegistry& metrics = *db->metrics_registry();
  if (cli.durable && stats.committed > 0) {
    const int64_t syncs = metrics.Value("wal.syncs");  // both logs
    printf("durability: %lld fsyncs for %lld commits (%.3f fsyncs/commit, "
           "%lld elided)\n",
           static_cast<long long>(syncs),
           static_cast<long long>(stats.committed),
           static_cast<double>(syncs) / static_cast<double>(stats.committed),
           static_cast<long long>(metrics.Value("wal.syncs_elided")));
  }
  printf("\n%s\n%s", FormatDatabaseStats(metrics).c_str(),
         FormatTableBreakdown(db.get()).c_str());

  if (!cli.metrics_out.empty()) {
    // Final sample so the series always ends at the run's last state.
    db->metrics_sampler()->SampleNow(stats.committed);
    std::vector<obs::MetaEntry> meta = {
        {"bench", "tpcc", false},
        {"warehouses", std::to_string(cli.warehouses), true},
        {"workers", std::to_string(cli.workers), true},
        {"txns", std::to_string(cli.txns), true},
        {"window", std::to_string(cli.window), true},
        {"seed", std::to_string(cli.seed), true},
        {"ilm", cli.ilm ? "true" : "false", true},
        {"steady_pct", std::to_string(cli.steady_pct), true},
        {"durability",
         cli.durability == DurabilityPolicy::kNoSync ? "none"
         : cli.durability == DurabilityPolicy::kSyncPerCommit ? "sync"
                                                              : "group",
         false},
        {"committed", std::to_string(stats.committed), true},
        {"tpm", std::to_string(stats.Tpm()), true},
        {"latency_p95_us", std::to_string(stats.latency_p95_us), true},
    };
    Status s = obs::WriteMetricsFile(cli.metrics_out, meta,
                                     *db->metrics_registry(),
                                     db->metrics_sampler());
    if (!s.ok()) {
      fprintf(stderr, "metrics-out: %s\n", s.ToString().c_str());
      return 1;
    }
    printf("metrics written to %s\n", cli.metrics_out.c_str());
  }
  if (!cli.trace_out.empty()) {
    Status s = obs::WriteChromeTraceFile(cli.trace_out);
    if (!s.ok()) {
      fprintf(stderr, "trace-out: %s\n", s.ToString().c_str());
      return 1;
    }
    printf("trace written to %s (load at chrome://tracing)\n",
           cli.trace_out.c_str());
  }
  return 0;
}

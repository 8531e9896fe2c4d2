// btrim_server: the networked front-end as a standalone process — binds the
// wire protocol (DESIGN.md Sec. 16) to a fresh in-memory BTrimDB with a
// TPC-C dataset and a kv-shaped table preloaded.
//
//   ./build/tools/btrim_server [options]
//     --host H                listen address            (default 127.0.0.1)
//     --port N                listen port, 0=ephemeral  (default 7421)
//     --lanes N               event loops, each running its connections'
//                             requests to completion    (default 4)
//     --max-inflight N        admission-control cap     (default 256)
//     --warehouses N          TPC-C scale, 0=no TPC-C   (default 1)
//     --kv-rows N             rows preloaded into `kv`  (default 10000)
//     --kv-value-bytes N      preloaded value size      (default 64)
//     --imrs-mb N             IMRS cache size in MiB    (default 12)
//     --pack-workers N        background pack/GC pool   (default 1)
//     --steady-pct N          steady cache utilization  (default 70)
//     --seed N                load + server seed        (default 7)
//     --sample-interval-ms N  sampler cadence, 0=off    (default 250)
//     --metrics-out FILE      metrics JSON on shutdown
//     --tag NAME              meta.tag in the export    (default "server")
//     --ready-file FILE       write "<port>\n" once listening (CI rendezvous)
//
// Runs until SIGTERM/SIGINT, then: stops the server (draining in-flight
// requests), writes the metrics export (net.* finals survive as retained
// samples), and exits 0. CI's server-e2e job treats any other exit status
// as a failed shutdown.

#include <csignal>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>

#include "engine/database.h"
#include "net/server.h"
#include "obs/metrics_io.h"
#include "tpcc/loader.h"

using namespace btrim;

namespace {

volatile std::sig_atomic_t g_stop = 0;

void HandleStop(int) { g_stop = 1; }

struct CliOptions {
  std::string host = "127.0.0.1";
  int port = 7421;
  int lanes = 4;
  int max_inflight = 256;
  int warehouses = 1;
  int64_t kv_rows = 10000;
  int kv_value_bytes = 64;
  int imrs_mb = 12;
  int pack_workers = 1;
  int steady_pct = 70;
  uint64_t seed = 7;
  int sample_interval_ms = 250;
  std::string metrics_out;
  std::string tag = "server";
  std::string ready_file;
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
    auto str_arg = [&](const char* name, std::string* out) {
      if (strcmp(argv[i], name) == 0 && i + 1 < argc) {
        *out = argv[++i];
        return true;
      }
      return false;
    };
    if (int_arg("--port", &opts->port)) continue;
    if (int_arg("--lanes", &opts->lanes)) continue;
    if (int_arg("--max-inflight", &opts->max_inflight)) continue;
    if (int_arg("--warehouses", &opts->warehouses)) continue;
    if (int_arg("--kv-rows", &opts->kv_rows)) continue;
    if (int_arg("--kv-value-bytes", &opts->kv_value_bytes)) continue;
    if (int_arg("--imrs-mb", &opts->imrs_mb)) continue;
    if (int_arg("--pack-workers", &opts->pack_workers)) continue;
    if (int_arg("--steady-pct", &opts->steady_pct)) continue;
    if (int_arg("--seed", &opts->seed)) continue;
    if (int_arg("--sample-interval-ms", &opts->sample_interval_ms)) continue;
    if (str_arg("--host", &opts->host)) continue;
    if (str_arg("--metrics-out", &opts->metrics_out)) continue;
    if (str_arg("--tag", &opts->tag)) continue;
    if (str_arg("--ready-file", &opts->ready_file)) continue;
    fprintf(stderr, "unknown option: %s (see the header of btrim_server.cc)\n",
            argv[i]);
    return false;
  }
  return true;
}

Status LoadKv(Database* db, int64_t rows, int value_bytes) {
  TableOptions o;
  o.name = "kv";
  o.schema = Schema({Column::Int64("k"), Column::String("v", 256)});
  o.primary_key = {0};
  Result<Table*> table = db->CreateTable(std::move(o));
  if (!table.ok()) return table.status();
  const std::string value(static_cast<size_t>(value_bytes), 'v');
  constexpr int64_t kBatch = 256;
  for (int64_t base = 0; base < rows; base += kBatch) {
    std::unique_ptr<Transaction> txn = db->Begin();
    const int64_t end = std::min(rows, base + kBatch);
    for (int64_t k = base; k < end; ++k) {
      RecordBuilder builder(&(*table)->schema());
      builder.AddInt64(k).AddString(value);
      Status s = db->Insert(txn.get(), *table, builder.Finish());
      if (!s.ok()) {
        (void)db->Abort(txn.get());
        return s;
      }
    }
    BTRIM_RETURN_IF_ERROR(db->Commit(txn.get()));
  }
  return Status::OK();
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions cli;
  if (!ParseArgs(argc, argv, &cli)) return 2;

  DatabaseOptions options;
  options.buffer_cache_frames = 8192;
  options.imrs_cache_bytes = static_cast<size_t>(cli.imrs_mb) << 20;
  options.lock_timeout_ms = 50;
  options.ilm.steady_cache_pct = cli.steady_pct / 100.0;
  options.pack_workers = cli.pack_workers;

  Result<std::unique_ptr<Database>> opened = Database::Open(options);
  if (!opened.ok()) {
    fprintf(stderr, "open: %s\n", opened.status().ToString().c_str());
    return 1;
  }
  std::unique_ptr<Database> db = std::move(*opened);

  tpcc::TpccContext ctx;
  const bool with_tpcc = cli.warehouses > 0;
  if (with_tpcc) {
    tpcc::Scale scale;
    scale.warehouses = cli.warehouses;
    Result<tpcc::Tables> tables = tpcc::CreateTables(db.get(), scale);
    if (!tables.ok()) {
      fprintf(stderr, "tables: %s\n", tables.status().ToString().c_str());
      return 1;
    }
    printf("loading TPC-C: %d warehouse(s)...\n", cli.warehouses);
    Status load = tpcc::LoadDatabase(db.get(), *tables, scale, cli.seed);
    if (!load.ok()) {
      fprintf(stderr, "load: %s\n", load.ToString().c_str());
      return 1;
    }
    ctx.db = db.get();
    ctx.tables = *tables;
    ctx.scale = scale;
    ctx.next_history_id = static_cast<int64_t>(scale.warehouses) *
                              scale.districts_per_warehouse *
                              scale.customers_per_district +
                          1;
  }

  if (cli.kv_rows > 0) {
    Status kv = LoadKv(db.get(), cli.kv_rows, cli.kv_value_bytes);
    if (!kv.ok()) {
      fprintf(stderr, "kv load: %s\n", kv.ToString().c_str());
      return 1;
    }
  }

  db->StartBackground();

  net::ServerOptions sopt;
  sopt.host = cli.host;
  sopt.port = cli.port;
  sopt.worker_lanes = cli.lanes;
  sopt.max_inflight = cli.max_inflight;
  sopt.tpcc = with_tpcc ? &ctx : nullptr;
  sopt.seed = cli.seed;
  Result<std::unique_ptr<net::Server>> started =
      net::Server::Start(db.get(), sopt);
  if (!started.ok()) {
    fprintf(stderr, "server: %s\n", started.status().ToString().c_str());
    return 1;
  }
  std::unique_ptr<net::Server> server = std::move(*started);

  std::signal(SIGINT, HandleStop);
  std::signal(SIGTERM, HandleStop);

  printf("listening on %s:%d (lanes=%d, max-inflight=%d, tpcc=%s)\n",
         cli.host.c_str(), server->port(), cli.lanes, cli.max_inflight,
         with_tpcc ? "on" : "off");
  fflush(stdout);
  if (!cli.ready_file.empty()) {
    Status ready = obs::WriteFileOrError(
        cli.ready_file, std::to_string(server->port()) + "\n");
    if (!ready.ok()) {
      fprintf(stderr, "ready-file: %s\n", ready.ToString().c_str());
      return 1;
    }
  }

  WallTimer since_sample;
  while (g_stop == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    if (cli.sample_interval_ms > 0 &&
        since_sample.ElapsedMicros() >= cli.sample_interval_ms * 1000) {
      db->metrics_sampler()->SampleNow(/*marker=*/-1);
      since_sample = WallTimer();
    }
  }

  printf("shutting down...\n");
  server->Stop();  // drains in-flight requests, retires net.* metrics
  server.reset();
  db->StopBackground();

  if (!cli.metrics_out.empty()) {
    db->metrics_sampler()->SampleNow(/*marker=*/-1);
    std::vector<obs::MetaEntry> meta = {
        {"bench", "server", false},
        {"tag", cli.tag, false},
        {"warehouses", std::to_string(cli.warehouses), true},
        {"kv_rows", std::to_string(cli.kv_rows), true},
        {"lanes", std::to_string(cli.lanes), true},
        {"max_inflight", std::to_string(cli.max_inflight), true},
        {"seed", std::to_string(cli.seed), true},
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
  return 0;
}

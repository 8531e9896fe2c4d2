// micro_index — foreground index-path scaling microbenchmark for the
// latch-coupling B+Tree, plus a TPC-C 1-vs-8-worker floor.
//
// The index cells drive a raw BTree over a resident BufferCache (no txn
// layer, no WAL): preload N sequential keys single-threaded, then run a
// fixed per-thread op budget in one of three modes — point_read (random
// Search over the preloaded range), insert (disjoint per-thread key
// ranges above the preload, splitting leaves under each other), mixed
// (alternating search/insert). Reads take only shared frame latches on
// the descent, so point_read throughput must scale with cores; that is
// the property a tree without a tree-wide lock exists to deliver and what
// CI gates.
//
// The TPC-C cells run the full engine (locks, WAL, IMRS) at 1 and 8
// workers; the gate is the blunt floor "8 workers must not be slower
// than 1" — a regression to a serializing index or lock-table path shows
// up here even when the microbench is green.
//
// Unlike micro_pack, these cells are CPU-bound, not sleep-bound, so the
// scaling ratios are NOT machine portable: on a 1-core runner 8 threads
// legitimately run at 1x. Each JSON document therefore records
// hw_threads, and both the in-binary --smoke gate and
// tools/check_regression.py scale the enforced floor by it (>= 3x reads
// at 8 threads needs >= 4 hardware threads; single-core runners gate
// shape and liveness only).
//
// Output: one JSON document (stdout and/or --out FILE) with a row per
// (mode, threads) cell. `--smoke` runs point_read at 1 and 8 threads
// plus the two TPC-C cells and exits non-zero when a hardware-supported
// floor is missed, for CI perf gating.

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/coding.h"
#include "common/random.h"
#include "harness/experiment.h"
#include "index/btree.h"
#include "obs/metrics_registry.h"
#include "page/buffer_cache.h"
#include "page/device.h"

namespace btrim {
namespace {

struct CellParams {
  std::string mode;  // "point_read" | "insert" | "mixed" | "tpcc"
  int threads = 1;
  int64_t keys = 200000;           // preloaded key count (index cells)
  int64_t ops_per_thread = 200000; // per-thread op budget (index cells)
  int64_t frames = 8192;           // buffer-cache frames (index cells)
  int64_t tpcc_txns = 8000;        // committed txns (tpcc cells)
};

struct CellResult {
  std::string mode;
  int threads = 0;
  int64_t ops = 0;
  double wall_s = 0.0;
  double tps = 0.0;
  // Index-cell health counters (deltas over the measured phase).
  int64_t olc_restarts = 0;
  int64_t pessimistic = 0;
  int64_t splits = 0;
};

std::string IntKey(uint64_t v) {
  std::string k;
  PutBigEndian64(&k, v);
  return k;
}

CellResult RunIndexCell(const CellParams& p) {
  MemDevice dev;
  BufferCache cache(static_cast<size_t>(p.frames));
  cache.AttachDevice(1, &dev);
  BTree tree(1, &cache, /*unique=*/true);
  if (!tree.Create().ok()) {
    fprintf(stderr, "micro_index: tree Create failed\n");
    exit(2);
  }
  for (int64_t i = 0; i < p.keys; ++i) {
    if (!tree.Insert(IntKey(static_cast<uint64_t>(i)),
                     static_cast<uint64_t>(i) * 7).ok()) {
      fprintf(stderr, "micro_index: preload failed at key %" PRId64 "\n", i);
      exit(2);
    }
  }

  obs::MetricsRegistry metrics;
  if (!tree.RegisterMetrics(&metrics, {}).ok()) {
    fprintf(stderr, "micro_index: tree metrics failed\n");
    exit(2);
  }
  const int64_t restarts_before = metrics.Value("index.olc_restarts");
  const int64_t pessimistic_before =
      metrics.Value("index.pessimistic_descents");
  const int64_t splits_before = metrics.Value("index.splits");
  std::atomic<bool> go{false};
  std::atomic<int64_t> total_ops{0};
  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(p.threads));
  for (int t = 0; t < p.threads; ++t) {
    threads.emplace_back([&, t] {
      Random rng(static_cast<uint64_t>(0x9E3779B9u) + static_cast<uint64_t>(t));
      while (!go.load(std::memory_order_acquire)) {
      }
      // Per-thread insert range sits above the preload and never overlaps
      // another thread's: contention is on shared leaves/parents during
      // splits, not on individual keys.
      uint64_t next_insert = static_cast<uint64_t>(p.keys) +
                             static_cast<uint64_t>(t) *
                                 static_cast<uint64_t>(p.ops_per_thread);
      int64_t done = 0;
      for (int64_t i = 0; i < p.ops_per_thread; ++i) {
        const bool read = p.mode == "point_read" ||
                          (p.mode == "mixed" && (i & 1) == 0);
        if (read) {
          const uint64_t k = rng.Next() % static_cast<uint64_t>(p.keys);
          Result<uint64_t> r = tree.Search(IntKey(k));
          if (!r.ok() || *r != k * 7) {
            fprintf(stderr, "micro_index: bad read of key %" PRIu64 "\n", k);
            exit(2);
          }
        } else {
          if (!tree.Insert(IntKey(next_insert), next_insert).ok()) {
            fprintf(stderr, "micro_index: insert failed\n");
            exit(2);
          }
          ++next_insert;
        }
        ++done;
      }
      total_ops.fetch_add(done, std::memory_order_relaxed);
    });
  }

  WallTimer timer;
  go.store(true, std::memory_order_release);
  for (std::thread& th : threads) th.join();
  const double wall_s = static_cast<double>(timer.ElapsedMicros()) / 1e6;

  CellResult r;
  r.mode = p.mode;
  r.threads = p.threads;
  r.ops = total_ops.load();
  r.wall_s = wall_s;
  r.tps = wall_s > 0 ? static_cast<double>(r.ops) / wall_s : 0.0;
  r.olc_restarts = metrics.Value("index.olc_restarts") - restarts_before;
  r.pessimistic =
      metrics.Value("index.pessimistic_descents") - pessimistic_before;
  r.splits = metrics.Value("index.splits") - splits_before;
  return r;
}

CellResult RunTpccCell(const CellParams& p) {
  bench::RunConfig config;
  config.label = "micro_index_tpcc_" + std::to_string(p.threads) + "w";
  config.scale = bench::DefaultScale();
  // Four warehouses so eight terminals have somewhere to spread out; the
  // gate only asks that they not be *slower* than one.
  config.scale.warehouses = 4;
  config.workers = p.threads;
  config.total_txns = p.tpcc_txns;
  config.window_txns = p.tpcc_txns;  // no mid-run sampling needed
  bench::RunOutcome outcome = bench::RunTpcc(config);

  CellResult r;
  r.mode = "tpcc";
  r.threads = p.threads;
  r.ops = outcome.driver.committed;
  r.wall_s = outcome.driver.wall_seconds;
  r.tps = r.wall_s > 0 ? static_cast<double>(r.ops) / r.wall_s : 0.0;
  return r;
}

void AppendCellJson(std::string* out, const CellResult& r) {
  char buf[320];
  snprintf(buf, sizeof(buf),
           "    {\"mode\": \"%s\", \"threads\": %d, \"ops\": %" PRId64
           ", \"wall_s\": %.4f, \"tps\": %.1f, \"olc_restarts\": %" PRId64
           ", \"pessimistic\": %" PRId64 ", \"splits\": %" PRId64 "}",
           r.mode.c_str(), r.threads, r.ops, r.wall_s, r.tps, r.olc_restarts,
           r.pessimistic, r.splits);
  out->append(buf);
}

// Hardware-supported floor for the point_read 8t/1t throughput ratio.
// Mirrored in tools/check_regression.py — keep the two in sync.
double ReadScalingFloor(unsigned hw) {
  if (hw >= 4) return 3.0;
  if (hw >= 2) return 1.4;
  return 0.0;  // single hardware thread: no parallel speedup to gate
}

}  // namespace
}  // namespace btrim

int main(int argc, char** argv) {
  using namespace btrim;

  CellParams base;
  std::string out_path;
  bool smoke = false;
  bool no_tpcc = false;
  std::vector<int> thread_counts = {1, 2, 4, 8};
  std::vector<std::string> modes = {"point_read", "insert", "mixed"};

  for (int i = 1; i < argc; ++i) {
    auto int_arg = [&](const char* flag, int64_t* value) {
      if (strcmp(argv[i], flag) == 0 && i + 1 < argc) {
        *value = atoll(argv[++i]);
        return true;
      }
      return false;
    };
    auto str_arg = [&](const char* flag, std::string* value) {
      if (strcmp(argv[i], flag) == 0 && i + 1 < argc) {
        *value = argv[++i];
        return true;
      }
      return false;
    };
    if (int_arg("--keys", &base.keys)) continue;
    if (int_arg("--ops", &base.ops_per_thread)) continue;
    if (int_arg("--frames", &base.frames)) continue;
    if (int_arg("--tpcc-txns", &base.tpcc_txns)) continue;
    if (str_arg("--out", &out_path)) continue;
    if (strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
      continue;
    }
    if (strcmp(argv[i], "--no-tpcc") == 0) {
      no_tpcc = true;
      continue;
    }
    fprintf(stderr,
            "usage: %s [--keys N] [--ops N] [--frames N] [--tpcc-txns N] "
            "[--out FILE] [--no-tpcc] [--smoke]\n",
            argv[0]);
    return 2;
  }
  if (smoke) {
    thread_counts = {1, 8};
    modes = {"point_read"};
    base.keys = std::min<int64_t>(base.keys, 150000);
    base.ops_per_thread = std::min<int64_t>(base.ops_per_thread, 150000);
    base.tpcc_txns = std::min<int64_t>(base.tpcc_txns, 4000);
  }

  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());

  std::vector<CellResult> results;
  for (const std::string& mode : modes) {
    for (int threads : thread_counts) {
      CellParams p = base;
      p.mode = mode;
      p.threads = threads;
      // Inserts reshape the tree; halve the budget so insert-heavy cells
      // stay comparable in wall time to the read cells.
      if (mode != "point_read") p.ops_per_thread = base.ops_per_thread / 2;
      CellResult r = RunIndexCell(p);
      fprintf(stderr,
              "%-10s threads=%d ops=%-8" PRId64
              " wall=%.2fs tps=%.0f restarts=%" PRId64 " pessimistic=%" PRId64
              " splits=%" PRId64 "\n",
              r.mode.c_str(), r.threads, r.ops, r.wall_s, r.tps,
              r.olc_restarts, r.pessimistic, r.splits);
      results.push_back(r);
    }
  }
  if (!no_tpcc) {
    for (int workers : {1, 8}) {
      CellParams p = base;
      p.threads = workers;
      CellResult r = RunTpccCell(p);
      fprintf(stderr, "tpcc       workers=%d committed=%" PRId64
                      " wall=%.2fs tps=%.0f\n",
              r.threads, r.ops, r.wall_s, r.tps);
      results.push_back(r);
    }
  }

  std::string json = "{\n  \"bench\": \"micro_index\",\n";
  json += "  \"hw_threads\": " + std::to_string(hw) +
          ",\n  \"keys\": " + std::to_string(base.keys) +
          ",\n  \"frames\": " + std::to_string(base.frames) +
          ",\n  \"results\": [\n";
  for (size_t i = 0; i < results.size(); ++i) {
    AppendCellJson(&json, results[i]);
    json += i + 1 < results.size() ? ",\n" : "\n";
  }
  json += "  ]\n}\n";

  if (!out_path.empty()) {
    FILE* f = fopen(out_path.c_str(), "w");
    if (f == nullptr) {
      fprintf(stderr, "cannot write %s\n", out_path.c_str());
      return 2;
    }
    fwrite(json.data(), 1, json.size(), f);
    fclose(f);
  } else {
    fwrite(json.data(), 1, json.size(), stdout);
  }

  if (smoke) {
    // CI gate: concurrent readers must actually scale where the hardware
    // can express it, and eight TPC-C terminals must never be slower than
    // one. check_regression.py re-checks the same floors (plus the full
    // sweep's shape) against the checked-in baseline.
    double read1 = 0.0, read8 = 0.0, tpcc1 = 0.0, tpcc8 = 0.0;
    for (const CellResult& r : results) {
      if (r.ops <= 0 || r.tps <= 0.0) {
        fprintf(stderr, "SMOKE FAIL: cell %s/%d did no work\n",
                r.mode.c_str(), r.threads);
        return 1;
      }
      if (r.mode == "point_read" && r.threads == 1) read1 = r.tps;
      if (r.mode == "point_read" && r.threads == 8) read8 = r.tps;
      if (r.mode == "tpcc" && r.threads == 1) tpcc1 = r.tps;
      if (r.mode == "tpcc" && r.threads == 8) tpcc8 = r.tps;
    }
    const double floor = ReadScalingFloor(hw);
    if (read1 <= 0.0 || (floor > 0.0 && read8 < floor * read1)) {
      fprintf(stderr,
              "SMOKE FAIL: point-read %.0f tps at 8 threads vs %.0f at 1 "
              "(want >= %.1fx on %u hw threads)\n",
              read8, read1, floor, hw);
      return 1;
    }
    // In-binary TPC-C floor is soft (0.9x) to absorb runner noise; the
    // strict >= 1x floor lives in check_regression.py where hw is known.
    if (!no_tpcc && hw >= 4 && tpcc8 < 0.9 * tpcc1) {
      fprintf(stderr,
              "SMOKE FAIL: TPC-C %.0f tps at 8 workers vs %.0f at 1\n",
              tpcc8, tpcc1);
      return 1;
    }
    fprintf(stderr,
            "SMOKE OK: point-read 8t/1t = %.2fx (floor %.1fx on %u hw "
            "threads), tpcc 8w/1w = %.2fx\n",
            read1 > 0 ? read8 / read1 : 0.0, floor, hw,
            tpcc1 > 0 ? tpcc8 / tpcc1 : 0.0);
    return 0;
  }
  return 0;
}

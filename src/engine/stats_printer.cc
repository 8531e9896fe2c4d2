#include "engine/stats_printer.h"

#include <cinttypes>
#include <cstdarg>
#include <cstdio>
#include <map>

#include "obs/metrics_registry.h"

namespace btrim {

namespace {

void Appendf(std::string* out, const char* fmt, ...)
    __attribute__((format(printf, 2, 3)));

void Appendf(std::string* out, const char* fmt, ...) {
  char buf[512];
  va_list args;
  va_start(args, fmt);
  vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  out->append(buf);
}

double Pct(int64_t part, int64_t whole) {
  return whole > 0 ? 100.0 * static_cast<double>(part) /
                         static_cast<double>(whole)
                   : 0.0;
}

void AppendCommitterLine(std::string* out, const char* label,
                         const obs::MetricsRegistry& r,
                         const std::string& log) {
  const obs::MetricLabels l{.subsystem = log};
  const int64_t groups = r.Value("commit.groups", l);
  if (groups == 0) return;  // committer never used
  const int64_t batches = r.Value("commit.batches", l);
  const int64_t batch_bytes = r.Value("commit.batch_bytes", l);
  obs::MetricSample latency;
  (void)r.Lookup("commit.latency_us", l, &latency);  // absent: empty
  auto per_batch = [batches](int64_t v) {
    return batches > 0
               ? static_cast<double>(v) / static_cast<double>(batches)
               : 0.0;
  };
  Appendf(out,
          "%s: %" PRId64 " groups in %" PRId64
          " batches (%.1f/batch, %.1f KiB avg, max %" PRId64
          "), latency p50/p95/p99 %" PRId64 "/%" PRId64 "/%" PRId64 " us\n",
          label, groups, batches, per_batch(groups),
          per_batch(batch_bytes) / 1024.0,
          r.Value("commit.max_batch_groups", l),
          latency.hist.PercentileUs(0.50), latency.hist.PercentileUs(0.95),
          latency.hist.PercentileUs(0.99));
}

}  // namespace

std::string FormatDatabaseStats(const obs::MetricsRegistry& r) {
  // Wildcard labels: index.* sums every table's trees, the rest are
  // registered once per database.
  auto v = [&r](const char* name) { return r.Value(name); };
  auto log = [&r](const char* name, const char* subsystem) {
    return r.Value(name, {.subsystem = subsystem});
  };
  const int64_t imrs_ops = v("engine.imrs_ops");
  const int64_t page_ops = v("engine.page_ops");
  const int64_t in_use = v("imrs_cache.in_use_bytes");
  const int64_t capacity = v("imrs_cache.capacity_bytes");
  const int64_t fixes = v("buffer_cache.fixes");

  std::string out;
  Appendf(&out, "transactions : %" PRId64 " committed, %" PRId64
                " aborted, %" PRId64 " active\n",
          v("txn.committed"), v("txn.aborted"), v("txn.active"));
  Appendf(&out,
          "op routing   : %" PRId64 " IMRS / %" PRId64
          " page-store (hit rate %.1f%%)\n",
          imrs_ops, page_ops, Pct(imrs_ops, imrs_ops + page_ops));
  Appendf(&out,
          "IMRS cache   : %" PRId64 " / %" PRId64 " KiB in use (%.1f%%), "
          "%" PRId64 " rows mapped\n",
          in_use / 1024, capacity / 1024, Pct(in_use, capacity),
          v("rid_map.entries"));
  Appendf(&out,
          "buffer cache : %" PRId64 " fixes, %.1f%% hits, %" PRId64
          " evictions, %" PRId64 " latch waits\n",
          fixes, Pct(v("buffer_cache.hits"), fixes),
          v("buffer_cache.evictions"), v("buffer_cache.latch_contention"));
  Appendf(&out,
          "locks        : %" PRId64 " acquisitions (%" PRId64
          " fast), %" PRId64 " waits, %" PRId64 " timeouts, %" PRId64
          " cond. denials\n",
          v("locks.acquisitions"), v("locks.fast_grants"), v("locks.waits"),
          v("locks.timeouts"), v("locks.try_failures"));
  Appendf(&out,
          "index        : %" PRId64 " searches, %" PRId64
          " inserts, %" PRId64 " splits, %" PRId64 " root retries, %" PRId64
          " pessimistic, %" PRId64 "/%" PRId64 " pages freed/reused\n",
          v("index.searches"), v("index.inserts"), v("index.splits"),
          v("index.olc_restarts"), v("index.pessimistic_descents"),
          v("index.pages_retired"), v("index.pages_reused"));
  Appendf(&out,
          "GC           : %" PRId64 " versions freed (%" PRId64
          " KiB), %" PRId64 " rows purged, %" PRId64 " pending\n",
          v("gc.versions_freed"), v("gc.bytes_freed") / 1024,
          v("gc.rows_purged"), v("gc.work_pending"));
  Appendf(&out,
          "Pack         : %" PRId64 " cycles, %" PRId64 " rows (%" PRId64
          " KiB) packed, %" PRId64 " skipped hot, %" PRId64
          " pack txns, %" PRId64 " bypasses\n",
          v("pack.cycles"), v("pack.rows_packed"),
          v("pack.bytes_packed") / 1024, v("pack.rows_skipped_hot"),
          v("pack.transactions"), v("pack.bypass_activations"));
  Appendf(&out,
          "syslogs      : %" PRId64 " records, %" PRId64 " KiB, %" PRId64
          " syncs (%" PRId64 " elided), %" PRId64 "/%" PRId64
          " failed appends/syncs\n",
          log("wal.records_appended", "syslogs"),
          log("wal.bytes_appended", "syslogs") / 1024,
          log("wal.syncs", "syslogs"), log("wal.syncs_elided", "syslogs"),
          log("wal.append_failures", "syslogs"),
          log("wal.sync_failures", "syslogs"));
  Appendf(&out,
          "sysimrslogs  : %" PRId64 " records in %" PRId64
          " groups, %" PRId64 " KiB, %" PRId64 " syncs (%" PRId64
          " elided), %" PRId64 "/%" PRId64 " failed appends/syncs\n",
          log("wal.records_appended", "sysimrslogs"),
          log("wal.groups_appended", "sysimrslogs"),
          log("wal.bytes_appended", "sysimrslogs") / 1024,
          log("wal.syncs", "sysimrslogs"),
          log("wal.syncs_elided", "sysimrslogs"),
          log("wal.append_failures", "sysimrslogs"),
          log("wal.sync_failures", "sysimrslogs"));
  AppendCommitterLine(&out, "commit(sys)  ", r, "syslogs");
  AppendCommitterLine(&out, "commit(imrs) ", r, "sysimrslogs");
  return out;
}

std::string FormatTableBreakdown(Database* db) {
  // Built from the metrics registry, not the live partition objects: a
  // partition retired mid-run keeps reporting through its retained samples
  // (the old implementation walked db->Tables() and silently dropped its
  // pack/skip counts from the final report).
  struct Row {
    int64_t mode = 1;
    bool retained = false;
    int64_t imrs_rows = 0;
    int64_t imrs_bytes = 0;
    int64_t reuse = 0;
    int64_t new_rows = 0;
    int64_t packed = 0;
    int64_t skipped = 0;
  };
  std::map<std::string, Row> rows;  // "table/partition" -> row
  for (const obs::MetricSample& s : db->metrics_registry()->Snapshot()) {
    if (s.name.rfind("partition.", 0) != 0 || s.labels.table.empty()) continue;
    Row& r = rows[s.labels.table + "/" + s.labels.partition];
    if (s.retained) r.retained = true;
    if (s.name == "partition.mode") {
      r.mode = s.value;
    } else if (s.name == "partition.imrs_rows") {
      r.imrs_rows = s.value;
    } else if (s.name == "partition.imrs_bytes") {
      r.imrs_bytes = s.value;
    } else if (s.name == "partition.reuse_select" ||
               s.name == "partition.reuse_update" ||
               s.name == "partition.reuse_delete") {
      r.reuse += s.value;
    } else if (s.name == "partition.inserts_imrs" ||
               s.name == "partition.migrations" ||
               s.name == "partition.cachings") {
      r.new_rows += s.value;
    } else if (s.name == "partition.rows_packed") {
      r.packed = s.value;
    } else if (s.name == "partition.rows_skipped_hot") {
      r.skipped = s.value;
    }
  }

  std::string out;
  Appendf(&out, "%-24s %-9s %9s %10s %10s %10s %9s %9s\n", "table/partition",
          "imrs", "rows", "KiB", "reuse", "new_rows", "packed", "skipped");
  for (const auto& [name, r] : rows) {
    const char* mode = r.retained       ? "retired"
                       : r.mode == 2    ? "pinned"
                       : r.mode == 1    ? "enabled"
                                        : "disabled";
    Appendf(&out,
            "%-24s %-9s %9" PRId64 " %10" PRId64 " %10" PRId64 " %10" PRId64
            " %9" PRId64 " %9" PRId64 "\n",
            name.c_str(), mode, r.imrs_rows, r.imrs_bytes / 1024, r.reuse,
            r.new_rows, r.packed, r.skipped);
  }
  return out;
}

}  // namespace btrim

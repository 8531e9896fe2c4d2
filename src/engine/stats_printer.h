#ifndef BTRIM_ENGINE_STATS_PRINTER_H_
#define BTRIM_ENGINE_STATS_PRINTER_H_

#include <string>

#include "engine/database.h"

namespace btrim {

/// Human-readable report of a database's metrics registry: one block per
/// subsystem (transactions, IMRS cache, buffer cache, locks, index, GC,
/// Pack, logs, committers). Intended for operator tooling, examples, and
/// debugging. Pass `*db->metrics_registry()`.
std::string FormatDatabaseStats(const obs::MetricsRegistry& registry);

/// Per-table / per-partition ILM breakdown: residency, footprint, reuse,
/// pack activity and tuner state — the BTrim equivalent of a monitoring
/// table over Sec. V.A's counters. Reads the unified metrics registry, so
/// partitions retired mid-run still appear (mode "retired") with their
/// final pack/skip counts.
std::string FormatTableBreakdown(Database* db);

}  // namespace btrim

#endif  // BTRIM_ENGINE_STATS_PRINTER_H_

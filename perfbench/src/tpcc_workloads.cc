// tpcc_ilm and htap: in-process TPC-C (standard 45/43/4/4/4 mix) under ILM,
// the second with the columnar cold tier on and a concurrent analytic
// scanner.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <thread>
#include <unistd.h>

#include "common.h"
#include "tpcc/loader.h"
#include "tpcc/txns.h"

namespace perfbench {
namespace {

using btrim::DatabaseOptions;
using btrim::RecordView;
using btrim::Status;
using btrim::Table;
namespace tpcc = btrim::tpcc;

// tpcc_ilm runs one terminal next to the pack and GC threads, on three
// vCPUs. With two terminals (and a pack pool of two) it kept every vCPU of
// the 4-vCPU reference box busy, so any load from outside the process
// moved its figures: throughput spread 0.25 and p99 0.37 (IQR / median,
// five seeds) with one outside busy loop; one terminal read 0.05 and 0.06
// under the same load.
constexpr int kTerminals = 1;
constexpr int kTpccCpus = 3;
constexpr int kHtapTerminals = 2;  // htap, next to its scanner
constexpr int kKinds = 5;  // Mix order: NewOrder .. StockLevel
constexpr int kStockLevel = 4;  // the mix's range query: scan_p50_ms

/// One loaded and warmed TPC-C database with its running terminals.
struct TpccSetup {
  std::string dir;  ///< data directory of the file-backed database
  int terminals = 0;
  std::unique_ptr<Database> db;
  tpcc::TpccContext ctx;
  std::vector<std::unique_ptr<tpcc::TpccRandom>> rnds;
  std::unique_ptr<ClosedLoop> oltp;
  std::unique_ptr<ClosedLoop> scanner;  // htap only
  bool warmup_settled = false;

  ~TpccSetup() {
    if (scanner) scanner->Stop();
    if (oltp) oltp->Stop();
    db.reset();
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
  }
};

/// The database content and TPC-C's run-time NURand constants are fixed
/// (the repository's load seed), so every seed runs against the same hot
/// customer and item sets; the workload seed picks each terminal's
/// transaction stream. (With seed-dependent constants, tpcc_ilm throughput
/// differed by up to 15% between seeds on a 4-vCPU VM.)
constexpr uint64_t kLoadSeed = 42;

std::unique_ptr<tpcc::TpccRandom> TerminalRandom(uint64_t seed, int terminal) {
  auto r = std::make_unique<tpcc::TpccRandom>(kLoadSeed * 1000003 + terminal);
  // Skip ahead by a seed-derived count: a different stream, same constants.
  const uint64_t skip = (seed * 0x9E3779B97F4A7C15ull) >> 44;
  for (uint64_t i = 0; i < skip; ++i) r->rng().Next();
  return r;
}

/// Opens a file-backed database in a fresh directory under the work dir
/// and loads the TPC-C tables (2 warehouses, the repository's default
/// scale).
std::unique_ptr<TpccSetup> LoadTpcc(DatabaseOptions options, const Args& args,
                                    int terminals, int attempt) {
  auto s = std::make_unique<TpccSetup>();
  s->terminals = terminals;
  const uint64_t seed = args.seed;
  s->dir = args.work_dir + "/" + args.workload + "-" +
           std::to_string(getpid()) + "-" + std::to_string(attempt);
  std::filesystem::remove_all(s->dir);
  std::filesystem::create_directories(s->dir);
  options.in_memory = false;
  options.data_dir = s->dir;
  auto opened = Database::Open(options);
  if (!opened.ok()) {
    fprintf(stderr, "open: %s\n", opened.status().ToString().c_str());
    return nullptr;
  }
  s->db = std::move(*opened);
  tpcc::Scale scale;
  auto tables = tpcc::CreateTables(s->db.get(), scale);
  if (!tables.ok()) {
    fprintf(stderr, "tables: %s\n", tables.status().ToString().c_str());
    return nullptr;
  }
  Status load = tpcc::LoadDatabase(s->db.get(), *tables, scale, kLoadSeed);
  if (!load.ok()) {
    fprintf(stderr, "load: %s\n", load.ToString().c_str());
    return nullptr;
  }
  s->ctx.db = s->db.get();
  s->ctx.tables = *tables;
  s->ctx.scale = scale;
  s->ctx.next_history_id = static_cast<int64_t>(scale.warehouses) *
                               scale.districts_per_warehouse *
                               scale.customers_per_district +
                           1;
  for (int t = 0; t < terminals; ++t) {
    s->rnds.push_back(TerminalRandom(seed, t));
  }
  return s;
}

/// The standard mix (45/43/4/4/4): each type's span, entry point and
/// cumulative percentage, in Mix order.
struct TxnType {
  SpanName span;
  tpcc::TxnResult (*run)(tpcc::TpccContext*, tpcc::TpccRandom*, int);
  int cumulative_pct;
};
constexpr TxnType kMix[kKinds] = {
    {SpanName::kTpccNewOrder, tpcc::RunNewOrder, 45},
    {SpanName::kTpccPayment, tpcc::RunPayment, 88},
    {SpanName::kTpccOrderStatus, tpcc::RunOrderStatus, 92},
    {SpanName::kTpccDelivery, tpcc::RunDelivery, 96},
    {SpanName::kTpccStockLevel, tpcc::RunStockLevel, 100},
};

/// One TPC-C terminal transaction, one span around the tpcc::Run* call.
/// Each terminal is bound to its home warehouse (spec clause 5.5); the type
/// is drawn from the terminal's own seeded stream.
OpFn TpccOp(TpccSetup* s) {
  return [s](int thread, SpanLog* log, const SpanScope* root) -> OpResult {
    tpcc::TpccRandom* rnd = s->rnds[static_cast<size_t>(thread)].get();
    const int w = thread % s->ctx.scale.warehouses + 1;
    const int dice = static_cast<int>(rnd->Uniform(1, 100));
    int kind = 0;
    while (dice > kMix[kind].cumulative_pct) ++kind;
    const tpcc::TxnResult r = Traced(log, kMix[kind].span, root, [&] {
      return kMix[kind].run(&s->ctx, rnd, w);
    });
    if (r.committed) return {Outcome::kOk, kind};
    return {r.user_abort ? Outcome::kUserAbort : Outcome::kFailed, kind};
  };
}

/// The three CH-benCHmark-style projected aggregates (as in micro_htap).
std::vector<Aggregate> TpccAggregates(const tpcc::Tables& t) {
  return {
      {"sum_ol_amount", t.order_line, tpcc::ol::kAmount, true},
      {"sum_c_balance", t.customer, tpcc::cust::kBalance, true},
      {"sum_s_quantity", t.stock, tpcc::stk::kQuantity, false},
  };
}

/// TPC-C consistency condition 1 (d_next_o_id - 1 == max(o_id) per
/// district, every new_orders row names an existing order) and ol_cnt ==
/// line count on a seeded sample of orders. Runs at quiescence.
void CheckTpccConsistency(TpccSetup* s, uint64_t seed, RunResult* result) {
  Database* db = s->db.get();
  const tpcc::Tables& t = s->ctx.tables;
  const tpcc::Scale& scale = s->ctx.scale;
  btrim::Random rng(seed ^ 0xc0ffee);
  auto txn = db->Begin();
  std::vector<std::pair<int64_t, int64_t>> next_o_ids;  // (w*100+d, next)
  for (int w = 1; w <= scale.warehouses; ++w) {
    for (int d = 1; d <= scale.districts_per_warehouse; ++d) {
      std::string drow;
      Status st = db->SelectByKey(txn.get(), t.district,
                                  t.district->pk_encoder().KeyForInts({w, d}),
                                  &drow);
      if (!st.ok()) {
        result->Fail("district read: " + st.ToString());
        break;
      }
      const int64_t next_o_id =
          RecordView(&t.district->schema(), drow).GetInt(tpcc::dist::kNextOId);
      next_o_ids.push_back({w * 100 + d, next_o_id});
      const std::string lo = t.orders->pk_encoder().PrefixForInts({w, d});
      const std::string hi = t.orders->pk_encoder().PrefixForInts({w, d + 1});
      std::vector<btrim::ScanRow> orders, pending;
      st = db->ScanIndex(txn.get(), t.orders, -1, lo, hi, 0, &orders);
      if (st.ok()) {
        st = db->ScanIndex(txn.get(), t.new_orders, -1, lo, hi, 0, &pending);
      }
      if (!st.ok()) {
        result->Fail("orders scan: " + st.ToString());
        break;
      }
      int64_t max_o_id = 0;
      for (const auto& r : orders) {
        max_o_id = std::max(
            max_o_id, RecordView(&t.orders->schema(), r.payload)
                          .GetInt(tpcc::ord::kOId));
      }
      char where[64];
      snprintf(where, sizeof(where), "w=%d d=%d", w, d);
      result->Check(max_o_id == next_o_id - 1,
                    std::string("consistency 1: max(o_id) != d_next_o_id-1 ") +
                        where);
      for (const auto& r : pending) {
        const int64_t o_id = RecordView(&t.new_orders->schema(), r.payload)
                                 .GetInt(tpcc::no::kOId);
        std::string orow;
        Status os = db->SelectByKey(
            txn.get(), t.orders,
            t.orders->pk_encoder().KeyForInts({w, d, o_id}), &orow);
        result->Check(os.ok(), std::string("new_orders row without order ") +
                                   where + " o=" + std::to_string(o_id));
      }
    }
  }
  // ol_cnt == number of order lines, on a seeded sample of orders.
  for (int i = 0; i < 64 && !next_o_ids.empty(); ++i) {
    const auto& [wd, next] = next_o_ids[rng.Uniform(next_o_ids.size())];
    const int64_t w = wd / 100, d = wd % 100;
    const int64_t o = rng.UniformRange(1, next - 1);
    std::string orow;
    Status st = db->SelectByKey(txn.get(), t.orders,
                                t.orders->pk_encoder().KeyForInts({w, d, o}),
                                &orow);
    if (!st.ok()) {
      result->Fail("sampled order read: " + st.ToString());
      break;
    }
    const int64_t ol_cnt =
        RecordView(&t.orders->schema(), orow).GetInt(tpcc::ord::kOlCnt);
    std::vector<btrim::ScanRow> lines;
    st = db->ScanIndex(txn.get(), t.order_line, -1,
                       t.order_line->pk_encoder().PrefixForInts({w, d, o}),
                       t.order_line->pk_encoder().PrefixForInts({w, d, o + 1}),
                       0, &lines);
    if (!st.ok()) {
      result->Fail("order_line scan: " + st.ToString());
      break;
    }
    result->Check(static_cast<int64_t>(lines.size()) == ol_cnt,
                  "ol_cnt != order lines for order " + std::to_string(o));
  }
  Status cs = db->Commit(txn.get());
  result->Check(cs.ok(), "check commit: " + cs.ToString());
}

/// Stops the terminals and background work, then runs every correctness
/// check: consistency, the engine invariant checker, and ScanTable vs
/// ScanIndex on `aggs`.
void QuiesceAndCheck(TpccSetup* s, const Args& args,
                     const std::vector<Aggregate>& aggs, RunResult* result) {
  if (s->scanner) s->scanner->Stop();
  s->oltp->Stop();
  s->db->StopBackground();
  s->db->RunGcOnce();  // the checks then walk no stale versions
  CheckTpccConsistency(s, args.seed, result);
  btrim::ValidateReport report;
  Status v = s->db->ValidateInvariants(&report);
  result->Check(v.ok(), "ValidateInvariants: " + v.ToString());
  CheckAggregates(s->db.get(), aggs, result);
  result->env.Set("dataset_bytes", DatasetBytes(s->db.get()));
}

/// Env fields shared by both TPC-C workloads.
void TpccEnv(const TpccSetup& s, const DatabaseOptions& o, RunResult* r) {
  r->env.Set("terminals", s.terminals);
  r->env.Set("warehouses", s.ctx.scale.warehouses);
  r->env.Set("flush_policy", "file-backed, no sync (logs and pages stay in "
                             "the OS page cache)");
  r->env.Set("imrs_cache_bytes", static_cast<int64_t>(o.imrs_cache_bytes));
  r->env.Set("buffer_cache_bytes",
             static_cast<int64_t>(o.buffer_cache_frames) * btrim::kPageSize);
  r->env.Set("steady_cache_pct", FormatDouble(o.ilm.steady_cache_pct));
  r->env.Set("warmup_settled", s.warmup_settled ? "true" : "false");
}

}  // namespace

// --- tpcc_ilm ----------------------------------------------------------------

// Warm-up: a fixed amount of work (so every run starts its window at the
// same point of TPC-C's growth) that also leaves pack running steadily.
constexpr int64_t kWarmupTxns = 20'000;
constexpr int kPackingPolls = 5;

RunResult RunTpccIlm(const Args& args) {
  RunResult result;
  PinToCpus(kTpccCpus, &result.env);
  DatabaseOptions o;
  o.imrs_cache_bytes = 12u << 20;   // smaller than the working set
  o.buffer_cache_frames = 8192;     // 64 MiB: holds the loaded database
  o.lock_timeout_ms = 50;
  o.background_interval_us = 300;
  o.ilm.steady_cache_pct = 0.70;
  o.pack_workers = 1;  // pack runs inline on its own thread

  SetupTime setup;
  int attempt = 0;
  auto s = TimedSetups<TpccSetup>(
      [&]() -> std::unique_ptr<TpccSetup> {
        auto s = LoadTpcc(o, args, kTerminals, attempt++);
        if (s == nullptr) return nullptr;
        s->db->StartBackground();
        s->oltp =
            std::make_unique<ClosedLoop>(kTerminals, kKinds, TpccOp(s.get()));
        s->oltp->Start();
        s->warmup_settled = WaitForSteadyIlm(s->db.get(), *s->oltp,
                                             kWarmupTxns, kPackingPolls);
        return s;
      },
      &setup);
  if (s == nullptr) {
    result.Fail("setup failed");
    return result;
  }
  TpccEnv(*s, o, &result);

  TimedWindow window(s->db.get(), args, {s->oltp.get()});
  const std::vector<Aggregate> aggs = TpccAggregates(s->ctx.tables);
  QuiesceAndCheck(s.get(), args, {aggs[1], aggs[2]}, &result);

  AddEndToEnd(*s->oltp, *s->oltp, window, setup, &result);
  if (args.trace) {
    LedgerInputs in;
    in.loop = s->oltp.get();
    in.scans = s->oltp.get();
    in.scan_kind = kStockLevel;
    in.window = &window;
    in.logs = s->oltp->span_logs();
    BuildLedger(in, &result);
  }
  return result;
}

// --- htap --------------------------------------------------------------------

RunResult RunHtap(const Args& args) {
  RunResult result;
  DatabaseOptions o;
  o.buffer_cache_frames = 512;
  o.imrs_cache_bytes = 64u << 20;
  // ScanTable holds shared row locks to its commit, and some collisions
  // with the terminals end only at the timeout: at 200 ms half the passes
  // carried such a stall, which made the median pass time jump between
  // runs.
  o.lock_timeout_ms = 50;
  o.cold_columnar = true;
  o.cold_segment_rows = 256;
  // Aggressive pack so the warm-up traffic's cold tail lands in columnar
  // segments (the micro_htap recipe).
  o.ilm.steady_cache_pct = 0.01;
  o.ilm.aggressive_fraction = 0.05;
  o.ilm.pack_cycle_pct = 0.20;
  o.ilm.tuning_window_txns = 1ull << 40;
  constexpr int64_t kHtapWarmupTxns = 4000;
  constexpr int64_t kHtapWarmupPackCycles = 500;

  SetupTime setup;
  int attempt = 0;
  auto s = TimedSetups<TpccSetup>(
      [&]() -> std::unique_ptr<TpccSetup> {
        auto s = LoadTpcc(o, args, kHtapTerminals, attempt++);
        if (s == nullptr) return nullptr;
        {
          // Warm-up pulls rows through the IMRS; the pack drain then moves
          // their cold tail into columnar segments.
          ClosedLoop warmup(kHtapTerminals, kKinds, TpccOp(s.get()));
          warmup.Start();
          if (!WaitForOps(warmup, kHtapWarmupTxns)) return nullptr;
          warmup.Stop();
        }
        DrainPack(s->db.get());
        s->db->StartBackground();
        s->oltp = std::make_unique<ClosedLoop>(kHtapTerminals, kKinds,
                                               TpccOp(s.get()));
        s->scanner = std::make_unique<ClosedLoop>(
            1, 1, ScannerOp(s->db.get(), TpccAggregates(s->ctx.tables)));
        s->oltp->Start();
        s->scanner->Start();
        // The window opens once pack has run under the full load: the
        // terminals' fresh rows reach the IMRS and pack moves them out. A
        // fixed amount of work; waiting for a flat IMRS utilisation made
        // set-up times range over 2x.
        s->warmup_settled =
            WaitForOpsAndPack(s->db.get(), *s->oltp, kHtapWarmupTxns,
                              kHtapWarmupPackCycles) &&
            s->db->cold()->rows() > 0;
        return s;
      },
      &setup);
  if (s == nullptr) {
    result.Fail("setup failed");
    return result;
  }
  result.env.Set("cold_rows_after_drain", s->db->cold()->rows());
  TpccEnv(*s, o, &result);
  result.Check(s->db->cold()->rows() > 0, "pack drain left no cold rows");

  TimedWindow window(s->db.get(), args, {s->oltp.get(), s->scanner.get()});
  QuiesceAndCheck(s.get(), args, TpccAggregates(s->ctx.tables), &result);

  const std::vector<int64_t> scan_ns = s->scanner->Latencies();
  result.Check(!scan_ns.empty(), "no analytic query finished in the window");
  AddEndToEnd(*s->oltp, *s->scanner, window, setup, &result);
  if (args.trace) {
    LedgerInputs in;
    in.loop = s->oltp.get();
    in.scans = s->scanner.get();
    in.scan_kind = 0;
    in.window = &window;
    in.logs = s->oltp->span_logs();
    for (const SpanLog* l : s->scanner->span_logs()) in.logs.push_back(l);
    in.scan_queries = 3.0 * static_cast<double>(scan_ns.size());
    for (int64_t ns : scan_ns) in.scan_seconds += Seconds(ns);
    BuildLedger(in, &result);
  }
  return result;
}

}  // namespace perfbench

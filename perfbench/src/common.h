// Shared machinery of the repository benchmark: command line, the closed-loop
// load generator with its measured window, exact latency samples, in-memory
// spans, metrics-registry deltas, the per-layer ledger and the result output.
//
// Everything here sits outside the engine: the workloads reach the engine
// only through its public functions (tpcc::Run*, Database DML / Commit /
// Checkpoint / Recover / ScanTable / ValidateInvariants, Session,
// net::Client) and read MetricsRegistry::Snapshot() at phase boundaries.
#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/histogram.h"
#include "engine/database.h"

namespace perfbench {

using btrim::Database;

int64_t NowNs();
double Seconds(int64_t ns);

/// Command line of one benchmark run.
struct Args {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string work_dir;   ///< scratch space for file-backed databases
  std::string out_dir;    ///< result, ledger and span files
  std::string source_id;  ///< identity of the measured sources
};

/// --- spans ------------------------------------------------------------------

/// Span names: one per call the benchmark makes into a layer, plus the root
/// span of each benchmark operation.
enum class SpanName : uint16_t {
  kOp,
  kTpccNewOrder,
  kTpccPayment,
  kTpccOrderStatus,
  kTpccDelivery,
  kTpccStockLevel,
  kEngineSelect,
  kEngineUpdate,
  kEngineInsert,
  kEngineCommit,
  kEngineScanTable,
  kEngineScanIndex,
  kEngineCheckpoint,
  kSessionGet,
  kNetGet,
  kNetPut,
  kNetScan,
  kCount,
};
const char* SpanNameString(SpanName name);

struct Span {
  uint64_t op = 0;      ///< shared by every span of one benchmark operation
  uint64_t id = 0;
  uint64_t parent = 0;  ///< 0 for an operation's root span
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  SpanName name = SpanName::kOp;
};

/// Spans recorded by one thread, kept in memory until the run ends. Span
/// ids are unique across every log of the process.
class SpanLog {
 public:
  SpanLog();

  uint64_t NextId() { return (log_no_ << 40) | ++next_id_; }
  void Add(const Span& span) { spans_.push_back(span); }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  const uint64_t log_no_;
  uint64_t next_id_ = 0;
  std::vector<Span> spans_;
};

/// RAII span. With a null log (an untraced operation) it does nothing. A
/// scope without a parent opens a new operation.
class SpanScope {
 public:
  SpanScope(SpanLog* log, SpanName name, const SpanScope* parent = nullptr);
  ~SpanScope();
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  SpanLog* const log_;
  Span span_;
};

/// Runs `fn` inside a span (a plain call when `log` is null).
template <typename Fn>
auto Traced(SpanLog* log, SpanName name, const SpanScope* root, Fn&& fn) {
  SpanScope span(log, name, root);
  return fn();
}

/// --- closed-loop load generator --------------------------------------------

/// What one operation did.
enum class Outcome : uint8_t {
  kOk,          ///< committed transaction / successful request
  kUserAbort,   ///< TPC-C's spec-mandated NewOrder rollback (not an error)
  kFailed,      ///< system abort, error reply or shed
};

struct OpResult {
  Outcome outcome = Outcome::kOk;
  int kind = 0;  ///< workload-defined operation type (latency class)
};

/// One operation of a workload. `log` is null unless the operation is
/// traced; `root` is then the operation's root span.
using OpFn =
    std::function<OpResult(int thread, SpanLog* log, const SpanScope* root)>;

/// Per-thread results inside the measured window.
struct ThreadTally {
  /// Latencies of ok ops, by kind and by the window slice the op started
  /// in: latency_ns[kind][slice].
  std::vector<std::vector<std::vector<int64_t>>> latency_ns;
  int64_t attempted = 0;
  int64_t failed = 0;
  int64_t ok[2] = {0, 0};  ///< ok ops started in [untraced, traced] slices
};

/// Runs `threads` closed-loop callers of `op`: each waits for its reply
/// before sending the next request. The callers start unmeasured (warm-up)
/// and keep running until Stop(); SetWindow() opens the measured window.
/// In trace mode the window is cut into slices that alternate between
/// untraced and traced, so one run yields both throughputs.
class ClosedLoop {
 public:
  ClosedLoop(int threads, int kinds, OpFn op);
  ~ClosedLoop();
  ClosedLoop(const ClosedLoop&) = delete;
  ClosedLoop& operator=(const ClosedLoop&) = delete;

  void Start();
  /// Measures the ops that start in [t0_ns, t1_ns) and finish by t1_ns.
  /// Several loops may share one window (htap's terminals and scanner).
  void SetWindow(int64_t t0_ns, int64_t t1_ns, bool trace);
  void Stop();

  /// Successful operations completed so far, measured or not (warm-up
  /// progress).
  int64_t completed() const { return completed_.load(); }

  std::vector<const SpanLog*> span_logs() const;

  /// Aggregates over every thread.
  int64_t Attempted() const;
  int64_t Failed() const;
  int64_t Ok(int traced) const;
  int64_t OkOfKind(int kind) const;
  /// Ok-op latencies of one window slice, or of the whole window (-1), of
  /// one kind or of every kind (-1).
  std::vector<int64_t> Latencies(int slice = -1, int kind = -1) const;
  int slices() const { return slices_; }

  static constexpr int64_t kSliceNs = 500'000'000;

 private:
  void Worker(int thread);

  const int threads_;
  const int kinds_;
  const OpFn op_;
  int slices_ = 0;
  std::atomic<bool> stop_{false};
  std::atomic<int64_t> t0_{INT64_MAX};
  std::atomic<int64_t> t1_{INT64_MAX};
  std::atomic<bool> trace_{false};
  std::atomic<int64_t> completed_{0};
  std::vector<ThreadTally> tallies_;
  std::vector<std::unique_ptr<SpanLog>> logs_;
  std::vector<std::thread> workers_;
};

/// Exact quantile (nearest rank) of `ns` samples, in microseconds.
double QuantileUs(std::vector<int64_t> ns, double q);
double Median(std::vector<double> values);
/// Mean of `values` without the `share` highest and the `share` lowest.
double TrimmedMean(std::vector<double> values, double share);

/// --- registry deltas --------------------------------------------------------

/// Registry values summed over labels: counters and gauges by name,
/// histograms as merged bucket snapshots.
struct RegistryReading {
  std::map<std::string, int64_t> values;
  std::map<std::string, btrim::LatencyHistogram::Snapshot> histograms;

  int64_t Get(const std::string& name) const;
  const btrim::LatencyHistogram::Snapshot* Hist(const std::string& name) const;
};
RegistryReading ReadRegistry(const Database* db);

/// Counter and histogram deltas between two readings; gauges (`end`) are
/// read from the later reading directly.
struct RegistryDelta {
  RegistryReading begin, end;
  int64_t Delta(const std::string& name) const {
    return end.Get(name) - begin.Get(name);
  }
  int64_t Gauge(const std::string& name) const { return end.Get(name); }
  int64_t HistCount(const std::string& name) const;
  int64_t HistSumUs(const std::string& name) const;
  /// Quantile of the histogram delta (power-of-two bucket upper bound).
  int64_t HistQuantileUs(const std::string& name, double q) const;
};

/// --- results ----------------------------------------------------------------

/// One reported metric. Per-layer ratios carry their numerator and
/// denominator so every ratio shows its base.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  double num = 0.0;
  double den = 0.0;
  bool has_base = false;
};

/// The per-layer ledger of one traced run.
class Ledger {
 public:
  void Add(const std::string& name, double value, const std::string& unit);
  /// value = num / den (0 when den is 0).
  void Ratio(const std::string& name, double num, double den,
             const std::string& unit, double scale = 1.0);
  const std::vector<Metric>& metrics() const { return metrics_; }

 private:
  std::vector<Metric> metrics_;
};

/// The environment a result was measured in.
struct Environment {
  std::map<std::string, std::string> fields;
  void Set(const std::string& key, const std::string& value) {
    fields[key] = value;
  }
  void Set(const std::string& key, int64_t value) {
    fields[key] = std::to_string(value);
  }
};

/// Everything a workload hands back to main().
struct RunResult {
  bool correct = true;
  std::string failure;  ///< first correctness failure, when !correct
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<Metric> end_to_end;  ///< untraced run
  Ledger ledger;                   ///< traced run
  std::vector<std::vector<Span>> spans;  ///< traced run, one entry per thread
  Environment env;
  /// Per-slice figures behind the end-to-end means, for the result file.
  std::map<std::string, std::vector<double>> series;

  void Fail(const std::string& why) {
    if (correct) failure = why;
    correct = false;
  }
  void Check(bool ok, const std::string& why) {
    if (!ok) Fail(why);
  }
};

/// Restricts the process, and every thread it starts afterwards, to the
/// first `n` CPUs it may run on, and records in `env` the CPUs it may run
/// on (`cpus`) and how many it uses at once (`cpus_at_once`). On a shared
/// virtual machine a request that hops between threads on different vCPUs
/// waits for each vCPU to be woken, and that wait varies with the host's
/// load; on fewer vCPUs the hops stay local. n <= 0 leaves the process
/// unrestricted.
void PinToCpus(int n, Environment* env);

/// Moves every thread of the process to the `n` CPUs (of PinToCpus) that
/// start `step` places along the CPUs it may run on, wrapping around.
/// TimedWindow calls it every second slice, so a window spends equal time
/// on every vCPU: on the shared VM the benchmark was tuned on, each vCPU's
/// speed drifted on its own by up to a third within seconds. No-op when
/// the process is unrestricted.
void RotatePinnedCpus(int step);

/// The CPUs the process is pinned to now; empty when unrestricted.
const std::vector<int>& PinnedCpus();

/// Process high-water resident set (VmHWM), MiB.
double PeakRssMib();

/// Restarts the high-water mark at the current resident set, so that
/// PeakRssMib() covers only what runs after the call. False where the
/// kernel does not allow it.
bool ResetPeakRss();

/// Hands the heap memory that earlier set-ups freed back to the system.
void ReleaseFreedMemory();

/// Quantile of the durations of every `name` span, in microseconds (0
/// without samples).
double SpanQuantileUs(const std::vector<const SpanLog*>& logs, SpanName name,
                      double q);

/// Writes spans as JSON lines, at most `max_per_thread` per thread.
bool WriteSpanFile(const std::string& path,
                   const std::vector<std::vector<Span>>& spans,
                   size_t max_per_thread);

std::string JsonEscape(const std::string& s);
std::string FormatDouble(double v);

/// --- host steal time --------------------------------------------------------

/// Steal time and total time from /proc/stat, in clock ticks, per CPU
/// (indexed by CPU number).
struct StealReading {
  std::vector<double> steal;
  std::vector<double> total;
};
StealReading ReadSteal();

/// Share of the time between two readings that the host gave `cpus` (every
/// CPU when empty) to other guests (0 when unknown). A vCPU is stolen from
/// only while it has work, so on vCPUs the workload keeps busy this is the
/// share of the interval the workload could not run.
double StealShare(const StealReading& from, const StealReading& to,
                  const std::vector<int>& cpus);

/// Set-ups per run: setup_s is the median of their times.
constexpr int kSetupRepeats = 3;

/// Median set-up time, with and without the host's steal time taken out.
struct SetupTime {
  double s = 0.0;       ///< wall time less the share the host stole
  double wall_s = 0.0;  ///< wall time
};

/// Runs `setup` kSetupRepeats times and keeps the last result, tearing
/// each earlier one down outside the timing. Sets the median set-up times.
template <typename T>
std::unique_ptr<T> TimedSetups(const std::function<std::unique_ptr<T>()>& setup,
                               SetupTime* time) {
  std::vector<double> times, wall_times;
  std::unique_ptr<T> kept;
  for (int i = 0; i < kSetupRepeats; ++i) {
    kept.reset();
    ReleaseFreedMemory();
    const StealReading steal0 = ReadSteal();
    const int64_t t0 = NowNs();
    kept = setup();
    const double wall = Seconds(NowNs() - t0);
    wall_times.push_back(wall);
    times.push_back(wall *
                    (1.0 - StealShare(steal0, ReadSteal(), PinnedCpus())));
    if (kept == nullptr) return nullptr;
  }
  time->s = Median(times);
  time->wall_s = Median(wall_times);
  return kept;
}

/// The measured window: opens it on `loops`, runs `mid_phase` (if any) at
/// its midpoint, samples the IMRS footprint every 100 ms, moves the process
/// one vCPU along every second slice (RotatePinnedCpus), and blocks until the
/// window closes, reading the registry at both ends. It moves the process
/// back to the first vCPUs when it closes.
class TimedWindow {
 public:
  TimedWindow(Database* db, const Args& args,
              const std::vector<ClosedLoop*>& loops,
              const std::function<void()>& mid_phase = nullptr);
  double seconds() const { return seconds_; }
  const RegistryDelta& delta() const { return delta_; }
  /// Median of the imrs_cache in-use bytes sampled over the window, MiB.
  double ImrsMib() const { return imrs_mib_; }
  /// Process high-water RSS over the window, read when it closed (before
  /// the checks). Covers the set-ups too where the high-water mark could
  /// not be restarted (see env.peak_rss_scope).
  double PeakRssMibAtClose() const { return peak_rss_mib_; }
  bool peak_rss_window_only() const { return peak_rss_window_only_; }

  /// Where the machine's CPU time went over the window, in percent of all
  /// its CPUs: this process, everything else, and time the hypervisor gave
  /// to other guests (steal). Recorded with each result, so that a figure
  /// measured on a busy host can be told apart.
  struct CpuShares {
    double own_pct = 0.0;
    double other_pct = 0.0;
    double steal_pct = 0.0;
  };
  const CpuShares& cpu() const { return cpu_; }

  int64_t t0_ns() const { return t0_ns_; }
  /// Share of [from_ns, to_ns] the host stole from the vCPUs the process
  /// ran on in the slice that holds from_ns, from /proc/stat readings taken
  /// every 100 ms over the window.
  double StealShare(int64_t from_ns, int64_t to_ns) const;

 private:
  CpuShares cpu_;
  int64_t t0_ns_ = 0;
  std::vector<std::pair<int64_t, StealReading>> steal_;
  std::vector<std::vector<int>> slice_cpus_;  ///< the CPUs of each slice
  double seconds_ = 0.0;
  double imrs_mib_ = 0.0;
  double peak_rss_mib_ = 0.0;
  bool peak_rss_window_only_ = false;
  RegistryDelta delta_;
};

/// Sets every end-to-end metric, in BENCHMARK.json order: throughput,
/// latency_p50_us and latency_p99_us from `loop` (each the mean over the
/// window's 0.5 s slices without the highest and lowest kSliceTrim of them,
/// so a stall of the machine shorter than that share does not move them;
/// each slice's throughput counts only the time the host did not steal
/// from the process's vCPUs), success_ratio, setup_s, imrs_mib and
/// peak_rss_mib from `window`. Adds the counts of `loop`, and of `scans`
/// (htap's scanner) when it is another loop, to attempted / failed before
/// success_ratio is taken from them.
constexpr double kSliceTrim = 0.10;
void AddEndToEnd(const ClosedLoop& loop, const ClosedLoop& scans,
                 const TimedWindow& window, const SetupTime& setup,
                 RunResult* result);

/// Inputs of the per-layer ledger of a traced run.
struct LedgerInputs {
  const ClosedLoop* loop = nullptr;  ///< the loop whose ops are counted
  /// The loop, and the kind of its ops, that runs the workload's range or
  /// analytic query (scan_p50_ms).
  const ClosedLoop* scans = nullptr;
  int scan_kind = -1;
  const TimedWindow* window = nullptr;
  double user_bytes = 0.0;           ///< payload bytes the ops wrote
  std::vector<const SpanLog*> logs;  ///< every traced thread
  double scan_queries = 0.0;         ///< analytic queries (htap only)
  double scan_seconds = 0.0;         ///< their summed time
  double recover_s = 0.0;            ///< kv_durable only
  /// Registry delta across Recover() (kv_durable): the thread-pool metrics
  /// are read from it instead of the timed window.
  const RegistryDelta* recovery_delta = nullptr;
};

/// Fills result->ledger with every per-layer metric, in METRICS.md order,
/// and copies the spans into result->spans. Metrics of a layer the workload
/// does not reach read 0.
void BuildLedger(const LedgerInputs& in, RunResult* result);

/// --- engine helpers ---------------------------------------------------------


/// One projected analytic aggregate: sum(column) over a table.
struct Aggregate {
  const char* name;
  btrim::Table* table;
  size_t column;
  bool is_double;
};

/// Runs each aggregate through Database::ScanTable, each in its own
/// transaction, with one span per scan. Sets the pass time and, when
/// `sums` is set, the sums and row counts.
btrim::Status RunAggregatePass(Database* db, const std::vector<Aggregate>& aggs,
                               SpanLog* log, const SpanScope* root,
                               double* ms,
                               std::vector<std::pair<double, int64_t>>* sums =
                                   nullptr);

/// An analytic scanner: one aggregate pass per operation. A scan that loses
/// a lock fight (Busy / Aborted) counts as failed.
OpFn ScannerOp(Database* db, std::vector<Aggregate> aggs);

/// At quiescence: every ScanTable aggregate equals the same sum computed
/// through ScanIndex, with the same row count.
void CheckAggregates(Database* db, const std::vector<Aggregate>& aggs,
                     RunResult* result);

/// Visits every row of `table` in primary-key order through ScanIndex, a
/// page of rows at a time.
btrim::Status ForEachRow(Database* db, btrim::Table* table,
                         const std::function<void(const btrim::Slice&)>& fn);

/// Runs ILM ticks until pack stops finding rows to move.
void DrainPack(Database* db);

/// Waits until `loop` has completed `n` operations; false after 20 s.
bool WaitForOps(const ClosedLoop& loop, int64_t n);

/// Warm-up of a fixed amount of work: waits until `loop` has completed
/// `min_ops` operations and pack has run `pack_cycles` more cycles; false
/// after 20 s.
bool WaitForOpsAndPack(Database* db, const ClosedLoop& loop, int64_t min_ops,
                       int64_t pack_cycles);

/// Warm-up: waits until `loop` has completed `min_ops` operations, pack
/// has moved rows in `packing_polls` polls, and IMRS utilisation has stayed
/// flat (and, when pack must run, near steady_cache_pct) over the last
/// polls. Returns false if that did not happen within the warm-up cap.
bool WaitForSteadyIlm(Database* db, const ClosedLoop& loop, int64_t min_ops,
                      int packing_polls);

/// Encoded record bytes over every table (read at quiescence).
int64_t DatasetBytes(Database* db);

/// Workloads (tpcc_workloads.cc / kv_workloads.cc).
RunResult RunTpccIlm(const Args& args);
RunResult RunHtap(const Args& args);
RunResult RunKvWire(const Args& args);
RunResult RunKvDurable(const Args& args);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_

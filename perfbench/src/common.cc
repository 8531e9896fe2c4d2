#include "common.h"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <dirent.h>
#include <malloc.h>
#include <numeric>
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include "obs/metrics_registry.h"

namespace perfbench {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Seconds(int64_t ns) { return static_cast<double>(ns) / 1e9; }

const char* SpanNameString(SpanName name) {
  static const char* kNames[] = {
      "op",
      "tpcc.new_order",
      "tpcc.payment",
      "tpcc.order_status",
      "tpcc.delivery",
      "tpcc.stock_level",
      "engine.select",
      "engine.update",
      "engine.insert",
      "engine.commit",
      "engine.scan_table",
      "engine.scan_index",
      "engine.checkpoint",
      "session.get",
      "net.get",
      "net.put",
      "net.scan",
  };
  static_assert(sizeof(kNames) / sizeof(kNames[0]) ==
                static_cast<size_t>(SpanName::kCount));
  return kNames[static_cast<size_t>(name)];
}

SpanLog::SpanLog() : log_no_([] {
  static std::atomic<uint64_t> logs{0};
  return ++logs;
}()) {}

SpanScope::SpanScope(SpanLog* log, SpanName name, const SpanScope* parent)
    : log_(log) {
  if (log_ == nullptr) return;
  span_.name = name;
  span_.id = log_->NextId();
  if (parent != nullptr) {
    span_.op = parent->span_.op;
    span_.parent = parent->span_.id;
  } else {
    span_.op = span_.id;
  }
  span_.start_ns = NowNs();
}

SpanScope::~SpanScope() {
  if (log_ == nullptr) return;
  span_.end_ns = NowNs();
  log_->Add(span_);
}

// --- closed loop -------------------------------------------------------------

ClosedLoop::ClosedLoop(int threads, int kinds, OpFn op)
    : threads_(threads), kinds_(kinds), op_(std::move(op)) {
  tallies_.resize(static_cast<size_t>(threads));
  for (int t = 0; t < threads; ++t) {
    logs_.push_back(std::make_unique<SpanLog>());
  }
}

ClosedLoop::~ClosedLoop() { Stop(); }

void ClosedLoop::Start() {
  for (int t = 0; t < threads_; ++t) {
    workers_.emplace_back([this, t] { Worker(t); });
  }
}

void ClosedLoop::SetWindow(int64_t t0_ns, int64_t t1_ns, bool trace) {
  // Workers touch the tallies only after they see the new t0.
  slices_ = static_cast<int>((t1_ns - t0_ns + kSliceNs - 1) / kSliceNs);
  for (ThreadTally& t : tallies_) {
    t.latency_ns.assign(static_cast<size_t>(kinds_), {});
    for (auto& by_slice : t.latency_ns) {
      by_slice.assign(static_cast<size_t>(slices_), {});
    }
  }
  trace_.store(trace);
  t1_.store(t1_ns);
  t0_.store(t0_ns);
}

void ClosedLoop::Stop() {
  stop_.store(true);
  for (auto& w : workers_) w.join();
  workers_.clear();
}

void ClosedLoop::Worker(int thread) {
  ThreadTally& tally = tallies_[static_cast<size_t>(thread)];
  SpanLog* log = logs_[static_cast<size_t>(thread)].get();
  while (!stop_.load(std::memory_order_relaxed)) {
    const int64_t start = NowNs();
    // SetWindow stores t1 before t0, so a worker that sees the new t0 also
    // sees the new t1.
    const int64_t t0 = t0_.load(std::memory_order_acquire);
    const int64_t t1 = t1_.load(std::memory_order_relaxed);
    const bool measured = start >= t0 && start < t1;
    const int slice = measured ? static_cast<int>((start - t0) / kSliceNs) : 0;
    const bool traced =
        measured && trace_.load(std::memory_order_relaxed) && slice % 2 == 1;
    OpResult r;
    {
      SpanScope root(traced ? log : nullptr, SpanName::kOp);
      r = op_(thread, traced ? log : nullptr, traced ? &root : nullptr);
    }
    const int64_t end = NowNs();
    if (r.outcome == Outcome::kOk) completed_.fetch_add(1);
    if (!measured || end > t1) continue;
    ++tally.attempted;
    if (r.outcome == Outcome::kFailed) {
      ++tally.failed;
    } else if (r.outcome == Outcome::kOk) {
      ++tally.ok[traced ? 1 : 0];
      tally.latency_ns[static_cast<size_t>(r.kind)][static_cast<size_t>(slice)]
          .push_back(end - start);
    }
  }
}

std::vector<const SpanLog*> ClosedLoop::span_logs() const {
  std::vector<const SpanLog*> out;
  for (const auto& l : logs_) out.push_back(l.get());
  return out;
}

int64_t ClosedLoop::Attempted() const {
  int64_t n = 0;
  for (const auto& t : tallies_) n += t.attempted;
  return n;
}

int64_t ClosedLoop::Failed() const {
  int64_t n = 0;
  for (const auto& t : tallies_) n += t.failed;
  return n;
}

int64_t ClosedLoop::Ok(int traced) const {
  int64_t n = 0;
  for (const auto& t : tallies_) n += t.ok[traced];
  return n;
}

int64_t ClosedLoop::OkOfKind(int kind) const {
  int64_t n = 0;
  for (const auto& t : tallies_) {
    for (const auto& v : t.latency_ns[static_cast<size_t>(kind)]) {
      n += static_cast<int64_t>(v.size());
    }
  }
  return n;
}

std::vector<int64_t> ClosedLoop::Latencies(int slice, int kind) const {
  std::vector<int64_t> out;
  for (const auto& t : tallies_) {
    for (int k = 0; k < kinds_; ++k) {
      if (kind >= 0 && k != kind) continue;
      for (int s = 0; s < slices_; ++s) {
        if (slice >= 0 && s != slice) continue;
        const auto& v =
            t.latency_ns[static_cast<size_t>(k)][static_cast<size_t>(s)];
        out.insert(out.end(), v.begin(), v.end());
      }
    }
  }
  return out;
}

double QuantileUs(std::vector<int64_t> ns, double q) {
  if (ns.empty()) return 0.0;
  size_t rank =
      static_cast<size_t>(std::ceil(q * static_cast<double>(ns.size())));
  rank = std::clamp<size_t>(rank, 1, ns.size()) - 1;
  std::nth_element(ns.begin(), ns.begin() + static_cast<ptrdiff_t>(rank),
                   ns.end());
  return static_cast<double>(ns[rank]) / 1e3;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

double TrimmedMean(std::vector<double> values, double share) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t cut = static_cast<size_t>(share * values.size());
  const size_t n = values.size() - 2 * cut;
  return std::accumulate(values.begin() + cut, values.end() - cut, 0.0) / n;
}

// --- registry ----------------------------------------------------------------

int64_t RegistryReading::Get(const std::string& name) const {
  auto it = values.find(name);
  return it == values.end() ? 0 : it->second;
}

const btrim::LatencyHistogram::Snapshot* RegistryReading::Hist(
    const std::string& name) const {
  auto it = histograms.find(name);
  return it == histograms.end() ? nullptr : &it->second;
}

RegistryReading ReadRegistry(const Database* db) {
  RegistryReading r;
  for (const btrim::obs::MetricSample& m : db->metrics_registry()->Snapshot()) {
    if (m.type == btrim::obs::MetricType::kHistogram) {
      auto& h = r.histograms[m.name];
      for (size_t i = 0; i < h.counts.size(); ++i) {
        h.counts[i] += m.hist.counts[i];
      }
      h.total += m.hist.total;
      h.sum_us += m.hist.sum_us;
    } else {
      r.values[m.name] += m.value;
    }
  }
  return r;
}

int64_t RegistryDelta::HistCount(const std::string& name) const {
  const auto* b = begin.Hist(name);
  const auto* e = end.Hist(name);
  return (e ? e->total : 0) - (b ? b->total : 0);
}

int64_t RegistryDelta::HistSumUs(const std::string& name) const {
  const auto* b = begin.Hist(name);
  const auto* e = end.Hist(name);
  return (e ? e->sum_us : 0) - (b ? b->sum_us : 0);
}

int64_t RegistryDelta::HistQuantileUs(const std::string& name, double q) const {
  const auto* b = begin.Hist(name);
  const auto* e = end.Hist(name);
  if (e == nullptr) return 0;
  btrim::LatencyHistogram::Snapshot d = *e;
  if (b != nullptr) {
    for (size_t i = 0; i < d.counts.size(); ++i) d.counts[i] -= b->counts[i];
    d.total -= b->total;
    d.sum_us -= b->sum_us;
  }
  return d.PercentileUs(q);
}

// --- ledger / output ---------------------------------------------------------

void Ledger::Add(const std::string& name, double value,
                 const std::string& unit) {
  metrics_.push_back(Metric{name, value, unit, 0.0, 0.0, false});
}

void Ledger::Ratio(const std::string& name, double num, double den,
                   const std::string& unit, double scale) {
  const double value = den != 0.0 ? scale * num / den : 0.0;
  metrics_.push_back(Metric{name, value, unit, num, den, true});
}

namespace {

/// The CPUs the process may run on, how many of them PinToCpus chose (0:
/// unrestricted), and the ones it runs on now.
struct Pinning {
  std::vector<int> allowed;
  int n = 0;
  std::vector<int> current;
};

Pinning& Pins() {
  static Pinning pins;
  return pins;
}

cpu_set_t CpuSet(const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int cpu : cpus) CPU_SET(cpu, &set);
  return set;
}

std::string CpuList(const std::vector<int>& cpus) {
  std::string list;
  for (int cpu : cpus) list += (list.empty() ? "" : ",") + std::to_string(cpu);
  return list;
}

}  // namespace

const std::vector<int>& PinnedCpus() { return Pins().current; }

void PinToCpus(int n, Environment* env) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return;
  Pinning& pins = Pins();
  pins.allowed.clear();
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &allowed)) pins.allowed.push_back(cpu);
  }
  const int count = static_cast<int>(pins.allowed.size());
  std::vector<int> chosen(pins.allowed.begin(),
                          pins.allowed.begin() + std::min(std::max(n, 0), count));
  const cpu_set_t set = CpuSet(chosen);
  if (n > 0 && sched_setaffinity(0, sizeof(set), &set) == 0) {
    pins.n = static_cast<int>(chosen.size());
    pins.current = chosen;
    env->Set("cpus", CpuList(pins.allowed));
    env->Set("cpus_at_once", pins.n);
  } else {
    env->Set("cpus", n > 0 ? "unrestricted (sched_setaffinity failed)"
                           : "unrestricted");
  }
}

void RotatePinnedCpus(int step) {
  Pinning& pins = Pins();
  if (pins.n == 0) return;
  const int count = static_cast<int>(pins.allowed.size());
  std::vector<int> chosen;
  for (int i = 0; i < pins.n; ++i) {
    chosen.push_back(pins.allowed[(step + i) % count]);
  }
  std::sort(chosen.begin(), chosen.end());
  if (chosen == pins.current) return;
  const cpu_set_t set = CpuSet(chosen);
  // Every thread: the workload's callers, the server's and the database's.
  // A thread that starts meanwhile inherits its creator's CPUs.
  if (DIR* dir = opendir("/proc/self/task")) {
    while (dirent* e = readdir(dir)) {
      const pid_t tid = static_cast<pid_t>(std::atoi(e->d_name));
      if (tid > 0) sched_setaffinity(tid, sizeof(set), &set);
    }
    closedir(dir);
  }
  pins.current = chosen;
}

StealReading ReadSteal() {
  StealReading r;
  std::ifstream in("/proc/stat");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("cpu", 0) != 0) break;
    std::istringstream fields(line);
    std::string name;
    fields >> name;
    if (name == "cpu") continue;  // the machine-wide line
    const size_t cpu = static_cast<size_t>(std::atoi(name.c_str() + 3));
    if (cpu >= r.total.size()) {
      r.total.resize(cpu + 1, 0.0);
      r.steal.resize(cpu + 1, 0.0);
    }
    // user nice system idle iowait irq softirq steal (guest time is
    // already part of user).
    double v[8] = {};
    for (double& x : v) fields >> x;
    for (double x : v) r.total[cpu] += x;
    r.steal[cpu] = v[7];
  }
  return r;
}

double StealShare(const StealReading& from, const StealReading& to,
                  const std::vector<int>& cpus) {
  double steal = 0.0, total = 0.0;
  const size_t n = std::min(from.total.size(), to.total.size());
  for (size_t cpu = 0; cpu < n; ++cpu) {
    if (!cpus.empty() &&
        std::find(cpus.begin(), cpus.end(), static_cast<int>(cpu)) ==
            cpus.end()) {
      continue;
    }
    steal += to.steal[cpu] - from.steal[cpu];
    total += to.total[cpu] - from.total[cpu];
  }
  if (total <= 0) return 0.0;
  return std::clamp(steal / total, 0.0, 0.9);
}

double PeakRssMib() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

bool ResetPeakRss() {
  // Writing 5 to clear_refs restarts VmHWM (Linux 4.0+).
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
  out.flush();
  return static_cast<bool>(out);
}

void ReleaseFreedMemory() { malloc_trim(0); }

double SpanQuantileUs(const std::vector<const SpanLog*>& logs, SpanName name,
                      double q) {
  std::vector<int64_t> ns;
  for (const SpanLog* log : logs) {
    for (const Span& s : log->spans()) {
      if (s.name == name) ns.push_back(s.end_ns - s.start_ns);
    }
  }
  return QuantileUs(std::move(ns), q);
}

bool WriteSpanFile(const std::string& path,
                   const std::vector<std::vector<Span>>& spans,
                   size_t max_per_thread) {
  FILE* f = fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (size_t li = 0; li < spans.size(); ++li) {
    const size_t n = std::min(spans[li].size(), max_per_thread);
    for (size_t i = 0; i < n; ++i) {
      const Span& s = spans[li][i];
      fprintf(f,
              "{\"log\":%zu,\"op\":%" PRIu64 ",\"id\":%" PRIu64
              ",\"parent\":%" PRIu64 ",\"name\":\"%s\",\"start_ns\":%" PRId64
              ",\"end_ns\":%" PRId64 "}\n",
              li, s.op, s.id, s.parent, SpanNameString(s.name), s.start_ns,
              s.end_ns);
    }
  }
  return fclose(f) == 0;
}

std::string JsonEscape(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string FormatDouble(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// --- timed window ------------------------------------------------------------

namespace {

/// Machine-wide CPU time from /proc/stat and this process's own, in
/// seconds.
struct CpuReading {
  double total = 0.0;  ///< every state, idle included
  double idle = 0.0;   ///< idle + iowait
  double steal = 0.0;
  double own = 0.0;
};

CpuReading ReadCpu() {
  CpuReading r;
  std::ifstream in("/proc/stat");
  std::string cpu;
  double v[10] = {};
  if (in >> cpu && cpu == "cpu") {
    for (double& x : v) in >> x;
  }
  const double hz = static_cast<double>(sysconf(_SC_CLK_TCK));
  // user nice system idle iowait irq softirq steal guest guest_nice; guest
  // time is already part of user.
  for (int i = 0; i < 8; ++i) r.total += v[i] / hz;
  r.idle = (v[3] + v[4]) / hz;
  r.steal = v[7] / hz;
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  r.own = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
          static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
  return r;
}

}  // namespace

TimedWindow::TimedWindow(Database* db, const Args& args,
                         const std::vector<ClosedLoop*>& loops,
                         const std::function<void()>& mid_phase) {
  constexpr int64_t kSampleNs = 100'000'000;
  peak_rss_window_only_ = ResetPeakRss();
  delta_.begin = ReadRegistry(db);
  const CpuReading cpu0 = ReadCpu();
  const int64_t t0 = NowNs();
  t0_ns_ = t0;
  const int64_t t1 = t0 + static_cast<int64_t>(args.seconds) * 1'000'000'000;
  for (ClosedLoop* loop : loops) loop->SetWindow(t0, t1, args.trace);
  bool mid_done = !mid_phase;
  std::vector<double> imrs_bytes;
  // Ticks fall on multiples of kSampleNs from t0, so the vCPUs change at
  // slice boundaries and each slice's steal is read over its own vCPUs.
  // They change every second slice: a traced run alternates untraced and
  // traced slices, and each pair then runs on the same vCPUs.
  for (int64_t now = t0; now < t1; now = NowNs()) {
    const size_t slice = static_cast<size_t>((now - t0) / ClosedLoop::kSliceNs);
    if (slice_cpus_.size() <= slice) {
      RotatePinnedCpus(static_cast<int>(slice / 2));
      slice_cpus_.resize(slice + 1, PinnedCpus());
    }
    steal_.push_back({now, ReadSteal()});
    if (!mid_done && now >= t0 + (t1 - t0) / 2) {
      mid_phase();
      mid_done = true;
      continue;
    }
    imrs_bytes.push_back(
        static_cast<double>(db->imrs_allocator()->InUseBytes()));
    const int64_t next = t0 + ((now - t0) / kSampleNs + 1) * kSampleNs;
    std::this_thread::sleep_for(
        std::chrono::nanoseconds(std::min(next, t1) - NowNs()));
  }
  steal_.push_back({NowNs(), ReadSteal()});
  RotatePinnedCpus(0);
  const CpuReading cpu1 = ReadCpu();
  delta_.end = ReadRegistry(db);
  const double total = cpu1.total - cpu0.total;
  if (total > 0) {
    const double busy = total - (cpu1.idle - cpu0.idle);
    const double steal = cpu1.steal - cpu0.steal;
    const double own = cpu1.own - cpu0.own;
    cpu_.own_pct = 100.0 * own / total;
    cpu_.steal_pct = 100.0 * steal / total;
    cpu_.other_pct = 100.0 * std::max(0.0, busy - steal - own) / total;
  }
  imrs_mib_ = Median(imrs_bytes) / (1024.0 * 1024.0);
  peak_rss_mib_ = PeakRssMib();
  seconds_ = Seconds(t1 - t0);
}

double TimedWindow::StealShare(int64_t from_ns, int64_t to_ns) const {
  // The last reading at or before `from_ns` and the first at or after
  // `to_ns` (readings are in time order, the first at the window's open).
  size_t a = 0, b = steal_.size() - 1;
  while (a + 1 < steal_.size() && steal_[a + 1].first <= from_ns) ++a;
  for (size_t i = a; i < steal_.size(); ++i) {
    if (steal_[i].first >= to_ns) {
      b = i;
      break;
    }
  }
  const size_t slice = std::min(
      static_cast<size_t>(std::max<int64_t>(0, from_ns - t0_ns_) /
                          ClosedLoop::kSliceNs),
      slice_cpus_.size() - 1);
  return perfbench::StealShare(steal_[a].second, steal_[b].second,
                               slice_cpus_[slice]);
}

// --- end-to-end and per-layer metric sets -----------------------------------

void AddEndToEnd(const ClosedLoop& loop, const ClosedLoop& scans,
                 const TimedWindow& window, const SetupTime& setup,
                 RunResult* result) {
  std::vector<double> tput, wall_tput, p50, p99, steals;
  const int64_t slice_ns = ClosedLoop::kSliceNs;
  const double slice_s = window.seconds() / loop.slices();
  for (int s = 0; s < loop.slices(); ++s) {
    const std::vector<int64_t> lat = loop.Latencies(s);
    const int64_t from = window.t0_ns() + s * slice_ns;
    const double steal = window.StealShare(from, from + slice_ns);
    steals.push_back(steal);
    wall_tput.push_back(static_cast<double>(lat.size()) / slice_s);
    tput.push_back(wall_tput.back() / (1.0 - steal));
    p50.push_back(QuantileUs(lat, 0.50));
    p99.push_back(QuantileUs(lat, 0.99));
  }
  result->series["slice_throughput"] = tput;
  result->series["slice_p50_us"] = p50;
  result->series["slice_p99_us"] = p99;
  result->attempted += loop.Attempted();
  result->failed += loop.Failed();
  if (&scans != &loop) {
    result->attempted += scans.Attempted();
    result->failed += scans.Failed();
  }
  const double attempted = static_cast<double>(result->attempted);
  const double failed = static_cast<double>(result->failed);
  std::vector<Metric>& m = result->end_to_end;
  m.push_back({"throughput", TrimmedMean(tput, kSliceTrim), "1/s"});
  m.push_back({"latency_p50_us", TrimmedMean(p50, kSliceTrim), "us"});
  m.push_back({"latency_p99_us", TrimmedMean(p99, kSliceTrim), "us"});
  m.push_back({"success_ratio",
               attempted > 0 ? 1.0 - failed / attempted : 0.0, "ratio"});
  m.push_back({"setup_s", setup.s, "s"});
  m.push_back({"imrs_mib", window.ImrsMib(), "MiB"});
  m.push_back({"peak_rss_mib", window.PeakRssMibAtClose(), "MiB"});
  result->env.Set("peak_rss_scope",
                  window.peak_rss_window_only() ? "window" : "process");
  result->env.Set("window_cpu_own_pct", FormatDouble(window.cpu().own_pct));
  result->env.Set("window_cpu_other_pct",
                  FormatDouble(window.cpu().other_pct));
  result->env.Set("window_cpu_steal_pct",
                  FormatDouble(window.cpu().steal_pct));
  result->env.Set("window_steal_share",
                  FormatDouble(std::accumulate(steals.begin(), steals.end(), 0.0) /
                               std::max<size_t>(1, steals.size())));
  result->env.Set("throughput_wall", FormatDouble(TrimmedMean(wall_tput, kSliceTrim)));
  result->env.Set("setup_s_wall", FormatDouble(setup.wall_s));
}

void BuildLedger(const LedgerInputs& in, RunResult* result) {
  Ledger* l = &result->ledger;
  const RegistryDelta& d = in.window->delta();
  const double ops = static_cast<double>(in.loop->Ok(0) + in.loop->Ok(1));
  const double txns = static_cast<double>(d.Delta("txn.committed"));
  const double aborted = static_cast<double>(d.Delta("txn.aborted"));
  auto delta = [&](const char* name) {
    return static_cast<double>(d.Delta(name));
  };
  auto gauge = [&](const char* name) {
    return static_cast<double>(d.Gauge(name));
  };
  auto span_p50 = [&](const char* metric, SpanName name) {
    l->Add(metric, SpanQuantileUs(in.logs, name, 0.5), "us");
  };

  // tpcc
  span_p50("tpcc.new_order_p50_us", SpanName::kTpccNewOrder);
  span_p50("tpcc.payment_p50_us", SpanName::kTpccPayment);
  span_p50("tpcc.order_status_p50_us", SpanName::kTpccOrderStatus);
  span_p50("tpcc.delivery_p50_us", SpanName::kTpccDelivery);
  span_p50("tpcc.stock_level_p50_us", SpanName::kTpccStockLevel);

  // engine (access, checkpoint)
  const double imrs_ops = delta("engine.imrs_ops");
  l->Ratio("engine.imrs_hit_ratio", imrs_ops,
           imrs_ops + delta("engine.page_ops"), "ratio");
  span_p50("engine.select_p50_us", SpanName::kEngineSelect);
  span_p50("engine.update_p50_us", SpanName::kEngineUpdate);
  span_p50("engine.insert_p50_us", SpanName::kEngineInsert);
  span_p50("engine.commit_p50_us", SpanName::kEngineCommit);
  l->Add("engine.commit_p99_us",
         SpanQuantileUs(in.logs, SpanName::kEngineCommit, 0.99), "us");
  l->Add("checkpoint.pause_us", gauge("checkpoint.last_pause_us"), "us");
  l->Add("checkpoint.total_ms", gauge("checkpoint.last_total_us") / 1e3, "ms");

  // net and Session
  span_p50("net.rtt_get_p50_us", SpanName::kNetGet);
  span_p50("net.rtt_put_p50_us", SpanName::kNetPut);
  span_p50("net.rtt_scan_p50_us", SpanName::kNetScan);
  l->Add("net.server_p50_us",
         static_cast<double>(d.HistQuantileUs("net.request_latency_us", 0.5)),
         "us");
  span_p50("net.session_get_p50_us", SpanName::kSessionGet);
  l->Add("net.shed", delta("net.shed"), "count");
  l->Ratio("net.bytes_per_request",
           delta("net.bytes_in") + delta("net.bytes_out"),
           delta("net.requests"), "B/request");

  // index
  const double searches = delta("index.searches");
  l->Ratio("index.searches_per_op", searches, ops, "count/op");
  l->Ratio("index.olc_restart_ratio", delta("index.olc_restarts"), searches,
           "ratio");
  l->Ratio("index.pessimistic_ratio", delta("index.pessimistic_descents"),
           searches, "ratio");

  // page
  const double hits = delta("buffer_cache.hits");
  l->Ratio("buffer_cache.fixes_per_op", delta("buffer_cache.fixes"), ops,
           "count/op");
  l->Ratio("buffer_cache.hit_ratio", hits, hits + delta("buffer_cache.misses"),
           "ratio");
  l->Ratio("buffer_cache.evictions_per_op", delta("buffer_cache.evictions"),
           ops, "count/op");
  l->Ratio("buffer_cache.latch_contention_per_op",
           delta("buffer_cache.latch_contention"), ops, "count/op");

  // txn
  const double acquisitions = delta("locks.acquisitions");
  l->Ratio("locks.acquisitions_per_txn", acquisitions, txns, "count/txn");
  l->Ratio("locks.fast_grant_ratio", delta("locks.fast_grants"), acquisitions,
           "ratio");
  l->Ratio("locks.waits_per_txn", delta("locks.waits"), txns, "count/txn");
  l->Ratio("locks.wait_us_per_txn", delta("locks.wait_us"), txns, "us/txn");
  l->Add("locks.timeouts", delta("locks.timeouts"), "count");
  l->Ratio("txn.abort_ratio", aborted, txns + aborted, "ratio");

  // wal
  l->Ratio("wal.bytes_per_user_byte", delta("wal.bytes_appended"),
           in.user_bytes, "B/B");
  l->Ratio("wal.syncs_per_commit", delta("wal.syncs"), txns, "count/txn");
  l->Ratio("commit.groups_per_batch", delta("commit.groups"),
           delta("commit.batches"), "count/batch");
  l->Add("commit.latency_p50_us",
         static_cast<double>(d.HistQuantileUs("commit.latency_us", 0.5)),
         "us");

  // imrs
  l->Add("rid_map.entries", gauge("rid_map.entries"), "count");
  l->Ratio("gc.versions_freed_per_txn", delta("gc.versions_freed"), txns,
           "count/txn");
  l->Add("gc.work_pending", gauge("gc.work_pending"), "count");

  // alloc
  const double in_use = gauge("imrs_cache.in_use_bytes");
  l->Ratio("imrs_cache.utilization", in_use,
           gauge("imrs_cache.capacity_bytes"), "ratio");
  l->Ratio("imrs_cache.fragmentation", gauge("imrs_cache.segment_bytes"),
           in_use, "ratio");
  l->Add("imrs_cache.failed_allocs", delta("imrs_cache.failed_allocs"),
         "count");

  // ilm
  const double packed = delta("pack.rows_packed");
  l->Add("pack.cycles", delta("pack.cycles"), "count");
  l->Add("pack.busy_ms",
         static_cast<double>(d.HistSumUs("pack.partition_pack_us")) / 1e3,
         "ms");
  l->Add("pack.lock_wait_us",
         static_cast<double>(d.HistSumUs("pack.lock_wait_us")), "us");
  l->Ratio("pack.rows_packed_per_txn", packed, txns, "rows/txn");
  l->Ratio("pack.useful_ratio", packed,
           packed + delta("pack.rows_skipped_hot"), "ratio");
  l->Ratio("partition.migrations_per_txn", delta("partition.migrations"),
           txns, "count/txn");
  l->Ratio("partition.cachings_per_txn", delta("partition.cachings"), txns,
           "count/txn");
  l->Add("tuner.total_disables", gauge("tuner.total_disables"), "count");

  // cold: only htap reaches it, and htap is not one of BENCHMARK.json's
  // workloads, whose traced runs print exactly its per_layer list.
  if (in.scan_queries > 0) {
    l->Ratio("cold.bytes_scanned_per_query", delta("cold.scan_bytes_scanned"),
             in.scan_queries, "B/query");
    l->Ratio("cold.compression_ratio", gauge("cold.bytes_packed_raw"),
             gauge("cold.bytes_packed_compressed"), "ratio");
    l->Ratio("cold.scan_rows_per_s", delta("cold.scan_rows_emitted"),
             in.scan_seconds, "rows/s");
    l->Add("cold.point_reads", delta("cold.point_reads"), "count");
  }

  // common (background thread pool)
  const RegistryDelta& pd = in.recovery_delta ? *in.recovery_delta : d;
  l->Ratio("pool.queue_wait_us",
           static_cast<double>(pd.HistSumUs("pool.queue_wait_us")),
           static_cast<double>(pd.HistCount("pool.queue_wait_us")), "us");
  l->Add("pool.tasks_executed",
         static_cast<double>(pd.Delta("pool.tasks_executed")), "count");

  // run level
  l->Ratio("error_ratio", static_cast<double>(result->failed),
           static_cast<double>(result->attempted), "ratio");
  l->Add("recover_s", in.recover_s, "s");
  l->Add("scan_p50_ms",
         QuantileUs(in.scans->Latencies(-1, in.scan_kind), 0.5) / 1e3, "ms");
  // Slices alternate untraced / traced, so each kind fills half the window.
  const double half_s = in.window->seconds() / 2.0;
  const double untraced = static_cast<double>(in.loop->Ok(0)) / half_s;
  const double traced = static_cast<double>(in.loop->Ok(1)) / half_s;
  l->Ratio("trace.overhead_pct", untraced - traced, untraced, "%", 100.0);

  for (const SpanLog* log : in.logs) result->spans.push_back(log->spans());
}

// --- engine helpers ----------------------------------------------------------

btrim::Status RunAggregatePass(Database* db, const std::vector<Aggregate>& aggs,
                               SpanLog* log, const SpanScope* root, double* ms,
                               std::vector<std::pair<double, int64_t>>* sums) {
  const int64_t t0 = NowNs();
  if (sums != nullptr) sums->clear();
  for (const Aggregate& a : aggs) {
    btrim::HtapScanOptions options;
    options.columns = {a.column};
    double sum = 0.0;
    int64_t rows = 0;
    auto txn = db->Begin();
    btrim::Status s;
    {
      SpanScope span(log, SpanName::kEngineScanTable, root);
      s = db->ScanTable(txn.get(), a.table, options,
                        [&](const btrim::HtapRow& row) {
                          sum += a.is_double
                                     ? row.Double(a.column)
                                     : static_cast<double>(row.Int(a.column));
                          ++rows;
                          return true;
                        });
    }
    if (s.ok()) {
      s = db->Commit(txn.get());
    } else {
      (void)db->Abort(txn.get());
    }
    if (!s.ok()) return s;
    if (sums != nullptr) sums->push_back({sum, rows});
  }
  *ms = static_cast<double>(NowNs() - t0) / 1e6;
  return btrim::Status::OK();
}

OpFn ScannerOp(Database* db, std::vector<Aggregate> aggs) {
  return [db, aggs = std::move(aggs)](int, SpanLog* log,
                                      const SpanScope* root) -> OpResult {
    double ms = 0.0;
    btrim::Status s = RunAggregatePass(db, aggs, log, root, &ms);
    return {s.ok() ? Outcome::kOk : Outcome::kFailed, 0};
  };
}

btrim::Status ForEachRow(Database* db, btrim::Table* table,
                         const std::function<void(const btrim::Slice&)>& fn) {
  constexpr size_t kPage = 4096;
  std::string lower;
  for (;;) {
    std::vector<btrim::ScanRow> rows;
    auto txn = db->Begin();
    btrim::Status s = db->ScanIndex(txn.get(), table, -1, lower,
                                    btrim::Slice(), kPage, &rows);
    if (s.ok()) {
      s = db->Commit(txn.get());
    } else {
      (void)db->Abort(txn.get());
    }
    if (!s.ok()) return s;
    // A page can come back short of kPage (invisible entries count toward
    // the limit), so only an empty page ends the table.
    if (rows.empty()) return btrim::Status::OK();
    for (const btrim::ScanRow& r : rows) fn(r.payload);
    lower = table->pk_encoder().KeyForRecord(rows.back().payload);
    lower.push_back('\0');  // the smallest key after the last one
  }
}

void CheckAggregates(Database* db, const std::vector<Aggregate>& aggs,
                     RunResult* result) {
  double ms = 0.0;
  std::vector<std::pair<double, int64_t>> sums;
  btrim::Status s = RunAggregatePass(db, aggs, nullptr, nullptr, &ms, &sums);
  if (!s.ok()) {
    result->Fail("ScanTable aggregate: " + s.ToString());
    return;
  }
  for (size_t i = 0; i < aggs.size(); ++i) {
    const Aggregate& a = aggs[i];
    double sum = 0.0;
    int64_t rows = 0;
    s = ForEachRow(db, a.table, [&](const btrim::Slice& payload) {
      btrim::RecordView v(&a.table->schema(), payload);
      sum += a.is_double ? v.GetDouble(a.column)
                         : static_cast<double>(v.GetInt(a.column));
      ++rows;
    });
    if (!s.ok()) {
      result->Fail(std::string("ScanIndex ") + a.name + ": " + s.ToString());
      return;
    }
    const double tol = 1e-9 * std::max(1.0, std::fabs(sum));
    result->Check(
        std::fabs(sum - sums[i].first) <= tol && rows == sums[i].second,
        std::string("ScanTable != ScanIndex for ") + a.name);
  }
}

void DrainPack(Database* db) {
  db->RunGcOnce();
  int64_t last_rows = -1;
  int stalled = 0;
  for (int iter = 0; iter < 500 && stalled < 3; ++iter) {
    db->RunIlmTickOnce();
    const int64_t rows = db->GetStats().pack.rows_packed;
    stalled = rows == last_rows ? stalled + 1 : 0;
    last_rows = rows;
  }
}

bool WaitForOps(const ClosedLoop& loop, int64_t n) {
  const int64_t deadline = NowNs() + 20'000'000'000;
  while (loop.completed() < n) {
    if (NowNs() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return true;
}

bool WaitForOpsAndPack(Database* db, const ClosedLoop& loop, int64_t min_ops,
                       int64_t pack_cycles) {
  const int64_t target = db->GetStats().pack.cycles + pack_cycles;
  const int64_t deadline = NowNs() + 20'000'000'000;
  while (loop.completed() < min_ops || db->GetStats().pack.cycles < target) {
    if (NowNs() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return true;
}

bool WaitForSteadyIlm(Database* db, const ClosedLoop& loop, int64_t min_ops,
                      int packing_polls) {
  constexpr int kPollMs = 50;
  constexpr int kMaxPolls = 400;      // 20 s cap
  constexpr size_t kWindow = 10;      // polls utilisation must be flat over
  constexpr double kBand = 0.05;
  const double steady = db->options().ilm.steady_cache_pct;
  int64_t last_packed = db->GetStats().pack.rows_packed;
  int packing = 0;
  std::vector<double> utils;
  for (int i = 0; i < kMaxPolls; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(kPollMs));
    const btrim::DatabaseStats st = db->GetStats();
    if (st.pack.rows_packed > last_packed) ++packing;
    last_packed = st.pack.rows_packed;
    utils.push_back(static_cast<double>(st.imrs_cache.in_use_bytes) /
                    static_cast<double>(db->options().imrs_cache_bytes));
    if (loop.completed() < min_ops || packing < packing_polls ||
        utils.size() < kWindow) {
      continue;
    }
    const auto [lo, hi] =
        std::minmax_element(utils.end() - kWindow, utils.end());
    const bool near_steady = packing_polls == 0 || *lo >= steady - kBand;
    if (near_steady && *hi - *lo <= kBand) return true;
  }
  return false;
}

int64_t DatasetBytes(Database* db) {
  int64_t bytes = 0;
  for (btrim::Table* table : db->Tables()) {
    (void)ForEachRow(db, table, [&](const btrim::Slice& payload) {
      bytes += static_cast<int64_t>(payload.size());
    });
  }
  return bytes;
}

}  // namespace perfbench

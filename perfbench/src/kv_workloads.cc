// kv_wire and kv_durable: a kv-shaped table [Int64 k, String v], driven over
// the wire through net::Client (kv_wire) or in-process through Database DML
// on a file-backed, group-committed database that is crashed and recovered
// at the end (kv_durable).
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <unordered_map>
#include <unordered_set>
#include <unistd.h>

#include "common.h"
#include "common/random.h"
#include "engine/session.h"
#include "net/client.h"
#include "net/server.h"

namespace perfbench {
namespace {

using btrim::DatabaseOptions;
using btrim::RecordBuilder;
using btrim::RecordView;
using btrim::Result;
using btrim::Slice;
using btrim::Status;
using btrim::Table;

// kv_wire runs one connection on one vCPU at a time, so a request's hops
// from client to event loop to lane stay on it. Unpinned, two runs in a row
// (with two connections) read 6 500 and 31 000 requests/s, with the host's
// steal time at 24% and 6% of the machine. Pinned, a second connection
// raised throughput by a fifth, but the spread of the Scan's median round
// trip between runs went from 0.08 to 0.15 of its median: a Scan then
// often waits for the other connection's request. The server keeps two lanes, so each
// request still takes the hop to a lane. kv_durable's two threads get a
// vCPU each.
constexpr int kWireConns = 1;
constexpr int kWireLanes = 2;
constexpr int kWireCpus = 1;
constexpr int kDurableThreads = 2;
constexpr int kDurableCpus = 2;
constexpr size_t kValueBytes = 100;
constexpr const char* kTable = "kv";

/// Deterministic 100-byte value: `tag` followed by filler derived from it.
std::string MakeValue(const std::string& tag) {
  std::string v = tag;
  uint64_t h = 1469598103934665603ull;
  for (char c : tag) h = (h ^ static_cast<uint8_t>(c)) * 1099511628211ull;
  while (v.size() < kValueBytes) {
    h = h * 6364136223846793005ull + 1442695040888963407ull;
    v.push_back(static_cast<char>('a' + (h >> 59) % 26));
  }
  return v;
}

std::string InitialValue(uint64_t seed, int64_t key) {
  return MakeValue("init:" + std::to_string(seed) + ":" + std::to_string(key));
}

/// Scrambled zipfian over [0, n) (YCSB's generator, theta 0.99): popular
/// keys are spread over the keyspace instead of clustering at 0.
class Zipfian {
 public:
  explicit Zipfian(int64_t n, double theta = 0.99) : n_(n), theta_(theta) {
    for (int64_t i = 1; i <= n; ++i) zetan_ += 1.0 / std::pow(i, theta);
    const double zeta2 = 1.0 + 1.0 / std::pow(2.0, theta);
    alpha_ = 1.0 / (1.0 - theta);
    eta_ = (1.0 - std::pow(2.0 / static_cast<double>(n), 1.0 - theta)) /
           (1.0 - zeta2 / zetan_);
  }

  int64_t Next(btrim::Random* rng) const {
    const double u = rng->NextDouble();
    const double uz = u * zetan_;
    int64_t rank;
    if (uz < 1.0) {
      rank = 0;
    } else if (uz < 1.0 + std::pow(0.5, theta_)) {
      rank = 1;
    } else {
      rank = static_cast<int64_t>(static_cast<double>(n_) *
                                  std::pow(eta_ * u - eta_ + 1.0, alpha_));
    }
    uint64_t h = static_cast<uint64_t>(std::min(rank, n_ - 1)) + 1;
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdull;
    h ^= h >> 33;
    return static_cast<int64_t>(h % static_cast<uint64_t>(n_));
  }

 private:
  const int64_t n_;
  const double theta_;
  double zetan_ = 0.0;
  double alpha_ = 0.0;
  double eta_ = 0.0;
};

Result<Table*> CreateKvTable(Database* db, bool use_hash_index) {
  btrim::TableOptions o;
  o.name = kTable;
  o.schema = btrim::Schema(
      {btrim::Column::Int64("k"), btrim::Column::String("v", 256)});
  o.primary_key = {0};
  o.use_hash_index = use_hash_index;
  return db->CreateTable(std::move(o));
}

Status LoadKv(Database* db, Table* table, int64_t rows, uint64_t seed,
              int64_t batch) {
  for (int64_t base = 0; base < rows; base += batch) {
    auto txn = db->Begin();
    for (int64_t k = base; k < std::min(rows, base + batch); ++k) {
      RecordBuilder b(&table->schema());
      b.AddInt64(k).AddString(InitialValue(seed, k));
      Status s = db->Insert(txn.get(), table, b.Finish());
      if (!s.ok()) {
        (void)db->Abort(txn.get());
        return s;
      }
    }
    BTRIM_RETURN_IF_ERROR(db->Commit(txn.get()));
  }
  return Status::OK();
}

int64_t RecordBytes() {
  btrim::Schema schema(
      {btrim::Column::Int64("k"), btrim::Column::String("v", 256)});
  RecordBuilder b(&schema);
  b.AddInt64(0).AddString(std::string(kValueBytes, 'x'));
  return static_cast<int64_t>(b.Finish().size());
}

/// What one writer thread has acknowledged: key -> last acked value.
/// Each caller writes only keys with key % callers == caller.
struct WriterModel {
  std::unordered_map<int64_t, std::string> acked;
  /// Keys whose last write failed: it may or may not have applied, so they
  /// are no longer checked.
  std::unordered_set<int64_t> unknown;
  std::string failure;  ///< first mismatch seen while running
  uint64_t seq = 0;
  int64_t inserts = 0;

  void Fail(const std::string& why) {
    if (failure.empty()) failure = why;
  }
  void Forget(int64_t key) {
    acked.erase(key);
    unknown.insert(key);
  }
  bool Known(int64_t key) const { return unknown.count(key) == 0; }
  /// Expected value of an own-stripe key that was loaded at setup.
  std::string Expected(uint64_t seed, int64_t key) const {
    auto it = acked.find(key);
    return it != acked.end() ? it->second : InitialValue(seed, key);
  }
};

std::string Tag(int thread, uint64_t seq) {
  return "w" + std::to_string(thread) + ":" + std::to_string(seq) + ":";
}

// --- kv_wire -----------------------------------------------------------------

constexpr int64_t kWireRows = 50'000;
constexpr uint32_t kScanLimit = 16;
constexpr int kWireScan = 2;  // op kind of the Scan: scan_p50_ms

struct WireSetup {
  std::string dir;  ///< data directory of the file-backed database
  std::unique_ptr<Database> db;
  std::unique_ptr<btrim::net::Server> server;
  std::vector<std::unique_ptr<btrim::net::Client>> clients;
  std::vector<btrim::Random> rngs;
  std::vector<WriterModel> models;
  std::unique_ptr<Zipfian> zipf;
  std::unique_ptr<ClosedLoop> loop;
  uint64_t seed = 0;

  ~WireSetup() {
    loop.reset();
    clients.clear();
    if (server) server->Stop();
    server.reset();
    db.reset();
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
  }
};

/// 85% Get, 10% Put (own stripe), 5% Scan of kScanLimit rows; zipfian keys.
OpResult WireOp(WireSetup* s, int t, SpanLog* log, const SpanScope* root) {
  btrim::net::Client* c = s->clients[static_cast<size_t>(t)].get();
  btrim::Random& rng = s->rngs[static_cast<size_t>(t)];
  WriterModel& model = s->models[static_cast<size_t>(t)];
  const int dice = static_cast<int>(rng.Uniform(100));
  const int64_t key = s->zipf->Next(&rng);
  if (dice < 85) {
    auto r = Traced(log, SpanName::kNetGet, root,
                    [&] { return c->Get(kTable, key); });
    if (!r.ok() || r->code != Status::Code::kOk) return {Outcome::kFailed, 0};
    if (key % kWireConns == t) {
      if (model.Known(key) && r->value != model.Expected(s->seed, key)) {
        model.Fail("wire Get of own key " + std::to_string(key) +
                   " disagrees with the model");
      }
    } else if (r->value.size() != kValueBytes) {
      model.Fail("wire Get returned a malformed value");
    }
    return {Outcome::kOk, 0};
  }
  if (dice < 95) {
    int64_t own = key - key % kWireConns + t;
    if (own >= kWireRows) own -= kWireConns;
    const std::string value = MakeValue(Tag(t, ++model.seq));
    auto r = Traced(log, SpanName::kNetPut, root,
                    [&] { return c->Put(kTable, own, value); });
    if (!r.ok() || r->code != Status::Code::kOk) {
      model.Forget(own);
      return {Outcome::kFailed, 1};
    }
    model.acked[own] = value;
    return {Outcome::kOk, 1};
  }
  auto r = Traced(log, SpanName::kNetScan, root,
                  [&] { return c->Scan(kTable, key, kScanLimit); });
  if (!r.ok() || r->code != Status::Code::kOk) {
    return {Outcome::kFailed, kWireScan};
  }
  const size_t want =
      static_cast<size_t>(std::min<int64_t>(kScanLimit, kWireRows - key));
  bool ok = r->rows.size() == want;
  for (size_t i = 0; ok && i < r->rows.size(); ++i) {
    ok = r->rows[i].key == key + static_cast<int64_t>(i);
  }
  if (!ok) model.Fail("wire Scan from " + std::to_string(key) + " wrong rows");
  return {Outcome::kOk, kWireScan};
}

/// Opens a fresh file-backed kv_wire database and loads the kv table from
/// the seed. File-backed with no sync: an in-memory log is one buffer that
/// doubles as it grows, which moved peak_rss_mib by 20 MiB depending on
/// whether a doubling fell in the window.
std::unique_ptr<WireSetup> SetupWire(const Args& args, int attempt) {
  const uint64_t seed = args.seed;
  auto s = std::make_unique<WireSetup>();
  s->seed = seed;
  s->dir = args.work_dir + "/kv_wire-" + std::to_string(getpid()) + "-" +
           std::to_string(attempt);
  std::filesystem::remove_all(s->dir);
  std::filesystem::create_directories(s->dir);
  DatabaseOptions o;
  o.in_memory = false;
  o.data_dir = s->dir;
  o.imrs_cache_bytes = 64u << 20;  // the table fits comfortably
  o.buffer_cache_frames = 1024;
  o.lock_timeout_ms = 1000;
  auto opened = Database::Open(o);
  if (!opened.ok()) {
    fprintf(stderr, "open: %s\n", opened.status().ToString().c_str());
    return nullptr;
  }
  s->db = std::move(*opened);
  auto table = CreateKvTable(s->db.get(), /*use_hash_index=*/true);
  if (!table.ok() || !LoadKv(s->db.get(), *table, kWireRows, seed, 256).ok()) {
    return nullptr;
  }
  s->db->StartBackground();
  btrim::net::ServerOptions so;
  so.worker_lanes = kWireLanes;
  so.seed = seed;
  auto server = btrim::net::Server::Start(s->db.get(), so);
  if (!server.ok()) {
    fprintf(stderr, "server: %s\n", server.status().ToString().c_str());
    return nullptr;
  }
  s->server = std::move(*server);
  for (int t = 0; t < kWireConns; ++t) {
    auto c = btrim::net::Client::Connect("127.0.0.1", s->server->port(),
                                         "perfbench");
    if (!c.ok()) {
      fprintf(stderr, "connect: %s\n", c.status().ToString().c_str());
      return nullptr;
    }
    s->clients.push_back(std::move(*c));
    s->rngs.emplace_back(seed * 7919 + static_cast<uint64_t>(t));
  }
  s->models.resize(kWireConns);
  s->zipf = std::make_unique<Zipfian>(kWireRows);
  s->loop = std::make_unique<ClosedLoop>(
      kWireConns, 3,
      [p = s.get()](int t, SpanLog* log, const SpanScope* root) {
        return WireOp(p, t, log, root);
      });
  s->loop->Start();
  // Warm-up: connections, lanes and the hot keys' index paths.
  if (!WaitForOps(*s->loop, 20'000)) return nullptr;
  return s;
}

/// Traced in-process Session::Get on the same database and key
/// distribution, for net.session_get_p50_us.
std::unique_ptr<SpanLog> SessionProbe(WireSetup* s) {
  auto log = std::make_unique<SpanLog>();
  btrim::Session session(s->db.get());
  btrim::Random rng(s->seed * 31 + 7);
  std::string value;
  for (int i = 0; i < 20'000; ++i) {
    const int64_t key = s->zipf->Next(&rng);
    SpanScope root(log.get(), SpanName::kOp);
    SpanScope span(log.get(), SpanName::kSessionGet, &root);
    (void)session.Get(kTable, key, &value);
  }
  return log;
}

// --- kv_durable --------------------------------------------------------------

constexpr int64_t kDurableRows = 120'000;  // ~13 MB: > 4x IMRS, > 2x buffer
constexpr int kDurableScan = 3;  // op kind of the range scan: scan_p50_ms

DatabaseOptions DurableOptions(const std::string& dir) {
  DatabaseOptions o;
  o.in_memory = false;
  o.data_dir = dir;
  // No fsync: the shared virtual disk's fsync latency moved 3x at p50 and
  // 12x at p90 from one minute to the next, which no bound can hold. The
  // logs still go through the file-backed WAL and are replayed on restart.
  o.durability.policy = btrim::DurabilityPolicy::kNoSync;
  o.imrs_cache_bytes = 3u << 20;
  o.buffer_cache_frames = 256;  // 2 MiB
  o.lock_timeout_ms = 1000;
  o.recovery_workers = kDurableThreads;  // replay fans out on the pool
  // Uniform keys give every row the same low reuse, so the tuner shuts the
  // table out of the IMRS once it is half full. A high steady point keeps
  // pack from then packing the frozen rows at a run-dependent moment
  // (imrs_mib read 0.56 to 2.0 MiB across runs at the default 0.70).
  o.ilm.steady_cache_pct = 0.90;
  return o;
}

struct DurableSetup {
  std::string dir;
  std::unique_ptr<Database> db;
  Table* table = nullptr;
  std::vector<btrim::Random> rngs;
  std::vector<WriterModel> models;
  std::unique_ptr<ClosedLoop> loop;
  uint64_t seed = 0;
  bool warmup_settled = false;

  ~DurableSetup() {
    if (loop) loop->Stop();
    db.reset();
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
  }
};

/// 45% point read and 5% ScanIndex of kScanLimit consecutive keys (both
/// uniform over the loaded keys), 49% update and 1% insert of the thread's
/// own stripe; each op is one transaction. Inserts stay rare so the
/// keyspace grows little within a run.
OpResult DurableOp(DurableSetup* s, int t, SpanLog* log,
                   const SpanScope* root) {
  Database* db = s->db.get();
  Table* table = s->table;
  btrim::Random& rng = s->rngs[static_cast<size_t>(t)];
  WriterModel& model = s->models[static_cast<size_t>(t)];
  const int dice = static_cast<int>(rng.Uniform(100));
  auto txn = db->Begin();
  Status st;
  int kind;
  int64_t key;
  std::string value;
  std::string read;
  std::vector<btrim::ScanRow> rows;
  if (dice < 45) {
    kind = 0;
    key = static_cast<int64_t>(rng.Uniform(kDurableRows));
    SpanScope span(log, SpanName::kEngineSelect, root);
    st = db->SelectByKey(txn.get(), table,
                         table->pk_encoder().KeyForInts({key}), &read);
  } else if (dice < 50) {
    kind = kDurableScan;
    key = static_cast<int64_t>(rng.Uniform(kDurableRows - kScanLimit + 1));
    SpanScope span(log, SpanName::kEngineScanIndex, root);
    st = db->ScanIndex(txn.get(), table, -1,
                       table->pk_encoder().KeyForInts({key}),
                       table->pk_encoder().KeyForInts({key + kScanLimit}), 0,
                       &rows);
  } else if (dice < 99) {
    kind = 1;
    key = static_cast<int64_t>(rng.Uniform(kDurableRows / kDurableThreads)) *
              kDurableThreads +
          t;
    value = MakeValue(Tag(t, ++model.seq));
    SpanScope span(log, SpanName::kEngineUpdate, root);
    st = db->Update(txn.get(), table, table->pk_encoder().KeyForInts({key}),
                    [&](std::string* record) {
                      btrim::RecordEditor e(&table->schema(), *record);
                      e.SetString(1, value);
                      *record = e.Encode();
                    });
  } else {
    kind = 2;
    key = kDurableRows + (model.inserts++) * kDurableThreads + t;
    value = MakeValue(Tag(t, ++model.seq));
    RecordBuilder b(&table->schema());
    b.AddInt64(key).AddString(value);
    SpanScope span(log, SpanName::kEngineInsert, root);
    st = db->Insert(txn.get(), table, b.Finish());
  }
  if (!st.ok()) {
    (void)db->Abort(txn.get());
    return {Outcome::kFailed, kind};
  }
  {
    SpanScope span(log, SpanName::kEngineCommit, root);
    st = db->Commit(txn.get());
  }
  if (!st.ok()) {
    if (kind == 1 || kind == 2) model.Forget(key);
    return {Outcome::kFailed, kind};
  }
  if (kind == kDurableScan) {
    bool ok = rows.size() == kScanLimit;
    for (size_t i = 0; ok && i < rows.size(); ++i) {
      ok = RecordView(&table->schema(), rows[i].payload).GetInt(0) ==
           key + static_cast<int64_t>(i);
    }
    if (!ok) model.Fail("ScanIndex from " + std::to_string(key) + " wrong rows");
  } else if (kind == 0) {
    if (key % kDurableThreads == t && model.Known(key)) {
      if (RecordView(&table->schema(), read).GetString(1).ToString() !=
          model.Expected(s->seed, key)) {
        model.Fail("read of own key " + std::to_string(key) +
                   " disagrees with the model");
      }
    }
  } else {
    model.acked[key] = value;
  }
  return {Outcome::kOk, kind};
}

std::string DurableDir(const Args& args, int attempt) {
  return args.work_dir + "/kv_durable-" + std::to_string(getpid()) + "-" +
         std::to_string(attempt);
}

/// Opens a fresh file-backed kv_durable database in `dir`, bulk-loads the
/// table to the page store (the workload pulls hot rows into the IMRS) and
/// checkpoints, so recovery starts from the loaded state.
std::unique_ptr<Database> LoadDurableDb(const std::string& dir, uint64_t seed) {
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  auto opened = Database::Open(DurableOptions(dir));
  if (!opened.ok()) {
    fprintf(stderr, "open: %s\n", opened.status().ToString().c_str());
    return nullptr;
  }
  Database* db = opened->get();
  auto table = CreateKvTable(db, /*use_hash_index=*/false);
  if (!table.ok()) return nullptr;
  db->ilm()->SetForcePageStore(true);
  Status ls = LoadKv(db, *table, kDurableRows, seed, 4000);
  db->ilm()->SetForcePageStore(false);
  if (ls.ok()) ls = db->Checkpoint();
  if (!ls.ok()) {
    fprintf(stderr, "load: %s\n", ls.ToString().c_str());
    return nullptr;
  }
  return std::move(*opened);
}

std::unique_ptr<DurableSetup> SetupDurable(const Args& args, int attempt) {
  auto s = std::make_unique<DurableSetup>();
  s->seed = args.seed;
  s->dir = DurableDir(args, attempt);
  s->db = LoadDurableDb(s->dir, args.seed);
  if (s->db == nullptr) return nullptr;
  s->table = s->db->GetTable(kTable);
  for (int t = 0; t < kDurableThreads; ++t) {
    s->rngs.emplace_back(args.seed * 104729 + static_cast<uint64_t>(t));
  }
  s->models.resize(kDurableThreads);
  s->db->StartBackground();
  s->loop = std::make_unique<ClosedLoop>(
      kDurableThreads, 4,
      [p = s.get()](int t, SpanLog* log, const SpanScope* root) {
        return DurableOp(p, t, log, root);
      });
  s->loop->Start();
  // Uniform keys give rows little reuse, so the tuner stops admitting them
  // to the IMRS: wait for a flat utilisation, not for pack.
  s->warmup_settled = WaitForSteadyIlm(s->db.get(), *s->loop, 50'000, 0);
  return s;
}

void MergeModelFailures(const std::vector<WriterModel>& models,
                        RunResult* result) {
  for (const WriterModel& m : models) {
    if (!m.failure.empty()) result->Fail(m.failure);
  }
}

}  // namespace

RunResult RunKvWire(const Args& args) {
  RunResult result;
  PinToCpus(kWireCpus, &result.env);
  SetupTime setup;
  int attempt = 0;
  auto s = TimedSetups<WireSetup>(
      [&] { return SetupWire(args, attempt++); }, &setup);
  if (s == nullptr) {
    result.Fail("setup failed");
    return result;
  }
  TimedWindow window(s->db.get(), args, {s->loop.get()});
  s->loop->Stop();

  // Read back every acknowledged write over the wire.
  for (int t = 0; t < kWireConns; ++t) {
    for (const auto& [key, value] : s->models[t].acked) {
      auto r = s->clients[t]->Get(kTable, key);
      if (!r.ok() || r->code != Status::Code::kOk || r->value != value) {
        result.Fail("read-back of key " + std::to_string(key) +
                    " disagrees with the model");
        break;
      }
    }
  }
  MergeModelFailures(s->models, &result);
  const int64_t sheds = s->server->sheds();
  std::unique_ptr<SpanLog> probe = args.trace ? SessionProbe(s.get()) : nullptr;
  s->clients.clear();
  s->server->Stop();
  s->db->StopBackground();
  s->db->RunGcOnce();  // the checks then walk no stale versions
  Status v = s->db->ValidateInvariants();
  result.Check(v.ok(), "ValidateInvariants: " + v.ToString());
  const std::vector<Aggregate> aggs = {
      {"sum_k", s->db->GetTable(kTable), 0, false}};
  CheckAggregates(s->db.get(), aggs, &result);

  result.env.Set("connections", kWireConns);
  result.env.Set("server_worker_lanes", kWireLanes);
  result.env.Set("rows", kWireRows);
  result.env.Set("flush_policy", "file-backed, no sync (logs and pages stay in "
                                 "the OS page cache)");
  result.env.Set("imrs_cache_bytes",
                 static_cast<int64_t>(s->db->options().imrs_cache_bytes));
  result.env.Set("buffer_cache_bytes",
                 static_cast<int64_t>(s->db->options().buffer_cache_frames) *
                     btrim::kPageSize);
  result.env.Set("dataset_bytes", DatasetBytes(s->db.get()));
  result.env.Set("sheds", sheds);

  AddEndToEnd(*s->loop, *s->loop, window, setup, &result);
  if (args.trace) {
    LedgerInputs in;
    in.loop = s->loop.get();
    in.scans = s->loop.get();
    in.scan_kind = kWireScan;
    in.window = &window;
    in.user_bytes = static_cast<double>(s->loop->OkOfKind(1)) *
                    static_cast<double>(RecordBytes());
    in.logs = s->loop->span_logs();
    in.logs.push_back(probe.get());
    BuildLedger(in, &result);
  }
  return result;
}

RunResult RunKvDurable(const Args& args) {
  RunResult result;
  PinToCpus(kDurableCpus, &result.env);
  SetupTime setup;
  int attempt = 0;
  auto s = TimedSetups<DurableSetup>(
      [&] { return SetupDurable(args, attempt++); }, &setup);
  if (s == nullptr) {
    result.Fail("setup failed");
    return result;
  }
  Status ckpt;
  auto ckpt_log = std::make_unique<SpanLog>();
  TimedWindow window(s->db.get(), args, {s->loop.get()}, [&] {
    SpanLog* log = args.trace ? ckpt_log.get() : nullptr;
    SpanScope root(log, SpanName::kOp);
    SpanScope span(log, SpanName::kEngineCheckpoint, &root);
    ckpt = s->db->Checkpoint();
  });
  result.Check(ckpt.ok(), "mid-phase checkpoint: " + ckpt.ToString());
  s->loop->Stop();
  MergeModelFailures(s->models, &result);
  const DatabaseOptions options = s->db->options();

  // Simulated crash: destroy the database without another checkpoint.
  s->db.reset();
  RegistryDelta recovery;
  const int64_t t0 = NowNs();
  auto reopened = Database::Open(options);
  Status rs = reopened.ok() ? Status::OK() : reopened.status();
  if (rs.ok()) {
    s->db = std::move(*reopened);
    auto table = CreateKvTable(s->db.get(), /*use_hash_index=*/false);
    if (table.ok()) {
      s->table = *table;
      recovery.begin = ReadRegistry(s->db.get());
      rs = s->db->Recover();
      recovery.end = ReadRegistry(s->db.get());
    } else {
      rs = table.status();
    }
  }
  const double recover_s = Seconds(NowNs() - t0);
  if (!rs.ok()) {
    result.Fail("reopen + Recover: " + rs.ToString());
    return result;
  }

  // Every acknowledged write is readable with its value.
  {
    auto txn = s->db->Begin();
    std::string row;
    for (const WriterModel& m : s->models) {
      for (const auto& [key, value] : m.acked) {
        Status st = s->db->SelectByKey(
            txn.get(), s->table, s->table->pk_encoder().KeyForInts({key}),
            &row);
        if (!st.ok() ||
            RecordView(&s->table->schema(), row).GetString(1).ToString() !=
                value) {
          result.Fail("acknowledged write of key " + std::to_string(key) +
                      " lost after Recover()");
          break;
        }
      }
    }
    (void)s->db->Commit(txn.get());
  }
  Status v = s->db->ValidateInvariants();
  result.Check(v.ok(), "ValidateInvariants after Recover: " + v.ToString());
  const std::vector<Aggregate> aggs = {{"sum_k", s->table, 0, false}};
  CheckAggregates(s->db.get(), aggs, &result);

  result.env.Set("threads", kDurableThreads);
  result.env.Set("rows_loaded", kDurableRows);
  result.env.Set("flush_policy", "file-backed, no sync (logs and pages stay in "
                                 "the OS page cache)");
  result.env.Set("imrs_cache_bytes",
                 static_cast<int64_t>(options.imrs_cache_bytes));
  result.env.Set("buffer_cache_bytes",
                 static_cast<int64_t>(options.buffer_cache_frames) *
                     btrim::kPageSize);
  result.env.Set("dataset_bytes", DatasetBytes(s->db.get()));
  result.env.Set("warmup_settled", s->warmup_settled ? "true" : "false");
  result.env.Set("recover_s", FormatDouble(recover_s));

  AddEndToEnd(*s->loop, *s->loop, window, setup, &result);
  if (args.trace) {
    LedgerInputs in;
    in.loop = s->loop.get();
    in.scans = s->loop.get();
    in.scan_kind = kDurableScan;
    in.window = &window;
    in.user_bytes = static_cast<double>(s->loop->OkOfKind(1) +
                                        s->loop->OkOfKind(2)) *
                    static_cast<double>(RecordBytes());
    in.logs = s->loop->span_logs();
    in.logs.push_back(ckpt_log.get());
    in.recover_s = recover_s;
    in.recovery_delta = &recovery;
    BuildLedger(in, &result);
  }
  return result;
}

}  // namespace perfbench

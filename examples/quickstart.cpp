// Quickstart: create a BTrimDB database, define a table, run transactional
// inserts/selects/updates, and watch rows live in the IMRS vs the page
// store.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart

#include <cstdio>

#include "engine/database.h"
#include "engine/stats_printer.h"

using namespace btrim;  // examples favour brevity

int main() {
  // A small database: 8 MiB buffer cache, 16 MiB IMRS.
  DatabaseOptions options;
  options.buffer_cache_frames = 1024;
  options.imrs_cache_bytes = 16u << 20;
  options.ilm.ilm_enabled = true;

  Result<std::unique_ptr<Database>> opened = Database::Open(options);
  if (!opened.ok()) {
    fprintf(stderr, "open failed: %s\n", opened.status().ToString().c_str());
    return 1;
  }
  std::unique_ptr<Database> db = std::move(*opened);

  // A table of user accounts keyed by id.
  TableOptions topt;
  topt.name = "accounts";
  topt.schema = Schema({
      Column::Int64("id"),
      Column::String("owner", 32),
      Column::Double("balance"),
  });
  topt.primary_key = {0};
  Result<Table*> created = db->CreateTable(topt);
  if (!created.ok()) {
    fprintf(stderr, "create table failed: %s\n",
            created.status().ToString().c_str());
    return 1;
  }
  Table* accounts = *created;

  // Insert a few accounts in one transaction. New inserts land in the IMRS
  // with no page-store footprint (the BTrim architecture, paper Sec. II).
  {
    std::unique_ptr<Transaction> txn = db->Begin();
    for (int64_t id = 1; id <= 100; ++id) {
      RecordBuilder b(&accounts->schema());
      b.AddInt64(id)
          .AddString("owner-" + std::to_string(id))
          .AddDouble(100.0 * static_cast<double>(id));
      Status s = db->Insert(txn.get(), accounts, b.Finish());
      if (!s.ok()) {
        fprintf(stderr, "insert failed: %s\n", s.ToString().c_str());
        return 1;
      }
    }
    Status s = db->Commit(txn.get());
    if (!s.ok()) {
      fprintf(stderr, "commit failed: %s\n", s.ToString().c_str());
      return 1;
    }
  }

  // Point select through the primary key (hash-index fast path).
  {
    std::unique_ptr<Transaction> txn = db->Begin();
    std::string row;
    Status s = db->SelectByKey(txn.get(), accounts,
                               accounts->pk_encoder().KeyForInts({42}), &row);
    if (!s.ok()) {
      fprintf(stderr, "select failed: %s\n", s.ToString().c_str());
      return 1;
    }
    RecordView view(&accounts->schema(), Slice(row));
    printf("account 42: owner=%s balance=%.2f\n",
           view.GetString(1).ToString().c_str(), view.GetDouble(2));
    Status c = db->Commit(txn.get());
    (void)c;
  }

  // Transfer money between two accounts (update two rows atomically).
  {
    std::unique_ptr<Transaction> txn = db->Begin();
    auto debit = [&](std::string* payload) {
      RecordEditor e(&accounts->schema(), Slice(*payload));
      e.SetDouble(2, e.GetDouble(2) - 25.0);
      *payload = e.Encode();
    };
    auto credit = [&](std::string* payload) {
      RecordEditor e(&accounts->schema(), Slice(*payload));
      e.SetDouble(2, e.GetDouble(2) + 25.0);
      *payload = e.Encode();
    };
    Status s = db->Update(txn.get(), accounts,
                          accounts->pk_encoder().KeyForInts({1}), debit);
    if (s.ok()) {
      s = db->Update(txn.get(), accounts,
                     accounts->pk_encoder().KeyForInts({2}), credit);
    }
    if (s.ok()) {
      s = db->Commit(txn.get());
    } else {
      Status a = db->Abort(txn.get());
      (void)a;
    }
    printf("transfer: %s\n", s.ToString().c_str());
  }

  // Range scan over the primary key.
  {
    std::unique_ptr<Transaction> txn = db->Begin();
    std::vector<ScanRow> rows;
    Status s = db->ScanIndex(txn.get(), accounts, -1,
                             Slice(accounts->pk_encoder().KeyForInts({1})),
                             Slice(accounts->pk_encoder().KeyForInts({6})), 0,
                             &rows);
    if (!s.ok()) {
      fprintf(stderr, "scan failed: %s\n", s.ToString().c_str());
      return 1;
    }
    printf("accounts 1..5:\n");
    for (const ScanRow& r : rows) {
      RecordView view(&accounts->schema(), Slice(r.payload));
      printf("  id=%lld balance=%8.2f store=%s\n",
             static_cast<long long>(view.GetInt64(0)), view.GetDouble(2),
             r.from_imrs ? "IMRS" : "page");
    }
    Status c = db->Commit(txn.get());
    (void)c;
  }

  // Where does the data live?
  // Every engine counter is read through the metrics registry.
  const obs::MetricsRegistry& metrics = *db->metrics_registry();
  printf("\nengine: %lld txns committed, IMRS rows=%lld, IMRS bytes=%lld\n",
         static_cast<long long>(metrics.Value("txn.committed")),
         static_cast<long long>(metrics.Value("rid_map.entries")),
         static_cast<long long>(metrics.Value("imrs_cache.in_use_bytes")));
  printf("ops served by IMRS=%lld, by page store=%lld\n\n",
         static_cast<long long>(metrics.Value("engine.imrs_ops")),
         static_cast<long long>(metrics.Value("engine.page_ops")));
  printf("--- engine report ---\n%s\n%s",
         FormatDatabaseStats(metrics).c_str(),
         FormatTableBreakdown(db.get()).c_str());
  return 0;
}

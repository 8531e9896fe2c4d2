// Order lifecycle: watch a row travel the full BTrim life cycle —
// born in the IMRS (hot), cooling off as the business moves on, packed to
// the page store by the background Pack subsystem, and transparently
// readable throughout.
//
// This mirrors the paper's motivating scenario (Sec. I): recent orders are
// hot, old orders are cold, and memory should hold only the hot ones.
//
//   ./build/examples/order_lifecycle

#include <cstdio>

#include "engine/database.h"

using namespace btrim;

namespace {

std::string MakeOrder(Table* orders, int64_t id, const std::string& status) {
  RecordBuilder b(&orders->schema());
  b.AddInt64(id).AddString(status).AddDouble(19.99 * (id % 7 + 1));
  return b.Finish().ToString();
}

void PrintResidency(Database* db, Table* orders, int64_t lo, int64_t hi) {
  int imrs = 0, page = 0;
  for (int64_t id = lo; id < hi; ++id) {
    Rid rid;
    Result<uint64_t> rid_enc = orders->primary_index()->Search(
        orders->pk_encoder().KeyForInts({id}));
    if (!rid_enc.ok()) continue;
    rid = Rid::Decode(*rid_enc);
    if (db->rid_map()->Lookup(rid) != nullptr) {
      ++imrs;
    } else {
      ++page;
    }
  }
  printf("  orders %lld..%lld: %d in IMRS, %d on the page store\n",
         static_cast<long long>(lo), static_cast<long long>(hi - 1), imrs,
         page);
}

}  // namespace

int main() {
  DatabaseOptions options;
  options.buffer_cache_frames = 2048;
  options.imrs_cache_bytes = 96 * 1024;  // small IMRS: old orders must go
  options.ilm.pack_cycle_pct = 0.15;

  std::unique_ptr<Database> db = std::move(*Database::Open(options));

  TableOptions topt;
  topt.name = "orders";
  topt.schema = Schema({
      Column::Int64("order_id"),
      Column::String("status", 16),
      Column::Double("total"),
  });
  topt.primary_key = {0};
  Table* orders = *db->CreateTable(topt);

  printf("Phase 1: a burst of new orders arrives (inserts go to the IMRS,\n"
         "no page-store footprint — paper Sec. II)\n");
  constexpr int64_t kBatch = 400;
  for (int64_t id = 0; id < kBatch; ++id) {
    auto txn = db->Begin();
    Status s = db->Insert(txn.get(), orders, MakeOrder(orders, id, "NEW"));
    if (!s.ok()) {
      fprintf(stderr, "insert %lld: %s\n", static_cast<long long>(id),
              s.ToString().c_str());
      return 1;
    }
    s = db->Commit(txn.get());
    if (!s.ok()) return 1;
  }
  db->RunGcOnce();  // rows enter their ILM queues
  PrintResidency(db.get(), orders, 0, kBatch);

  printf("\nPhase 2: the orders are processed while hot (updates touch the\n"
         "IMRS versions)\n");
  for (int64_t id = 0; id < kBatch; ++id) {
    auto txn = db->Begin();
    Status s = db->Update(txn.get(), orders,
                          orders->pk_encoder().KeyForInts({id}),
                          [&](std::string* payload) {
                            RecordEditor e(&orders->schema(), Slice(*payload));
                            e.SetString(1, "SHIPPED");
                            *payload = e.Encode();
                          });
    if (s.ok()) {
      s = db->Commit(txn.get());
    }
  }
  const obs::MetricsRegistry& metrics = *db->metrics_registry();
  printf("  IMRS serves the hot period: %lld IMRS ops vs %lld page ops\n",
         static_cast<long long>(metrics.Value("engine.imrs_ops")),
         static_cast<long long>(metrics.Value("engine.page_ops")));

  printf("\nPhase 3: business moves on — a new burst arrives and the old\n"
         "orders cool off; Pack relocates them (paper Sec. VI)\n");
  for (int64_t id = kBatch; id < 2 * kBatch; ++id) {
    auto txn = db->Begin();
    Status s = db->Insert(txn.get(), orders, MakeOrder(orders, id, "NEW"));
    if (s.ok()) s = db->Commit(txn.get());
    if (id % 40 == 0) {
      db->RunGcOnce();
      db->RunIlmTickOnce();  // pack cycles fire once past the threshold
    }
  }
  db->RunGcOnce();
  db->RunIlmTickOnce();

  PrintResidency(db.get(), orders, 0, kBatch);
  PrintResidency(db.get(), orders, kBatch, 2 * kBatch);

  printf("\npack moved %lld rows (%lld KiB) in %lld pack transactions;\n"
         "IMRS utilization now %.0f%% of its %lld KiB budget\n",
         static_cast<long long>(metrics.Value("pack.rows_packed")),
         static_cast<long long>(metrics.Value("pack.bytes_packed") / 1024),
         static_cast<long long>(metrics.Value("pack.transactions")),
         100.0 * db->imrs_allocator()->Utilization(),
         static_cast<long long>(options.imrs_cache_bytes / 1024));

  printf("\nPhase 4: an auditor reads an ancient order — transparently\n"
         "served from the page store, and cached back in if re-accessed\n");
  auto txn = db->Begin();
  std::string row;
  Status s = db->SelectByKey(txn.get(), orders,
                             orders->pk_encoder().KeyForInts({3}), &row);
  if (!s.ok()) {
    fprintf(stderr, "audit read failed: %s\n", s.ToString().c_str());
    return 1;
  }
  RecordView v(&orders->schema(), Slice(row));
  printf("  order 3: status=%s total=%.2f\n",
         v.GetString(1).ToString().c_str(), v.GetDouble(2));
  Status c = db->Commit(txn.get());
  (void)c;
  return 0;
}

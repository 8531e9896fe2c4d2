// Wire-protocol and server tests (DESIGN.md Sec. 16).
//
// The golden-bytes fixtures pin the wire encoding the same way
// wal_format_test.cc pins the log format: if one fails, the protocol
// changed — either revert, or bump kProtocolVersion and regenerate. Old
// clients must keep speaking to new servers, or every fleet rollout
// becomes a flag day.
//
// The fuzz sweeps assert the server's contract for malformed input: an
// error reply or a dropped connection, never a crash (ASan runs this
// suite) — and the listener stays healthy for the next connection.

#include <chrono>
#include <cstdint>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "engine/database.h"
#include "net/client.h"
#include "obs/metrics_registry.h"
#include "net/protocol.h"
#include "net/server.h"
#include "tpcc/loader.h"
#include "tpcc/txns.h"

namespace btrim {
namespace net {
namespace {

std::string FromHex(const std::string& hex) {
  std::string out;
  out.reserve(hex.size() / 2);
  for (size_t i = 0; i + 1 < hex.size(); i += 2) {
    out.push_back(static_cast<char>(
        std::stoi(hex.substr(i, 2), nullptr, 16)));
  }
  return out;
}

std::string ToHex(const std::string& bytes) {
  static const char* kDigits = "0123456789abcdef";
  std::string out;
  out.reserve(bytes.size() * 2);
  for (unsigned char c : bytes) {
    out.push_back(kDigits[c >> 4]);
    out.push_back(kDigits[c & 0xf]);
  }
  return out;
}

// --- golden bytes ----------------------------------------------------------

struct RequestGolden {
  const char* name;
  const char* hex;  // full frame: header + payload
  Request req;
};

// Generated once from the reference encoder; do not regenerate casually
// (see file comment).
std::vector<RequestGolden> RequestGoldens() {
  std::vector<RequestGolden> cases;
  {
    Request r;
    r.op = OpCode::kHello;
    r.magic = kMagic;
    r.version = kProtocolVersion;
    r.tenant = "t1";
    cases.push_back({"hello", "0b000000014254524d010002007431", r});
  }
  {
    Request r;
    r.op = OpCode::kPing;
    cases.push_back({"ping", "0100000002", r});
  }
  {
    Request r;
    r.op = OpCode::kBegin;
    cases.push_back({"begin", "0100000010", r});
  }
  {
    Request r;
    r.op = OpCode::kTpcc;
    r.txn_type = 1;
    r.warehouse = 3;
    cases.push_back({"tpcc", "06000000130103000000", r});
  }
  {
    Request r;
    r.op = OpCode::kGet;
    r.table = "kv";
    r.key = 42;
    cases.push_back({"get", "0d0000002002006b762a00000000000000", r});
  }
  {
    Request r;
    r.op = OpCode::kPut;
    r.table = "kv";
    r.key = 1;
    r.value = "hi";
    cases.push_back({"put", "110000002102006b76010000000000000002006869", r});
  }
  {
    Request r;
    r.op = OpCode::kScan;
    r.table = "kv";
    r.key = 5;
    r.limit = 10;
    cases.push_back(
        {"scan", "110000002202006b7605000000000000000a000000", r});
  }
  {
    Request r;
    r.op = OpCode::kMark;
    r.marker = -1;
    cases.push_back({"mark", "0900000030ffffffffffffffff", r});
  }
  return cases;
}

TEST(ProtocolGolden, RequestsMatchGoldenBytes) {
  for (const RequestGolden& g : RequestGoldens()) {
    std::string frame;
    AppendRequestFrame(&frame, g.req);
    EXPECT_EQ(ToHex(frame), g.hex) << g.name;
  }
}

TEST(ProtocolGolden, RequestGoldenBytesParse) {
  for (const RequestGolden& g : RequestGoldens()) {
    const std::string frame = FromHex(g.hex);
    size_t frame_len = 0;
    Slice payload;
    ASSERT_EQ(TryExtractFrame(frame.data(), frame.size(), &frame_len,
                              &payload),
              FrameGate::kReady)
        << g.name;
    EXPECT_EQ(frame_len, frame.size()) << g.name;
    Request req;
    ASSERT_TRUE(ParseRequest(payload, &req).ok()) << g.name;
    EXPECT_EQ(req.op, g.req.op) << g.name;
    EXPECT_EQ(req.magic, g.req.magic) << g.name;
    EXPECT_EQ(req.version, g.req.version) << g.name;
    EXPECT_EQ(req.tenant, g.req.tenant) << g.name;
    EXPECT_EQ(req.txn_type, g.req.txn_type) << g.name;
    EXPECT_EQ(req.warehouse, g.req.warehouse) << g.name;
    EXPECT_EQ(req.table, g.req.table) << g.name;
    EXPECT_EQ(req.key, g.req.key) << g.name;
    EXPECT_EQ(req.value, g.req.value) << g.name;
    EXPECT_EQ(req.limit, g.req.limit) << g.name;
    EXPECT_EQ(req.marker, g.req.marker) << g.name;
  }
}

TEST(ProtocolGolden, ResponsesMatchGoldenBytes) {
  {
    Response r;
    r.op = OpCode::kGet;
    r.value = "hello";
    std::string frame;
    AppendResponseFrame(&frame, r);
    EXPECT_EQ(ToHex(frame), "0b00000020000000050068656c6c6f");
  }
  {
    Response r;
    r.op = OpCode::kTpcc;
    r.committed = true;
    std::string frame;
    AppendResponseFrame(&frame, r);
    EXPECT_EQ(ToHex(frame), "06000000130000000100");
  }
  {
    Response r;
    r.op = OpCode::kTpcc;
    r.code = Status::Code::kBusy;
    r.message = "shed";
    std::string frame;
    AppendResponseFrame(&frame, r);
    EXPECT_EQ(ToHex(frame), "080000001305040073686564");
  }
  {
    Response r;
    r.op = OpCode::kScan;
    r.rows.push_back({1, "a"});
    r.rows.push_back({2, "bc"});
    std::string frame;
    AppendResponseFrame(&frame, r);
    EXPECT_EQ(ToHex(frame),
              "1f0000002200000002000000010000000000000001006102000000000000"
              "0002006263");
  }
}

TEST(ProtocolGolden, ResponseGoldenBytesParse) {
  const std::string frame = FromHex(
      "1f00000022000000020000000100000000000000010061020000000000000002006263");
  size_t frame_len = 0;
  Slice payload;
  ASSERT_EQ(TryExtractFrame(frame.data(), frame.size(), &frame_len, &payload),
            FrameGate::kReady);
  Response resp;
  ASSERT_TRUE(ParseResponse(payload, &resp).ok());
  EXPECT_EQ(resp.op, OpCode::kScan);
  EXPECT_TRUE(resp.ok());
  ASSERT_EQ(resp.rows.size(), 2u);
  EXPECT_EQ(resp.rows[0].key, 1);
  EXPECT_EQ(resp.rows[0].value, "a");
  EXPECT_EQ(resp.rows[1].key, 2);
  EXPECT_EQ(resp.rows[1].value, "bc");
}

// --- round trips -----------------------------------------------------------

TEST(Protocol, RequestRoundTripEdgeValues) {
  Request r;
  r.op = OpCode::kGet;
  r.table = "a-table-with-a-long-name";
  r.key = INT64_MIN;
  std::string frame;
  AppendRequestFrame(&frame, r);
  size_t frame_len = 0;
  Slice payload;
  ASSERT_EQ(TryExtractFrame(frame.data(), frame.size(), &frame_len, &payload),
            FrameGate::kReady);
  Request back;
  ASSERT_TRUE(ParseRequest(payload, &back).ok());
  EXPECT_EQ(back.table, r.table);
  EXPECT_EQ(back.key, INT64_MIN);
}

TEST(Protocol, ResponseRoundTripAllCodes) {
  for (int code = 0; code <= static_cast<int>(Status::Code::kShutdown);
       ++code) {
    Response r;
    r.op = OpCode::kPut;
    r.code = static_cast<Status::Code>(code);
    r.message = code == 0 ? "" : "something went wrong";
    std::string frame;
    AppendResponseFrame(&frame, r);
    size_t frame_len = 0;
    Slice payload;
    ASSERT_EQ(
        TryExtractFrame(frame.data(), frame.size(), &frame_len, &payload),
        FrameGate::kReady);
    Response back;
    ASSERT_TRUE(ParseResponse(payload, &back).ok()) << code;
    EXPECT_EQ(back.code, r.code);
    EXPECT_EQ(back.message, r.message);
  }
}

// --- malformed input -------------------------------------------------------

TEST(Protocol, ParseRejectsEmptyAndUnknownOpcode) {
  Request req;
  EXPECT_FALSE(ParseRequest(Slice(), &req).ok());
  const std::string unknown(1, '\x7f');
  EXPECT_FALSE(ParseRequest(Slice(unknown), &req).ok());
}

TEST(Protocol, ParseRejectsEveryTruncation) {
  for (const RequestGolden& g : RequestGoldens()) {
    const std::string frame = FromHex(g.hex);
    const std::string payload = frame.substr(kFrameHeaderBytes);
    // Every strict prefix of a payload must fail: either a field is cut
    // short or (for body-less ops) the prefix is empty.
    for (size_t len = 0; len < payload.size(); ++len) {
      Request req;
      EXPECT_FALSE(ParseRequest(Slice(payload.data(), len), &req).ok())
          << g.name << " truncated to " << len;
    }
  }
}

TEST(Protocol, ParseRejectsTrailingGarbage) {
  for (const RequestGolden& g : RequestGoldens()) {
    std::string payload = FromHex(g.hex).substr(kFrameHeaderBytes);
    payload.push_back('\x00');
    Request req;
    EXPECT_FALSE(ParseRequest(Slice(payload), &req).ok()) << g.name;
  }
}

TEST(Protocol, FrameGateBounds) {
  size_t frame_len = 0;
  Slice payload;
  // Partial header, then partial payload.
  const std::string frame = FromHex("0d0000002002006b762a00000000000000");
  EXPECT_EQ(TryExtractFrame(frame.data(), 2, &frame_len, &payload),
            FrameGate::kNeedMore);
  EXPECT_EQ(TryExtractFrame(frame.data(), frame.size() - 1, &frame_len,
                            &payload),
            FrameGate::kNeedMore);
  // A header claiming more than kMaxFrameBytes is unrecoverable.
  std::string huge(kFrameHeaderBytes, '\0');
  huge[0] = '\x01';
  huge[2] = '\x20';  // 0x00200001 > 1 MiB
  EXPECT_EQ(TryExtractFrame(huge.data(), huge.size(), &frame_len, &payload),
            FrameGate::kTooBig);
}

// --- server end-to-end -----------------------------------------------------

class ServerTest : public ::testing::Test {
 protected:
  void Open(int lock_timeout_ms = 50) {
    DatabaseOptions options;
    options.buffer_cache_frames = 2048;
    options.imrs_cache_bytes = 16u << 20;
    options.lock_timeout_ms = lock_timeout_ms;
    Result<std::unique_ptr<Database>> opened = Database::Open(options);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    db_ = std::move(*opened);

    TableOptions kv;
    kv.name = "kv";
    kv.schema = Schema({Column::Int64("k"), Column::String("v", 256)});
    kv.primary_key = {0};
    Result<Table*> table = db_->CreateTable(std::move(kv));
    ASSERT_TRUE(table.ok()) << table.status().ToString();

    TableOptions wide;
    wide.name = "wide";
    wide.schema = Schema({Column::Int64("a"), Column::Int64("b"),
                          Column::String("c", 32)});
    wide.primary_key = {0};
    ASSERT_TRUE(db_->CreateTable(std::move(wide)).ok());

    std::unique_ptr<Transaction> txn = db_->Begin();
    for (int64_t k = 0; k < 100; ++k) {
      RecordBuilder builder(&(*table)->schema());
      builder.AddInt64(k).AddString("seed" + std::to_string(k));
      ASSERT_TRUE(db_->Insert(txn.get(), *table, builder.Finish()).ok());
    }
    ASSERT_TRUE(db_->Commit(txn.get()).ok());
  }

  void StartServer(ServerOptions opts = {}) {
    opts.port = 0;
    Result<std::unique_ptr<Server>> started =
        Server::Start(db_.get(), opts);
    ASSERT_TRUE(started.ok()) << started.status().ToString();
    server_ = std::move(*started);
  }

  std::unique_ptr<Client> MustConnect(const std::string& tenant = "") {
    Result<std::unique_ptr<Client>> c =
        Client::Connect("127.0.0.1", server_->port(), tenant);
    EXPECT_TRUE(c.ok()) << c.status().ToString();
    return c.ok() ? std::move(*c) : nullptr;
  }

  std::unique_ptr<Client> MustConnectRaw() {
    Result<std::unique_ptr<Client>> c =
        Client::ConnectRaw("127.0.0.1", server_->port());
    EXPECT_TRUE(c.ok()) << c.status().ToString();
    return c.ok() ? std::move(*c) : nullptr;
  }

  void TearDown() override {
    if (server_ != nullptr) server_->Stop();
  }

  std::unique_ptr<Database> db_;
  std::unique_ptr<Server> server_;
};

TEST_F(ServerTest, KvOpsOverTheWire) {
  Open();
  StartServer();
  std::unique_ptr<Client> client = MustConnect();
  ASSERT_NE(client, nullptr);

  Result<Response> ping = client->Ping();
  ASSERT_TRUE(ping.ok()) << ping.status().ToString();
  EXPECT_TRUE(ping->ok());

  Result<Response> get = client->Get("kv", 7);
  ASSERT_TRUE(get.ok());
  ASSERT_TRUE(get->ok()) << get->message;
  EXPECT_EQ(get->value, "seed7");

  ASSERT_TRUE(client->Put("kv", 7, "updated")->ok());
  EXPECT_EQ(client->Get("kv", 7)->value, "updated");

  ASSERT_TRUE(client->Put("kv", 1000, "fresh")->ok());  // insert path
  EXPECT_EQ(client->Get("kv", 1000)->value, "fresh");

  Result<Response> missing = client->Get("kv", 555444);
  ASSERT_TRUE(missing.ok());
  EXPECT_EQ(missing->code, Status::Code::kNotFound);

  Result<Response> scan = client->Scan("kv", 10, 5);
  ASSERT_TRUE(scan.ok());
  ASSERT_TRUE(scan->ok()) << scan->message;
  ASSERT_EQ(scan->rows.size(), 5u);
  EXPECT_EQ(scan->rows[0].key, 10);
  EXPECT_EQ(scan->rows[4].key, 14);
}

TEST_F(ServerTest, ExplicitTransactions) {
  Open();
  StartServer();
  std::unique_ptr<Client> client = MustConnect();
  ASSERT_NE(client, nullptr);

  ASSERT_TRUE(client->Begin()->ok());
  ASSERT_TRUE(client->Put("kv", 5, "txn-value")->ok());
  ASSERT_TRUE(client->Commit()->ok());
  EXPECT_EQ(client->Get("kv", 5)->value, "txn-value");

  ASSERT_TRUE(client->Begin()->ok());
  ASSERT_TRUE(client->Put("kv", 5, "doomed")->ok());
  ASSERT_TRUE(client->Abort()->ok());
  EXPECT_EQ(client->Get("kv", 5)->value, "txn-value");

  EXPECT_EQ(client->Commit()->code, Status::Code::kInvalidArgument);
  ASSERT_TRUE(client->Begin()->ok());
  EXPECT_EQ(client->Begin()->code, Status::Code::kInvalidArgument);
  ASSERT_TRUE(client->Abort()->ok());
}

TEST_F(ServerTest, TableShapeErrors) {
  Open();
  StartServer();
  std::unique_ptr<Client> client = MustConnect();
  ASSERT_NE(client, nullptr);
  EXPECT_EQ(client->Get("nope", 1)->code, Status::Code::kNotFound);
  EXPECT_EQ(client->Get("wide", 1)->code, Status::Code::kInvalidArgument);
  // Oversized value: rejected before touching the engine; an open txn
  // survives (nothing executed under it).
  ASSERT_TRUE(client->Begin()->ok());
  EXPECT_EQ(client->Put("kv", 1, std::string(300, 'x'))->code,
            Status::Code::kInvalidArgument);
  EXPECT_TRUE(client->Commit()->ok());
}

TEST_F(ServerTest, TpccWithoutContextIsNotSupported) {
  Open();
  StartServer();
  std::unique_ptr<Client> client = MustConnect();
  ASSERT_NE(client, nullptr);
  EXPECT_EQ(client->Tpcc(0, 0)->code, Status::Code::kNotSupported);
}

TEST_F(ServerTest, TpccOverTheWire) {
  Open();
  tpcc::Scale scale;
  scale.warehouses = 1;
  Result<tpcc::Tables> tables = tpcc::CreateTables(db_.get(), scale);
  ASSERT_TRUE(tables.ok()) << tables.status().ToString();
  ASSERT_TRUE(tpcc::LoadDatabase(db_.get(), *tables, scale, 3).ok());
  tpcc::TpccContext ctx;
  ctx.db = db_.get();
  ctx.tables = *tables;
  ctx.scale = scale;
  ctx.next_history_id = 100000;

  ServerOptions opts;
  opts.tpcc = &ctx;
  StartServer(opts);
  std::unique_ptr<Client> client = MustConnect();
  ASSERT_NE(client, nullptr);

  int64_t acked = 0;
  for (int i = 0; i < 50; ++i) {
    Result<Response> resp = client->Tpcc(static_cast<uint8_t>(i % 5), 0);
    ASSERT_TRUE(resp.ok()) << resp.status().ToString();
    ASSERT_TRUE(resp->ok()) << resp->message;
    if (resp->committed) ++acked;
  }
  EXPECT_GT(acked, 0);

  EXPECT_EQ(client->Tpcc(9, 0)->code, Status::Code::kInvalidArgument);
  EXPECT_EQ(client->Tpcc(0, 99)->code, Status::Code::kInvalidArgument);
  ASSERT_TRUE(client->Begin()->ok());
  EXPECT_EQ(client->Tpcc(0, 0)->code, Status::Code::kInvalidArgument);
  ASSERT_TRUE(client->Abort()->ok());
}

TEST_F(ServerTest, AdmissionControlShedsDeterministically) {
  Open();
  ServerOptions opts;
  opts.max_inflight = 0;  // shed every data op; control ops exempt
  StartServer(opts);
  std::unique_ptr<Client> client = MustConnect();
  ASSERT_NE(client, nullptr);

  EXPECT_TRUE(client->Ping()->ok());
  Result<Response> put = client->Put("kv", 1, "x");
  ASSERT_TRUE(put.ok());
  EXPECT_EQ(put->code, Status::Code::kBusy);
  EXPECT_TRUE(client->Ping()->ok());  // connection unharmed
  EXPECT_GT(server_->sheds(), 0);
}

// Several connections pipeline at once, on one loop and spread over
// several: each must get its own replies, in its own order.
class PipelineTest : public ServerTest,
                     public ::testing::WithParamInterface<int> {};

TEST_P(PipelineTest, PipelinedRequestsReplyInOrder) {
  Open();
  ServerOptions opts;
  opts.worker_lanes = GetParam();
  StartServer(opts);
  constexpr int kConns = 6;
  constexpr int kN = 20;
  std::vector<std::unique_ptr<Client>> clients;
  for (int c = 0; c < kConns; ++c) {
    clients.push_back(MustConnect());
    ASSERT_NE(clients.back(), nullptr);
  }
  for (int c = 0; c < kConns; ++c) {
    std::string burst;
    for (int i = 0; i < kN; ++i) {
      Request req;
      req.op = OpCode::kGet;
      req.table = "kv";
      req.key = (c * kN + i) % 100;  // keys 0..99 are seeded
      AppendRequestFrame(&burst, req);
    }
    ASSERT_TRUE(clients[c]->SendBytes(burst.data(), burst.size()).ok());
  }
  for (int c = 0; c < kConns; ++c) {
    for (int i = 0; i < kN; ++i) {
      Result<Response> resp = clients[c]->RecvResponse();
      ASSERT_TRUE(resp.ok()) << resp.status().ToString();
      ASSERT_TRUE(resp->ok());
      EXPECT_EQ(resp->value, "seed" + std::to_string((c * kN + i) % 100))
          << c << "/" << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Loops, PipelineTest, ::testing::Values(1, 4));

// Connection ids 1 and 2 land on different loops of two, so B's lock wait
// must not stall A: A's Commit releases the row and B's Put then succeeds.
// On one shared loop B would hold the loop until its lock timeout.
TEST_F(ServerTest, ConnectionsOnDifferentLoopsRunConcurrently) {
  Open(/*lock_timeout_ms=*/10000);
  ServerOptions opts;
  opts.worker_lanes = 2;
  StartServer(opts);
  std::unique_ptr<Client> a = MustConnect();
  std::unique_ptr<Client> b = MustConnect();
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);

  ASSERT_TRUE(a->Begin()->ok());
  ASSERT_TRUE(a->Put("kv", 7, "from-a")->ok());

  obs::MetricsRegistry* reg = db_->metrics_registry();
  const int64_t waits_before = reg->Value("locks.waits");
  Request put;
  put.op = OpCode::kPut;
  put.table = "kv";
  put.key = 7;
  put.value = "from-b";
  std::string frame;
  AppendRequestFrame(&frame, put);
  ASSERT_TRUE(b->SendBytes(frame.data(), frame.size()).ok());
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (reg->Value("locks.waits") == waits_before) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "B's Put never reached the lock wait";
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  Result<Response> commit = a->Commit();
  ASSERT_TRUE(commit.ok()) << commit.status().ToString();
  EXPECT_TRUE(commit->ok()) << commit->message;
  Result<Response> b_put = b->RecvResponse();
  ASSERT_TRUE(b_put.ok()) << b_put.status().ToString();
  EXPECT_TRUE(b_put->ok()) << b_put->message;
  EXPECT_EQ(a->Get("kv", 7)->value, "from-b");
}

// A client that pipelines scans and never reads its replies fills the
// socket buffers; once its unsent replies pass max_conn_outbuf the server
// drops it instead of buffering without bound.
TEST_F(ServerTest, ReaderThatFallsBehindIsDisconnected) {
  Open();
  ServerOptions opts;
  opts.max_conn_outbuf = 64u << 10;
  StartServer(opts);
  std::unique_ptr<Client> client = MustConnect();
  ASSERT_NE(client, nullptr);
  EXPECT_EQ(server_->active_conns(), 1);

  Request scan;
  scan.op = OpCode::kScan;
  scan.table = "kv";
  scan.key = 0;
  scan.limit = 100;
  std::string burst;
  for (int i = 0; i < 20000; ++i) AppendRequestFrame(&burst, scan);
  // Fails partway once the server drops the connection; either way the
  // replies far exceed what the socket buffers can hold.
  (void)client->SendBytes(burst.data(), burst.size());

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (server_->active_conns() != 0) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "the non-reading client was never disconnected";
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  std::unique_ptr<Client> next = MustConnect();
  ASSERT_NE(next, nullptr);
  EXPECT_TRUE(next->Ping()->ok());
}

TEST_F(ServerTest, HandshakeRequiredAndValidated) {
  Open();
  StartServer();
  {
    // No handshake: error reply, then the server drops the connection.
    std::unique_ptr<Client> raw = MustConnectRaw();
    ASSERT_NE(raw, nullptr);
    Request ping;
    ping.op = OpCode::kPing;
    std::string frame;
    AppendRequestFrame(&frame, ping);
    ASSERT_TRUE(raw->SendBytes(frame.data(), frame.size()).ok());
    Result<Response> resp = raw->RecvResponse();
    ASSERT_TRUE(resp.ok());
    EXPECT_EQ(resp->code, Status::Code::kInvalidArgument);
    EXPECT_FALSE(raw->RecvFramePayload().ok());  // closed
  }
  {
    // Bad magic: rejected and dropped.
    std::unique_ptr<Client> raw = MustConnectRaw();
    ASSERT_NE(raw, nullptr);
    Request hello;
    hello.op = OpCode::kHello;
    hello.magic = 0xdeadbeef;
    hello.version = kProtocolVersion;
    std::string frame;
    AppendRequestFrame(&frame, hello);
    ASSERT_TRUE(raw->SendBytes(frame.data(), frame.size()).ok());
    Result<Response> resp = raw->RecvResponse();
    ASSERT_TRUE(resp.ok());
    EXPECT_EQ(resp->code, Status::Code::kInvalidArgument);
    EXPECT_FALSE(raw->RecvFramePayload().ok());
  }
  {
    // Duplicate handshake: error reply, but the session keeps working.
    std::unique_ptr<Client> client = MustConnect();
    ASSERT_NE(client, nullptr);
    Request hello;
    hello.op = OpCode::kHello;
    hello.magic = kMagic;
    hello.version = kProtocolVersion;
    Result<Response> resp = client->Call(hello);
    ASSERT_TRUE(resp.ok());
    EXPECT_EQ(resp->code, Status::Code::kInvalidArgument);
    EXPECT_TRUE(client->Ping()->ok());
  }
}

TEST_F(ServerTest, MalformedFramesNeverCrash) {
  Open();
  StartServer();

  {
    // Oversized frame claim: error reply (or drop), connection dies.
    std::unique_ptr<Client> raw = MustConnectRaw();
    ASSERT_NE(raw, nullptr);
    const std::string huge = FromHex("01002000");  // claims 2 MiB
    ASSERT_TRUE(raw->SendBytes(huge.data(), huge.size()).ok());
    Result<Response> resp = raw->RecvResponse();
    if (resp.ok()) {
      EXPECT_FALSE(resp->ok());
    }
    EXPECT_FALSE(raw->RecvFramePayload().ok());
    EXPECT_GT(server_->protocol_errors(), 0);
  }
  {
    // Unknown opcode inside a well-formed frame.
    std::unique_ptr<Client> raw = MustConnectRaw();
    ASSERT_NE(raw, nullptr);
    const std::string frame = FromHex("01000000ee");
    ASSERT_TRUE(raw->SendBytes(frame.data(), frame.size()).ok());
    Result<Response> resp = raw->RecvResponse();
    if (resp.ok()) {
      EXPECT_FALSE(resp->ok());
    }
    EXPECT_FALSE(raw->RecvFramePayload().ok());
  }
  {
    // Truncated frame, then the client vanishes: server must just reap it.
    std::unique_ptr<Client> raw = MustConnectRaw();
    ASSERT_NE(raw, nullptr);
    const std::string partial = FromHex("0d00000020");
    ASSERT_TRUE(raw->SendBytes(partial.data(), partial.size()).ok());
  }

  // Seeded garbage sweep. Every connection must end in an error reply or
  // a drop — and the listener must stay healthy throughout.
  std::mt19937_64 rnd(0xf22);
  for (int i = 0; i < 40; ++i) {
    std::unique_ptr<Client> raw = MustConnectRaw();
    ASSERT_NE(raw, nullptr);
    std::string garbage(1 + rnd() % 128, '\0');
    for (char& c : garbage) c = static_cast<char>(rnd() & 0xff);
    ASSERT_TRUE(raw->SendBytes(garbage.data(), garbage.size()).ok());
    // Drain until the server drops us or stops replying. Cap the reads:
    // garbage can parse as at most a few frames.
    for (int reads = 0; reads < 8; ++reads) {
      if (!raw->RecvFramePayload().ok()) break;
    }
  }

  // The server survived all of it.
  std::unique_ptr<Client> client = MustConnect();
  ASSERT_NE(client, nullptr);
  EXPECT_TRUE(client->Ping()->ok());
  EXPECT_EQ(client->Get("kv", 3)->value, "seed3");
}

TEST_F(ServerTest, StopWithLiveConnections) {
  Open();
  StartServer();
  std::unique_ptr<Client> client = MustConnect();
  ASSERT_NE(client, nullptr);
  EXPECT_TRUE(client->Ping()->ok());
  EXPECT_EQ(server_->active_conns(), 1);
  server_->Stop();
  server_->Stop();  // idempotent
  EXPECT_FALSE(client->Ping().ok());
}

TEST_F(ServerTest, PerTenantCounters) {
  Open();
  StartServer();
  std::unique_ptr<Client> a = MustConnect("alpha");
  std::unique_ptr<Client> b = MustConnect("beta");
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  ASSERT_TRUE(a->Ping()->ok());
  ASSERT_TRUE(b->Ping()->ok());
  obs::MetricSample sample;
  obs::MetricLabels labels{"net", "", "", "alpha"};
  EXPECT_TRUE(db_->metrics_registry()->Lookup("net.tenant_requests", labels,
                                              &sample));
  labels.tenant = "beta";
  EXPECT_TRUE(db_->metrics_registry()->Lookup("net.tenant_requests", labels,
                                              &sample));
}

}  // namespace
}  // namespace net
}  // namespace btrim

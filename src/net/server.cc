#include "net/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>

#include "engine/database.h"
#include "obs/metrics_registry.h"
#include "obs/time_series_sampler.h"

namespace btrim {
namespace net {

namespace {

Status Errno(const std::string& what) {
  return Status::IOError(what + ": " + std::strerror(errno));
}

}  // namespace

Server::Conn::~Conn() {
  if (fd >= 0) ::close(fd);
}

Server::Server(Database* db, ServerOptions options)
    : db_(db), options_(std::move(options)) {}

Server::~Server() { Stop(); }

int64_t Server::NowMicros() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Result<std::unique_ptr<Server>> Server::Start(Database* db,
                                              ServerOptions options) {
  auto server = std::make_unique<Server>(db, std::move(options));
  BTRIM_RETURN_IF_ERROR(server->Init());
  for (Loop& loop : server->loops_) {
    loop.thread =
        std::thread([s = server.get(), l = &loop] { s->EventLoop(l); });
  }
  return server;
}

Status Server::Init() {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) return Errno("socket");
  int one = 1;
  (void)::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(options_.port));
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("bad listen host: " + options_.host);
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    return Errno("bind " + options_.host);
  }
  if (::listen(listen_fd_, 128) != 0) return Errno("listen");

  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len) !=
      0) {
    return Errno("getsockname");
  }
  port_ = ntohs(bound.sin_port);

  loops_ = std::vector<Loop>(
      static_cast<size_t>(std::max(1, options_.worker_lanes)));
  for (Loop& loop : loops_) {
    loop.epoll_fd = ::epoll_create1(EPOLL_CLOEXEC);
    if (loop.epoll_fd < 0) return Errno("epoll_create1");
    loop.wake_fd = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
    if (loop.wake_fd < 0) return Errno("eventfd");
    // Epoll data tags: the loop itself marks its wake fd, &listen_fd_
    // the listen socket, anything else is a Conn.
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.ptr = &loop;
    if (::epoll_ctl(loop.epoll_fd, EPOLL_CTL_ADD, loop.wake_fd, &ev) != 0) {
      return Errno("epoll_ctl(wake)");
    }
  }
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.ptr = &listen_fd_;
  if (::epoll_ctl(loops_[0].epoll_fd, EPOLL_CTL_ADD, listen_fd_, &ev) != 0) {
    return Errno("epoll_ctl(listen)");
  }
  return RegisterMetrics();
}

Status Server::RegisterMetrics() {
  obs::MetricsRegistry* reg = db_->metrics_registry();
  obs::MetricLabels labels;
  labels.subsystem = "net";
  BTRIM_RETURN_IF_ERROR(
      reg->RegisterCounter("net.accepted_conns", labels, &accepted_conns_));
  BTRIM_RETURN_IF_ERROR(
      reg->RegisterGauge("net.active_conns", labels, &active_conns_));
  BTRIM_RETURN_IF_ERROR(reg->RegisterCounter("net.requests", labels,
                                             &requests_));
  for (int i = 0; i < kOpCount; ++i) {
    BTRIM_RETURN_IF_ERROR(reg->RegisterCounter(
        std::string("net.req_") + OpName(kAllOps[i]), labels,
        &requests_by_op_[i]));
  }
  BTRIM_RETURN_IF_ERROR(
      reg->RegisterGauge("net.queue_depth", labels, &queue_depth_));
  BTRIM_RETURN_IF_ERROR(reg->RegisterCounter("net.shed", labels, &shed_));
  BTRIM_RETURN_IF_ERROR(
      reg->RegisterCounter("net.bytes_in", labels, &bytes_in_));
  BTRIM_RETURN_IF_ERROR(
      reg->RegisterCounter("net.bytes_out", labels, &bytes_out_));
  BTRIM_RETURN_IF_ERROR(
      reg->RegisterCounter("net.protocol_errors", labels, &protocol_errors_));
  BTRIM_RETURN_IF_ERROR(reg->RegisterHistogram("net.request_latency_us",
                                               labels, &request_latency_));
  BTRIM_RETURN_IF_ERROR(
      reg->RegisterCounter("net.tpcc_committed", labels, &tpcc_committed_));
  return reg->RegisterCounter("net.tpcc_user_aborts", labels,
                              &tpcc_user_aborts_);
}

void Server::Stop() {
  bool expected = false;
  if (!stopped_.compare_exchange_strong(expected, true)) return;
  stopping_.store(true, std::memory_order_release);
  for (Loop& loop : loops_) {
    if (loop.wake_fd < 0) continue;  // Init failed before creating it
    uint64_t one = 1;
    ssize_t r = ::write(loop.wake_fd, &one, sizeof(one));
    (void)r;
  }
  // A loop answers everything it parsed before it looks at stopping_
  // again, so joining the loops drops no parsed request unanswered.
  for (Loop& loop : loops_) {
    if (loop.thread.joinable()) loop.thread.join();
  }

  std::map<int, std::unique_ptr<Conn>> conns;
  {
    MutexGuard guard(conns_mu_);
    conns.swap(conns_);
  }
  active_conns_.Sub(static_cast<int64_t>(conns.size()));
  conns.clear();  // destructors close the sockets

  for (Loop& loop : loops_) {
    if (loop.epoll_fd >= 0) ::close(loop.epoll_fd);
    if (loop.wake_fd >= 0) ::close(loop.wake_fd);
    loop.epoll_fd = loop.wake_fd = -1;
  }
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }

  obs::MetricLabels labels;
  labels.subsystem = "net";
  db_->metrics_registry()->UnregisterMatching(labels);
}

void Server::EventLoop(Loop* loop) {
  std::vector<epoll_event> events(64);
  while (!stopping_.load(std::memory_order_acquire)) {
    const int n =
        ::epoll_wait(loop->epoll_fd, events.data(),
                     static_cast<int>(events.size()), /*timeout=*/-1);
    if (n < 0) {
      if (errno == EINTR) continue;
      return;
    }
    for (int i = 0; i < n; ++i) {
      void* const tag = events[i].data.ptr;
      if (tag == &listen_fd_) {
        AcceptReady();
        continue;
      }
      if (tag == loop) {
        uint64_t drained;
        ssize_t r = ::read(loop->wake_fd, &drained, sizeof(drained));
        (void)r;
        continue;
      }
      // An fd appears at most once per epoll_wait batch, and only this
      // thread closes the conns it owns, so the pointer is live here.
      Conn* conn = static_cast<Conn*>(tag);
      if ((events[i].events & (EPOLLHUP | EPOLLERR)) != 0) {
        CloseConn(conn);
        continue;
      }
      if ((events[i].events & EPOLLOUT) != 0) Flush(conn);
      if ((events[i].events & EPOLLIN) != 0) ReadReady(conn);
    }
  }
}

void Server::AcceptReady() {
  for (;;) {
    const int fd =
        ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // EAGAIN, or a transient accept failure: retry on next event
    }
    int one = 1;
    (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    const uint64_t id = next_conn_id_++;
    auto owned = std::make_unique<Conn>(fd, id, &loops_[id % loops_.size()]);
    Conn* conn = owned.get();
    {
      MutexGuard guard(conns_mu_);
      conns_[fd] = std::move(owned);
    }
    active_conns_.Add(1);
    // From here on only the owning loop touches conn: epoll_ctl publishes
    // it to that loop's epoll_wait.
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.ptr = conn;
    if (::epoll_ctl(conn->loop->epoll_fd, EPOLL_CTL_ADD, fd, &ev) != 0) {
      CloseConn(conn);  // never registered, so no loop can see it
      continue;
    }
    accepted_conns_.Inc();
  }
}

void Server::ReadReady(Conn* conn) {
  char buf[64 * 1024];
  bool peer_closed = false;
  for (;;) {
    const ssize_t n = ::recv(conn->fd, buf, sizeof(buf), 0);
    if (n > 0) {
      bytes_in_.Add(n);
      if (!conn->closing) conn->in.append(buf, static_cast<size_t>(n));
      continue;
    }
    if (n == 0) {
      peer_closed = true;
      break;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    peer_closed = true;
    break;
  }

  size_t off = 0;
  while (!conn->closing) {
    size_t frame_len = 0;
    Slice payload;
    const FrameGate gate = TryExtractFrame(
        conn->in.data() + off, conn->in.size() - off, &frame_len, &payload);
    if (gate == FrameGate::kNeedMore) break;
    const int64_t parsed_us = NowMicros();
    queue_depth_.Add(1);
    Request req;
    const Status parsed = gate == FrameGate::kTooBig
                              ? Status::InvalidArgument("oversized frame")
                              : ParseRequest(payload, &req);
    off += frame_len;
    AppendResponseFrame(&conn->out, Serve(conn, req, parsed));
    request_latency_.Record(NowMicros() - parsed_us);
    queue_depth_.Sub(1);
    if (conn->out.size() - conn->out_off > options_.max_conn_outbuf) {
      Flush(conn);
      if (conn->out.size() - conn->out_off > options_.max_conn_outbuf) {
        // Backpressure of last resort: the reader fell hopelessly behind.
        // The loop reaps the connection on the HUP that follows.
        conn->out.clear();
        conn->out_off = 0;
        conn->closing = true;
      }
    }
  }
  if (off > 0) conn->in.erase(0, off);

  Flush(conn);
  if (peer_closed) CloseConn(conn);
}

Response Server::Serve(Conn* conn, const Request& req, const Status& parsed) {
  Response resp;
  resp.op = req.op;
  if (!parsed.ok()) {
    protocol_errors_.Inc();
    resp.code = Status::Code::kInvalidArgument;
    resp.message = parsed.message();
    conn->closing = true;  // the stream cannot be re-framed
    return resp;
  }
  requests_.Inc();
  requests_by_op_[OpIndex(static_cast<uint8_t>(req.op))].Inc();
  // Control ops (handshake, liveness, sampler marks) are never shed —
  // backpressure applies to the data path.
  const bool exempt = req.op == OpCode::kHello || req.op == OpCode::kPing ||
                      req.op == OpCode::kMark;
  if (!exempt &&
      queue_depth_.Load() > static_cast<int64_t>(options_.max_inflight)) {
    shed_.Inc();
    resp.code = Status::Code::kBusy;
    resp.message = "admission control: too many requests in flight";
    return resp;
  }
  return Execute(conn, req);
}

void Server::Flush(Conn* conn) {
  while (conn->out_off < conn->out.size()) {
    const ssize_t n =
        ::send(conn->fd, conn->out.data() + conn->out_off,
               conn->out.size() - conn->out_off, MSG_NOSIGNAL);
    if (n > 0) {
      conn->out_off += static_cast<size_t>(n);
      bytes_out_.Add(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      if (conn->out_off > 0) {
        conn->out.erase(0, conn->out_off);
        conn->out_off = 0;
      }
      if (!conn->want_write) {
        conn->want_write = true;
        epoll_event ev{};
        ev.events = EPOLLIN | EPOLLOUT;
        ev.data.ptr = conn;
        (void)::epoll_ctl(conn->loop->epoll_fd, EPOLL_CTL_MOD, conn->fd, &ev);
      }
      return;
    }
    if (n < 0 && errno == EINTR) continue;
    // Peer is gone; the loop observes HUP and reaps the connection.
    conn->out.clear();
    conn->out_off = 0;
    (void)::shutdown(conn->fd, SHUT_RDWR);
    return;
  }
  conn->out.clear();
  conn->out_off = 0;
  if (conn->want_write) {
    conn->want_write = false;
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.ptr = conn;
    (void)::epoll_ctl(conn->loop->epoll_fd, EPOLL_CTL_MOD, conn->fd, &ev);
  }
  if (conn->closing) (void)::shutdown(conn->fd, SHUT_RDWR);
}

void Server::CloseConn(Conn* conn) {
  (void)::epoll_ctl(conn->loop->epoll_fd, EPOLL_CTL_DEL, conn->fd, nullptr);
  std::unique_ptr<Conn> doomed;
  {
    MutexGuard guard(conns_mu_);
    auto it = conns_.find(conn->fd);
    doomed = std::move(it->second);
    conns_.erase(it);
  }
  active_conns_.Sub(1);
  // doomed's destructor closes the socket and aborts any open transaction,
  // outside conns_mu_.
}

Response Server::Execute(Conn* conn, const Request& req) {
  Response resp;
  resp.op = req.op;
  auto set = [&resp](const Status& s) {
    resp.code = s.code();
    resp.message = s.message();
  };

  if (!conn->handshaken && req.op != OpCode::kHello) {
    set(Status::InvalidArgument("handshake required"));
    conn->closing = true;
    return resp;
  }
  if (conn->tenant_requests != nullptr) conn->tenant_requests->Inc();

  switch (req.op) {
    case OpCode::kHello: {
      if (conn->handshaken) {
        set(Status::InvalidArgument("duplicate handshake"));
        break;
      }
      if (req.magic != kMagic) {
        set(Status::InvalidArgument("bad magic"));
        conn->closing = true;
        break;
      }
      if (req.version != kProtocolVersion) {
        set(Status::NotSupported("unsupported protocol version"));
        conn->closing = true;
        break;
      }
      conn->handshaken = true;
      conn->tenant = req.tenant.empty() ? "default" : req.tenant;
      conn->session = std::make_unique<Session>(db_);
      conn->rnd = std::make_unique<tpcc::TpccRandom>(
          options_.seed ^ (conn->id * 0x9e3779b97f4a7c15ull));
      conn->tenant_requests = TenantCounter(conn->tenant);
      conn->tenant_requests->Inc();
      break;
    }
    case OpCode::kPing:
      break;
    case OpCode::kBegin:
      set(conn->session->Begin());
      break;
    case OpCode::kCommit:
      set(conn->session->Commit());
      break;
    case OpCode::kAbort:
      set(conn->session->Abort());
      break;
    case OpCode::kGet:
      set(conn->session->Get(req.table, req.key, &resp.value));
      break;
    case OpCode::kPut:
      set(conn->session->Put(req.table, req.key, req.value));
      break;
    case OpCode::kScan: {
      std::vector<Session::Row> rows;
      Status s = conn->session->Scan(req.table, req.key, req.limit, &rows);
      set(s);
      if (s.ok()) {
        resp.rows.reserve(rows.size());
        for (Session::Row& row : rows) {
          resp.rows.push_back(Response::Row{row.key, std::move(row.value)});
        }
      }
      break;
    }
    case OpCode::kTpcc:
      return ExecuteTpcc(conn, req);
    case OpCode::kMark:
      db_->metrics_sampler()->SampleNow(req.marker);
      break;
  }
  return resp;
}

Response Server::ExecuteTpcc(Conn* conn, const Request& req) {
  Response resp;
  resp.op = OpCode::kTpcc;
  auto set = [&resp](const Status& s) {
    resp.code = s.code();
    resp.message = s.message();
  };
  tpcc::TpccContext* ctx = options_.tpcc;
  if (ctx == nullptr) {
    set(Status::NotSupported("server started without a TPC-C context"));
    return resp;
  }
  if (conn->session->in_txn()) {
    set(Status::InvalidArgument("kTpcc inside an explicit transaction"));
    return resp;
  }
  if (req.txn_type > 4) {
    set(Status::InvalidArgument("bad txn_type"));
    return resp;
  }
  const int warehouses = ctx->scale.warehouses;
  const int w_id =
      req.warehouse == 0
          ? static_cast<int>(conn->rnd->Uniform(1, warehouses))
          : static_cast<int>(req.warehouse);
  if (w_id < 1 || w_id > warehouses) {
    set(Status::InvalidArgument("warehouse out of range"));
    return resp;
  }
  tpcc::TpccRandom* rnd = conn->rnd.get();
  tpcc::TxnResult result;
  switch (req.txn_type) {
    case 0: result = tpcc::RunNewOrder(ctx, rnd, w_id); break;
    case 1: result = tpcc::RunPayment(ctx, rnd, w_id); break;
    case 2: result = tpcc::RunOrderStatus(ctx, rnd, w_id); break;
    case 3: result = tpcc::RunDelivery(ctx, rnd, w_id); break;
    default: result = tpcc::RunStockLevel(ctx, rnd, w_id); break;
  }
  // Lock-fight aborts are an outcome, not a server error: the reply stays
  // OK with committed=false so the client can count and retry. Anything
  // else (corruption, IO) propagates as the error it is.
  if (!result.status.ok() && !result.status.IsBusy() &&
      !result.status.IsAborted()) {
    set(result.status);
    return resp;
  }
  resp.committed = result.committed;
  resp.user_abort = result.user_abort;
  if (result.committed) tpcc_committed_.Inc();
  if (result.user_abort) tpcc_user_aborts_.Inc();
  return resp;
}

ShardedCounter* Server::TenantCounter(const std::string& tenant) {
  ShardedCounter* counter = nullptr;
  bool created = false;
  {
    MutexGuard guard(tenants_mu_);
    auto it = tenants_.find(tenant);
    if (it == tenants_.end()) {
      it = tenants_.emplace(tenant, std::make_unique<ShardedCounter>()).first;
      created = true;
    }
    counter = it->second.get();
  }
  if (created) {
    obs::MetricLabels labels;
    labels.subsystem = "net";
    labels.tenant = tenant;
    // Replaces a retained entry if a previous server on this registry had
    // the same tenant; a duplicate live entry cannot happen (one counter
    // per tenant name, created once).
    Status s = db_->metrics_registry()->RegisterCounter("net.tenant_requests",
                                                        labels, counter);
    (void)s;
  }
  return counter;
}

}  // namespace net
}  // namespace btrim

#ifndef BTRIM_NET_SERVER_H_
#define BTRIM_NET_SERVER_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/counters.h"
#include "common/histogram.h"
#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "engine/session.h"
#include "net/protocol.h"
#include "tpcc/txns.h"

namespace btrim {

class Database;

namespace net {

/// Server configuration (tools/btrim_server.cc exposes these as flags).
struct ServerOptions {
  std::string host = "127.0.0.1";
  int port = 0;  ///< 0 = ephemeral (read back via Server::port())

  /// Event loops, each owning the connections assigned to it and running
  /// their requests to completion (DESIGN.md Sec. 16.2). <= 1 means one
  /// loop that also accepts — the determinism anchor for tests, same
  /// convention as pack_workers.
  int worker_lanes = 4;

  /// Admission control: parsed requests allowed in flight (parsed, not
  /// yet answered) across all connections before new ones are shed with
  /// kBusy. Handshake and ping are exempt (cheap control ops, and a
  /// client must always be able to identify itself). 0 sheds everything
  /// but control ops — the deterministic-shed test mode.
  int max_inflight = 256;

  /// Per-connection write-buffer cap; a reader slow enough to exceed it is
  /// disconnected (backpressure of last resort).
  size_t max_conn_outbuf = 8u << 20;

  /// Enables the kTpcc opcode. The context (and its warehouse scale) must
  /// outlive the server; null replies kNotSupported.
  tpcc::TpccContext* tpcc = nullptr;

  /// Seed for per-connection TPC-C randomness.
  uint64_t seed = 1;
};

/// The networked front-end (DESIGN.md Sec. 16): `worker_lanes` epoll event
/// loops. Loop 0 also accepts, and hands connection `id` to loop
/// `id % loops`. A loop is the only thread that ever touches the
/// connections it owns: it reads, parses, executes each request against
/// the connection's engine Session, appends the reply, and flushes once
/// per read batch. Pipelined requests therefore reply in order, and
/// different connections run concurrently only when they sit on
/// different loops.
///
/// Locking (DESIGN.md Sec. 12): conns_mu_ (kNetServer) guards the
/// connection map, taken only on accept, close, and Stop. Connection state
/// is confined to its loop thread and needs no lock; all metric sources
/// are atomic-backed, so registry snapshots never touch a net lock.
class Server {
 public:
  /// Binds, registers net.* metrics, and starts the loops.
  static Result<std::unique_ptr<Server>> Start(Database* db,
                                               ServerOptions options);

  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Stops accepting, answers every parsed request, joins every loop,
  /// closes every connection, and retires the net.* metrics. Idempotent.
  void Stop();

  /// Bound port (after Start).
  int port() const { return port_; }

  /// --- test/bench observability --------------------------------------------
  int64_t sheds() const { return shed_.Load(); }
  int64_t protocol_errors() const { return protocol_errors_.Load(); }
  int64_t active_conns() const { return active_conns_.Load(); }

  /// Not for direct use — Start() is the entry point (public only so
  /// make_unique can see it).
  Server(Database* db, ServerOptions options);

 private:
  struct Loop {
    int epoll_fd = -1;
    int wake_fd = -1;  ///< eventfd: Stop() wakes the loop through it
    std::thread thread;
  };

  /// One client connection. Every field past `loop` is touched only on
  /// the owning loop's thread (accept hands it over through epoll_ctl).
  struct Conn {
    Conn(int fd, uint64_t id, Loop* loop) : fd(fd), id(id), loop(loop) {}
    ~Conn();

    const int fd;
    const uint64_t id;
    Loop* const loop;

    std::string in;
    std::string out;
    size_t out_off = 0;
    bool want_write = false;  ///< EPOLLOUT armed
    /// Parse nothing more and shut the socket down once `out` drains: set
    /// by a fatal reply, or with `out` dropped when the reader fell behind.
    bool closing = false;

    bool handshaken = false;
    std::string tenant;
    std::unique_ptr<Session> session;
    std::unique_ptr<tpcc::TpccRandom> rnd;
    ShardedCounter* tenant_requests = nullptr;  ///< owned by Server
  };

  Status Init();
  Status RegisterMetrics();

  void EventLoop(Loop* loop);
  void AcceptReady();
  /// Reads what arrived, runs every complete request to completion, and
  /// flushes the replies.
  void ReadReady(Conn* conn);
  /// Builds the reply to one parsed request: its parse failure, a shed,
  /// or the result of executing it.
  Response Serve(Conn* conn, const Request& req, const Status& parsed);
  Response Execute(Conn* conn, const Request& req);
  Response ExecuteTpcc(Conn* conn, const Request& req);
  /// Sends as much of conn->out as the socket accepts; arms/disarms
  /// EPOLLOUT and shuts the socket down once a `closing` conn drains.
  void Flush(Conn* conn);
  void CloseConn(Conn* conn);

  /// Lazily creates + registers the per-tenant request counter.
  ShardedCounter* TenantCounter(const std::string& tenant);

  static int64_t NowMicros();

  Database* const db_;
  const ServerOptions options_;

  int listen_fd_ = -1;
  int port_ = 0;

  std::atomic<bool> stopping_{false};
  std::atomic<bool> stopped_{false};

  uint64_t next_conn_id_ = 1;  ///< loops_[0] thread only

  mutable Mutex conns_mu_{LockRank::kNetServer, "net.server.conns"};
  std::map<int, std::unique_ptr<Conn>> conns_ BTRIM_GUARDED_BY(conns_mu_);

  mutable Mutex tenants_mu_{LockRank::kNetServer, "net.server.tenants"};
  std::map<std::string, std::unique_ptr<ShardedCounter>> tenants_
      BTRIM_GUARDED_BY(tenants_mu_);

  /// net.* metric sources — all atomic-backed (see class comment).
  ShardedCounter accepted_conns_;
  AtomicGauge active_conns_;
  ShardedCounter requests_;
  ShardedCounter requests_by_op_[kOpCount];
  AtomicGauge queue_depth_;
  ShardedCounter shed_;
  ShardedCounter bytes_in_;
  ShardedCounter bytes_out_;
  ShardedCounter protocol_errors_;
  LatencyHistogram request_latency_;
  ShardedCounter tpcc_committed_;
  ShardedCounter tpcc_user_aborts_;

  /// Sized once by Init; loops_[0] accepts. Declared last: the loop
  /// threads use every member above.
  std::vector<Loop> loops_;
};

}  // namespace net
}  // namespace btrim

#endif  // BTRIM_NET_SERVER_H_

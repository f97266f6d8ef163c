// rcj::NetServer — the TCP front door of the ringjoin stack.
//
// Layered on rcj::ShardRouter: one accepted connection carries one
// request conversation. A QUERY line becomes one routed Submit() ticket
// on the target environment's shard and streams its result pairs back
// through a SocketSink in the exact serial order the engine delivers
// them; an INSERT/DELETE/COMPACT line is a routed mutation of a live
// environment, answered with an OK + MUT acknowledgement — and further
// mutation lines may follow on the same connection (a batch: one
// connection, many ops, one ack each) until the client closes or errs;
// a STATS line is answered
// immediately with the router's per-shard and per-environment ledgers
// (protocol.h defines all the grammars). Admission control surfaces on the
// wire: a submission the router sheds (bounded shard queue or global
// in-flight cap) is answered with `ERR Overloaded` before any OK, so an
// overloaded server fails fast instead of queueing unboundedly.
//
// The connection lifecycle maps onto the service's cancellation hook in
// both directions:
//
//   * client drop — the connection thread waits on the ticket and checks
//     the socket between 20 ms slices; a read error pulls
//     QueryTicket::Cancel(), so the engine abandons the query's remaining
//     leaf ranges instead of joining for a departed caller (a finished
//     query wakes the thread at once, so END never waits out a slice);
//   * slow consumer — the SocketSink's bounded pending buffer turns a
//     stalled socket into Emit()->false, the same limit-style cancellation.
//
// Connections are served by one thread each (the joins themselves run on
// the shard engines' pools; connection threads only shuttle bytes), and
// every environment the server can answer for is registered by name on
// the router — requests select one with the `env=` field.
#ifndef RINGJOIN_NET_NET_SERVER_H_
#define RINGJOIN_NET_NET_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/macros.h"
#include "common/status.h"
#include "net/socket_sink.h"
#include "net/tcp.h"
#include "shard/shard_router.h"

namespace rcj {

struct NetServerOptions {
  /// TCP port to listen on; 0 picks an ephemeral port (read it back with
  /// port() after Start()).
  uint16_t port = 0;
  /// Listen address. The default only accepts loopback peers; widen it
  /// explicitly (e.g. "0.0.0.0") to serve remote callers.
  std::string bind_address = "127.0.0.1";
  int backlog = 64;
  /// Cap on simultaneously served connections (each holds one thread).
  /// At the cap the accept loop defers — further peers wait in the kernel
  /// backlog instead of spawning unbounded threads.
  size_t max_connections = 256;
  /// Hard cap on the request line; longer requests are rejected.
  size_t max_request_bytes = 4096;
  /// How long a connection may take to deliver a request line (applied
  /// per line: each mutation of a batch gets a fresh allowance).
  int request_timeout_ms = 10000;
  /// Reap a connection that sits with no bytes of a next request for this
  /// long (0 = off). A keep-alive client that went quiet is closed without
  /// an ERR and counted in Counters::idle_closed; a peer that stalled
  /// mid-line stays governed by request_timeout_ms.
  int idle_timeout_ms = 0;
  /// SO_SNDBUF for accepted sockets; 0 keeps the kernel default. Shrinking
  /// it (tests do) makes the sink's bounded-queue backpressure bite after
  /// a few pairs instead of after megabytes.
  int send_buffer_bytes = 0;
  /// Backpressure knobs of each connection's SocketSink.
  SocketSinkOptions sink;
  /// Queries whose wall time meets this threshold are remembered by the
  /// process-wide slow-query log (dumped by METRICS and rcj_tool).
  /// Negative leaves the log's current configuration alone (off by
  /// default); 0 records every query.
  double slow_query_ms = -1.0;
  /// Period of the background thread that refreshes registry gauges
  /// (active connections, shard queue depths) from the router's ledgers.
  /// 0 or negative disables the thread.
  int metrics_snapshot_ms = 1000;
};

class NetServer {
 public:
  /// Monotonic counters of connection outcomes, for observability and
  /// tests (e.g. asserting that a mid-stream disconnect was counted as a
  /// cancellation, not a success).
  struct Counters {
    uint64_t connections = 0;  ///< accepted sockets.
    uint64_t ok = 0;           ///< full stream + END delivered.
    uint64_t rejected = 0;     ///< malformed/unknown requests (ERR before OK).
    uint64_t shed = 0;         ///< refused by admission (ERR Overloaded).
    uint64_t cancelled = 0;    ///< client drop or backpressure cancellation.
    uint64_t failed = 0;       ///< engine-side query failure (ERR after OK).
    uint64_t stats = 0;        ///< STATS probes answered.
    uint64_t mutations = 0;    ///< INSERT/DELETE/COMPACT applied (OK + MUT).
    uint64_t metrics = 0;      ///< METRICS scrapes answered.
    uint64_t expired = 0;      ///< deadline exceeded (ERR DeadlineExceeded).
    uint64_t idle_closed = 0;  ///< reaped by the idle timeout.
    uint64_t epochs = 0;       ///< EPOCH probes answered.
  };

  /// Serves queries by submitting through `router`, whose registered
  /// environments are the ones requests may name. The router (and every
  /// environment registered on it) must outlive the server.
  NetServer(ShardRouter* router, NetServerOptions options = {});
  ~NetServer();

  RINGJOIN_DISALLOW_COPY_AND_ASSIGN(NetServer);

  /// Binds, listens, and starts accepting. IoError on bind/listen failure
  /// (e.g. the port is taken).
  Status Start();

  /// Stops accepting, cancels every in-flight ticket, unblocks and joins
  /// all connection threads. Idempotent; also run by the destructor.
  void Stop();

  /// The bound port (resolves ephemeral port 0); valid after Start().
  uint16_t port() const { return listener_.port(); }

  Counters counters() const;

 private:
  /// Per-connection state shared between its handler thread and Stop().
  struct Connection {
    std::mutex mu;
    int fd = -1;           // -1 once the handler closed it
    QueryTicket ticket;    // valid once submitted
    /// Set by the sink's on_dead hook; lets the handler close the race
    /// where the sink died before the ticket was stored (mirrors the
    /// Stop() self-cancel pattern).
    bool sink_died = false;
    /// Set by the handler as its very last step; the accept loop reaps
    /// (joins and erases) done connections so a long-lived server does
    /// not accumulate dead threads.
    std::atomic<bool> done{false};
  };

  void AcceptLoop();
  void HandleConnection(Connection* connection);
  /// Routes one QUERY request: validation, admission, submission, and the
  /// in-flight babysitting until the ticket resolves. `status` carries any
  /// request-read error; `line` is the raw request line.
  void HandleQuery(Connection* connection, SocketSink* sink, Status status,
                   const std::string& line);
  /// Answers a STATS request on `sink` with the router's per-shard and
  /// per-environment ledgers.
  void HandleStats(SocketSink* sink);
  /// Answers a METRICS request on `sink` with the process-wide registry's
  /// Prometheus exposition (OK, the exposition lines, ENDMETRICS).
  void HandleMetrics(SocketSink* sink);
  /// Answers an EPOCH probe: OK plus one epoch response row for the named
  /// environment (static environments report epoch 0).
  void HandleEpoch(SocketSink* sink, const std::string& line);
  /// Arms or disarms one failpoint site (test builds only; ERR
  /// NotSupported when failpoints are compiled out).
  void HandleFailpoint(SocketSink* sink, const std::string& line);
  /// Body of the periodic gauge-refresh thread (options.metrics_snapshot_ms).
  void SnapshotLoop();
  /// Serves a batch of mutation lines, the first already read into
  /// `line`: each is applied through the router and acknowledged with
  /// OK + MUT, then the next line is read off the same connection until
  /// the client closes (clean end) or a line fails (ERR, conversation
  /// over). Mutations are synchronous — no ticket, no admission slot;
  /// the router serializes them against the target environment's locks.
  void HandleMutations(int fd, SocketSink* sink, std::string line,
                       std::string* carry);
  /// Applies one INSERT/DELETE/COMPACT line through the router and
  /// acknowledges with OK + MUT; false when the line failed and an ERR
  /// was sent instead (which ends the conversation).
  bool HandleMutation(SocketSink* sink, const std::string& line);
  /// Joins and erases the connections whose handlers have finished.
  void ReapFinishedConnections();

  ShardRouter* router_;
  NetServerOptions options_;

  net::TcpListener listener_;
  std::atomic<bool> stop_{false};
  bool started_ = false;
  std::thread accept_thread_;
  std::thread snapshot_thread_;
  std::mutex snapshot_mu_;
  std::condition_variable snapshot_cv_;

  std::mutex mu_;
  std::vector<std::shared_ptr<Connection>> connections_;
  std::vector<std::thread> threads_;

  std::atomic<uint64_t> connections_count_{0};
  std::atomic<uint64_t> ok_count_{0};
  std::atomic<uint64_t> rejected_count_{0};
  std::atomic<uint64_t> shed_count_{0};
  std::atomic<uint64_t> cancelled_count_{0};
  std::atomic<uint64_t> failed_count_{0};
  std::atomic<uint64_t> stats_count_{0};
  std::atomic<uint64_t> mutations_count_{0};
  std::atomic<uint64_t> metrics_count_{0};
  std::atomic<uint64_t> expired_count_{0};
  std::atomic<uint64_t> idle_closed_count_{0};
  std::atomic<uint64_t> epochs_count_{0};
};

}  // namespace rcj

#endif  // RINGJOIN_NET_NET_SERVER_H_

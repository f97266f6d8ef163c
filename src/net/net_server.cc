#include "net/net_server.h"

#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <memory>
#include <utility>

#include "common/failpoint.h"
#include "core/runner.h"
#include "net/protocol.h"
#include "net/request_reader.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace rcj {
namespace {

/// Registry mirrors of the server's connection-outcome counters, plus the
/// wire-volume counters only the sinks know (bytes to the kernel, pairs
/// delivered, backpressure stalls) and the gauges the snapshot thread
/// refreshes.
struct ServerMetrics {
  obs::Counter* connections;
  obs::Counter* ok;
  obs::Counter* rejected;
  obs::Counter* shed;
  obs::Counter* cancelled;
  obs::Counter* failed;
  obs::Counter* stats;
  obs::Counter* mutations;
  obs::Counter* metrics_scrapes;
  obs::Counter* expired;
  obs::Counter* idle_closed;
  obs::Counter* epochs;
  obs::Counter* bytes_sent;
  obs::Counter* pairs_sent;
  obs::Counter* backpressure_stalls;
  obs::Gauge* active_connections;
  obs::Gauge* shards_queued;

  static const ServerMetrics& Get() {
    static const ServerMetrics metrics = [] {
      obs::MetricsRegistry& registry = obs::MetricsRegistry::Default();
      ServerMetrics m;
      m.connections = registry.counter("rcj_server_connections_total");
      m.ok = registry.counter("rcj_server_ok_total");
      m.rejected = registry.counter("rcj_server_rejected_total");
      m.shed = registry.counter("rcj_server_shed_total");
      m.cancelled = registry.counter("rcj_server_cancelled_total");
      m.failed = registry.counter("rcj_server_failed_total");
      m.stats = registry.counter("rcj_server_stats_total");
      m.mutations = registry.counter("rcj_server_mutations_total");
      m.metrics_scrapes = registry.counter("rcj_server_metrics_total");
      m.expired = registry.counter("rcj_server_expired_total");
      m.idle_closed = registry.counter("rcj_server_idle_closed_total");
      m.epochs = registry.counter("rcj_server_epochs_total");
      m.bytes_sent = registry.counter("rcj_server_bytes_sent_total");
      m.pairs_sent = registry.counter("rcj_server_pairs_total");
      m.backpressure_stalls =
          registry.counter("rcj_server_backpressure_stalls_total");
      m.active_connections = registry.gauge("rcj_server_active_connections");
      m.shards_queued = registry.gauge("rcj_server_shards_queued");
      return m;
    }();
    return metrics;
  }
};

}  // namespace

NetServer::NetServer(ShardRouter* router, NetServerOptions options)
    : router_(router), options_(std::move(options)) {}

NetServer::~NetServer() { Stop(); }

Status NetServer::Start() {
  RINGJOIN_RETURN_IF_ERROR(listener_.Listen(options_.bind_address,
                                            options_.port, options_.backlog));

  stop_.store(false, std::memory_order_relaxed);
  started_ = true;
  // The slow-query log is process-wide; only a non-negative threshold
  // reconfigures it, so embedding several servers (tests, the fleet's
  // in-process backends) composes without clobbering.
  if (options_.slow_query_ms >= 0) {
    obs::MetricsRegistry::Default().slow_log()->Configure(
        options_.slow_query_ms / 1000.0);
  }
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  if (options_.metrics_snapshot_ms > 0) {
    snapshot_thread_ = std::thread([this] { SnapshotLoop(); });
  }
  return Status::OK();
}

void NetServer::SnapshotLoop() {
  while (!stop_.load(std::memory_order_relaxed)) {
    {
      std::unique_lock<std::mutex> lock(snapshot_mu_);
      snapshot_cv_.wait_for(
          lock, std::chrono::milliseconds(options_.metrics_snapshot_ms),
          [this] { return stop_.load(std::memory_order_relaxed); });
    }
    if (stop_.load(std::memory_order_relaxed)) return;
    uint64_t queued = 0;
    for (const ShardStatus& shard : router_->Stats()) {
      queued += shard.queued;
    }
    ServerMetrics::Get().shards_queued->Set(static_cast<int64_t>(queued));
    size_t active;
    {
      std::lock_guard<std::mutex> lock(mu_);
      active = connections_.size();
    }
    ServerMetrics::Get().active_connections->Set(
        static_cast<int64_t>(active));
  }
}

void NetServer::Stop() {
  if (!started_) return;
  stop_.store(true, std::memory_order_relaxed);
  snapshot_cv_.notify_all();
  if (snapshot_thread_.joinable()) snapshot_thread_.join();
  accept_thread_.join();
  listener_.Close();

  // Unblock every connection: cancel its query (the engine drops the
  // remaining work at the next delivery) and shut the socket down so reads
  // and writes in the handler return immediately.
  std::vector<std::shared_ptr<Connection>> connections;
  {
    std::lock_guard<std::mutex> lock(mu_);
    connections = connections_;
  }
  for (const std::shared_ptr<Connection>& connection : connections) {
    std::lock_guard<std::mutex> lock(connection->mu);
    connection->ticket.Cancel();
    if (connection->fd >= 0) shutdown(connection->fd, SHUT_RDWR);
  }
  std::vector<std::thread> threads;
  {
    std::lock_guard<std::mutex> lock(mu_);
    threads.swap(threads_);
    connections_.clear();
  }
  for (std::thread& thread : threads) thread.join();
  started_ = false;
}

NetServer::Counters NetServer::counters() const {
  Counters counters;
  counters.connections = connections_count_.load(std::memory_order_relaxed);
  counters.ok = ok_count_.load(std::memory_order_relaxed);
  counters.rejected = rejected_count_.load(std::memory_order_relaxed);
  counters.shed = shed_count_.load(std::memory_order_relaxed);
  counters.cancelled = cancelled_count_.load(std::memory_order_relaxed);
  counters.failed = failed_count_.load(std::memory_order_relaxed);
  counters.stats = stats_count_.load(std::memory_order_relaxed);
  counters.mutations = mutations_count_.load(std::memory_order_relaxed);
  counters.metrics = metrics_count_.load(std::memory_order_relaxed);
  counters.expired = expired_count_.load(std::memory_order_relaxed);
  counters.idle_closed = idle_closed_count_.load(std::memory_order_relaxed);
  counters.epochs = epochs_count_.load(std::memory_order_relaxed);
  return counters;
}

void NetServer::ReapFinishedConnections() {
  // Swap-remove keeps connections_[i] and threads_[i] paired. Joining a
  // finished handler returns immediately, but still happens outside the
  // lock so a slow exit never blocks Submit-path accounting.
  std::vector<std::thread> finished;
  {
    std::lock_guard<std::mutex> lock(mu_);
    size_t i = 0;
    while (i < connections_.size()) {
      if (connections_[i]->done.load(std::memory_order_acquire)) {
        finished.push_back(std::move(threads_[i]));
        connections_[i] = std::move(connections_.back());
        connections_.pop_back();
        threads_[i] = std::move(threads_.back());
        threads_.pop_back();
      } else {
        ++i;
      }
    }
  }
  for (std::thread& thread : finished) thread.join();
}

void NetServer::AcceptLoop() {
  listener_.AcceptUntil(
      stop_,
      [this] {
        ReapFinishedConnections();
        std::lock_guard<std::mutex> lock(mu_);
        return connections_.size() >= options_.max_connections;
      },
      [this](int fd) {
        if (options_.send_buffer_bytes > 0) {
          setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &options_.send_buffer_bytes,
                     sizeof(options_.send_buffer_bytes));
        }
        connections_count_.fetch_add(1, std::memory_order_relaxed);
        ServerMetrics::Get().connections->Add();
        auto connection = std::make_shared<Connection>();
        connection->fd = fd;
        std::lock_guard<std::mutex> lock(mu_);
        connections_.push_back(connection);
        threads_.emplace_back(
            [this, connection] { HandleConnection(connection.get()); });
      });
}

void NetServer::HandleStats(SocketSink* sink) {
  stats_count_.fetch_add(1, std::memory_order_relaxed);
  ServerMetrics::Get().stats->Add();
  const std::vector<ShardStatus> stats = router_->Stats();
  sink->SendLine("OK");
  for (const ShardStatus& shard : stats) {
    net::WireShardStats wire;
    wire.shard = shard.shard;
    wire.environments = shard.environments;
    wire.queued = shard.queued;
    wire.inflight = shard.counters.inflight;
    wire.submitted = shard.counters.submitted;
    wire.admitted = shard.counters.admitted;
    wire.shed = shard.counters.shed;
    wire.completed = shard.counters.completed;
    wire.cancelled = shard.counters.cancelled;
    wire.failed = shard.counters.failed;
    sink->SendLine(net::FormatShardStatsLine(wire));
  }
  const std::vector<EnvironmentStatus> envs = router_->EnvStats();
  for (const EnvironmentStatus& env : envs) {
    net::WireEnvStats wire;
    wire.name = env.name;
    wire.shard = env.shard;
    wire.live = env.live;
    wire.generation = env.stats.generation;
    wire.epoch = env.stats.epoch;
    wire.delta = env.stats.delta_size;
    wire.tombstones = env.stats.tombstones;
    wire.compactions = env.stats.compactions;
    wire.base_q = env.stats.base_q;
    wire.base_p = env.stats.base_p;
    sink->SendLine(net::FormatEnvStatsLine(wire));
  }
  sink->SendLine(net::FormatStatsEndLine(stats.size(), envs.size()));
  sink->Flush(options_.sink.drain_grace_ms);
}

void NetServer::HandleMetrics(SocketSink* sink) {
  metrics_count_.fetch_add(1, std::memory_order_relaxed);
  ServerMetrics::Get().metrics_scrapes->Add();
  const std::string exposition =
      obs::MetricsRegistry::Default().RenderPrometheus();
  // Split the newline-terminated exposition into wire lines; ENDMETRICS
  // carries the count so a client can read the block without sniffing.
  std::vector<std::string> lines;
  size_t begin = 0;
  while (begin < exposition.size()) {
    size_t end = exposition.find('\n', begin);
    if (end == std::string::npos) end = exposition.size();
    lines.push_back(exposition.substr(begin, end - begin));
    begin = end + 1;
  }
  sink->SendLine("OK");
  for (const std::string& line : lines) sink->SendLine(line);
  sink->SendLine(net::FormatMetricsEndLine(lines.size()));
  sink->Flush(options_.sink.drain_grace_ms);
}

void NetServer::HandleEpoch(SocketSink* sink, const std::string& line) {
  std::string env_name;
  Status status = net::ParseEpochRequestLine(line, &env_name);
  uint64_t epoch = 0;
  if (status.ok()) {
    bool found = false;
    for (const EnvironmentStatus& env : router_->EnvStats()) {
      if (env.name == env_name) {
        epoch = env.stats.epoch;
        found = true;
        break;
      }
    }
    if (!found) {
      status = Status::NotFound("unknown environment '" + env_name + "'");
    }
  }
  if (!status.ok()) {
    rejected_count_.fetch_add(1, std::memory_order_relaxed);
    ServerMetrics::Get().rejected->Add();
    sink->SendLine(net::FormatErrLine(status));
    sink->Flush(options_.sink.drain_grace_ms);
    return;
  }
  epochs_count_.fetch_add(1, std::memory_order_relaxed);
  ServerMetrics::Get().epochs->Add();
  sink->SendLine("OK");
  sink->SendLine(net::FormatEpochResponseLine(env_name, epoch));
  sink->Flush(options_.sink.drain_grace_ms);
}

void NetServer::HandleFailpoint(SocketSink* sink, const std::string& line) {
  std::string site;
  std::string spec;
  Status status = net::ParseFailpointLine(line, &site, &spec);
  if (status.ok() && !failpoint::kCompiledIn) {
    status = Status::NotSupported(
        "this server was built without RINGJOIN_FAILPOINTS");
  }
  if (status.ok()) status = failpoint::Configure(site, spec);
  if (!status.ok()) {
    rejected_count_.fetch_add(1, std::memory_order_relaxed);
    ServerMetrics::Get().rejected->Add();
    sink->SendLine(net::FormatErrLine(status));
    sink->Flush(options_.sink.drain_grace_ms);
    return;
  }
  sink->SendLine("OK");
  sink->Flush(options_.sink.drain_grace_ms);
}

bool NetServer::HandleMutation(SocketSink* sink, const std::string& line) {
  net::WireMutation mutation;
  Status status = net::ParseMutationLine(line, &mutation);
  LiveStats after;
  if (status.ok()) {
    switch (mutation.op) {
      case net::WireMutationOp::kInsert:
        status = router_->Insert(mutation.env_name, mutation.side,
                                 mutation.rec, &after);
        break;
      case net::WireMutationOp::kDelete:
        status = router_->Delete(mutation.env_name, mutation.side,
                                 mutation.rec.id, &after);
        break;
      case net::WireMutationOp::kCompact:
        status = router_->Compact(mutation.env_name, &after);
        break;
    }
  }
  if (!status.ok()) {
    rejected_count_.fetch_add(1, std::memory_order_relaxed);
    ServerMetrics::Get().rejected->Add();
    sink->SendLine(net::FormatErrLine(status));
    sink->Flush(options_.sink.drain_grace_ms);
    return false;
  }
  mutations_count_.fetch_add(1, std::memory_order_relaxed);
  ServerMetrics::Get().mutations->Add();
  net::WireMutationAck ack;
  ack.op = mutation.op;
  ack.env_name = mutation.env_name;
  ack.epoch = after.epoch;
  ack.generation = after.generation;
  ack.delta = after.delta_size;
  ack.tombstones = after.tombstones;
  ack.compactions = after.compactions;
  sink->SendLine("OK");
  sink->SendLine(net::FormatMutationAckLine(ack));
  sink->Flush(options_.sink.drain_grace_ms);
  return true;
}

void NetServer::HandleMutations(int fd, SocketSink* sink, std::string line,
                                std::string* carry) {
  const net::RequestReadOptions read_options{options_.max_request_bytes,
                                             options_.request_timeout_ms,
                                             options_.idle_timeout_ms};
  while (HandleMutation(sink, line)) {
    bool clean_eof = false;
    bool idle_closed = false;
    const Status status =
        net::ReadRequestLine(fd, read_options, &stop_, carry, &line,
                             &clean_eof, &idle_closed);
    if (!status.ok()) {
      if (idle_closed) {
        idle_closed_count_.fetch_add(1, std::memory_order_relaxed);
        ServerMetrics::Get().idle_closed->Add();
      }
      // A clean close (or the idle reaper with no partial line pending)
      // simply ends the batch; a half-delivered line is a real error.
      if (!clean_eof && !idle_closed && !line.empty()) {
        rejected_count_.fetch_add(1, std::memory_order_relaxed);
        ServerMetrics::Get().rejected->Add();
        sink->SendLine(net::FormatErrLine(status));
        sink->Flush(options_.sink.drain_grace_ms);
      }
      return;
    }
    if (!net::IsMutationRequestLine(line)) {
      rejected_count_.fetch_add(1, std::memory_order_relaxed);
      ServerMetrics::Get().rejected->Add();
      sink->SendLine(net::FormatErrLine(Status::InvalidArgument(
          "only mutation requests may follow a mutation on one "
          "connection")));
      sink->Flush(options_.sink.drain_grace_ms);
      return;
    }
  }
}

void NetServer::HandleConnection(Connection* connection) {
  const int fd = connection->fd;
  // The sink's death (peer gone, or backpressure past the grace) pulls the
  // same cancellation hook a client drop does — from inside the failing
  // Emit(), before it returns false — so the service resolves the query as
  // Cancelled and the admission ledger classifies it exactly as the wire
  // reported it. A death that lands before the ticket is stored is caught
  // by the self-cancel after the store (the connection mutex orders the
  // two, mirroring the Stop() pattern).
  SocketSink sink(fd, options_.sink, [connection] {
    std::lock_guard<std::mutex> lock(connection->mu);
    connection->ticket.Cancel();  // no-op until the ticket is stored
    connection->sink_died = true;
  });

  const net::RequestReadOptions read_options{options_.max_request_bytes,
                                             options_.request_timeout_ms,
                                             options_.idle_timeout_ms};
  std::string carry;
  std::string line;
  bool idle_closed = false;
  Status status = net::ReadRequestLine(fd, read_options, &stop_, &carry,
                                       &line, nullptr, &idle_closed);
  if (idle_closed) {
    // The peer connected and sent nothing for the idle window: reap it
    // quietly — no ERR, it was never mid-conversation.
    idle_closed_count_.fetch_add(1, std::memory_order_relaxed);
    ServerMetrics::Get().idle_closed->Add();
  } else if (status.ok() && net::IsStatsRequestLine(line)) {
    HandleStats(&sink);
  } else if (status.ok() && net::IsMetricsRequestLine(line)) {
    HandleMetrics(&sink);
  } else if (status.ok() && net::IsEpochRequestLine(line)) {
    HandleEpoch(&sink, line);
  } else if (status.ok() && net::IsFailpointRequestLine(line)) {
    HandleFailpoint(&sink, line);
  } else if (status.ok() && net::IsMutationRequestLine(line)) {
    HandleMutations(fd, &sink, std::move(line), &carry);
  } else {
    HandleQuery(connection, &sink, status, line);
  }

  // The wire-volume counters only the sink knows, settled once per
  // connection (the sink is single-owner here, so the reads are safe).
  ServerMetrics::Get().bytes_sent->Add(sink.bytes_sent());
  ServerMetrics::Get().pairs_sent->Add(sink.emitted());
  ServerMetrics::Get().backpressure_stalls->Add(sink.stalls());

  {
    std::lock_guard<std::mutex> lock(connection->mu);
    close(fd);
    connection->fd = -1;
  }
  connection->done.store(true, std::memory_order_release);
}

void NetServer::HandleQuery(Connection* connection, SocketSink* sink,
                            Status status, const std::string& line) {
  const int fd = connection->fd;
  const auto query_start = std::chrono::steady_clock::now();
  net::WireRequest request;
  if (status.ok()) status = net::ParseRequestLine(line, &request);
  // The wire carries a *relative* budget; anchor it to this process's
  // steady clock the moment the request is understood. Everything below —
  // admission, the engine's chunk boundaries, the final ERR — compares
  // against this one absolute deadline.
  if (status.ok() && request.deadline_ms != 0) {
    request.spec.deadline =
        std::chrono::steady_clock::now() +
        std::chrono::milliseconds(request.deadline_ms);
  }
  // A traced query carries its context on this frame: every layer below
  // records into it through spec.trace, and the ticket resolves before
  // this frame unwinds, so the lifetime holds by construction.
  std::unique_ptr<obs::TraceContext> trace;
  if (status.ok() && request.trace) {
    trace = std::make_unique<obs::TraceContext>(request.trace_id);
    request.spec.trace = trace.get();
  }
  // Name resolution, environment binding (a live environment binds a
  // pinned snapshot), and spec validation all happen inside Submit,
  // before admission — a malformed spec is a rejection (ERR before OK),
  // never a started query.
  QueryTicket ticket;
  if (status.ok()) {
    // The router decides admission synchronously; on_admit puts the OK
    // acknowledgement on the wire before the query can emit its first
    // PAIR, preserving the frame order with zero buffering tricks.
    obs::ScopedSpan admit_span(trace.get(), "admit", 1);
    status = router_->Submit(request.env_name, request.spec, sink, &ticket,
                             [sink] { sink->SendLine("OK"); });
  }

  if (!status.ok()) {
    if (status.code() == StatusCode::kOverloaded) {
      shed_count_.fetch_add(1, std::memory_order_relaxed);
      ServerMetrics::Get().shed->Add();
    } else if (status.code() == StatusCode::kDeadlineExceeded) {
      // Admission shed the query because its budget had already run out —
      // a deadline outcome, not a malformed request.
      expired_count_.fetch_add(1, std::memory_order_relaxed);
      ServerMetrics::Get().expired->Add();
    } else {
      rejected_count_.fetch_add(1, std::memory_order_relaxed);
      ServerMetrics::Get().rejected->Add();
    }
    sink->SendLine(net::FormatErrLine(status));
    sink->Flush(options_.sink.drain_grace_ms);
    return;
  }

  bool sink_died_early;
  {
    std::lock_guard<std::mutex> lock(connection->mu);
    connection->ticket = ticket;
    sink_died_early = connection->sink_died;
  }
  // Close the Stop() (and early sink-death) race: if the cancel pass ran
  // before the ticket was stored above, it cancelled an invalid (no-op)
  // ticket — but then its flag was already set, so self-cancel here.
  // Either interleaving cancels the real ticket (the connection mutex
  // orders the two).
  if (sink_died_early || stop_.load(std::memory_order_relaxed)) {
    ticket.Cancel();
  }

  // Babysit the in-flight query: wait on the ticket in short slices and
  // look at the socket's read side between them, so a finished query
  // sends END the moment it resolves while a departed peer is still
  // noticed within one slice. A read *error* (ECONNRESET: the peer
  // vanished with data in flight) cancels the query — the service stops
  // delivery at the next pair, so the other connections' joins keep their
  // workers. A plain EOF is NOT a cancellation: a netcat-style client
  // legitimately half-closes its write side after the request while it
  // keeps reading, so EOF only means "done sending" — a peer that truly
  // closed is caught by the sink's failing sends instead.
  Status final;
  bool peer_gone = false;
  bool read_side_open = true;
  while (!ticket.WaitFor(std::chrono::milliseconds(20), &final)) {
    if (!read_side_open) {
      final = ticket.Wait();  // sink death / Stop() resolve the ticket
      break;
    }
    char buffer[256];
    const ssize_t got = recv(fd, buffer, sizeof(buffer), MSG_DONTWAIT);
    if (got > 0) continue;  // stray bytes: one request per connection
    if (got < 0 &&
        (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR)) {
      continue;
    }
    if (got == 0) {
      read_side_open = false;  // half-close: keep streaming
    } else {
      peer_gone = true;  // hard error: the peer is gone
      ticket.Cancel();
      read_side_open = false;
    }
  }

  std::string outcome;
  if (final.ok() && !sink->dead()) {
    if (trace != nullptr) {
      // Drain the streamed pairs first, timed: a slow consumer's
      // backpressure wait shows up as this span. (The control-frame flush
      // below stays untraced — its duration could not be reported anyway.)
      const auto flush_start = obs::TraceClock::now();
      sink->Flush(options_.sink.drain_grace_ms);
      trace->Record("sink_flush", 1, flush_start, obs::TraceClock::now());
    }
    net::WireSummary summary;
    summary.pairs = sink->emitted();
    summary.stats = ticket.stats();
    sink->SendLine(net::FormatEndLine(summary));
    if (trace != nullptr) {
      // The span tree rides after END: the result stream stays
      // byte-identical to an untraced run up to and including END, and a
      // trace-aware client reads on until ENDTRACE.
      trace->Record("server", 0, trace->start_time(), obs::TraceClock::now());
      const std::vector<obs::TraceSpan> spans = trace->Spans();
      for (const obs::TraceSpan& span : spans) {
        net::WireTraceSpan wire;
        wire.id = trace->id();
        wire.depth = static_cast<uint64_t>(span.depth);
        wire.span = span.name;
        wire.count = span.count;
        wire.total_s = span.total_seconds;
        wire.start_s = span.start_seconds;
        sink->SendLine(net::FormatTraceLine(wire));
      }
      sink->SendLine(net::FormatTraceEndLine(trace->id(), spans.size()));
    }
    if (sink->Flush(options_.sink.drain_grace_ms)) {
      ok_count_.fetch_add(1, std::memory_order_relaxed);
      ServerMetrics::Get().ok->Add();
      outcome = "ok";
    } else {
      cancelled_count_.fetch_add(1, std::memory_order_relaxed);
      ServerMetrics::Get().cancelled->Add();
      outcome = "cancelled (final flush)";
    }
  } else if (final.code() == StatusCode::kCancelled || sink->dead() ||
             peer_gone) {
    cancelled_count_.fetch_add(1, std::memory_order_relaxed);
    ServerMetrics::Get().cancelled->Add();
    sink->SendLine(net::FormatErrLine(
        Status::Cancelled("stream cancelled before completion")));
    sink->Flush(options_.sink.drain_grace_ms);
    outcome = "cancelled";
  } else if (final.code() == StatusCode::kDeadlineExceeded) {
    // The engine aborted the stream at a chunk boundary when the budget
    // ran out mid-flight: same outcome class as the admission shed above.
    expired_count_.fetch_add(1, std::memory_order_relaxed);
    ServerMetrics::Get().expired->Add();
    sink->SendLine(net::FormatErrLine(final));
    sink->Flush(options_.sink.drain_grace_ms);
    outcome = "expired: " + final.message();
  } else {
    failed_count_.fetch_add(1, std::memory_order_relaxed);
    ServerMetrics::Get().failed->Add();
    sink->SendLine(net::FormatErrLine(final));
    sink->Flush(options_.sink.drain_grace_ms);
    outcome = "failed: " + final.message();
  }

  obs::SlowQueryEntry slow;
  slow.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    query_start)
          .count();
  slow.pairs = sink->emitted();
  slow.env = request.env_name;
  if (trace != nullptr) slow.trace_id = trace->id();
  slow.detail = outcome;
  obs::MetricsRegistry::Default().slow_log()->MaybeRecord(slow);
}

}  // namespace rcj

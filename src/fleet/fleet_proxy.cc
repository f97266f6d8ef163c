#include "fleet/fleet_proxy.h"

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <utility>

#include "common/failpoint.h"
#include "common/macros.h"
#include "common/stable_hash.h"
#include "net/line_reader.h"
#include "net/protocol.h"
#include "net/request_reader.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace rcj {
namespace fleet {
namespace {

/// Registry mirrors of the proxy's outcome counters, plus the fleet-only
/// signals: responses actually read from backends (the counter the CI
/// smoke reconciles against the backends' admission ledgers), replayed
/// pairs skipped on failover, and the backoff-delay histogram.
struct ProxyMetrics {
  obs::Counter* connections;
  obs::Counter* queries;
  obs::Counter* ok;
  obs::Counter* rejected;
  obs::Counter* shed;
  obs::Counter* failed;
  obs::Counter* cancelled;
  obs::Counter* retries;
  obs::Counter* failovers;
  obs::Counter* backoffs;
  obs::Counter* stats;
  obs::Counter* mutations;
  obs::Counter* metrics_scrapes;
  obs::Counter* forwarded;
  obs::Counter* replay_skipped_pairs;
  obs::Counter* stats_backends_skipped;
  obs::Counter* expired;
  obs::Counter* epoch_probes;
  obs::Counter* catchups;
  obs::Counter* catchup_failures;
  obs::Counter* catchup_replayed;
  obs::Counter* excluded_skips;
  obs::Counter* relay_exclusions;
  obs::Histogram* backoff_seconds;

  static const ProxyMetrics& Get() {
    static const ProxyMetrics metrics = [] {
      obs::MetricsRegistry& registry = obs::MetricsRegistry::Default();
      ProxyMetrics m;
      m.connections = registry.counter("rcj_proxy_connections_total");
      m.queries = registry.counter("rcj_proxy_queries_total");
      m.ok = registry.counter("rcj_proxy_ok_total");
      m.rejected = registry.counter("rcj_proxy_rejected_total");
      m.shed = registry.counter("rcj_proxy_shed_total");
      m.failed = registry.counter("rcj_proxy_failed_total");
      m.cancelled = registry.counter("rcj_proxy_cancelled_total");
      m.retries = registry.counter("rcj_proxy_retries_total");
      m.failovers = registry.counter("rcj_proxy_failovers_total");
      m.backoffs = registry.counter("rcj_proxy_backoffs_total");
      m.stats = registry.counter("rcj_proxy_stats_total");
      m.mutations = registry.counter("rcj_proxy_mutations_total");
      m.metrics_scrapes = registry.counter("rcj_proxy_metrics_total");
      m.forwarded = registry.counter("rcj_proxy_forwarded_total");
      m.replay_skipped_pairs =
          registry.counter("rcj_proxy_replay_skipped_pairs_total");
      m.stats_backends_skipped =
          registry.counter("rcj_proxy_stats_backends_skipped_total");
      m.expired = registry.counter("rcj_proxy_expired_total");
      m.epoch_probes = registry.counter("rcj_proxy_epoch_probes_total");
      m.catchups = registry.counter("rcj_proxy_catchups_total");
      m.catchup_failures =
          registry.counter("rcj_proxy_catchup_failures_total");
      m.catchup_replayed =
          registry.counter("rcj_proxy_catchup_replayed_total");
      m.excluded_skips =
          registry.counter("rcj_proxy_excluded_skips_total");
      m.relay_exclusions =
          registry.counter("rcj_proxy_relay_exclusions_total");
      m.backoff_seconds = registry.histogram("rcj_proxy_backoff_seconds");
      return m;
    }();
    return metrics;
  }
};

/// Per-backend attempt counter (labeled metric name). Looked up per
/// attempt — attempts are connection-rate, not pair-rate, so the registry
/// mutex is fine here.
obs::Counter* BackendAttemptCounter(size_t backend) {
  return obs::MetricsRegistry::Default().counter(
      "rcj_proxy_backend_attempts_total{backend=\"" +
      std::to_string(backend) + "\"}");
}

bool IsPairLine(const std::string& line) {
  return line.rfind("PAIR ", 0) == 0;
}

bool IsEndLine(const std::string& line) {
  return line.rfind("END ", 0) == 0;
}

}  // namespace

FleetProxy::FleetProxy(std::vector<BackendAddress> backends,
                       FleetProxyOptions options)
    : options_(std::move(options)),
      pool_(std::move(backends), options_.pool),
      excluded_(pool_.size()) {
  // vector<atomic> default-constructs its elements; make the initial
  // state explicit rather than relying on zero-initialization.
  for (std::atomic<bool>& flag : excluded_) {
    flag.store(false, std::memory_order_relaxed);
  }
}

FleetProxy::~FleetProxy() { Stop(); }

Status FleetProxy::Start() {
  if (pool_.size() == 0) {
    return Status::InvalidArgument("fleet proxy needs at least one backend");
  }
  RINGJOIN_RETURN_IF_ERROR(listener_.Listen(options_.bind_address,
                                            options_.port, options_.backlog));

  stop_.store(false, std::memory_order_relaxed);
  started_ = true;
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return Status::OK();
}

void FleetProxy::Stop() {
  if (!started_) return;
  stop_.store(true, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(sleep_mu_);
  }
  sleep_cv_.notify_all();
  accept_thread_.join();
  listener_.Close();

  // Unblock every relay: shutting both sockets down makes any blocking
  // recv/send in the handler return immediately.
  std::vector<std::shared_ptr<Connection>> connections;
  {
    std::lock_guard<std::mutex> lock(mu_);
    connections = connections_;
  }
  for (const std::shared_ptr<Connection>& connection : connections) {
    std::lock_guard<std::mutex> lock(connection->mu);
    if (connection->client_fd >= 0) {
      shutdown(connection->client_fd, SHUT_RDWR);
    }
    if (connection->backend_fd >= 0) {
      shutdown(connection->backend_fd, SHUT_RDWR);
    }
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

std::vector<size_t> FleetProxy::ReplicaSet(
    const std::string& env_name) const {
  const size_t backends = pool_.size();
  const size_t width =
      std::min(std::max<size_t>(1, options_.replicas), backends);
  const size_t primary =
      static_cast<size_t>(StableHash(env_name) % backends);
  std::vector<size_t> replicas;
  replicas.reserve(width);
  for (size_t i = 0; i < width; ++i) {
    replicas.push_back((primary + i) % backends);
  }
  return replicas;
}

FleetProxy::Counters FleetProxy::counters() const {
  Counters counters;
  counters.connections = connections_count_.load(std::memory_order_relaxed);
  counters.queries = queries_count_.load(std::memory_order_relaxed);
  counters.ok = ok_count_.load(std::memory_order_relaxed);
  counters.rejected = rejected_count_.load(std::memory_order_relaxed);
  counters.shed = shed_count_.load(std::memory_order_relaxed);
  counters.failed = failed_count_.load(std::memory_order_relaxed);
  counters.cancelled = cancelled_count_.load(std::memory_order_relaxed);
  counters.retries = retries_count_.load(std::memory_order_relaxed);
  counters.failovers = failovers_count_.load(std::memory_order_relaxed);
  counters.backoffs = backoffs_count_.load(std::memory_order_relaxed);
  counters.stats = stats_count_.load(std::memory_order_relaxed);
  counters.mutations = mutations_count_.load(std::memory_order_relaxed);
  counters.stats_backends_skipped =
      stats_backends_skipped_count_.load(std::memory_order_relaxed);
  counters.metrics = metrics_count_.load(std::memory_order_relaxed);
  counters.expired = expired_count_.load(std::memory_order_relaxed);
  counters.epoch_probes =
      epoch_probes_count_.load(std::memory_order_relaxed);
  counters.catchups = catchups_count_.load(std::memory_order_relaxed);
  counters.catchup_failures =
      catchup_failures_count_.load(std::memory_order_relaxed);
  counters.excluded_skips =
      excluded_skips_count_.load(std::memory_order_relaxed);
  counters.relay_exclusions =
      relay_exclusions_count_.load(std::memory_order_relaxed);
  return counters;
}

void FleetProxy::SetExcluded(size_t index, bool excluded) {
  if (index >= excluded_.size()) return;
  excluded_[index].store(excluded, std::memory_order_relaxed);
}

bool FleetProxy::excluded(size_t index) const {
  return index < excluded_.size() &&
         excluded_[index].load(std::memory_order_relaxed);
}

void FleetProxy::ReapFinishedConnections() {
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

void FleetProxy::AcceptLoop() {
  listener_.AcceptUntil(
      stop_,
      [this] {
        ReapFinishedConnections();
        std::lock_guard<std::mutex> lock(mu_);
        return connections_.size() >= options_.max_connections;
      },
      [this](int fd) {
        connections_count_.fetch_add(1, std::memory_order_relaxed);
        ProxyMetrics::Get().connections->Add();
        auto connection = std::make_shared<Connection>();
        connection->client_fd = fd;
        std::lock_guard<std::mutex> lock(mu_);
        connections_.push_back(connection);
        threads_.emplace_back(
            [this, connection] { HandleConnection(connection.get()); });
      });
}

void FleetProxy::SetBackendFd(Connection* connection, int fd) {
  std::lock_guard<std::mutex> lock(connection->mu);
  connection->backend_fd = fd;
}

bool FleetProxy::FlushToClient(Connection* connection, std::string* out) {
  if (out->empty()) return true;
  int fd;
  {
    std::lock_guard<std::mutex> lock(connection->mu);
    fd = connection->client_fd;
  }
  if (fd < 0) {
    out->clear();
    return false;
  }
  const bool sent = net::SendAll(fd, *out);
  out->clear();
  return sent;
}

void FleetProxy::Backoff(uint64_t ms) {
  backoffs_count_.fetch_add(1, std::memory_order_relaxed);
  ProxyMetrics::Get().backoffs->Add();
  ProxyMetrics::Get().backoff_seconds->Observe(
      static_cast<double>(ms) / 1000.0);
  if (options_.sleep_fn) {
    options_.sleep_fn(ms);
    return;
  }
  std::unique_lock<std::mutex> lock(sleep_mu_);
  sleep_cv_.wait_for(lock, std::chrono::milliseconds(ms), [this] {
    return stop_.load(std::memory_order_relaxed);
  });
}

void FleetProxy::HandleConnection(Connection* connection) {
  const int fd = connection->client_fd;
  const net::RequestReadOptions read_options{options_.max_request_bytes,
                                             options_.request_timeout_ms};
  std::string carry;
  std::string line;
  Status status =
      net::ReadRequestLine(fd, read_options, &stop_, &carry, &line);
  if (!status.ok()) {
    rejected_count_.fetch_add(1, std::memory_order_relaxed);
    ProxyMetrics::Get().rejected->Add();
    std::string err = net::FormatErrLine(status) + "\n";
    FlushToClient(connection, &err);
  } else if (net::IsStatsRequestLine(line)) {
    HandleStats(connection);
  } else if (net::IsMetricsRequestLine(line)) {
    HandleMetrics(connection);
  } else if (net::IsMutationRequestLine(line)) {
    HandleMutations(connection, std::move(line), &carry);
  } else {
    HandleQuery(connection, line);
  }

  {
    std::lock_guard<std::mutex> lock(connection->mu);
    close(fd);
    connection->client_fd = -1;
  }
  connection->done.store(true, std::memory_order_release);
}

void FleetProxy::HandleQuery(Connection* connection,
                             const std::string& line) {
  net::WireRequest request;
  Status parse = net::ParseRequestLine(line, &request);
  std::string out;
  if (!parse.ok()) {
    // Reject malformed requests at the edge — no backend ever sees them.
    rejected_count_.fetch_add(1, std::memory_order_relaxed);
    ProxyMetrics::Get().rejected->Add();
    out = net::FormatErrLine(parse) + "\n";
    FlushToClient(connection, &out);
    return;
  }
  queries_count_.fetch_add(1, std::memory_order_relaxed);
  ProxyMetrics::Get().queries->Add();

  // The client's relative budget is anchored once, here: retries, dials,
  // and backoffs below all spend from this single deadline, and each
  // forwarded attempt carries only the budget still remaining.
  const bool has_deadline = request.deadline_ms != 0;
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::milliseconds(request.deadline_ms);

  // A traced query is stitched: the proxy mints (or adopts) the trace id
  // and forwards it on the backend's QUERY line, so the backend's TRACE
  // lines carry the same id and can be relayed verbatim; the proxy's own
  // proxy.* spans join them under one combined ENDTRACE.
  std::unique_ptr<obs::TraceContext> trace;
  std::string forward_line = line;
  if (request.trace) {
    trace = std::make_unique<obs::TraceContext>(request.trace_id);
    if (request.trace_id.empty()) {
      forward_line += " trace_id=" + trace->id();
      // Keep the parsed request in sync: deadline-bearing attempts are
      // re-serialized from it below and must carry the same id.
      request.trace_id = trace->id();
    }
  }

  const std::vector<size_t> replicas = ReplicaSet(request.env_name);
  RetryPolicy policy = options_.retry;
  if (policy.max_attempts == 0) policy.max_attempts = 1;
  // De-correlate concurrent requests' jitter streams; request 0 keeps the
  // configured seed so tests can pin the schedule.
  policy.seed += retry_seed_.fetch_add(1, std::memory_order_relaxed) *
                 0x9e3779b97f4a7c15ull;
  RetrySchedule schedule(policy);

  bool ok_sent = false;
  // FNV hashes of every PAIR line already relayed to the client: the
  // replay-skip ledger. A failover re-runs the (deterministic) query on
  // the next replica and verifies-then-skips this prefix, so the client
  // stream carries no duplicated and no corrupted pairs.
  std::vector<uint64_t> forwarded;
  uint64_t replay_skipped = 0;
  Status last_error = Status::IoError("no backend attempt was made");

  // Feed the process-wide slow-query log on every exit path. The proxy's
  // wall time includes dials, retries, and backoff — exactly what a slow
  // fleet query looks like from the client's side.
  struct SlowLogGuard {
    std::chrono::steady_clock::time_point start =
        std::chrono::steady_clock::now();
    const std::vector<uint64_t>* relayed = nullptr;
    const obs::TraceContext* trace = nullptr;
    std::string env;
    ~SlowLogGuard() {
      obs::SlowQueryLog* log = obs::MetricsRegistry::Default().slow_log();
      if (!log->enabled()) return;
      obs::SlowQueryEntry entry;
      entry.wall_seconds = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - start)
                               .count();
      entry.pairs = relayed->size();
      entry.env = env;
      if (trace != nullptr) entry.trace_id = trace->id();
      entry.detail = "proxy";
      log->MaybeRecord(entry);
    }
  };
  SlowLogGuard slow_guard;
  slow_guard.relayed = &forwarded;
  slow_guard.trace = trace.get();
  slow_guard.env = request.env_name;

  for (size_t attempt = 0; attempt < policy.max_attempts; ++attempt) {
    if (stop_.load(std::memory_order_relaxed)) break;
    if (has_deadline &&
        std::chrono::steady_clock::now() >= deadline) {
      last_error = Status::DeadlineExceeded(
          "deadline expired after " + std::to_string(attempt) +
          " backend attempts");
      break;
    }
    if (attempt > 0 && attempt % replicas.size() == 0) {
      // A whole replica cycle failed: back off before going around again
      // — but never sleep past the client's deadline; the budget is
      // better spent reporting DeadlineExceeded promptly.
      uint64_t delay_ms = schedule.NextDelayMs();
      if (has_deadline) {
        const auto remaining =
            std::chrono::duration_cast<std::chrono::milliseconds>(
                deadline - std::chrono::steady_clock::now())
                .count();
        delay_ms = std::min<uint64_t>(
            delay_ms,
            remaining > 0 ? static_cast<uint64_t>(remaining) : 0);
      }
      const auto backoff_start = obs::TraceClock::now();
      Backoff(delay_ms);
      if (trace != nullptr) {
        trace->Record("proxy.backoff", 1, backoff_start,
                      obs::TraceClock::now());
      }
      if (stop_.load(std::memory_order_relaxed)) break;
    }
    if (attempt > 0) {
      retries_count_.fetch_add(1, std::memory_order_relaxed);
      ProxyMetrics::Get().retries->Add();
    }
    const size_t backend = replicas[attempt % replicas.size()];
    if (excluded_[backend].load(std::memory_order_relaxed)) {
      // The replica is respawning / catching up: it is not allowed to
      // serve reads until its epochs match the primary's again.
      excluded_skips_count_.fetch_add(1, std::memory_order_relaxed);
      ProxyMetrics::Get().excluded_skips->Add();
      last_error = Status::IoError(
          "backend " + std::to_string(backend) +
          " is excluded pending catch-up");
      continue;
    }
    const std::string backend_name =
        BackendAddressToString(pool_.address(backend));

    // Deadline-bearing attempts re-serialize the request so the backend
    // sees only the *remaining* budget — its own admission and engine
    // checks then enforce the same end-to-end deadline.
    std::string attempt_line = forward_line;
    if (has_deadline) {
      const auto remaining =
          std::chrono::duration_cast<std::chrono::milliseconds>(
              deadline - std::chrono::steady_clock::now())
              .count();
      request.deadline_ms =
          remaining > 0 ? static_cast<uint64_t>(remaining) : 1;
      attempt_line = net::FormatRequestLine(request);
    }

    BackendAttemptCounter(backend)->Add();
    const Status dial_fp = RINGJOIN_FAILPOINT("backend_dial");
    if (!dial_fp.ok()) {
      last_error = dial_fp;
      continue;
    }
    const auto dial_start = obs::TraceClock::now();
    Result<net::ProtocolClient> dialed = pool_.Dial(backend);
    if (trace != nullptr) {
      trace->Record("proxy.dial", 1, dial_start, obs::TraceClock::now());
    }
    if (!dialed.ok()) {
      last_error = dialed.status();
      continue;
    }
    net::ProtocolClient conn = std::move(dialed).value();
    SetBackendFd(connection, conn.fd());
    const bool resuming = ok_sent;

    std::string resp;
    if (!conn.SendLine(attempt_line) || !conn.ReadLine(&resp)) {
      SetBackendFd(connection, -1);
      last_error = Status::IoError("backend " + backend_name +
                                   " closed before a response");
      continue;
    }
    // A response line was read: the backend processed the request (and,
    // for well-formed queries, ran it through admission) — the counter
    // the fleet smoke reconciles against backend ledgers.
    ProxyMetrics::Get().forwarded->Add();
    if (resp != "OK") {
      SetBackendFd(connection, -1);
      Status transported = Status::Corruption(
          "backend " + backend_name + " sent '" + resp + "' before OK");
      net::ParseErrLine(resp, &transported);
      if (transported.code() == StatusCode::kOverloaded) {
        // The shed happened before the query started; retrying is safe.
        last_error = transported;
        continue;
      }
      if (transported.code() == StatusCode::kDeadlineExceeded) {
        // The backend shed the query because the (forwarded, remaining)
        // budget ran out — another replica would expire the same way, so
        // this is final, not a failover.
        expired_count_.fetch_add(1, std::memory_order_relaxed);
        ProxyMetrics::Get().expired->Add();
        out.append(resp).push_back('\n');
        FlushToClient(connection, &out);
        return;
      }
      // A definitive rejection (unknown env, bad spec the proxy's laxer
      // knowledge let through): relay verbatim, conversation over.
      rejected_count_.fetch_add(1, std::memory_order_relaxed);
      ProxyMetrics::Get().rejected->Add();
      out.append(resp).push_back('\n');
      FlushToClient(connection, &out);
      return;
    }
    if (!ok_sent) {
      ok_sent = true;
      out.append("OK\n");
      if (!FlushToClient(connection, &out)) {
        cancelled_count_.fetch_add(1, std::memory_order_relaxed);
        ProxyMetrics::Get().cancelled->Add();
        SetBackendFd(connection, -1);
        return;
      }
    }
    if (resuming) {
      failovers_count_.fetch_add(1, std::memory_order_relaxed);
      ProxyMetrics::Get().failovers->Add();
    }

    uint64_t seen = 0;  // pairs observed from THIS backend's stream
    bool stream_lost = false;
    for (;;) {
      const Status relay_fp = RINGJOIN_FAILPOINT("relay_midstream");
      if (!relay_fp.ok()) {
        // Chaos seam: drop the backend conversation mid-stream, exactly
        // like a relay whose peer died — exercising the failover replay.
        last_error = relay_fp;
        stream_lost = true;
        break;
      }
      if (!conn.ReadLine(&resp)) {
        last_error = Status::IoError(
            "backend " + backend_name + " lost mid-stream after " +
            std::to_string(seen) + " pairs");
        stream_lost = true;
        break;
      }
      if (IsPairLine(resp)) {
        const uint64_t hash = StableHash(resp);
        if (seen < forwarded.size()) {
          if (forwarded[seen] != hash) {
            // The replica's deterministic stream does not match what was
            // already relayed — splicing would corrupt the client stream.
            failed_count_.fetch_add(1, std::memory_order_relaxed);
            ProxyMetrics::Get().failed->Add();
            out = net::FormatErrLine(Status::Corruption(
                      "replica streams diverged at pair " +
                      std::to_string(seen))) +
                  "\n";
            FlushToClient(connection, &out);
            SetBackendFd(connection, -1);
            return;
          }
          ++seen;  // verified: already relayed, skip
          ++replay_skipped;
          continue;
        }
        forwarded.push_back(hash);
        ++seen;
        out.append(resp).push_back('\n');
        if (out.size() >= net::kWireBatchBytes &&
            !FlushToClient(connection, &out)) {
          cancelled_count_.fetch_add(1, std::memory_order_relaxed);
          ProxyMetrics::Get().cancelled->Add();
          SetBackendFd(connection, -1);
          return;
        }
        continue;
      }
      if (IsEndLine(resp) && seen < forwarded.size()) {
        // The replica finished short of the already-relayed prefix:
        // divergence again, not a relayable END.
        failed_count_.fetch_add(1, std::memory_order_relaxed);
        ProxyMetrics::Get().failed->Add();
        out = net::FormatErrLine(Status::Corruption(
                  "replica stream ended at pair " + std::to_string(seen) +
                  " short of the " + std::to_string(forwarded.size()) +
                  " already relayed")) +
              "\n";
        FlushToClient(connection, &out);
        SetBackendFd(connection, -1);
        return;
      }
      // END or a post-OK ERR epilogue: relay verbatim, conversation over.
      const bool is_end = IsEndLine(resp);
      out.append(resp).push_back('\n');
      if (is_end && replay_skipped > 0) {
        ProxyMetrics::Get().replay_skipped_pairs->Add(replay_skipped);
      }
      if (is_end && trace != nullptr) {
        if (replay_skipped > 0) {
          trace->RecordSeconds("proxy.replay_skip", 1, 0.0, replay_skipped);
        }
        // Relay the backend's TRACE lines verbatim (same trace id, so the
        // fleet trace stitches), swallow the backend's ENDTRACE, append the
        // proxy's own spans, and emit one combined ENDTRACE.
        uint64_t relayed_spans = 0;
        std::string trace_line;
        while (conn.ReadLine(&trace_line)) {
          if (net::IsTraceEndLine(trace_line)) break;
          if (!net::IsTraceLine(trace_line)) continue;  // defensive
          out.append(trace_line).push_back('\n');
          ++relayed_spans;
        }
        trace->Record("proxy", 0, trace->start_time(), obs::TraceClock::now());
        const std::vector<obs::TraceSpan> spans = trace->Spans();
        for (const obs::TraceSpan& span : spans) {
          net::WireTraceSpan wire;
          wire.id = trace->id();
          wire.depth = static_cast<uint64_t>(span.depth);
          wire.span = span.name;
          wire.count = span.count;
          wire.total_s = span.total_seconds;
          wire.start_s = span.start_seconds;
          out.append(net::FormatTraceLine(wire)).push_back('\n');
        }
        out.append(
               net::FormatTraceEndLine(trace->id(), relayed_spans + spans.size()))
            .push_back('\n');
      }
      if (FlushToClient(connection, &out)) {
        if (is_end) {
          ok_count_.fetch_add(1, std::memory_order_relaxed);
          ProxyMetrics::Get().ok->Add();
        } else {
          failed_count_.fetch_add(1, std::memory_order_relaxed);
          ProxyMetrics::Get().failed->Add();
        }
      } else {
        cancelled_count_.fetch_add(1, std::memory_order_relaxed);
        ProxyMetrics::Get().cancelled->Add();
      }
      SetBackendFd(connection, -1);
      return;
    }
    SetBackendFd(connection, -1);
    if (!stream_lost) return;  // unreachable today; defensive
  }

  // Retry budget exhausted (or shutdown): report the last failure. The
  // ERR frame is legal both before OK (rejection) and after (epilogue).
  if (has_deadline && last_error.code() != StatusCode::kDeadlineExceeded &&
      std::chrono::steady_clock::now() >= deadline) {
    // The policy's attempts ran out and so did the clock; the deadline is
    // the truer story for a budgeted caller.
    last_error = Status::DeadlineExceeded(
        "deadline expired during retries; last failure: " +
        last_error.message());
  }
  if (last_error.code() == StatusCode::kOverloaded) {
    shed_count_.fetch_add(1, std::memory_order_relaxed);
    ProxyMetrics::Get().shed->Add();
  } else if (last_error.code() == StatusCode::kDeadlineExceeded) {
    expired_count_.fetch_add(1, std::memory_order_relaxed);
    ProxyMetrics::Get().expired->Add();
  } else {
    failed_count_.fetch_add(1, std::memory_order_relaxed);
    ProxyMetrics::Get().failed->Add();
  }
  out.append(net::FormatErrLine(last_error)).push_back('\n');
  FlushToClient(connection, &out);
}

void FleetProxy::HandleStats(Connection* connection) {
  // Fan out to every backend; renumber each backend's shard indices by
  // the running total so the fleet view is one flat shard space, and sum
  // the ENDSTATS totals. Per-backend ledgers each satisfy
  // admitted + shed == submitted, so their concatenation reconciles
  // exactly — no proxy-side bookkeeping is needed for the global count.
  std::string shard_rows;
  std::string env_rows;
  uint64_t total_shards = 0;
  uint64_t total_envs = 0;
  for (size_t index = 0; index < pool_.size(); ++index) {
    if (stop_.load(std::memory_order_relaxed)) break;
    Result<net::ProtocolClient> dialed = pool_.Dial(index);
    if (!dialed.ok()) {
      stats_backends_skipped_count_.fetch_add(1, std::memory_order_relaxed);
      ProxyMetrics::Get().stats_backends_skipped->Add();
      continue;
    }
    net::ProtocolClient conn = std::move(dialed).value();
    SetBackendFd(connection, conn.fd());
    std::vector<net::WireShardStats> shards;
    std::vector<net::WireEnvStats> envs;
    const Status status = conn.Stats(&shards, &envs);
    SetBackendFd(connection, -1);
    if (!status.ok()) {
      stats_backends_skipped_count_.fetch_add(1, std::memory_order_relaxed);
      ProxyMetrics::Get().stats_backends_skipped->Add();
      continue;
    }
    for (net::WireShardStats& shard : shards) {
      shard.shard += total_shards;
      shard_rows.append(net::FormatShardStatsLine(shard)).push_back('\n');
    }
    for (net::WireEnvStats& env : envs) {
      env.shard += total_shards;
      env_rows.append(net::FormatEnvStatsLine(env)).push_back('\n');
    }
    total_shards += shards.size();
    total_envs += envs.size();
  }
  stats_count_.fetch_add(1, std::memory_order_relaxed);
  ProxyMetrics::Get().stats->Add();
  std::string out = "OK\n";
  out += shard_rows;
  out += env_rows;
  out += net::FormatStatsEndLine(total_shards, total_envs) + "\n";
  FlushToClient(connection, &out);
}

void FleetProxy::HandleMetrics(Connection* connection) {
  metrics_count_.fetch_add(1, std::memory_order_relaxed);
  ProxyMetrics::Get().metrics_scrapes->Add();
  // The proxy's registry only — a fleet operator scrapes backends
  // directly (their ports are in the supervisor's log). The exposition is
  // newline-terminated per line, so the line count is the '\n' count.
  const std::string exposition =
      obs::MetricsRegistry::Default().RenderPrometheus();
  uint64_t lines = 0;
  for (const char c : exposition) {
    if (c == '\n') ++lines;
  }
  std::string out = "OK\n";
  out += exposition;
  out += net::FormatMetricsEndLine(lines) + "\n";
  FlushToClient(connection, &out);
}

bool FleetProxy::RelayMutation(
    Connection* connection, const std::string& line,
    std::vector<std::unique_ptr<net::ProtocolClient>>* held,
    std::string* reply) {
  net::WireMutation mutation;
  Status parse = net::ParseMutationLine(line, &mutation);
  if (!parse.ok()) {
    rejected_count_.fetch_add(1, std::memory_order_relaxed);
    ProxyMetrics::Get().rejected->Add();
    *reply = net::FormatErrLine(parse) + "\n";
    return false;
  }
  // Mutations go to the environment's whole replica window, not just the
  // primary — every backend that may serve a read of this environment
  // must converge. A replica that cannot take the op is not allowed to
  // fail it for everyone: it is *excluded* from the read window on the
  // spot, the op lands on the ring below, and CatchUp() replays the
  // suffix before the replica may serve reads again — so a mid-batch
  // kill degrades to one replica catching up, never to forked histories
  // a client can observe. (Whether the failed replica actually applied
  // the op before dying is ambiguous here; the EPOCH probe at catch-up
  // time resolves it exactly, because the replayed suffix starts at the
  // replica's own recovered epoch.) Only when *no* replica acknowledges
  // does the op fail.
  //
  // The catch-up lock spans the fan-out AND the ring append: a CatchUp()
  // running concurrently would otherwise miss exactly this mutation.
  std::lock_guard<std::mutex> catchup_lock(catchup_mu_);
  const std::vector<size_t> replicas = ReplicaSet(mutation.env_name);
  net::WireMutationAck primary_ack;
  bool have_ack = false;
  Status last_error;
  for (size_t i = 0; i < replicas.size(); ++i) {
    const size_t index = replicas[i];
    if (excluded_[index].load(std::memory_order_relaxed)) {
      excluded_skips_count_.fetch_add(1, std::memory_order_relaxed);
      ProxyMetrics::Get().excluded_skips->Add();
      continue;
    }
    std::unique_ptr<net::ProtocolClient>& slot = (*held)[index];
    net::WireMutationAck ack;
    Status op_status;
    for (int attempt = 0; attempt < 2; ++attempt) {
      // A conversation that sat idle (parked in the pool, or held since
      // an earlier op of this batch) may have been timed out by the
      // backend; such a failure earns one fresh redial. A fresh dial's
      // failure — and any backend ERR — is final: after the request hit
      // the wire a non-idempotent op must not be replayed blindly.
      bool stale_candidate = slot != nullptr;
      if (!slot) {
        bool reused = false;
        Result<net::ProtocolClient> dialed = pool_.Acquire(index, &reused);
        if (!dialed.ok()) {
          op_status = dialed.status();
          break;
        }
        slot = std::make_unique<net::ProtocolClient>(
            std::move(dialed).value());
        stale_candidate = reused;
      }
      SetBackendFd(connection, slot->fd());
      op_status = slot->Mutate(mutation, &ack);
      SetBackendFd(connection, -1);
      if (op_status.ok()) break;
      slot.reset();  // the conversation is dead either way
      if (!stale_candidate ||
          op_status.code() != StatusCode::kIoError) {
        break;
      }
    }
    if (op_status.ok()) {
      if (!have_ack) {
        primary_ack = ack;
        have_ack = true;
      }
      continue;
    }
    if (op_status.code() != StatusCode::kIoError) {
      // A *logical* rejection (InvalidArgument, NotFound...) comes from a
      // healthy backend refusing the op; converged replicas refuse
      // deterministically, so relay the first refusal and exclude no one.
      failed_count_.fetch_add(1, std::memory_order_relaxed);
      ProxyMetrics::Get().failed->Add();
      *reply = net::FormatErrLine(op_status) + "\n";
      return false;
    }
    // Transport failure: the replica is unreachable (or died mid-op).
    // Exclude it from the read window right now — before the supervisor
    // even notices the death — and keep going; CatchUp() reconciles it.
    excluded_[index].store(true, std::memory_order_relaxed);
    relay_exclusions_count_.fetch_add(1, std::memory_order_relaxed);
    ProxyMetrics::Get().relay_exclusions->Add();
    last_error = op_status;
  }
  if (!have_ack) {
    Status failure = last_error.ok()
                         ? Status::IoError("every replica of '" +
                                           mutation.env_name +
                                           "' is excluded pending catch-up")
                         : last_error;
    failed_count_.fetch_add(1, std::memory_order_relaxed);
    ProxyMetrics::Get().failed->Add();
    *reply = net::FormatErrLine(failure) + "\n";
    return false;
  }
  // Remember the acknowledged mutation for catch-up. COMPACT stays off
  // the ring: it does not advance the epoch, and a caught-up replica may
  // compact on its own schedule.
  if (mutation.op != net::WireMutationOp::kCompact) {
    RingEntry entry;
    entry.epoch = primary_ack.epoch;
    entry.env_name = mutation.env_name;
    entry.line = line;
    mutation_ring_.push_back(std::move(entry));
    while (mutation_ring_.size() > options_.mutation_ring_capacity &&
           !mutation_ring_.empty()) {
      mutation_ring_.pop_front();
    }
  }
  mutations_count_.fetch_add(1, std::memory_order_relaxed);
  ProxyMetrics::Get().mutations->Add();
  *reply = "OK\n" + net::FormatMutationAckLine(primary_ack) + "\n";
  return true;
}

Status FleetProxy::ProbeEpoch(size_t index, const std::string& env_name,
                              uint64_t* epoch) {
  epoch_probes_count_.fetch_add(1, std::memory_order_relaxed);
  ProxyMetrics::Get().epoch_probes->Add();
  Result<net::ProtocolClient> dialed = pool_.Dial(index);
  if (!dialed.ok()) return dialed.status();
  return dialed.value().Epoch(env_name, epoch);
}

Status FleetProxy::CatchUpEnv(size_t index, const std::string& env_name) {
  // The target is the primary's epoch: the first healthy replica of the
  // window that is not the one catching up. A lone replica has no peer
  // to trail behind.
  const std::vector<size_t> replicas = ReplicaSet(env_name);
  size_t primary = pool_.size();
  for (const size_t replica : replicas) {
    if (replica != index &&
        !excluded_[replica].load(std::memory_order_relaxed)) {
      primary = replica;
      break;
    }
  }
  if (primary == pool_.size()) return Status::OK();
  uint64_t target = 0;
  RINGJOIN_RETURN_IF_ERROR(ProbeEpoch(primary, env_name, &target));
  uint64_t have = 0;
  RINGJOIN_RETURN_IF_ERROR(ProbeEpoch(index, env_name, &have));
  if (have >= target) return Status::OK();

  // The missing suffix must be fully covered by the ring: contiguous
  // from the replica's next epoch up to the primary's. A gap means the
  // ring already evicted history this replica needs.
  std::vector<const RingEntry*> suffix;
  for (const RingEntry& entry : mutation_ring_) {
    if (entry.env_name == env_name && entry.epoch > have &&
        entry.epoch <= target) {
      suffix.push_back(&entry);
    }
  }
  if (suffix.empty() || suffix.front()->epoch != have + 1 ||
      suffix.back()->epoch != target ||
      suffix.back()->epoch - suffix.front()->epoch + 1 != suffix.size()) {
    return Status::IoError(
        "mutation ring no longer covers epochs " + std::to_string(have + 1) +
        ".." + std::to_string(target) + " of '" + env_name +
        "'; the replica needs a full restore");
  }

  Result<net::ProtocolClient> dialed = pool_.Dial(index);
  if (!dialed.ok()) return dialed.status();
  net::ProtocolClient conn = std::move(dialed).value();
  for (const RingEntry* entry : suffix) {
    net::WireMutation mutation;
    RINGJOIN_RETURN_IF_ERROR(net::ParseMutationLine(entry->line, &mutation));
    net::WireMutationAck ack;
    RINGJOIN_RETURN_IF_ERROR(conn.Mutate(mutation, &ack));
    ProxyMetrics::Get().catchup_replayed->Add();
    if (ack.epoch != entry->epoch) {
      return Status::Corruption(
          "catch-up replay of '" + env_name + "' landed at epoch " +
          std::to_string(ack.epoch) + ", expected " +
          std::to_string(entry->epoch) +
          " — the replica's history diverged");
    }
  }

  // Close the handshake: the replica must now agree with the primary.
  RINGJOIN_RETURN_IF_ERROR(ProbeEpoch(index, env_name, &have));
  if (have != target) {
    return Status::Corruption(
        "after catch-up, '" + env_name + "' on backend " +
        std::to_string(index) + " is at epoch " + std::to_string(have) +
        ", primary at " + std::to_string(target));
  }
  return Status::OK();
}

Status FleetProxy::CatchUp(size_t index) {
  if (index >= pool_.size()) {
    return Status::InvalidArgument("no backend " + std::to_string(index));
  }
  // No mutation may land while the suffix is being fed, or "epochs
  // match" below would be stale the moment it was measured.
  std::lock_guard<std::mutex> lock(catchup_mu_);
  std::vector<std::string> envs;
  for (const RingEntry& entry : mutation_ring_) {
    if (std::find(envs.begin(), envs.end(), entry.env_name) != envs.end()) {
      continue;
    }
    const std::vector<size_t> replicas = ReplicaSet(entry.env_name);
    if (std::find(replicas.begin(), replicas.end(), index) !=
        replicas.end()) {
      envs.push_back(entry.env_name);
    }
  }
  for (const std::string& env_name : envs) {
    const Status status = CatchUpEnv(index, env_name);
    if (!status.ok()) {
      catchup_failures_count_.fetch_add(1, std::memory_order_relaxed);
      ProxyMetrics::Get().catchup_failures->Add();
      return status;
    }
  }
  excluded_[index].store(false, std::memory_order_relaxed);
  catchups_count_.fetch_add(1, std::memory_order_relaxed);
  ProxyMetrics::Get().catchups->Add();
  return Status::OK();
}

void FleetProxy::HandleMutations(Connection* connection, std::string line,
                                 std::string* carry) {
  const net::RequestReadOptions read_options{options_.max_request_bytes,
                                             options_.request_timeout_ms};
  std::vector<std::unique_ptr<net::ProtocolClient>> held(pool_.size());
  // Parks the still-healthy conversations for the next batch. It runs
  // before the reply that ends the batch, so a client that redials the
  // moment it reads that reply finds them in the pool.
  const auto park = [this, &held] {
    for (size_t index = 0; index < held.size(); ++index) {
      if (held[index]) pool_.Release(index, std::move(*held[index]));
    }
  };
  for (;;) {
    std::string reply;
    if (!RelayMutation(connection, line, &held, &reply)) {
      park();
      FlushToClient(connection, &reply);
      return;
    }
    if (!FlushToClient(connection, &reply)) break;
    bool clean_eof = false;
    const Status status =
        net::ReadRequestLine(connection->client_fd, read_options, &stop_,
                             carry, &line, &clean_eof);
    if (!status.ok()) {
      park();
      if (!clean_eof && !line.empty()) {
        rejected_count_.fetch_add(1, std::memory_order_relaxed);
        ProxyMetrics::Get().rejected->Add();
        std::string err = net::FormatErrLine(status) + "\n";
        FlushToClient(connection, &err);
      }
      return;
    }
    if (!net::IsMutationRequestLine(line)) {
      park();
      rejected_count_.fetch_add(1, std::memory_order_relaxed);
      ProxyMetrics::Get().rejected->Add();
      std::string err =
          net::FormatErrLine(Status::InvalidArgument(
              "only mutation requests may follow a mutation on one "
              "connection")) +
          "\n";
      FlushToClient(connection, &err);
      return;
    }
  }
  park();
}

}  // namespace fleet
}  // namespace rcj

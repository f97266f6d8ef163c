#include "service/service.h"

#include <chrono>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace rcj {
namespace {

/// Registry mirrors of the dispatcher's health: how long requests sit in
/// the queue, how long an engine round takes, and how deep the queue is
/// right now. The queue-depth gauge is what an operator watches to tell
/// "slow queries" from "slow admission".
struct ServiceMetrics {
  obs::Histogram* queue_wait_seconds;
  obs::Histogram* batch_seconds;
  obs::Gauge* queue_depth;

  static const ServiceMetrics& Get() {
    static const ServiceMetrics metrics = [] {
      obs::MetricsRegistry& registry = obs::MetricsRegistry::Default();
      ServiceMetrics m;
      m.queue_wait_seconds =
          registry.histogram("rcj_service_queue_wait_seconds");
      m.batch_seconds = registry.histogram("rcj_service_batch_seconds");
      m.queue_depth = registry.gauge("rcj_service_queue_depth");
      return m;
    }();
    return metrics;
  }
};

/// Discards pairs when the caller submitted without a sink (stats-only).
class NullSink final : public PairSink {
 public:
  bool Emit(const RcjPair&) override { return true; }
};

NullSink* SharedNullSink() {
  static NullSink sink;  // stateless, safe to share across threads
  return &sink;
}

/// Forwards to the request's sink until the ticket's cancellation flag is
/// raised, then returns false — which the engine treats exactly like a
/// satisfied limit: remaining leaf-range tasks are cancelled and the query
/// winds down with the prefix it already delivered.
class CancellableSink final : public PairSink {
 public:
  CancellableSink(PairSink* inner, const std::atomic<bool>* cancelled)
      : inner_(inner), cancelled_(cancelled) {}

  bool Emit(const RcjPair& pair) override {
    if (cancelled_->load(std::memory_order_relaxed)) return false;
    return inner_->Emit(pair);
  }

 private:
  PairSink* inner_;
  const std::atomic<bool>* cancelled_;
};

}  // namespace

Status QueryTicket::Wait() {
  std::unique_lock<std::mutex> lock(state_->mu);
  state_->cv.wait(lock, [this] { return state_->done; });
  return state_->status;
}

bool QueryTicket::TryGet(Status* status) {
  return WaitFor(std::chrono::milliseconds(0), status);
}

bool QueryTicket::WaitFor(std::chrono::milliseconds timeout,
                          Status* status) {
  std::unique_lock<std::mutex> lock(state_->mu);
  if (!state_->cv.wait_for(lock, timeout, [this] { return state_->done; })) {
    return false;
  }
  if (status != nullptr) *status = state_->status;
  return true;
}

JoinStats QueryTicket::stats() const {
  std::lock_guard<std::mutex> lock(state_->mu);
  return state_->stats;
}

void QueryTicket::Cancel() {
  if (state_ == nullptr) return;
  state_->cancelled.store(true, std::memory_order_relaxed);
}

Service::Service(ServiceOptions options)
    : options_(options), engine_(options.engine) {
  if (options_.max_batch_size == 0) options_.max_batch_size = 1;
  dispatcher_ = std::thread([this] { DispatcherLoop(); });
}

Service::~Service() { Shutdown(); }

void Service::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  queue_cv_.notify_all();
  if (dispatcher_.joinable()) dispatcher_.join();
  // The dispatcher is gone, so nothing races the engine's caches: drop
  // every cached worker view and plan. From here the caller may destroy
  // its environments — a stopped service never opens views again.
  engine_.InvalidateCachedViews();
  {
    std::lock_guard<std::mutex> lock(mu_);
    pending_invalidations_.clear();
    invalidations_applied_ = invalidations_requested_;
  }
  invalidate_cv_.notify_all();
}

void Service::InvalidateEnvironment(const RcjEnvironment* env) {
  std::unique_lock<std::mutex> lock(mu_);
  if (stopping_) {
    // Shutdown() clears every cached view once the dispatcher drains, and
    // a stopped service never opens new ones. (The engine must not be
    // touched from here: the dispatcher may still be running its final
    // batches.)
    return;
  }
  const uint64_t ticket = ++invalidations_requested_;
  pending_invalidations_.push_back(env);
  queue_cv_.notify_all();
  invalidate_cv_.wait(
      lock, [this, ticket] { return invalidations_applied_ >= ticket; });
}

QueryTicket Service::Submit(const QuerySpec& spec, PairSink* sink,
                            DoneCallback on_done) {
  Request request;
  request.spec = spec;
  request.sink = sink != nullptr ? sink : SharedNullSink();
  request.state = std::make_shared<QueryTicket::State>();
  request.on_done = std::move(on_done);
  request.enqueue_time = std::chrono::steady_clock::now();
  QueryTicket ticket(request.state);
  bool stopped;
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopped = stopping_;
    if (!stopped) {
      queue_.push_back(std::move(request));
      ServiceMetrics::Get().queue_depth->Set(
          static_cast<int64_t>(queue_.size()));
    }
  }
  if (stopped) {
    // The dispatcher may already be gone; resolving here (instead of
    // enqueueing into a queue nobody drains) keeps the ticket contract —
    // every Submit ends in a resolved ticket, never a hang. Same ordering
    // as the dispatcher: side effects first, then the ticket resolves.
    const Status status = Status::Cancelled("service is shut down");
    if (request.on_done) request.on_done(status);
    {
      std::lock_guard<std::mutex> state_lock(request.state->mu);
      request.state->status = status;
      request.state->done = true;
    }
    request.state->cv.notify_all();
    return ticket;
  }
  queue_cv_.notify_one();
  return ticket;
}

size_t Service::pending() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queue_.size();
}

void Service::DispatcherLoop() {
  for (;;) {
    std::vector<Request> round;
    std::vector<const RcjEnvironment*> invalidations;
    {
      std::unique_lock<std::mutex> lock(mu_);
      queue_cv_.wait(lock, [this] {
        return stopping_ || !queue_.empty() ||
               !pending_invalidations_.empty();
      });
      invalidations.swap(pending_invalidations_);
      if (queue_.empty() && invalidations.empty()) {
        return;  // stopping_, and all work drained
      }
      while (!queue_.empty() && round.size() < options_.max_batch_size) {
        round.push_back(std::move(queue_.front()));
        queue_.pop_front();
      }
      ServiceMetrics::Get().queue_depth->Set(
          static_cast<int64_t>(queue_.size()));
    }
    if (!round.empty()) {
      const auto dequeued_at = std::chrono::steady_clock::now();
      for (const Request& request : round) {
        const double waited =
            std::chrono::duration<double>(dequeued_at -
                                          request.enqueue_time)
                .count();
        ServiceMetrics::Get().queue_wait_seconds->Observe(waited);
        if (request.spec.trace != nullptr) {
          request.spec.trace->Record("queue_wait", 1, request.enqueue_time,
                                     dequeued_at);
        }
      }
    }

    // Between batches is the one moment this thread — the only one that
    // runs the engine — may touch its caches: apply invalidations first,
    // so a caller waiting in InvalidateEnvironment can destroy the
    // environment before the next batch could possibly reopen views.
    if (!invalidations.empty()) {
      for (const RcjEnvironment* env : invalidations) {
        engine_.InvalidateCachedViews(env);
      }
      {
        std::lock_guard<std::mutex> lock(mu_);
        invalidations_applied_ += invalidations.size();
      }
      invalidate_cv_.notify_all();
    }
    if (round.empty()) continue;

    // Requests cancelled while still queued never reach the engine; the
    // rest run behind a cancellation-aware sink shim so a Cancel() during
    // the join stops pair delivery like a satisfied limit. The shims live
    // on this frame: sinks are only driven from inside RunBatch.
    std::vector<EngineQuery> batch;
    std::vector<CancellableSink> shims;
    std::vector<size_t> batch_to_round;
    batch.reserve(round.size());
    shims.reserve(round.size());
    for (size_t i = 0; i < round.size(); ++i) {
      if (round[i].state->cancelled.load(std::memory_order_relaxed)) {
        continue;
      }
      shims.emplace_back(round[i].sink, &round[i].state->cancelled);
      EngineQuery query;
      query.spec = round[i].spec;
      // The engine also watches the flag between leaf-range tasks, so a
      // cancelled query that emits no pairs still stops early.
      query.cancel = &round[i].state->cancelled;
      batch.push_back(query);
      batch_to_round.push_back(i);
    }
    for (size_t i = 0; i < batch.size(); ++i) batch[i].sink = &shims[i];
    // Pairs stream to the request sinks from inside this call, as the
    // engine's leaf-range tasks complete — completion of RunBatch only
    // settles statuses and stats.
    const auto batch_start = std::chrono::steady_clock::now();
    const std::vector<EngineQueryResult> results = engine_.RunBatch(batch);
    ServiceMetrics::Get().batch_seconds->Observe(
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      batch_start)
            .count());

    std::vector<Status> statuses(round.size(),
                                 Status::Cancelled("cancelled before run"));
    std::vector<JoinStats> stats(round.size());
    for (size_t i = 0; i < results.size(); ++i) {
      statuses[batch_to_round[i]] = results[i].status;
      stats[batch_to_round[i]] = results[i].run.stats;
    }
    for (size_t i = 0; i < round.size(); ++i) {
      QueryTicket::State* state = round[i].state.get();
      // A cancel that lands mid-join leaves the engine status OK (early
      // termination is not an engine error); surface it as Cancelled so
      // the submitter can tell a dropped stream from a completed one.
      if (state->cancelled.load(std::memory_order_relaxed) &&
          statuses[i].ok()) {
        statuses[i] = Status::Cancelled("cancelled during run");
      }
      // Before the ticket is observable as done: anyone who saw the query
      // resolve must also see its completion side effects (an admission
      // ledger counting it as completed, its slot freed) — freeing the
      // slot a moment before the Wait()er wakes is harmless, the reverse
      // order would make a STATS probe after END racy.
      if (round[i].on_done) round[i].on_done(statuses[i]);
      {
        std::lock_guard<std::mutex> lock(state->mu);
        state->status = statuses[i];
        state->stats = stats[i];
        state->done = true;
      }
      state->cv.notify_all();
    }
  }
}

}  // namespace rcj

// rcj::Service — the asynchronous front end of the ringjoin stack.
//
// The layers below are synchronous: algorithms emit pairs through sinks,
// RcjEnvironment::Run executes one query, Engine::RunBatch executes a batch
// and blocks until it finishes. A middleman-location service cannot block
// its request path on a join, so Service adds the missing piece: Submit()
// enqueues a validated QuerySpec and returns a QueryTicket immediately; a
// dispatcher thread drains the request queue, forms batches, and feeds them
// to an owned Engine. Result pairs stream to the caller's PairSink in exact
// serial order as leaf-range tasks complete (the engine's ordered flush),
// so the head of a result is available while the tail is still being
// joined, and a QuerySpec::limit cancels a query's remaining work the
// moment its top-k prefix has been delivered.
//
// This is the layer a network protocol would sit on: one Service per
// process, one ticket + sink per connection. (ROADMAP: "then a network
// protocol".)
#ifndef RINGJOIN_SERVICE_SERVICE_H_
#define RINGJOIN_SERVICE_SERVICE_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/macros.h"
#include "common/status.h"
#include "engine/engine.h"

namespace rcj {

/// Service-wide knobs, fixed at construction.
struct ServiceOptions {
  /// Knobs of the owned execution engine (worker threads, intra-query
  /// parallelism, per-worker buffer sizing).
  EngineOptions engine;
  /// Most queries drained into one engine batch per dispatch round. Larger
  /// rounds amortize planning; smaller rounds reduce the latency a late
  /// arrival waits behind an in-flight batch.
  size_t max_batch_size = 16;
};

/// Completion handle of one submitted query. Cheap to copy (shared state);
/// a default-constructed ticket is invalid. The query's pairs go to the
/// sink passed at Submit() — the ticket carries only status and stats.
class QueryTicket {
 public:
  QueryTicket() = default;

  /// True iff this ticket came from a Submit() call.
  bool valid() const { return state_ != nullptr; }

  /// Blocks until the query finishes; returns its final status.
  Status Wait();

  /// Non-blocking probe: returns true iff the query has finished, filling
  /// `*status` (when non-null) with the final status.
  bool TryGet(Status* status = nullptr);

  /// Blocks until the query finishes or `timeout` passes, whichever comes
  /// first: returns true iff it finished, filling `*status` (when
  /// non-null) with the final status. Wakes the moment the ticket
  /// resolves, so a caller that also has to watch something else (a
  /// connection's socket) can wait in slices without adding latency.
  bool WaitFor(std::chrono::milliseconds timeout, Status* status = nullptr);

  /// Paper-style statistics of the finished query (the executed portion,
  /// for limit-capped queries). Valid once Wait() returned or TryGet()
  /// returned true.
  JoinStats stats() const;

  /// Requests cooperative cancellation — the hook a network front end pulls
  /// when its client drops mid-stream. A still-queued query resolves as
  /// Cancelled without running; an in-flight query stops at its next pair
  /// delivery (the engine's limit-style cancellation) and its ticket
  /// resolves as Cancelled. Queries that already finished are unaffected.
  /// Safe to call from any thread, any number of times; a no-op on an
  /// invalid ticket.
  void Cancel();

 private:
  friend class Service;
  struct State {
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;
    Status status;
    JoinStats stats;
    std::atomic<bool> cancelled{false};
  };

  explicit QueryTicket(std::shared_ptr<State> state)
      : state_(std::move(state)) {}

  std::shared_ptr<State> state_;
};

/// Asynchronous query service over a set of built RcjEnvironments. Owns a
/// dispatcher thread and an Engine; Submit() never blocks on join work.
/// Destruction completes every already-submitted query, then stops.
class Service {
 public:
  /// Invoked exactly once per submitted query, with its final status,
  /// immediately before the ticket becomes observable as done — so by the
  /// time any Wait()er wakes, the callback's side effects (e.g. an
  /// admission ledger counting the query and freeing its slot) are
  /// visible. Runs on a service-owned thread (or inline in Submit after
  /// Shutdown). Must not call back into the same Service.
  using DoneCallback = std::function<void(const Status&)>;

  explicit Service(ServiceOptions options = {});
  ~Service();

  RINGJOIN_DISALLOW_COPY_AND_ASSIGN(Service);

  /// Enqueues `spec` and returns immediately with a ticket. `sink` receives
  /// the query's pairs in exact serial order, invoked from service-owned
  /// threads; it may be null to discard pairs (stats-only probes). Both the
  /// sink and spec.env must stay alive until the ticket reports done.
  /// Invalid specs are not rejected here — the ticket resolves with the
  /// validation error, so submission stays non-blocking and uniform. The
  /// same uniformity covers a stopped service: after Shutdown() the ticket
  /// resolves immediately (before Submit returns) as Cancelled, and
  /// `on_done` still fires, so no caller slot ever leaks.
  QueryTicket Submit(const QuerySpec& spec, PairSink* sink,
                     DoneCallback on_done = nullptr);

  /// Completes every already-submitted query, then stops the dispatcher
  /// and drops every cached worker view — after Shutdown() returns, no
  /// engine worker holds views over any environment, so the caller may
  /// destroy them. Idempotent from the owning thread; also run by the
  /// destructor. After Shutdown(), Submit() keeps working but resolves
  /// every ticket as Cancelled without running it.
  void Shutdown();

  /// Drops every cached worker view (and cached plan) for `env` from the
  /// owned engine, blocking until the dispatcher has applied it between
  /// batches — the hook to pull before destroying or rebuilding an
  /// environment mid-service. The caller must first ensure no queued or
  /// in-flight query still targets `env` (cancel the tickets or wait them
  /// out); this call then guarantees the engine holds nothing over its
  /// page stores. Safe from any thread except a Service callback (a
  /// DoneCallback or sink calling back in would deadlock the dispatcher).
  /// After Shutdown() it is a no-op: a stopped service cleared everything
  /// and never opens new views.
  void InvalidateEnvironment(const RcjEnvironment* env);

  /// Queries accepted but not yet handed to the engine. In-flight batches
  /// are not counted.
  size_t pending() const;

  size_t num_threads() const { return engine_.num_threads(); }

 private:
  struct Request {
    QuerySpec spec;
    PairSink* sink = nullptr;
    std::shared_ptr<QueryTicket::State> state;
    DoneCallback on_done;
    /// When Submit() enqueued the request; the dispatcher turns the gap
    /// until dequeue into the queue-wait histogram and, for traced
    /// queries, a queue_wait span.
    std::chrono::steady_clock::time_point enqueue_time{};
  };

  void DispatcherLoop();

  ServiceOptions options_;
  Engine engine_;

  mutable std::mutex mu_;
  std::condition_variable queue_cv_;
  std::deque<Request> queue_;
  bool stopping_ = false;
  /// Invalidation requests the dispatcher applies between batches (the
  /// only thread that may touch the engine's caches while running).
  std::vector<const RcjEnvironment*> pending_invalidations_;
  uint64_t invalidations_requested_ = 0;
  uint64_t invalidations_applied_ = 0;
  std::condition_variable invalidate_cv_;
  std::thread dispatcher_;
};

}  // namespace rcj

#endif  // RINGJOIN_SERVICE_SERVICE_H_

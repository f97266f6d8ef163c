// Tests for rcj::Service, the async front end: Submit() must be genuinely
// non-blocking, tickets must resolve with per-query statuses, and sinks
// must receive exactly the serial pair stream — including the limit=k
// top-k prefix — no matter how requests interleave on the dispatcher.
#include "service/service.h"

#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/rcj.h"
#include "workload/generator.h"

namespace rcj {
namespace {

std::unique_ptr<RcjEnvironment> BuildEnv(size_t n, uint64_t seed) {
  const std::vector<PointRecord> qset = GenerateUniform(n, seed);
  const std::vector<PointRecord> pset = GenerateUniform(n + 50, seed + 1);
  Result<std::unique_ptr<RcjEnvironment>> env =
      RcjEnvironment::Build(qset, pset, RcjRunOptions{});
  EXPECT_TRUE(env.ok());
  return std::move(env).value();
}

void ExpectSameSequence(const std::vector<RcjPair>& got,
                        const std::vector<RcjPair>& want, const char* label) {
  ASSERT_EQ(got.size(), want.size()) << label;
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i].p.id, want[i].p.id) << label << " at " << i;
    ASSERT_EQ(got[i].q.id, want[i].q.id) << label << " at " << i;
  }
}

TEST(ServiceTest, StreamsExactSerialPairsForEveryAlgorithm) {
  std::unique_ptr<RcjEnvironment> env = BuildEnv(1500, 301);

  ServiceOptions options;
  options.engine.num_threads = 4;
  Service service(options);

  const RcjAlgorithm algorithms[] = {RcjAlgorithm::kBrute, RcjAlgorithm::kInj,
                                     RcjAlgorithm::kBij, RcjAlgorithm::kObj};
  std::vector<std::vector<RcjPair>> streams(4);
  std::vector<std::unique_ptr<VectorSink>> sinks;
  std::vector<QueryTicket> tickets;
  for (size_t i = 0; i < 4; ++i) {
    QuerySpec spec = QuerySpec::For(env.get());
    spec.algorithm = algorithms[i];
    sinks.push_back(std::make_unique<VectorSink>(&streams[i]));
    tickets.push_back(service.Submit(spec, sinks.back().get()));
  }

  for (size_t i = 0; i < 4; ++i) {
    ASSERT_TRUE(tickets[i].valid());
    ASSERT_TRUE(tickets[i].Wait().ok()) << AlgorithmName(algorithms[i]);
    QuerySpec spec = QuerySpec::For(env.get());
    spec.algorithm = algorithms[i];
    const Result<RcjRunResult> serial = env->Run(spec);
    ASSERT_TRUE(serial.ok());
    ExpectSameSequence(streams[i], serial.value().pairs,
                       AlgorithmName(algorithms[i]));
    EXPECT_EQ(tickets[i].stats().results, streams[i].size());
  }
}

TEST(ServiceTest, LimitedQueryDeliversTopKPrefix) {
  std::unique_ptr<RcjEnvironment> env = BuildEnv(2500, 311);
  const Result<RcjRunResult> full = env->Run(QuerySpec::For(env.get()));
  ASSERT_TRUE(full.ok());
  ASSERT_GT(full.value().pairs.size(), 12u);

  ServiceOptions options;
  options.engine.num_threads = 4;
  Service service(options);

  QuerySpec spec = QuerySpec::For(env.get());
  spec.limit = 12;
  std::vector<RcjPair> streamed;
  VectorSink sink(&streamed);
  QueryTicket ticket = service.Submit(spec, &sink);
  ASSERT_TRUE(ticket.Wait().ok());

  ASSERT_EQ(streamed.size(), 12u);
  for (size_t i = 0; i < streamed.size(); ++i) {
    EXPECT_EQ(streamed[i].p.id, full.value().pairs[i].p.id) << "at " << i;
    EXPECT_EQ(streamed[i].q.id, full.value().pairs[i].q.id) << "at " << i;
  }
  EXPECT_EQ(ticket.stats().results, 12u);
  EXPECT_LT(ticket.stats().candidates, full.value().stats.candidates)
      << "the limit must cancel remaining work, not filter a full join";
}

TEST(ServiceTest, SubmitIsNonBlockingWhileAJoinIsInFlight) {
  std::unique_ptr<RcjEnvironment> env = BuildEnv(1200, 321);

  // Gate: the first query's sink blocks on its first pair until the main
  // thread has finished submitting the second query. If Submit() blocked
  // until join completion, the first Submit could never return and the
  // test would deadlock instead of passing.
  std::mutex mu;
  std::condition_variable cv;
  bool second_submitted = false;

  CallbackSink blocking_sink([&](const RcjPair&) {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return second_submitted; });
    return true;
  });

  ServiceOptions options;
  options.engine.num_threads = 2;
  Service service(options);

  QueryTicket first = service.Submit(QuerySpec::For(env.get()),
                                     &blocking_sink);
  ASSERT_TRUE(first.valid());
  // The first join cannot have finished: its sink is still gated.
  EXPECT_FALSE(first.TryGet());

  std::vector<RcjPair> second_pairs;
  VectorSink second_sink(&second_pairs);
  QueryTicket second = service.Submit(QuerySpec::For(env.get()),
                                      &second_sink);
  ASSERT_TRUE(second.valid());  // returned while the first is in flight

  {
    std::lock_guard<std::mutex> lock(mu);
    second_submitted = true;
  }
  cv.notify_all();

  EXPECT_TRUE(first.Wait().ok());
  EXPECT_TRUE(second.Wait().ok());
  EXPECT_GT(second_pairs.size(), 0u);
}

TEST(ServiceTest, ManyConcurrentTicketsOverMixedEnvironments) {
  std::unique_ptr<RcjEnvironment> env_a = BuildEnv(900, 331);
  std::unique_ptr<RcjEnvironment> env_b = BuildEnv(1100, 333);

  ServiceOptions options;
  options.engine.num_threads = 4;
  options.max_batch_size = 3;  // force several dispatch rounds
  Service service(options);

  const RcjAlgorithm algorithms[] = {RcjAlgorithm::kObj, RcjAlgorithm::kInj,
                                     RcjAlgorithm::kBij};
  constexpr size_t kRequests = 10;
  std::vector<std::vector<RcjPair>> streams(kRequests);
  std::vector<std::unique_ptr<VectorSink>> sinks;
  std::vector<QuerySpec> specs;
  std::vector<QueryTicket> tickets;
  for (size_t i = 0; i < kRequests; ++i) {
    QuerySpec spec =
        QuerySpec::For(i % 2 == 0 ? env_a.get() : env_b.get());
    spec.algorithm = algorithms[i % 3];
    specs.push_back(spec);
    sinks.push_back(std::make_unique<VectorSink>(&streams[i]));
    tickets.push_back(service.Submit(spec, sinks.back().get()));
  }

  for (size_t i = 0; i < kRequests; ++i) {
    ASSERT_TRUE(tickets[i].Wait().ok()) << "request " << i;
    RcjEnvironment* owner = i % 2 == 0 ? env_a.get() : env_b.get();
    const Result<RcjRunResult> serial = owner->Run(specs[i]);
    ASSERT_TRUE(serial.ok());
    ExpectSameSequence(streams[i], serial.value().pairs, "request");
  }
}

TEST(ServiceTest, InvalidSpecResolvesTicketWithError) {
  std::unique_ptr<RcjEnvironment> env = BuildEnv(400, 341);
  Service service(ServiceOptions{});

  QuerySpec bad = QuerySpec::For(env.get());
  bad.algorithm = static_cast<RcjAlgorithm>(77);
  QueryTicket bad_ticket = service.Submit(bad, nullptr);

  QuerySpec unbound;  // env == nullptr
  QueryTicket unbound_ticket = service.Submit(unbound, nullptr);

  const Status bad_status = bad_ticket.Wait();
  EXPECT_EQ(bad_status.code(), StatusCode::kInvalidArgument);
  const Status unbound_status = unbound_ticket.Wait();
  EXPECT_EQ(unbound_status.code(), StatusCode::kInvalidArgument);

  // A valid query on the same service still succeeds afterwards.
  std::vector<RcjPair> pairs;
  VectorSink sink(&pairs);
  EXPECT_TRUE(service.Submit(QuerySpec::For(env.get()), &sink).Wait().ok());
  EXPECT_GT(pairs.size(), 0u);
}

TEST(ServiceTest, TryGetAndStatsOnNullSinkProbe) {
  std::unique_ptr<RcjEnvironment> env = BuildEnv(800, 351);
  Service service(ServiceOptions{});

  // Stats-only probe: no sink, pairs discarded, counters still real.
  QueryTicket ticket = service.Submit(QuerySpec::For(env.get()), nullptr);
  Status status;
  while (!ticket.TryGet(&status)) {
  }
  EXPECT_TRUE(status.ok());
  EXPECT_GT(ticket.stats().results, 0u);
  EXPECT_GT(ticket.stats().node_accesses, 0u);
}

TEST(ServiceTest, CancelWhileQueuedSkipsExecution) {
  std::unique_ptr<RcjEnvironment> env = BuildEnv(900, 371);

  // Gate the first query's sink so everything behind it stays queued.
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  CallbackSink gate_sink([&](const RcjPair&) {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return release; });
    return true;
  });

  ServiceOptions options;
  options.max_batch_size = 1;  // one query per dispatch round
  Service service(options);

  QueryTicket gate = service.Submit(QuerySpec::For(env.get()), &gate_sink);
  std::vector<RcjPair> pairs;
  VectorSink sink(&pairs);
  QueryTicket queued = service.Submit(QuerySpec::For(env.get()), &sink);
  queued.Cancel();

  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();

  EXPECT_TRUE(gate.Wait().ok());
  const Status cancelled = queued.Wait();
  EXPECT_EQ(cancelled.code(), StatusCode::kCancelled);
  EXPECT_TRUE(pairs.empty()) << "a queued cancel must never run the join";
  EXPECT_EQ(queued.stats().node_accesses, 0u);
}

TEST(ServiceTest, WaitForTimesOutWhileQueuedAndWakesOnResolution) {
  std::unique_ptr<RcjEnvironment> env = BuildEnv(900, 373);

  // Gate the first query's sink so the second stays queued behind it.
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  CallbackSink gate_sink([&](const RcjPair&) {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return release; });
    return true;
  });

  ServiceOptions options;
  options.max_batch_size = 1;  // one query per dispatch round
  Service service(options);

  QueryTicket gate = service.Submit(QuerySpec::For(env.get()), &gate_sink);
  std::vector<RcjPair> pairs;
  VectorSink sink(&pairs);
  QueryTicket queued = service.Submit(QuerySpec::For(env.get()), &sink);

  Status status = Status::Corruption("untouched");
  EXPECT_FALSE(queued.WaitFor(std::chrono::milliseconds(30), &status));
  EXPECT_EQ(status.code(), StatusCode::kCorruption)
      << "a timed-out wait must not report a status";

  // Resolution wakes a waiter long before its timeout would.
  std::thread releaser([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    {
      std::lock_guard<std::mutex> lock(mu);
      release = true;
    }
    cv.notify_all();
  });
  ASSERT_TRUE(queued.WaitFor(std::chrono::hours(1), &status));
  releaser.join();
  EXPECT_TRUE(status.ok()) << status.ToString();
  EXPECT_FALSE(pairs.empty());
  ASSERT_TRUE(gate.WaitFor(std::chrono::hours(1), &status));
  EXPECT_TRUE(status.ok()) << status.ToString();

  // A resolved ticket answers at once, even with a zero timeout, and
  // reports the final (here: cancelled) status.
  QueryTicket cancelled = service.Submit(QuerySpec::For(env.get()), &sink);
  cancelled.Cancel();
  ASSERT_TRUE(cancelled.WaitFor(std::chrono::hours(1), &status));
  const Status final_status = status;
  EXPECT_TRUE(cancelled.WaitFor(std::chrono::milliseconds(0), &status));
  EXPECT_EQ(status.code(), final_status.code());
  EXPECT_TRUE(cancelled.WaitFor(std::chrono::milliseconds(0)));
}

TEST(ServiceTest, CancelMidFlightStopsDeliveryLikeALimit) {
  std::unique_ptr<RcjEnvironment> env = BuildEnv(2500, 381);
  const Result<RcjRunResult> full = env->Run(QuerySpec::For(env.get()));
  ASSERT_TRUE(full.ok());
  ASSERT_GT(full.value().pairs.size(), 8u);

  ServiceOptions options;
  options.engine.num_threads = 4;
  Service service(options);

  // The cancellation hook is pulled after the 5th delivered pair — the
  // same moment a network front end notices its client dropped. The sink
  // waits for the ticket handoff so Cancel() never races Submit()'s
  // return value.
  std::mutex mu;
  std::condition_variable cv;
  bool have_ticket = false;
  QueryTicket ticket;
  uint64_t delivered = 0;
  CallbackSink sink([&](const RcjPair&) {
    if (++delivered == 5) {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return have_ticket; });
      ticket.Cancel();
    }
    return true;
  });
  {
    QueryTicket submitted = service.Submit(QuerySpec::For(env.get()), &sink);
    std::lock_guard<std::mutex> lock(mu);
    ticket = submitted;
    have_ticket = true;
  }
  cv.notify_all();

  const Status status = ticket.Wait();
  EXPECT_EQ(status.code(), StatusCode::kCancelled);
  EXPECT_LT(delivered, full.value().pairs.size())
      << "cancel must stop the stream early";
  EXPECT_LT(ticket.stats().candidates, full.value().stats.candidates)
      << "cancel must abandon remaining work, not filter a full join";
}

TEST(ServiceTest, CancelAfterCompletionIsANoOp) {
  std::unique_ptr<RcjEnvironment> env = BuildEnv(500, 391);
  Service service(ServiceOptions{});

  std::vector<RcjPair> pairs;
  VectorSink sink(&pairs);
  QueryTicket ticket = service.Submit(QuerySpec::For(env.get()), &sink);
  ASSERT_TRUE(ticket.Wait().ok());
  const size_t delivered = pairs.size();

  ticket.Cancel();  // already done: must change nothing
  Status status;
  ASSERT_TRUE(ticket.TryGet(&status));
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(pairs.size(), delivered);

  QueryTicket invalid;
  invalid.Cancel();  // no-op on an invalid ticket, not a crash
}

TEST(ServiceTest, DestructorDrainsWhileTicketsAreCancelledConcurrently) {
  // Teardown under load: the destructor's drain races real Cancel()
  // traffic — the shape a sharded server produces when it shuts down while
  // connections are still dropping. Every ticket must resolve (ok or
  // Cancelled), nothing may hang, and ASan must see no use-after-free of
  // the request state.
  std::unique_ptr<RcjEnvironment> env = BuildEnv(1200, 441);

  constexpr size_t kRequests = 12;
  std::vector<std::vector<RcjPair>> streams(kRequests);
  std::vector<std::unique_ptr<VectorSink>> sinks;
  std::vector<QueryTicket> tickets;
  std::vector<std::thread> cancellers;
  {
    ServiceOptions options;
    options.max_batch_size = 2;  // several dispatch rounds: a real backlog
    options.engine.num_threads = 2;
    Service service(options);
    for (size_t i = 0; i < kRequests; ++i) {
      sinks.push_back(std::make_unique<VectorSink>(&streams[i]));
      tickets.push_back(
          service.Submit(QuerySpec::For(env.get()), sinks.back().get()));
    }
    // Every odd ticket is cancelled from its own thread while the
    // destructor below drains the queue.
    for (size_t i = 1; i < kRequests; i += 2) {
      cancellers.emplace_back([ticket = tickets[i]]() mutable {
        ticket.Cancel();
      });
    }
    // Service destroyed here, mid-cancellation.
  }
  for (std::thread& canceller : cancellers) canceller.join();

  for (size_t i = 0; i < kRequests; ++i) {
    Status status;
    ASSERT_TRUE(tickets[i].TryGet(&status))
        << "ticket " << i << " never resolved";
    EXPECT_TRUE(status.ok() || status.code() == StatusCode::kCancelled)
        << "ticket " << i << ": " << status.ToString();
    if (status.ok()) {
      EXPECT_GT(streams[i].size(), 0u) << "ticket " << i;
    }
  }
}

TEST(ServiceTest, SubmitAfterShutdownFailsCleanly) {
  std::unique_ptr<RcjEnvironment> env = BuildEnv(500, 451);
  Service service(ServiceOptions{});

  // Work submitted before shutdown still completes.
  std::vector<RcjPair> pairs;
  VectorSink sink(&pairs);
  QueryTicket before = service.Submit(QuerySpec::For(env.get()), &sink);
  service.Shutdown();
  Status status;
  ASSERT_TRUE(before.TryGet(&status)) << "shutdown must drain, not drop";
  EXPECT_TRUE(status.ok());
  EXPECT_GT(pairs.size(), 0u);

  // A late Submit resolves immediately — no hang on a dead dispatcher —
  // with a clean error, and the completion hook still fires (an admission
  // layer's slot must never leak).
  std::vector<RcjPair> late_pairs;
  VectorSink late_sink(&late_pairs);
  Status done_status = Status::OK();
  int done_calls = 0;
  QueryTicket late = service.Submit(
      QuerySpec::For(env.get()), &late_sink, [&](const Status& final) {
        done_status = final;
        ++done_calls;
      });
  ASSERT_TRUE(late.valid());
  ASSERT_TRUE(late.TryGet(&status)) << "late ticket must resolve inline";
  EXPECT_EQ(status.code(), StatusCode::kCancelled);
  EXPECT_TRUE(late_pairs.empty()) << "a shut-down service must not run it";
  EXPECT_EQ(done_calls, 1);
  EXPECT_EQ(done_status.code(), StatusCode::kCancelled);

  service.Shutdown();  // idempotent; destructor will run it again
}

TEST(ServiceTest, DoneCallbackFiresOncePerOutcome) {
  std::unique_ptr<RcjEnvironment> env = BuildEnv(600, 461);

  std::mutex mu;
  std::map<std::string, std::vector<Status>> calls;
  const auto recorder = [&](const std::string& key) {
    return [&, key](const Status& final) {
      std::lock_guard<std::mutex> lock(mu);
      calls[key].push_back(final);
    };
  };

  {
    ServiceOptions options;
    options.max_batch_size = 1;
    Service service(options);

    // Gate the first query so the cancelled one is still queued when its
    // Cancel lands.
    std::mutex gate_mu;
    std::condition_variable gate_cv;
    bool release = false;
    CallbackSink gate_sink([&](const RcjPair&) {
      std::unique_lock<std::mutex> lock(gate_mu);
      gate_cv.wait(lock, [&] { return release; });
      return true;
    });
    QueryTicket gate = service.Submit(QuerySpec::For(env.get()), &gate_sink,
                                      recorder("ok"));
    QueryTicket cancelled = service.Submit(QuerySpec::For(env.get()),
                                           nullptr, recorder("cancelled"));
    cancelled.Cancel();
    QuerySpec invalid;  // env == nullptr -> InvalidArgument
    QueryTicket bad = service.Submit(invalid, nullptr, recorder("invalid"));
    {
      std::lock_guard<std::mutex> lock(gate_mu);
      release = true;
    }
    gate_cv.notify_all();
    (void)gate.Wait();
    (void)cancelled.Wait();
    (void)bad.Wait();
  }

  ASSERT_EQ(calls["ok"].size(), 1u);
  EXPECT_TRUE(calls["ok"][0].ok());
  ASSERT_EQ(calls["cancelled"].size(), 1u);
  EXPECT_EQ(calls["cancelled"][0].code(), StatusCode::kCancelled);
  ASSERT_EQ(calls["invalid"].size(), 1u);
  EXPECT_EQ(calls["invalid"][0].code(), StatusCode::kInvalidArgument);
}

TEST(ServiceTest, DestructorDrainsSubmittedWork) {
  std::unique_ptr<RcjEnvironment> env = BuildEnv(700, 361);

  std::vector<std::vector<RcjPair>> streams(4);
  std::vector<std::unique_ptr<VectorSink>> sinks;
  std::vector<QueryTicket> tickets;
  {
    ServiceOptions options;
    options.max_batch_size = 1;  // one query per round: real queueing
    Service service(options);
    for (size_t i = 0; i < streams.size(); ++i) {
      sinks.push_back(std::make_unique<VectorSink>(&streams[i]));
      tickets.push_back(
          service.Submit(QuerySpec::For(env.get()), sinks.back().get()));
    }
    // Service destroyed here with work likely still queued.
  }
  for (size_t i = 0; i < tickets.size(); ++i) {
    Status status;
    ASSERT_TRUE(tickets[i].TryGet(&status)) << "ticket " << i;
    EXPECT_TRUE(status.ok());
    EXPECT_EQ(streams[i].size(), streams[0].size());
  }
}

}  // namespace
}  // namespace rcj

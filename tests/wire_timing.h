// Timed wire conversations shared by the server and proxy tests: the
// median of twenty back-to-back top-1 queries, and of twenty mutations on
// one connection, must stay far below what a reply waiting on a timer
// costs — a 20 ms poll slice before END (every such query takes >= 20 ms,
// except one whose ticket resolved before the handler first looked), or
// Nagle's algorithm holding MUT behind OK until the peer's ~40 ms delayed
// ACK. The median, not the total, is bounded: it ignores the lucky
// timer-free queries of a timer-bound server as well as a scheduling
// hiccup of a timer-free one.
#ifndef RINGJOIN_TESTS_WIRE_TIMING_H_
#define RINGJOIN_TESTS_WIRE_TIMING_H_

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "net/protocol_client.h"

namespace rcj {
namespace testing_util {

/// Conversations per timed run.
constexpr int kTimedConversations = 20;

/// Q points of the environment the timed runs query (P gets 100 more):
/// small enough that a top-1 join costs a fraction of a millisecond in a
/// Release build, so the runs time the wire, not the join.
constexpr size_t kTimedEnvPoints = 20;

/// Bound on the median conversation, below the 20 ms poll slice. Measured
/// on a 4-core Xeon: a server whose replies wait on a timer has medians of
/// 20.5 ms per query and 44 ms per mutation, direct and through a proxy;
/// without the timers they are 0.3–0.5 ms and 0.03–0.08 ms in a Release
/// build, and 4–8 ms and 0.05–0.3 ms in a Debug AddressSanitizer build
/// (idle, and with eight such tests running at once).
constexpr double kTimedMedianBoundMs = 15.0;

#if defined(__SANITIZE_THREAD__)
#define RINGJOIN_TESTS_UNDER_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define RINGJOIN_TESTS_UNDER_TSAN 1
#endif
#endif

/// Whether a top-1 query's latency can tell a timer from work in this
/// build. Under ThreadSanitizer the query itself takes about one poll
/// slice (a 19 ms median in a Debug build under `ctest -j4`), so there the
/// queries still run and are checked, but only the mutation bound holds.
#ifdef RINGJOIN_TESTS_UNDER_TSAN
constexpr bool kQueryLatencyIsMeaningful = false;
#else
constexpr bool kQueryLatencyIsMeaningful = true;
#endif

inline double MillisSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

inline double Median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  const auto middle = samples.begin() + samples.size() / 2;
  std::nth_element(samples.begin(), middle, samples.end());
  return *middle;
}

/// Median wall milliseconds of kTimedConversations sequential `limit=1`
/// queries against `port`, each on its own connection (dial included);
/// every one must stream its single pair.
inline double MedianTopOneQueryMs(uint16_t port) {
  std::vector<double> samples;
  for (int i = 0; i < kTimedConversations; ++i) {
    const auto start = std::chrono::steady_clock::now();
    Result<net::ProtocolClient> dialed =
        net::ProtocolClient::Connect("127.0.0.1", port);
    EXPECT_TRUE(dialed.ok()) << dialed.status().ToString();
    if (!dialed.ok()) break;
    net::WireRequest request;
    request.spec.limit = 1;
    net::WireSummary summary;
    const Status status =
        dialed.value().RunQuery(request, nullptr, &summary);
    samples.push_back(MillisSince(start));
    EXPECT_TRUE(status.ok()) << "query " << i << ": " << status.ToString();
    EXPECT_EQ(summary.pairs, 1u) << "query " << i;
  }
  return Median(std::move(samples));
}

/// Median wall milliseconds of kTimedConversations INSERTs of fresh Q
/// points (ids from `first_id` up) on one mutation connection to `port`;
/// every one must be acknowledged.
inline double MedianMutationMs(uint16_t port, int64_t first_id) {
  Result<net::ProtocolClient> dialed =
      net::ProtocolClient::Connect("127.0.0.1", port);
  EXPECT_TRUE(dialed.ok()) << dialed.status().ToString();
  if (!dialed.ok()) return 0.0;
  net::ProtocolClient client = std::move(dialed).value();
  std::vector<double> samples;
  for (int i = 0; i < kTimedConversations; ++i) {
    net::WireMutation mutation;
    mutation.op = net::WireMutationOp::kInsert;
    mutation.side = LiveSide::kQ;
    mutation.rec.id = first_id + i;
    mutation.rec.pt.x = 0.3 + 0.001 * i;
    mutation.rec.pt.y = 0.7;
    net::WireMutationAck ack;
    const auto start = std::chrono::steady_clock::now();
    const Status status = client.Mutate(mutation, &ack);
    samples.push_back(MillisSince(start));
    EXPECT_TRUE(status.ok()) << "op " << i << ": " << status.ToString();
  }
  return Median(std::move(samples));
}

}  // namespace testing_util
}  // namespace rcj

#endif  // RINGJOIN_TESTS_WIRE_TIMING_H_

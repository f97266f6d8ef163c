// Golden bytes of every line the wire protocol formats. Round-trip tests
// cannot see a byte drift that both directions share (a reordered key, a
// changed double precision, a default that stops being omitted), yet the
// fleet proxy re-formats lines and CI `cmp`s the streams it relays. Each
// case pins one exact string.
#include "net/protocol.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>

namespace rcj {
namespace net {
namespace {

constexpr uint64_t kMaxU64 = std::numeric_limits<uint64_t>::max();

TEST(ProtocolGoldenTest, QueryOmitsDefaults) {
  EXPECT_EQ(FormatRequestLine(WireRequest{}), "QUERY");

  // Spelling out a default value still omits it.
  WireRequest defaults_spelled;
  defaults_spelled.env_name = "default";
  defaults_spelled.spec.algorithm = RcjAlgorithm::kObj;
  defaults_spelled.spec.verify = true;
  defaults_spelled.spec.random_seed = 42;
  defaults_spelled.spec.io_ms_per_fault = 10.0;
  EXPECT_EQ(FormatRequestLine(defaults_spelled), "QUERY");

  WireRequest limited;
  limited.spec.limit = 10;
  EXPECT_EQ(FormatRequestLine(limited), "QUERY limit=10");
}

TEST(ProtocolGoldenTest, QueryWithEveryField) {
  WireRequest request;
  request.env_name = "hubs";
  request.spec.algorithm = RcjAlgorithm::kInj;
  request.spec.order = SearchOrder::kRandom;
  request.spec.verify = false;
  request.spec.random_seed = kMaxU64;
  request.spec.limit = 25;
  request.spec.io_ms_per_fault = 0.1;
  request.deadline_ms = 2500;
  request.trace = true;
  request.trace_id = "t.1";
  EXPECT_EQ(FormatRequestLine(request),
            "QUERY env=hubs algo=inj order=random verify=0 "
            "seed=18446744073709551615 limit=25 io_ms=0.10000000000000001 "
            "deadline_ms=2500 trace=1 trace_id=t.1");
}

TEST(ProtocolGoldenTest, Pair) {
  const RcjPair pair = RcjPair::Make(
      PointRecord{Point{123.456789012345678, -0.0000001}, 17},
      PointRecord{Point{1e300, 2.0 / 3.0}, -3});
  EXPECT_EQ(FormatPairLine(pair),
            "PAIR 17 -3 123.45678901234568 -9.9999999999999995e-08 "
            "1.0000000000000001e+300 0.66666666666666663");
}

TEST(ProtocolGoldenTest, EndUsesSeventeenDigitDoubles) {
  WireSummary summary;
  summary.pairs = 42;
  summary.stats.candidates = 100;
  summary.stats.results = 42;
  summary.stats.node_accesses = 77;
  summary.stats.page_faults = kMaxU64;
  summary.stats.cold_faults = 9;
  summary.stats.warm_faults = 0;
  summary.stats.io_seconds = 0.13;
  summary.stats.io_wall_seconds = 0.0421;
  summary.stats.cpu_seconds = 0.0075;
  EXPECT_EQ(FormatEndLine(summary),
            "END pairs=42 candidates=100 results=42 node_accesses=77 "
            "faults=18446744073709551615 cold_faults=9 warm_faults=0 "
            "io_s=0.13 io_wall_s=0.042099999999999999 "
            "cpu_s=0.0074999999999999997");
  EXPECT_EQ(FormatEndLine(WireSummary{}),
            "END pairs=0 candidates=0 results=0 node_accesses=0 faults=0 "
            "cold_faults=0 warm_faults=0 io_s=0 io_wall_s=0 cpu_s=0");
}

TEST(ProtocolGoldenTest, Err) {
  EXPECT_EQ(FormatErrLine(Status::Overloaded("queue full")),
            "ERR Overloaded queue full");
  EXPECT_EQ(FormatErrLine(Status::InvalidArgument("a\nb\rc")),
            "ERR InvalidArgument a b c");
  EXPECT_EQ(FormatErrLine(Status::NotFound("")), "ERR NotFound");
}

TEST(ProtocolGoldenTest, ShardRow) {
  WireShardStats stats;
  stats.shard = 3;
  stats.environments = 2;
  stats.queued = 5;
  stats.inflight = 7;
  stats.submitted = 100;
  stats.admitted = 90;
  stats.shed = 10;
  stats.completed = 80;
  stats.cancelled = 2;
  stats.failed = kMaxU64;
  EXPECT_EQ(FormatShardStatsLine(stats),
            "SHARD 3 envs=2 queued=5 inflight=7 submitted=100 admitted=90 "
            "shed=10 completed=80 cancelled=2 failed=18446744073709551615");
}

TEST(ProtocolGoldenTest, EnvRowWritesLiveAsOneOrZero) {
  WireEnvStats stats;
  stats.name = "west";
  stats.shard = 1;
  stats.live = true;
  stats.generation = 5;
  stats.epoch = 17;
  stats.delta = 23;
  stats.tombstones = 4;
  stats.compactions = 2;
  stats.base_q = 1000;
  stats.base_p = 2000;
  EXPECT_EQ(FormatEnvStatsLine(stats),
            "ENV west shard=1 live=1 generation=5 epoch=17 delta=23 "
            "tombstones=4 compactions=2 base_q=1000 base_p=2000");
  EXPECT_EQ(FormatEnvStatsLine(WireEnvStats{}),
            "ENV default shard=0 live=0 generation=0 epoch=0 delta=0 "
            "tombstones=0 compactions=0 base_q=0 base_p=0");
}

TEST(ProtocolGoldenTest, StatsEnd) {
  EXPECT_EQ(FormatStatsEndLine(4, 7), "ENDSTATS shards=4 envs=7");
}

TEST(ProtocolGoldenTest, MutationRequests) {
  WireMutation insert;
  insert.op = WireMutationOp::kInsert;
  insert.env_name = "west";
  insert.side = LiveSide::kP;
  insert.rec.id = std::numeric_limits<int64_t>::min();
  insert.rec.pt = Point{0.1, -2.5e-300};
  EXPECT_EQ(FormatMutationLine(insert),
            "INSERT env=west side=p id=-9223372036854775808 "
            "x=0.10000000000000001 y=-2.5e-300");

  WireMutation del;
  del.op = WireMutationOp::kDelete;
  del.side = LiveSide::kQ;
  del.rec.id = -7;
  EXPECT_EQ(FormatMutationLine(del), "DELETE side=q id=-7");

  EXPECT_EQ(FormatMutationLine(WireMutation{}), "COMPACT");
  WireMutation compact;
  compact.env_name = "hubs";
  EXPECT_EQ(FormatMutationLine(compact), "COMPACT env=hubs");
}

TEST(ProtocolGoldenTest, MutationAck) {
  WireMutationAck ack;
  ack.op = WireMutationOp::kDelete;
  ack.env_name = "west";
  ack.epoch = 9;
  ack.generation = 3;
  ack.delta = 11;
  ack.tombstones = 2;
  ack.compactions = kMaxU64;
  EXPECT_EQ(FormatMutationAckLine(ack),
            "MUT op=delete env=west epoch=9 generation=3 delta=11 "
            "tombstones=2 compactions=18446744073709551615");
}

TEST(ProtocolGoldenTest, TraceUsesNineDigitDoubles) {
  WireTraceSpan span;
  span.id = "tour.1";
  span.depth = 2;
  span.span = "leaf_chunk";
  span.count = 12;
  span.total_s = 2.0 / 3.0;
  span.start_s = 5e-324;
  EXPECT_EQ(FormatTraceLine(span),
            "TRACE id=tour.1 depth=2 span=leaf_chunk count=12 "
            "total_s=0.666666667 start_s=4.94065646e-324");
  EXPECT_EQ(FormatTraceEndLine("tour.1", 7), "ENDTRACE id=tour.1 spans=7");
}

TEST(ProtocolGoldenTest, MetricsEnd) {
  EXPECT_EQ(FormatMetricsEndLine(123), "ENDMETRICS lines=123");
}

TEST(ProtocolGoldenTest, EpochRequestOmitsDefaultEnvAndResponseDoesNot) {
  EXPECT_EQ(FormatEpochRequestLine("default"), "EPOCH");
  EXPECT_EQ(FormatEpochRequestLine("west"), "EPOCH env=west");
  EXPECT_EQ(FormatEpochResponseLine("default", 0),
            "EPOCH env=default epoch=0");
  EXPECT_EQ(FormatEpochResponseLine("west", kMaxU64),
            "EPOCH env=west epoch=18446744073709551615");
}

TEST(ProtocolGoldenTest, Failpoint) {
  EXPECT_EQ(FormatFailpointLine("wal_sync", "1in 3 seed 7 err"),
            "FAILPOINT wal_sync 1in 3 seed 7 err");
}

}  // namespace
}  // namespace net
}  // namespace rcj

// End-to-end tests for net::ProtocolClient against an in-process
// NetServer: the typed conversations (RunQuery / Mutate / Stats) must
// deliver exactly what the ad-hoc parsing loops in the older tests
// deliver, server errors must come back as their transported Status, and
// a mutation batch must ride one connection — the client half of the
// batched-wire-mutations contract.
#include "net/protocol_client.h"

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/rcj.h"
#include "live/live_environment.h"
#include "net/net_server.h"
#include "net/protocol.h"
#include "shard/shard_router.h"
#include "workload/generator.h"

namespace rcj {
namespace net {
namespace {

std::unique_ptr<RcjEnvironment> BuildEnv(size_t n, uint64_t seed) {
  const std::vector<PointRecord> qset = GenerateUniform(n, seed);
  const std::vector<PointRecord> pset = GenerateUniform(n + 100, seed + 1);
  Result<std::unique_ptr<RcjEnvironment>> env =
      RcjEnvironment::Build(qset, pset, RcjRunOptions{});
  EXPECT_TRUE(env.ok());
  return std::move(env).value();
}

/// A router serving one static environment behind a running NetServer.
struct ServerFixture {
  explicit ServerFixture(const RcjEnvironment* env) {
    EXPECT_TRUE(router.RegisterEnvironment("default", env).ok());
    server = std::make_unique<NetServer>(&router);
    EXPECT_TRUE(server->Start().ok());
  }
  ~ServerFixture() { server->Stop(); }
  ShardRouter router;
  std::unique_ptr<NetServer> server;
};

TEST(ProtocolClientTest, DialFailuresAreIoErrorsWithContext) {
  // A listener that is bound and immediately closed leaves a port with
  // nothing behind it: dialing it must refuse, not hang.
  NetServerOptions options;
  ShardRouter router;
  std::unique_ptr<RcjEnvironment> env = BuildEnv(100, 601);
  ASSERT_TRUE(router.RegisterEnvironment("default", env.get()).ok());
  NetServer server(&router, options);
  ASSERT_TRUE(server.Start().ok());
  const uint16_t dead_port = server.port();
  server.Stop();

  Result<ProtocolClient> refused =
      ProtocolClient::Connect("127.0.0.1", dead_port);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kIoError);

  Result<int> bad_host = DialTcp("not-an-address", 1);
  ASSERT_FALSE(bad_host.ok());
  EXPECT_EQ(bad_host.status().code(), StatusCode::kInvalidArgument);
}

TEST(ProtocolClientTest, RunQueryStreamsTheEngineResultVerbatim) {
  std::unique_ptr<RcjEnvironment> env = BuildEnv(900, 611);
  const Result<RcjRunResult> expected = env->Run(QuerySpec::For(env.get()));
  ASSERT_TRUE(expected.ok());
  ServerFixture fixture(env.get());

  Result<ProtocolClient> dialed =
      ProtocolClient::Connect("127.0.0.1", fixture.server->port());
  ASSERT_TRUE(dialed.ok()) << dialed.status().ToString();
  ProtocolClient client = std::move(dialed).value();
  ASSERT_TRUE(client.connected());

  WireRequest request;
  std::vector<std::string> pair_lines;
  WireSummary summary;
  const Status status = client.RunQuery(
      request,
      [&](const std::string& line) {
        pair_lines.push_back(line);
        return true;
      },
      &summary);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_FALSE(client.connected()) << "a query consumes the connection";

  // The raw lines the client surfaced are the engine's pairs,
  // re-serialized deterministically.
  ASSERT_EQ(pair_lines.size(), expected.value().pairs.size());
  for (size_t i = 0; i < pair_lines.size(); ++i) {
    EXPECT_EQ(pair_lines[i], FormatPairLine(expected.value().pairs[i]))
        << "pair " << i;
  }
  EXPECT_EQ(summary.pairs, expected.value().pairs.size());
}

TEST(ProtocolClientTest, ServerErrArrivesAsTransportedStatus) {
  std::unique_ptr<RcjEnvironment> env = BuildEnv(200, 621);
  ServerFixture fixture(env.get());

  Result<ProtocolClient> dialed =
      ProtocolClient::Connect("127.0.0.1", fixture.server->port());
  ASSERT_TRUE(dialed.ok());
  ProtocolClient client = std::move(dialed).value();
  WireRequest request;
  request.env_name = "nosuch";
  const Status status = client.RunQuery(request, nullptr, nullptr);
  EXPECT_EQ(status.code(), StatusCode::kNotFound) << status.ToString();
  EXPECT_FALSE(client.connected());
}

TEST(ProtocolClientTest, OnPairReturningFalseCancelsTheQuery) {
  std::unique_ptr<RcjEnvironment> env = BuildEnv(1500, 631);
  ServerFixture fixture(env.get());

  Result<ProtocolClient> dialed =
      ProtocolClient::Connect("127.0.0.1", fixture.server->port());
  ASSERT_TRUE(dialed.ok());
  ProtocolClient client = std::move(dialed).value();
  size_t delivered = 0;
  const Status status = client.RunQuery(
      WireRequest{}, [&](const std::string&) { return ++delivered < 3; },
      nullptr);
  EXPECT_EQ(status.code(), StatusCode::kCancelled) << status.ToString();
  EXPECT_EQ(delivered, 3u);
  EXPECT_FALSE(client.connected());
}

TEST(ProtocolClientTest, MutationBatchRidesOneConnection) {
  const std::vector<PointRecord> qset = GenerateUniform(300, 641);
  const std::vector<PointRecord> pset = GenerateUniform(400, 642);
  Result<std::unique_ptr<LiveEnvironment>> live =
      LiveEnvironment::Create(qset, pset, LiveOptions{});
  ASSERT_TRUE(live.ok());
  ShardRouter router;
  ASSERT_TRUE(
      router.RegisterLiveEnvironment("default", live.value().get()).ok());
  NetServer server(&router);
  ASSERT_TRUE(server.Start().ok());

  Result<ProtocolClient> dialed =
      ProtocolClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(dialed.ok());
  ProtocolClient client = std::move(dialed).value();

  // Three inserts through one client: each Mutate() leaves the
  // connection open, and the acks carry the advancing epoch.
  for (uint64_t i = 0; i < 3; ++i) {
    WireMutation mutation;
    mutation.op = WireMutationOp::kInsert;
    mutation.side = LiveSide::kQ;
    mutation.rec.id = static_cast<int64_t>(500000 + i);
    mutation.rec.pt.x = 0.25 + 0.001 * static_cast<double>(i);
    mutation.rec.pt.y = 0.75;
    WireMutationAck ack;
    const Status status = client.Mutate(mutation, &ack);
    ASSERT_TRUE(status.ok()) << "op " << i << ": " << status.ToString();
    EXPECT_TRUE(client.connected()) << "op " << i;
    EXPECT_EQ(ack.op, WireMutationOp::kInsert) << "op " << i;
    EXPECT_EQ(ack.epoch, i + 1) << "op " << i;
    EXPECT_EQ(ack.delta, i + 1) << "op " << i;
  }

  // A rejected op comes back as its transported status, and the server
  // ends the conversation — the client observes the closed connection.
  WireMutation duplicate;
  duplicate.op = WireMutationOp::kInsert;
  duplicate.side = LiveSide::kQ;
  duplicate.rec.id = 500000;
  duplicate.rec.pt.x = 0.1;
  duplicate.rec.pt.y = 0.1;
  const Status rejected = client.Mutate(duplicate, nullptr);
  EXPECT_EQ(rejected.code(), StatusCode::kInvalidArgument)
      << rejected.ToString();
  EXPECT_FALSE(client.connected());

  server.Stop();
  const NetServer::Counters counters = server.counters();
  EXPECT_EQ(counters.connections, 1u)
      << "the whole batch must ride one connection";
  EXPECT_EQ(counters.mutations, 3u);
  EXPECT_EQ(counters.rejected, 1u);
  ASSERT_TRUE(router.ReleaseEnvironment("default").ok());
}

TEST(ProtocolClientTest, StatsParsesRowsAndValidatesTotals) {
  std::unique_ptr<RcjEnvironment> env = BuildEnv(400, 651);
  ShardRouterOptions router_options;
  router_options.num_shards = 2;
  ShardRouter router(router_options);
  ASSERT_TRUE(router.RegisterEnvironment("default", env.get()).ok());
  NetServer server(&router);
  ASSERT_TRUE(server.Start().ok());

  Result<ProtocolClient> dialed =
      ProtocolClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(dialed.ok());
  ProtocolClient client = std::move(dialed).value();
  std::vector<WireShardStats> shards;
  std::vector<WireEnvStats> envs;
  const Status status = client.Stats(&shards, &envs);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_FALSE(client.connected()) << "STATS consumes the connection";
  ASSERT_EQ(shards.size(), 2u);
  ASSERT_EQ(envs.size(), 1u);
  EXPECT_EQ(envs[0].name, "default");
  EXPECT_EQ(envs[0].base_q, 400u);
  EXPECT_EQ(envs[0].base_p, 500u);
  server.Stop();
}

TEST(ProtocolClientTest, TracedQueryReturnsTheSpanBlock) {
  std::unique_ptr<RcjEnvironment> env = BuildEnv(300, 661);
  ServerFixture fixture(env.get());

  Result<ProtocolClient> dialed =
      ProtocolClient::Connect("127.0.0.1", fixture.server->port());
  ASSERT_TRUE(dialed.ok());
  WireRequest request;
  request.spec.limit = 5;
  request.trace = true;
  request.trace_id = "pc.1";
  WireSummary summary;
  std::vector<WireTraceSpan> spans;
  const Status status =
      dialed.value().RunQuery(request, nullptr, &summary, &spans);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(summary.pairs, 5u);
  ASSERT_FALSE(spans.empty());
  for (const WireTraceSpan& span : spans) EXPECT_EQ(span.id, "pc.1");
  EXPECT_FALSE(dialed.value().connected());
}

TEST(ProtocolClientTest, MetricsAndEpochConsumeTheirConnections) {
  std::unique_ptr<RcjEnvironment> env = BuildEnv(200, 671);
  ServerFixture fixture(env.get());
  const uint16_t port = fixture.server->port();

  Result<ProtocolClient> scrape = ProtocolClient::Connect("127.0.0.1", port);
  ASSERT_TRUE(scrape.ok());
  std::vector<std::string> lines;
  const Status scraped = scrape.value().Metrics(&lines);
  ASSERT_TRUE(scraped.ok()) << scraped.ToString();
  EXPECT_FALSE(scrape.value().connected());
  bool saw_server_counter = false;
  for (const std::string& line : lines) {
    saw_server_counter |= line.rfind("rcj_server_", 0) == 0;
  }
  EXPECT_TRUE(saw_server_counter);

  Result<ProtocolClient> probe = ProtocolClient::Connect("127.0.0.1", port);
  ASSERT_TRUE(probe.ok());
  uint64_t epoch = 99;
  const Status probed = probe.value().Epoch("default", &epoch);
  ASSERT_TRUE(probed.ok()) << probed.ToString();
  EXPECT_EQ(epoch, 0u) << "a static environment reports epoch 0";
  EXPECT_FALSE(probe.value().connected());

  Result<ProtocolClient> unknown = ProtocolClient::Connect("127.0.0.1", port);
  ASSERT_TRUE(unknown.ok());
  EXPECT_EQ(unknown.value().Epoch("nosuch", &epoch).code(),
            StatusCode::kNotFound);
}

}  // namespace
}  // namespace net
}  // namespace rcj

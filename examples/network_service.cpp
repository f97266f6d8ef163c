// Remote middleman-location queries over the wire protocol.
//
// The previous examples all lived in one process; this one serves the same
// computation to network callers. A NetServer is stood up on an ephemeral
// loopback port over two warm environments ("meetups" restaurants x cafes,
// and a "hubs" stations self-join), then three plain TCP clients connect
// concurrently — each sends one QUERY line, reads the OK acknowledgement,
// and consumes PAIR lines as the join streams them, finishing with the END
// summary. One client is an impatient top-10 caller whose query the server
// cancels the moment its prefix is delivered. The callers use
// net::ProtocolClient, but any netcat session could replace them:
//
//   $ printf 'QUERY env=hubs algo=obj limit=3\n' | nc 127.0.0.1 <port>
//
//   $ ./network_service
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "net/net_server.h"
#include "net/protocol.h"
#include "net/protocol_client.h"
#include "shard/shard_router.h"
#include "workload/generator.h"

namespace {

using namespace rcj;

/// One scripted caller: connect, send `request`, stream the response.
/// Returns the number of PAIR lines received, or -1 on a protocol error.
long RunClient(uint16_t port, const net::WireRequest& request,
               net::WireSummary* summary) {
  Result<net::ProtocolClient> client =
      net::ProtocolClient::Connect("127.0.0.1", port);
  if (!client.ok()) return -1;
  // The same client `rcj_tool client` drives: it checks the OK, counts
  // the PAIR lines as the join streams them, and verifies the END summary
  // against that count.
  const Status status = client.value().RunQuery(request, nullptr, summary);
  return status.ok() ? static_cast<long>(summary->pairs) : -1;
}

}  // namespace

int main() {
  const std::vector<PointRecord> restaurants = GenerateUniform(5000, 21);
  const std::vector<PointRecord> cafes = GenerateUniform(6000, 22);
  const std::vector<PointRecord> stations =
      GenerateGaussianClusters(4000, 8, 1000.0, 23);

  RcjRunOptions build_options;
  Result<std::unique_ptr<RcjEnvironment>> meetups =
      RcjEnvironment::Build(restaurants, cafes, build_options);
  Result<std::unique_ptr<RcjEnvironment>> hubs =
      RcjEnvironment::BuildSelf(stations, build_options);
  if (!meetups.ok() || !hubs.ok()) {
    std::fprintf(stderr, "environment build failed\n");
    return 1;
  }

  ShardRouter router(ShardRouterOptions{});  // one shard: the simple shape
  if (!router.RegisterEnvironment("meetups", meetups.value().get()).ok() ||
      !router.RegisterEnvironment("hubs", hubs.value().get()).ok()) {
    std::fprintf(stderr, "environment registration failed\n");
    return 1;
  }
  NetServer server(&router);
  if (const Status status = server.Start(); !status.ok()) {
    std::fprintf(stderr, "server start failed: %s\n",
                 status.ToString().c_str());
    return 1;
  }
  std::printf("server up on 127.0.0.1:%u — two environments, %zu workers\n",
              static_cast<unsigned>(server.port()), router.num_threads());

  // Three remote callers at once: a full meetups join, a full hubs
  // self-join, and an impatient top-10 caller whose remaining work the
  // server cancels once the prefix is on the wire.
  struct Caller {
    const char* who;
    net::WireRequest request;
    long pairs = -1;
    net::WireSummary summary;
  };
  std::vector<Caller> callers(3);
  callers[0].who = "full meetups join";
  callers[0].request.env_name = "meetups";
  callers[1].who = "hubs self-join";
  callers[1].request.env_name = "hubs";
  callers[2].who = "impatient top-10";
  callers[2].request.env_name = "meetups";
  callers[2].request.spec.limit = 10;

  std::vector<std::thread> threads;
  for (Caller& caller : callers) {
    threads.emplace_back([&caller, &server] {
      caller.pairs = RunClient(server.port(), caller.request,
                               &caller.summary);
    });
  }
  for (std::thread& thread : threads) thread.join();

  for (const Caller& caller : callers) {
    if (caller.pairs < 0) {
      std::fprintf(stderr, "%s: protocol error\n", caller.who);
      return 1;
    }
    std::printf("%-18s %5ld pairs | candidates %llu | I/O %.2fs\n",
                caller.who, caller.pairs,
                static_cast<unsigned long long>(
                    caller.summary.stats.candidates),
                caller.summary.stats.io_seconds);
  }

  server.Stop();
  const NetServer::Counters counters = server.counters();
  std::printf("\nserver counters: %llu connections, %llu ok\n",
              static_cast<unsigned long long>(counters.connections),
              static_cast<unsigned long long>(counters.ok));
  return counters.ok == callers.size() ? 0 : 1;
}

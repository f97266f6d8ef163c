// The serving topology the benchmark drives, built in-process from the
// repository's public classes: one FleetProxy in front of N NetServer
// backends, each backend with its own ShardRouter (1 shard) and its own
// copy of every environment. Also the benchmark's wire client, which
// times each request's client-side spans (dial, QUERY -> OK, OK -> first
// PAIR, -> END).
#ifndef PERFBENCH_TOPOLOGY_H_
#define PERFBENCH_TOPOLOGY_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/runner.h"
#include "fleet/fleet_proxy.h"
#include "harness.h"
#include "live/live_environment.h"
#include "net/net_server.h"
#include "shard/shard_router.h"

namespace perfbench {

/// One named environment's pointsets.
struct EnvInput {
  std::string name;
  std::vector<rcj::PointRecord> q;
  std::vector<rcj::PointRecord> p;
};

/// Every live environment's journal group-commit window, and the pending
/// mutations at which it compacts — the same policy on every backend and
/// in every probe.
inline constexpr int kWalSyncMs = 5;
inline constexpr size_t kCompactThreshold = 4000;

/// Engine threads of each backend's single shard: half the processors,
/// so the 2 backends together run one engine thread per processor.
size_t BackendThreads();

/// 2 backends, every environment replicated on both.
class Fleet {
 public:
  /// Every backend builds and registers its own copy of every static
  /// environment; then the proxy starts.
  static rcj::Result<std::unique_ptr<Fleet>> StartStatic(
      const std::vector<EnvInput>& envs);
  /// Every backend builds one live environment over `input`, attaches a
  /// fresh write-ahead journal under `wal_root`/b<i>, and registers it;
  /// then the proxy starts.
  static rcj::Result<std::unique_ptr<Fleet>> StartLive(
      const EnvInput& input, const std::string& wal_root);

  /// Stops the proxy and servers before the routers and environments go.
  ~Fleet();
  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  size_t backends() const { return servers_.size(); }
  uint16_t proxy_port() const { return proxy_->port(); }
  uint16_t backend_port(size_t i) const { return servers_[i]->port(); }
  /// The backend the proxy sends `env_name`'s queries to first.
  size_t primary(const std::string& env_name) const {
    return proxy_->ReplicaSet(env_name).front();
  }
  rcj::ShardRouter* router(size_t i) { return routers_[i].get(); }
  rcj::fleet::FleetProxy* proxy() { return proxy_.get(); }
  /// Static topologies: backend `backend`'s copy of environment `index`.
  rcj::RcjEnvironment* env(size_t backend, size_t index) {
    return envs_[backend * envs_per_backend_ + index].get();
  }
  /// Live topologies: backend `backend`'s environment.
  rcj::LiveEnvironment* live(size_t backend) { return lives_[backend].get(); }

 private:
  Fleet() = default;
  rcj::Status StartServing();

  // Declaration order is teardown order reversed: the proxy stops first,
  // then the servers, then the routers release their environments.
  size_t envs_per_backend_ = 0;
  std::vector<std::unique_ptr<rcj::RcjEnvironment>> envs_;
  std::vector<std::unique_ptr<rcj::LiveEnvironment>> lives_;
  std::vector<std::unique_ptr<rcj::ShardRouter>> routers_;
  std::vector<std::unique_ptr<rcj::NetServer>> servers_;
  std::unique_ptr<rcj::fleet::FleetProxy> proxy_;
};

/// One wire query's outcome and client-side spans (steady-clock seconds).
struct WireResult {
  rcj::Status status;
  double start = 0.0;       ///< before the dial.
  double dialed = 0.0;      ///< connection established.
  double ok = 0.0;          ///< OK received.
  double first_pair = 0.0;  ///< first PAIR received (= end if none).
  double end = 0.0;         ///< END received.
  double done = 0.0;        ///< last line received (ENDTRACE if traced).
  uint64_t pairs = 0;
  bool traced = false;       ///< the request carried trace=1.
  uint64_t trace_spans = 0;  ///< TRACE lines after END (trace=1 only).
  uint64_t bytes = 0;  ///< response bytes up to END, line feeds included.
  StreamDigest digest;
};

/// Runs one QUERY against 127.0.0.1:`port` and reads the whole response.
/// With `trace`, the request carries trace=1 and the span tree after END
/// is read up to its ENDTRACE.
WireResult WireQuery(uint16_t port, const std::string& env_name,
                     const QueryItem& item, bool trace = false);

/// The wire form of one churn mutation against `env_name`.
rcj::net::WireMutation ToWire(const MutationItem& item,
                              const std::string& env_name);

/// A fresh, empty directory at `path` (removing what was there).
rcj::Status ResetDir(const std::string& path);
/// Removes `path` recursively; errors are ignored.
void RemoveDir(const std::string& path);

}  // namespace perfbench

#endif  // PERFBENCH_TOPOLOGY_H_

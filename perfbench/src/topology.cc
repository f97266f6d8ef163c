#include "topology.h"

#include <algorithm>
#include <filesystem>
#include <system_error>
#include <thread>

#include "live/mutation_log.h"
#include "net/protocol.h"
#include "net/protocol_client.h"

namespace perfbench {

using rcj::Result;
using rcj::Status;

rcj::Status ResetDir(const std::string& path) {
  std::error_code ec;
  std::filesystem::remove_all(path, ec);
  std::filesystem::create_directories(path, ec);
  if (ec) return Status::IoError("cannot create " + path + ": " + ec.message());
  return Status::OK();
}

void RemoveDir(const std::string& path) {
  std::error_code ec;
  std::filesystem::remove_all(path, ec);
}

namespace {

constexpr size_t kBackends = 2;
constexpr size_t kReplicas = 2;

rcj::ShardRouterOptions RouterOptions() {
  rcj::ShardRouterOptions router;
  router.num_shards = 1;
  router.service.engine.num_threads = BackendThreads();
  return router;
}

}  // namespace

size_t BackendThreads() {
  return std::max<size_t>(1, std::thread::hardware_concurrency() / 2);
}

Status Fleet::StartServing() {
  std::vector<rcj::fleet::BackendAddress> addresses;
  for (auto& router : routers_) {
    servers_.push_back(std::make_unique<rcj::NetServer>(router.get()));
    RINGJOIN_RETURN_IF_ERROR(servers_.back()->Start());
    addresses.push_back({"127.0.0.1", servers_.back()->port()});
  }
  rcj::fleet::FleetProxyOptions proxy_options;
  proxy_options.replicas = kReplicas;
  proxy_ = std::make_unique<rcj::fleet::FleetProxy>(std::move(addresses),
                                                    proxy_options);
  return proxy_->Start();
}

Result<std::unique_ptr<Fleet>> Fleet::StartStatic(
    const std::vector<EnvInput>& envs) {
  std::unique_ptr<Fleet> fleet(new Fleet());
  fleet->envs_per_backend_ = envs.size();
  for (size_t b = 0; b < kBackends; ++b) {
    fleet->routers_.push_back(
        std::make_unique<rcj::ShardRouter>(RouterOptions()));
    for (const EnvInput& input : envs) {
      Result<std::unique_ptr<rcj::RcjEnvironment>> built =
          rcj::RcjEnvironment::Build(input.q, input.p, rcj::RcjRunOptions{});
      if (!built.ok()) return built.status();
      fleet->envs_.push_back(std::move(built).value());
      RINGJOIN_RETURN_IF_ERROR(fleet->routers_.back()->RegisterEnvironment(
          input.name, fleet->envs_.back().get()));
    }
  }
  RINGJOIN_RETURN_IF_ERROR(fleet->StartServing());
  return fleet;
}

Result<std::unique_ptr<Fleet>> Fleet::StartLive(const EnvInput& input,
                                                const std::string& wal_root) {
  std::unique_ptr<Fleet> fleet(new Fleet());
  for (size_t b = 0; b < kBackends; ++b) {
    rcj::LiveOptions live_options;
    live_options.compact_threshold = kCompactThreshold;
    Result<std::unique_ptr<rcj::LiveEnvironment>> live =
        rcj::LiveEnvironment::Create(input.q, input.p, live_options);
    if (!live.ok()) return live.status();

    const std::string dir = wal_root + "/b" + std::to_string(b);
    RINGJOIN_RETURN_IF_ERROR(ResetDir(dir));
    rcj::MutationLogOptions log_options;
    log_options.dir = dir;
    log_options.sync_interval_ms = kWalSyncMs;
    rcj::WalRecovery recovery;
    Result<std::unique_ptr<rcj::MutationLog>> log =
        rcj::MutationLog::Open(log_options, &recovery);
    if (!log.ok()) return log.status();
    live.value()->AttachLog(std::move(log).value());

    fleet->lives_.push_back(std::move(live).value());
    fleet->routers_.push_back(
        std::make_unique<rcj::ShardRouter>(RouterOptions()));
    RINGJOIN_RETURN_IF_ERROR(fleet->routers_.back()->RegisterLiveEnvironment(
        input.name, fleet->lives_.back().get()));
  }
  RINGJOIN_RETURN_IF_ERROR(fleet->StartServing());
  return fleet;
}

Fleet::~Fleet() {
  if (proxy_ != nullptr) proxy_->Stop();
  for (auto& server : servers_) server->Stop();
}

WireResult WireQuery(uint16_t port, const std::string& env_name,
                     const QueryItem& item, bool trace) {
  WireResult result;
  result.traced = trace;
  result.start = NowS();
  Result<rcj::net::ProtocolClient> dialed =
      rcj::net::ProtocolClient::Connect("127.0.0.1", port);
  if (!dialed.ok()) {
    result.status = dialed.status();
    return result;
  }
  rcj::net::ProtocolClient client = std::move(dialed).value();
  result.dialed = NowS();

  rcj::net::WireRequest request;
  request.env_name = env_name;
  request.spec.algorithm = item.algo;
  request.spec.limit = item.limit;
  request.trace = trace;
  if (!client.SendLine(rcj::net::FormatRequestLine(request))) {
    result.status = Status::IoError("send failed");
    return result;
  }
  std::string line;
  if (!client.ReadLine(&line)) {
    result.status = Status::IoError("connection closed before OK");
    return result;
  }
  result.bytes += line.size() + 1;
  if (line != "OK") {
    Status error;
    const Status parsed = rcj::net::ParseErrLine(line, &error);
    result.status = parsed.ok() ? error : parsed;
    return result;
  }
  result.ok = NowS();
  rcj::RcjPair pair;
  while (true) {
    if (!client.ReadLine(&line)) {
      result.status = Status::IoError("connection closed mid-stream");
      return result;
    }
    result.bytes += line.size() + 1;
    if (line.rfind("PAIR ", 0) == 0) {
      const Status parsed = rcj::net::ParsePairLine(line, &pair);
      if (!parsed.ok()) {
        result.status = parsed;
        return result;
      }
      if (result.pairs == 0) result.first_pair = NowS();
      ++result.pairs;
      result.digest.Add(pair.p.id, pair.q.id);
      continue;
    }
    if (line.rfind("END", 0) == 0) {
      rcj::net::WireSummary summary;
      result.status = rcj::net::ParseEndLine(line, &summary);
      if (result.status.ok() && summary.pairs != result.pairs) {
        result.status = Status::Corruption("END counts a different stream");
      }
      break;
    }
    Status error;
    const Status parsed = rcj::net::ParseErrLine(line, &error);
    result.status = parsed.ok() ? error : parsed;
    return result;
  }
  result.end = NowS();
  if (result.pairs == 0) result.first_pair = result.end;
  while (trace && result.status.ok()) {
    if (!client.ReadLine(&line)) {
      result.status = Status::IoError("connection closed before ENDTRACE");
      break;
    }
    if (line.rfind("ENDTRACE", 0) == 0) break;
    if (line.rfind("TRACE ", 0) != 0) {
      result.status = Status::Corruption("unexpected line after END: " + line);
      break;
    }
    ++result.trace_spans;
  }
  if (trace && result.status.ok() && result.trace_spans == 0) {
    result.status = Status::Corruption("traced query returned no spans");
  }
  result.done = NowS();
  return result;
}

rcj::net::WireMutation ToWire(const MutationItem& item,
                              const std::string& env_name) {
  rcj::net::WireMutation mutation;
  mutation.op = item.insert ? rcj::net::WireMutationOp::kInsert
                            : rcj::net::WireMutationOp::kDelete;
  mutation.env_name = env_name;
  mutation.side = item.side;
  mutation.rec = item.rec;
  return mutation;
}

}  // namespace perfbench

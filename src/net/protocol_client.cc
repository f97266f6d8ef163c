#include "net/protocol_client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "common/macros.h"

namespace rcj {
namespace net {
namespace {

/// The error an unexpected response line carries: its transported Status
/// when it is an ERR line, Corruption(`unexpected`) otherwise.
Status Transported(const std::string& line, const std::string& unexpected) {
  Status status = Status::Corruption(unexpected);
  ParseErrLine(line, &status);
  return status;
}

}  // namespace

Result<int> DialTcp(const std::string& host, uint16_t port) {
  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("bad host '" + host + "'");
  }
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::IoError(std::string("socket: ") + std::strerror(errno));
  }
  if (connect(fd, reinterpret_cast<struct sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    const int err = errno;
    close(fd);
    return Status::IoError("connect " + host + ":" + std::to_string(port) +
                           ": " + std::strerror(err));
  }
  return fd;
}

ProtocolClient::ProtocolClient(int fd) : fd_(fd), reader_(fd) {}

Result<ProtocolClient> ProtocolClient::Connect(const std::string& host,
                                               uint16_t port) {
  Result<int> fd = DialTcp(host, port);
  if (!fd.ok()) return fd.status();
  return ProtocolClient(fd.value());
}

ProtocolClient::~ProtocolClient() { Close(); }

ProtocolClient::ProtocolClient(ProtocolClient&& other) noexcept
    : fd_(other.fd_), reader_(other.reader_) {
  other.fd_ = -1;
}

ProtocolClient& ProtocolClient::operator=(ProtocolClient&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = other.fd_;
    reader_ = other.reader_;
    other.fd_ = -1;
  }
  return *this;
}

void ProtocolClient::Close() {
  if (fd_ >= 0) {
    close(fd_);
    fd_ = -1;
  }
}

bool ProtocolClient::SendLine(const std::string& line) {
  if (fd_ < 0) return false;
  return SendAll(fd_, line + "\n");
}

bool ProtocolClient::ReadLine(std::string* line) {
  if (fd_ < 0) return false;
  return reader_.ReadLine(line);
}

Status ProtocolClient::CloseWith(Status status) {
  Close();
  return status;
}

Status ProtocolClient::Open(const std::string& line, const char* what) {
  if (!SendLine(line)) {
    return CloseWith(Status::IoError(std::string(what) +
                                     ": send failed, connection lost"));
  }
  std::string ack;
  if (!ReadLine(&ack)) {
    return CloseWith(Status::IoError(
        std::string(what) + ": connection closed before a response"));
  }
  if (ack == "OK") return Status::OK();
  return CloseWith(Transported(
      ack, std::string(what) + ": expected OK, got '" + ack + "'"));
}

Status ProtocolClient::RunQuery(
    const WireRequest& request,
    const std::function<bool(const std::string& pair_line)>& on_pair,
    WireSummary* summary, std::vector<WireTraceSpan>* trace) {
  RINGJOIN_RETURN_IF_ERROR(Open(FormatRequestLine(request), "query"));
  uint64_t pairs = 0;
  std::string line;
  for (;;) {
    if (!ReadLine(&line)) {
      return CloseWith(Status::IoError("query: connection lost after " +
                                       std::to_string(pairs) + " pairs"));
    }
    if (line.rfind("END", 0) == 0) break;
    if (line.rfind("PAIR ", 0) != 0) {
      return CloseWith(Transported(
          line, "query: unexpected line '" + line + "' in pair stream"));
    }
    ++pairs;
    if (on_pair && !on_pair(line)) {
      return CloseWith(Status::Cancelled("query: abandoned after " +
                                         std::to_string(pairs) + " pairs"));
    }
  }
  WireSummary parsed;
  Status status = ParseEndLine(line, &parsed);
  if (!status.ok()) return CloseWith(status);
  if (parsed.pairs != pairs) {
    return CloseWith(Status::Corruption(
        "query: END reports " + std::to_string(parsed.pairs) +
        " pairs but " + std::to_string(pairs) + " were streamed"));
  }
  if (summary) *summary = parsed;
  if (!request.trace) return CloseWith(Status::OK());

  // trace=1: the span tree rides after END, closed by ENDTRACE.
  uint64_t rows = 0;
  for (;;) {
    if (!ReadLine(&line)) {
      return CloseWith(Status::IoError("query: connection lost after " +
                                       std::to_string(rows) + " trace rows"));
    }
    if (IsTraceEndLine(line)) break;
    WireTraceSpan span;
    status = ParseTraceLine(line, &span);
    if (!status.ok()) return CloseWith(status);
    ++rows;
    if (trace) trace->push_back(std::move(span));
  }
  std::string id;
  uint64_t spans = 0;
  status = ParseTraceEndLine(line, &id, &spans);
  if (status.ok() && spans != rows) {
    status = Status::Corruption("query: ENDTRACE reports " +
                                std::to_string(spans) + " spans but " +
                                std::to_string(rows) + " were streamed");
  }
  return CloseWith(status);
}

Status ProtocolClient::Mutate(const WireMutation& mutation,
                              WireMutationAck* ack) {
  RINGJOIN_RETURN_IF_ERROR(Open(FormatMutationLine(mutation), "mutation"));
  std::string line;
  if (!ReadLine(&line)) {
    return CloseWith(
        Status::IoError("mutation: connection closed before MUT"));
  }
  WireMutationAck parsed;
  const Status status = ParseMutationAckLine(line, &parsed);
  if (!status.ok()) return CloseWith(status);
  if (ack) *ack = parsed;
  return Status::OK();  // connection stays open for the next Mutate().
}

Status ProtocolClient::Stats(std::vector<WireShardStats>* shards,
                             std::vector<WireEnvStats>* envs) {
  RINGJOIN_RETURN_IF_ERROR(Open("STATS", "stats"));
  uint64_t shard_rows = 0;
  uint64_t env_rows = 0;
  std::string line;
  for (;;) {
    if (!ReadLine(&line)) {
      return CloseWith(
          Status::IoError("stats: connection lost before ENDSTATS"));
    }
    if (line.rfind("SHARD ", 0) == 0) {
      WireShardStats row;
      const Status status = ParseShardStatsLine(line, &row);
      if (!status.ok()) return CloseWith(status);
      ++shard_rows;
      if (shards) shards->push_back(row);
    } else if (line.rfind("ENV ", 0) == 0) {
      WireEnvStats row;
      const Status status = ParseEnvStatsLine(line, &row);
      if (!status.ok()) return CloseWith(status);
      ++env_rows;
      if (envs) envs->push_back(row);
    } else if (line.rfind("ENDSTATS", 0) == 0) {
      break;
    } else {
      return CloseWith(Transported(
          line, "stats: unexpected line '" + line + "' in response"));
    }
  }
  uint64_t total_shards = 0;
  uint64_t total_envs = 0;
  Status status = ParseStatsEndLine(line, &total_shards, &total_envs);
  if (status.ok() && (total_shards != shard_rows || total_envs != env_rows)) {
    status = Status::Corruption(
        "stats: ENDSTATS reports " + std::to_string(total_shards) +
        " shards / " + std::to_string(total_envs) + " envs but " +
        std::to_string(shard_rows) + " / " + std::to_string(env_rows) +
        " rows were streamed");
  }
  return CloseWith(status);
}

Status ProtocolClient::Metrics(std::vector<std::string>* lines) {
  RINGJOIN_RETURN_IF_ERROR(Open("METRICS", "metrics"));
  uint64_t streamed = 0;
  std::string line;
  for (;;) {
    if (!ReadLine(&line)) {
      return CloseWith(
          Status::IoError("metrics: connection lost before ENDMETRICS"));
    }
    if (line.rfind("ENDMETRICS", 0) == 0) break;
    ++streamed;
    if (lines) lines->push_back(line);
  }
  uint64_t reported = 0;
  Status status = ParseMetricsEndLine(line, &reported);
  if (status.ok() && reported != streamed) {
    status = Status::Corruption("metrics: ENDMETRICS reports " +
                                std::to_string(reported) + " lines but " +
                                std::to_string(streamed) +
                                " were streamed");
  }
  return CloseWith(status);
}

Status ProtocolClient::Epoch(const std::string& env_name, uint64_t* epoch) {
  RINGJOIN_RETURN_IF_ERROR(Open(FormatEpochRequestLine(env_name), "epoch"));
  std::string line;
  if (!ReadLine(&line)) {
    return CloseWith(
        Status::IoError("epoch: connection closed before the row"));
  }
  std::string got_env;
  Status status = ParseEpochResponseLine(line, &got_env, epoch);
  if (status.ok() && got_env != env_name) {
    status = Status::Corruption("epoch probe for '" + env_name +
                                "' answered for '" + got_env + "'");
  }
  return CloseWith(status);
}

}  // namespace net
}  // namespace rcj

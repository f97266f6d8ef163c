// Client side of the ringjoin wire protocol — the consuming counterpart
// of NetServer, and the only client in the tree: `rcj_tool client`, the
// fleet proxy, the examples and the benches all dial, frame requests and
// parse responses (OK/PAIR/END/ERR, TRACE, MUT, STATS, METRICS, EPOCH)
// through it.
//
// Two API levels:
//   * raw lines (SendLine/ReadLine) — what the fleet proxy uses to relay
//     responses verbatim without re-serializing (byte-identical streams
//     are the contract the CI smoke `cmp`s);
//   * typed calls (RunQuery/Mutate/Stats/Metrics/Epoch) — what the CLI,
//     the examples and the benches use.
//
// One client owns one connection. Queries, STATS, METRICS and EPOCH
// consume it (the server ends the conversation after the terminator);
// mutations keep it open, so a mutation batch is a loop of Mutate() calls
// on one client.
#ifndef RINGJOIN_NET_PROTOCOL_CLIENT_H_
#define RINGJOIN_NET_PROTOCOL_CLIENT_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/status.h"
#include "net/line_reader.h"
#include "net/protocol.h"
#include "net/tcp.h"

namespace rcj {
namespace net {

/// One protocol conversation with a ringjoin server (or fleet proxy —
/// the proxy is transparent by construction). Move-only; closes its fd on
/// destruction.
class ProtocolClient {
 public:
  /// Adopts an already-connected socket (takes ownership of `fd`).
  explicit ProtocolClient(int fd);

  /// Dials and wraps in one step.
  static Result<ProtocolClient> Connect(const std::string& host,
                                        uint16_t port);

  ~ProtocolClient();
  ProtocolClient(ProtocolClient&& other) noexcept;
  ProtocolClient& operator=(ProtocolClient&& other) noexcept;
  ProtocolClient(const ProtocolClient&) = delete;
  ProtocolClient& operator=(const ProtocolClient&) = delete;

  /// True while the connection is usable (dialed and no hard send/recv
  /// failure observed yet).
  bool connected() const { return fd_ >= 0; }

  /// The underlying fd (for poll()-style integration); -1 once closed.
  int fd() const { return fd_; }

  /// Closes the connection now (idempotent).
  void Close();

  // --- raw line level -----------------------------------------------------

  /// Sends one request line (LF appended). False once the peer is gone.
  bool SendLine(const std::string& line);

  /// Reads the next response line (LF consumed, CR stripped). False on
  /// EOF or a hard error before a complete line.
  bool ReadLine(std::string* line);

  // --- typed conversations ------------------------------------------------

  /// Runs one query: sends the QUERY line, expects `OK`, then streams
  /// every PAIR line to `on_pair` (the raw line, so callers may relay
  /// verbatim or ParsePairLine as needed), and parses the END summary
  /// into `*summary`. A server-side `ERR` is returned as its transported
  /// Status (e.g. Overloaded); a connection that dies mid-stream is
  /// IoError with the count of pairs already received in the message.
  /// `on_pair` returning false abandons the stream (the connection is
  /// closed — the server maps the disconnect onto cancellation) and
  /// returns Cancelled. `on_pair` may be null to discard pairs (summary
  /// still counts them). When `request.trace` is set, the span block
  /// after END is read too: its TRACE rows go to `*trace` (may be null),
  /// and an ENDTRACE count that disagrees with them is Corruption. The
  /// connection is consumed either way.
  Status RunQuery(const WireRequest& request,
                  const std::function<bool(const std::string& pair_line)>&
                      on_pair,
                  WireSummary* summary,
                  std::vector<WireTraceSpan>* trace = nullptr);

  /// Applies one mutation: sends the INSERT/DELETE/COMPACT line, expects
  /// `OK` + `MUT` and parses the acknowledgement into `*ack` (may be
  /// null). On success the connection stays open for the next Mutate()
  /// call — a batch is a loop over one client. A server `ERR` closes the
  /// conversation (the server drops the connection after an error) and is
  /// returned as the transported Status.
  Status Mutate(const WireMutation& mutation, WireMutationAck* ack);

  /// Fetches server statistics: sends `STATS`, expects `OK`, collects
  /// every SHARD row into `*shards` and every ENV row into `*envs`
  /// (either may be null), and validates the ENDSTATS totals against the
  /// received row counts (Corruption on mismatch). Consumes the
  /// connection.
  Status Stats(std::vector<WireShardStats>* shards,
               std::vector<WireEnvStats>* envs);

  /// Scrapes the metrics exposition: sends `METRICS`, expects `OK`, and
  /// collects every exposition line (comments included) into `*lines`
  /// (may be null) until ENDMETRICS, whose count must match (Corruption
  /// otherwise). Consumes the connection.
  Status Metrics(std::vector<std::string>* lines);

  /// Probes one environment's mutation epoch: sends `EPOCH [env=name]`,
  /// expects `OK` plus the epoch row, and stores its epoch in `*epoch`.
  /// A row for another environment is Corruption. Consumes the
  /// connection.
  Status Epoch(const std::string& env_name, uint64_t* epoch);

 private:
  /// Sends `line` and reads the OK/ERR acknowledgement every
  /// conversation opens with. OK() when acknowledged; the transported
  /// error for ERR; IoError/Corruption otherwise (the connection is then
  /// closed). `what` names the conversation in error messages.
  Status Open(const std::string& line, const char* what);

  /// Closes the connection and returns `status` (error-path shorthand).
  Status CloseWith(Status status);

  int fd_ = -1;
  LineReader reader_;
};

}  // namespace net
}  // namespace rcj

#endif  // RINGJOIN_NET_PROTOCOL_CLIENT_H_

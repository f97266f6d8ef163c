// Properties of the key=value record codec over every line kind it
// serves. Random records drawn from a fixed seed (so a failure replays)
// must survive format -> parse unchanged, including uint64 extremes,
// negative ids, doubles that need all 17 digits, and names at their
// charset and length limits. The ordering rule is checked on the same
// kinds: a request line with permuted keys parses to the same record, a
// response line with permuted keys is rejected, and every kind rejects
// duplicate, unknown and missing keys.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <initializer_list>
#include <limits>
#include <random>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "net/protocol.h"

namespace rcj {
namespace net {
namespace {

constexpr uint64_t kSeed = 20080325;
constexpr int kRounds = 400;

/// Seeded value draws, biased toward the edges of each wire type.
class Draw {
 public:
  Draw() : rng_(kSeed) {}

  uint64_t U64() {
    constexpr uint64_t kMax = std::numeric_limits<uint64_t>::max();
    switch (rng_() % 4) {
      case 0:
        return Pick<uint64_t>({0, 1, kMax, kMax - 1});
      case 1:
        return rng_() % 1000;
      default:
        return rng_();
    }
  }

  int64_t I64() {
    if (rng_() % 4 == 0) {
      return Pick<int64_t>({std::numeric_limits<int64_t>::min(),
                            std::numeric_limits<int64_t>::max(), -1, 0});
    }
    return static_cast<int64_t>(rng_());
  }

  /// Any finite double; %.17g must carry it exactly.
  double Exact() {
    if (rng_() % 4 == 0) {
      return Pick<double>({0.1, 2.0 / 3.0, -0.0, 5e-324,
                           std::numeric_limits<double>::max(),
                           -std::numeric_limits<double>::max()});
    }
    for (;;) {
      const uint64_t bits = rng_();
      double value;
      std::memcpy(&value, &bits, sizeof(value));
      if (std::isfinite(value)) return value;
    }
  }

  /// A double with at most nine significant digits, which %.9g (the
  /// trace timings' precision) carries exactly.
  double Nine() {
    const std::string text = std::to_string(rng_() % 1000000000) + "e-" +
                             std::to_string(rng_() % 12);
    return std::strtod(text.c_str(), nullptr);
  }

  bool Bool() { return rng_() % 2 == 0; }

  /// 1..max_length chars of the env-name / trace-id charset.
  std::string Name(size_t max_length) {
    static const char kCharset[] =
        "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_.-";
    const size_t length =
        rng_() % 3 == 0 ? max_length : 1 + rng_() % max_length;
    std::string name;
    for (size_t i = 0; i < length; ++i) {
      name += kCharset[rng_() % (sizeof(kCharset) - 1)];
    }
    return name;
  }

  template <typename T>
  T Pick(std::initializer_list<T> values) {
    return values.begin()[rng_() % values.size()];
  }

 private:
  std::mt19937_64 rng_;
};

// The line kinds whose public API takes separate out-params, as records.
struct StatsEnd {
  uint64_t shards = 0;
  uint64_t envs = 0;
};
struct TraceEnd {
  std::string id;
  uint64_t spans = 0;
};
struct MetricsEnd {
  uint64_t lines = 0;
};
struct EpochRequest {
  std::string env = "default";
};
struct EpochResponse {
  std::string env;
  uint64_t epoch = 0;
};

auto Tie(const WireRequest& r) {
  return std::tie(r.env_name, r.spec.algorithm, r.spec.order, r.spec.verify,
                  r.spec.random_seed, r.spec.limit, r.spec.io_ms_per_fault,
                  r.deadline_ms, r.trace, r.trace_id);
}
auto Tie(const WireMutation& m) {
  return std::tie(m.op, m.env_name, m.side, m.rec.id, m.rec.pt.x,
                  m.rec.pt.y);
}
auto Tie(const WireSummary& s) {
  return std::tie(s.pairs, s.stats.candidates, s.stats.results,
                  s.stats.node_accesses, s.stats.page_faults,
                  s.stats.cold_faults, s.stats.warm_faults,
                  s.stats.io_seconds, s.stats.io_wall_seconds,
                  s.stats.cpu_seconds);
}
auto Tie(const WireShardStats& s) {
  return std::tie(s.shard, s.environments, s.queued, s.inflight,
                  s.submitted, s.admitted, s.shed, s.completed, s.cancelled,
                  s.failed);
}
auto Tie(const WireEnvStats& s) {
  return std::tie(s.name, s.shard, s.live, s.generation, s.epoch, s.delta,
                  s.tombstones, s.compactions, s.base_q, s.base_p);
}
auto Tie(const WireMutationAck& a) {
  return std::tie(a.op, a.env_name, a.epoch, a.generation, a.delta,
                  a.tombstones, a.compactions);
}
auto Tie(const WireTraceSpan& s) {
  return std::tie(s.id, s.depth, s.span, s.count, s.total_s, s.start_s);
}
auto Tie(const StatsEnd& r) { return std::tie(r.shards, r.envs); }
auto Tie(const TraceEnd& r) { return std::tie(r.id, r.spans); }
auto Tie(const MetricsEnd& r) { return std::tie(r.lines); }
auto Tie(const EpochRequest& r) { return std::tie(r.env); }
auto Tie(const EpochResponse& r) { return std::tie(r.env, r.epoch); }

/// One line kind under test.
template <typename T>
struct Kind {
  std::function<T(Draw&)> draw;
  std::function<std::string(const T&)> format;
  std::function<Status(const std::string&, T*)> parse;
};

template <typename T>
void ExpectRoundTrips(const Kind<T>& kind) {
  Draw draw;
  for (int round = 0; round < kRounds; ++round) {
    const T original = kind.draw(draw);
    const std::string line = kind.format(original);
    T parsed;
    const Status status = kind.parse(line, &parsed);
    ASSERT_TRUE(status.ok()) << line << ": " << status.ToString();
    ASSERT_TRUE(Tie(parsed) == Tie(original)) << line;
  }
}

WireRequest DrawQuery(Draw& d) {
  WireRequest r;
  r.env_name = d.Name(16);
  r.spec.algorithm = d.Pick({RcjAlgorithm::kBrute, RcjAlgorithm::kInj,
                             RcjAlgorithm::kBij, RcjAlgorithm::kObj});
  r.spec.order = d.Pick({SearchOrder::kDepthFirst, SearchOrder::kRandom});
  r.spec.verify = d.Bool();
  r.spec.random_seed = d.U64();
  r.spec.limit = d.U64();
  r.spec.io_ms_per_fault = std::fabs(d.Exact());
  r.deadline_ms = d.Bool() ? 0 : 1 + d.U64() / 2;
  r.trace = d.Bool();
  r.trace_id = d.Bool() ? "" : d.Name(64);
  return r;
}

WireMutation DrawMutation(Draw& d) {
  WireMutation m;
  m.op = d.Pick({WireMutationOp::kInsert, WireMutationOp::kDelete,
                 WireMutationOp::kCompact});
  m.env_name = d.Name(16);
  // Fields an op does not own stay at their defaults.
  if (m.op != WireMutationOp::kCompact) {
    m.side = d.Pick({LiveSide::kQ, LiveSide::kP});
    m.rec.id = d.I64();
  }
  if (m.op == WireMutationOp::kInsert) {
    m.rec.pt = Point{d.Exact(), d.Exact()};
  }
  return m;
}

WireSummary DrawEnd(Draw& d) {
  WireSummary s;
  for (uint64_t* field :
       {&s.pairs, &s.stats.candidates, &s.stats.results,
        &s.stats.node_accesses, &s.stats.page_faults, &s.stats.cold_faults,
        &s.stats.warm_faults}) {
    *field = d.U64();
  }
  s.stats.io_seconds = d.Exact();
  s.stats.io_wall_seconds = d.Exact();
  s.stats.cpu_seconds = d.Exact();
  return s;
}

WireShardStats DrawShard(Draw& d) {
  WireShardStats s;
  for (uint64_t* field :
       {&s.shard, &s.environments, &s.queued, &s.inflight, &s.submitted,
        &s.admitted, &s.shed, &s.completed, &s.cancelled, &s.failed}) {
    *field = d.U64();
  }
  return s;
}

WireEnvStats DrawEnv(Draw& d) {
  WireEnvStats s;
  s.name = d.Name(16);
  s.live = d.Bool();
  for (uint64_t* field : {&s.shard, &s.generation, &s.epoch, &s.delta,
                          &s.tombstones, &s.compactions, &s.base_q,
                          &s.base_p}) {
    *field = d.U64();
  }
  return s;
}

WireMutationAck DrawMutationAck(Draw& d) {
  WireMutationAck a;
  a.op = d.Pick({WireMutationOp::kInsert, WireMutationOp::kDelete,
                 WireMutationOp::kCompact});
  a.env_name = d.Name(16);
  for (uint64_t* field :
       {&a.epoch, &a.generation, &a.delta, &a.tombstones, &a.compactions}) {
    *field = d.U64();
  }
  return a;
}

WireTraceSpan DrawTrace(Draw& d) {
  WireTraceSpan s;
  s.id = d.Name(64);
  s.depth = d.U64();
  s.span = d.Name(24);
  s.count = d.U64();
  s.total_s = d.Nine();
  s.start_s = d.Nine();
  return s;
}

StatsEnd DrawStatsEnd(Draw& d) { return StatsEnd{d.U64(), d.U64()}; }
std::string FormatStatsEnd(const StatsEnd& r) {
  return FormatStatsEndLine(r.shards, r.envs);
}
Status ParseStatsEnd(const std::string& line, StatsEnd* r) {
  return ParseStatsEndLine(line, &r->shards, &r->envs);
}

TraceEnd DrawTraceEnd(Draw& d) { return TraceEnd{d.Name(64), d.U64()}; }
std::string FormatTraceEnd(const TraceEnd& r) {
  return FormatTraceEndLine(r.id, r.spans);
}
Status ParseTraceEnd(const std::string& line, TraceEnd* r) {
  return ParseTraceEndLine(line, &r->id, &r->spans);
}

MetricsEnd DrawMetricsEnd(Draw& d) { return MetricsEnd{d.U64()}; }
std::string FormatMetricsEnd(const MetricsEnd& r) {
  return FormatMetricsEndLine(r.lines);
}
Status ParseMetricsEnd(const std::string& line, MetricsEnd* r) {
  return ParseMetricsEndLine(line, &r->lines);
}

EpochRequest DrawEpochRequest(Draw& d) { return EpochRequest{d.Name(16)}; }
std::string FormatEpochRequest(const EpochRequest& r) {
  return FormatEpochRequestLine(r.env);
}
Status ParseEpochRequest(const std::string& line, EpochRequest* r) {
  return ParseEpochRequestLine(line, &r->env);
}

EpochResponse DrawEpochResponse(Draw& d) {
  return EpochResponse{d.Name(16), d.U64()};
}
std::string FormatEpochResponse(const EpochResponse& r) {
  return FormatEpochResponseLine(r.env, r.epoch);
}
Status ParseEpochResponse(const std::string& line, EpochResponse* r) {
  return ParseEpochResponseLine(line, &r->env, &r->epoch);
}

const Kind<WireRequest> kQuery{DrawQuery, FormatRequestLine,
                               ParseRequestLine};
const Kind<WireMutation> kMutation{DrawMutation, FormatMutationLine,
                                   ParseMutationLine};
const Kind<EpochRequest> kEpochRequest{DrawEpochRequest, FormatEpochRequest,
                                       ParseEpochRequest};
const Kind<WireSummary> kEnd{DrawEnd, FormatEndLine, ParseEndLine};
const Kind<WireShardStats> kShard{DrawShard, FormatShardStatsLine,
                                  ParseShardStatsLine};
const Kind<WireEnvStats> kEnv{DrawEnv, FormatEnvStatsLine, ParseEnvStatsLine};
const Kind<StatsEnd> kStatsEnd{DrawStatsEnd, FormatStatsEnd, ParseStatsEnd};
const Kind<WireMutationAck> kMutationAck{DrawMutationAck, FormatMutationAckLine,
                                         ParseMutationAckLine};
const Kind<WireTraceSpan> kTrace{DrawTrace, FormatTraceLine, ParseTraceLine};
const Kind<TraceEnd> kTraceEnd{DrawTraceEnd, FormatTraceEnd, ParseTraceEnd};
const Kind<MetricsEnd> kMetricsEnd{DrawMetricsEnd, FormatMetricsEnd,
                                   ParseMetricsEnd};
const Kind<EpochResponse> kEpochResponse{DrawEpochResponse,
                                         FormatEpochResponse,
                                         ParseEpochResponse};

TEST(ProtocolCodecTest, EveryKindRoundTripsSeededRecords) {
  ExpectRoundTrips(kQuery);
  ExpectRoundTrips(kMutation);
  ExpectRoundTrips(kEpochRequest);
  ExpectRoundTrips(kEnd);
  ExpectRoundTrips(kShard);
  ExpectRoundTrips(kEnv);
  ExpectRoundTrips(kStatsEnd);
  ExpectRoundTrips(kMutationAck);
  ExpectRoundTrips(kTrace);
  ExpectRoundTrips(kTraceEnd);
  ExpectRoundTrips(kMetricsEnd);
  ExpectRoundTrips(kEpochResponse);
}

/// One line kind seen as text: a line with every key present, whether it
/// is a request, the keys it may omit, and a parse that re-formats.
struct TextKind {
  std::string full;
  bool request;
  std::vector<std::string> optional;
  std::function<Status(const std::string&, std::string*)> reformat;
};

template <typename T>
TextKind Text(const Kind<T>& kind, std::string full, bool request,
              std::vector<std::string> optional) {
  return {std::move(full), request, std::move(optional),
          [kind](const std::string& line, std::string* out) {
            T parsed;
            const Status status = kind.parse(line, &parsed);
            if (status.ok()) *out = kind.format(parsed);
            return status;
          }};
}

std::vector<std::string> Split(const std::string& line) {
  std::istringstream in(line);
  std::vector<std::string> tokens;
  for (std::string token; in >> token;) tokens.push_back(token);
  return tokens;
}

std::string Join(const std::vector<std::string>& tokens) {
  std::string line;
  for (const std::string& token : tokens) {
    if (!line.empty()) line += ' ';
    line += token;
  }
  return line;
}

std::vector<TextKind> TextKinds() {
  return {
      Text(kQuery,
           "QUERY env=hubs algo=inj order=random verify=0 seed=7 limit=25 "
           "io_ms=2.5 deadline_ms=100 trace=1 trace_id=t.1",
           true,
           {"env", "algo", "order", "verify", "seed", "limit", "io_ms",
            "deadline_ms", "trace", "trace_id"}),
      Text(kMutation, "INSERT env=west side=p id=-12 x=0.5 y=-3", true,
           {"env"}),
      Text(kMutation, "DELETE env=west side=q id=9", true, {"env"}),
      Text(kMutation, "COMPACT env=west", true, {"env"}),
      Text(kEpochRequest, "EPOCH env=west", true, {"env"}),
      Text(kEnd,
           "END pairs=1 candidates=2 results=1 node_accesses=3 faults=4 "
           "cold_faults=1 warm_faults=3 io_s=0.5 io_wall_s=0.25 cpu_s=0.125",
           false, {}),
      Text(kShard,
           "SHARD 0 envs=1 queued=2 inflight=3 submitted=9 admitted=8 shed=1 "
           "completed=6 cancelled=1 failed=1",
           false, {}),
      Text(kEnv,
           "ENV west shard=1 live=1 generation=2 epoch=3 delta=4 "
           "tombstones=5 compactions=6 base_q=7 base_p=8",
           false, {}),
      Text(kStatsEnd, "ENDSTATS shards=2 envs=3", false, {}),
      Text(kMutationAck,
           "MUT op=insert env=west epoch=3 generation=2 delta=1 tombstones=0 "
           "compactions=0",
           false, {}),
      Text(kTrace,
           "TRACE id=t.1 depth=1 span=exec count=2 total_s=0.5 start_s=0.25",
           false, {}),
      Text(kTraceEnd, "ENDTRACE id=t.1 spans=4", false, {}),
      Text(kMetricsEnd, "ENDMETRICS lines=12", false, {}),
      Text(kEpochResponse, "EPOCH env=west epoch=5", false, {}),
  };
}

TEST(ProtocolCodecTest, RequestsAcceptAnyKeyOrderResponsesDoNot) {
  for (const TextKind& kind : TextKinds()) {
    std::string canonical;
    ASSERT_TRUE(kind.reformat(kind.full, &canonical).ok()) << kind.full;
    std::vector<std::string> tokens = Split(kind.full);
    // Reverse the key=value tokens; bare leading values keep their place.
    auto first_keyed = tokens.begin() + 1;
    while (first_keyed != tokens.end() &&
           first_keyed->find('=') == std::string::npos) {
      ++first_keyed;
    }
    if (tokens.end() - first_keyed < 2) continue;  // nothing to permute
    std::reverse(first_keyed, tokens.end());
    const std::string permuted = Join(tokens);
    std::string reformatted;
    const Status status = kind.reformat(permuted, &reformatted);
    if (kind.request) {
      ASSERT_TRUE(status.ok()) << permuted << ": " << status.ToString();
      EXPECT_EQ(reformatted, canonical) << permuted;
    } else {
      EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << permuted;
    }
  }
}

TEST(ProtocolCodecTest, EveryKindRejectsDuplicateUnknownAndMissingKeys) {
  for (const TextKind& kind : TextKinds()) {
    std::string ignored;
    const std::vector<std::string> tokens = Split(kind.full);
    EXPECT_FALSE(kind.reformat(kind.full + " bonus=1", &ignored).ok())
        << kind.full;
    for (size_t i = 1; i < tokens.size(); ++i) {
      const size_t eq = tokens[i].find('=');
      if (eq != std::string::npos) {
        EXPECT_FALSE(
            kind.reformat(kind.full + " " + tokens[i], &ignored).ok())
            << "duplicate " << tokens[i] << " in " << kind.full;
      }
      const std::string key =
          eq == std::string::npos ? "" : tokens[i].substr(0, eq);
      bool optional = false;
      for (const std::string& name : kind.optional) optional |= name == key;
      if (optional) continue;
      std::vector<std::string> without = tokens;
      without.erase(without.begin() + static_cast<std::ptrdiff_t>(i));
      EXPECT_FALSE(kind.reformat(Join(without), &ignored).ok())
          << "missing " << tokens[i] << " in " << kind.full;
    }
  }
}

}  // namespace
}  // namespace net
}  // namespace rcj

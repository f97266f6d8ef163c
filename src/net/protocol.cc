#include "net/protocol.h"

#include <array>
#include <cerrno>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <type_traits>
#include <vector>

#include "common/macros.h"

namespace rcj {
namespace net {
namespace {

bool IsBlank(char c) { return c == ' ' || c == '\t'; }
bool IsLineEnd(char c) { return c == '\n' || c == '\r'; }

/// Splits on runs of spaces/tabs and drops a trailing CR, so both strict
/// clients and interactive netcat sessions (which send CRLF) parse alike.
std::vector<std::string> Tokenize(const std::string& line) {
  std::vector<std::string> tokens;
  std::string current;
  for (char c : line) {
    if (IsLineEnd(c)) break;
    if (IsBlank(c)) {
      if (!current.empty()) tokens.push_back(std::move(current));
      current.clear();
    } else {
      current.push_back(c);
    }
  }
  if (!current.empty()) tokens.push_back(std::move(current));
  return tokens;
}

/// Verb dispatch without tokenizing (NetServer and FleetProxy test every
/// request line): true iff the first token of `line` is `verb`, and with
/// `alone` iff nothing but blanks follows it. Same whitespace and CR
/// tolerance as Tokenize.
bool FirstTokenIs(const std::string& line, const char* verb, bool alone) {
  size_t i = 0;
  while (i < line.size() && IsBlank(line[i])) ++i;
  const size_t length = std::strlen(verb);
  if (line.compare(i, length, verb) != 0) return false;
  i += length;
  if (i < line.size() && !IsBlank(line[i]) && !IsLineEnd(line[i])) {
    return false;
  }
  if (!alone) return true;
  while (i < line.size() && IsBlank(line[i])) ++i;
  return i == line.size() || IsLineEnd(line[i]);
}

bool IsEnvName(const std::string& name) {
  if (name.empty()) return false;
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '-' ||
                    c == '.';
    if (!ok) return false;
  }
  return true;
}

/// One wire spelling of an enum value; each table below is the single
/// source of truth for its enum's spellings.
template <typename E>
struct Spelling {
  E value;
  const char* name;
};

template <typename E, size_t N>
const char* NameOf(const Spelling<E> (&table)[N], E value) {
  for (const Spelling<E>& entry : table) {
    if (entry.value == value) return entry.name;
  }
  return "?";
}

template <typename E, size_t N>
bool ValueOf(const Spelling<E> (&table)[N], const std::string& name,
             E* value) {
  for (const Spelling<E>& entry : table) {
    if (name == entry.name) {
      *value = entry.value;
      return true;
    }
  }
  return false;
}

constexpr Spelling<RcjAlgorithm> kAlgorithms[] = {
    {RcjAlgorithm::kBrute, "brute"},
    {RcjAlgorithm::kInj, "inj"},
    {RcjAlgorithm::kBij, "bij"},
    {RcjAlgorithm::kObj, "obj"},
};

constexpr Spelling<SearchOrder> kOrders[] = {
    {SearchOrder::kDepthFirst, "dfs"},
    {SearchOrder::kRandom, "random"},
};

constexpr Spelling<WireMutationOp> kMutationOps[] = {
    {WireMutationOp::kInsert, "insert"},
    {WireMutationOp::kDelete, "delete"},
    {WireMutationOp::kCompact, "compact"},
};

constexpr Spelling<WireMutationOp> kMutationVerbs[] = {
    {WireMutationOp::kInsert, "INSERT"},
    {WireMutationOp::kDelete, "DELETE"},
    {WireMutationOp::kCompact, "COMPACT"},
};

/// ERR codes: the wire spelling of each error code and the factory that
/// rebuilds it on the receiving side.
struct ErrCode {
  StatusCode code;
  const char* name;
  Status (*make)(std::string message);
};

constexpr ErrCode kErrCodes[] = {
    {StatusCode::kInvalidArgument, "InvalidArgument", &Status::InvalidArgument},
    {StatusCode::kNotFound, "NotFound", &Status::NotFound},
    {StatusCode::kIoError, "IoError", &Status::IoError},
    {StatusCode::kCorruption, "Corruption", &Status::Corruption},
    {StatusCode::kNotSupported, "NotSupported", &Status::NotSupported},
    {StatusCode::kOutOfRange, "OutOfRange", &Status::OutOfRange},
    {StatusCode::kCancelled, "Cancelled", &Status::Cancelled},
    {StatusCode::kOverloaded, "Overloaded", &Status::Overloaded},
    {StatusCode::kDeadlineExceeded, "DeadlineExceeded",
     &Status::DeadlineExceeded},
};

// ---- The key=value record codec ------------------------------------------
//
// Every key=value line kind is a schema: an array of fields, each naming
// its key, its wire type, and the member it reads from or fills. One
// formatter and one strict parser serve every schema.

/// How a field's value is spelled on the wire.
enum class Type {
  kUint64,       // digits
  kPositive,     // kUint64, but 0 is OutOfRange
  kInt64,        // optional '-', then digits
  kDouble,       // finite; written %.17g, which round-trips exactly
  kNonNegative,  // kDouble, but below 0 is OutOfRange
  kDouble9,      // finite; written %.9g (trace timings)
  kBool,         // 0/1/true/false; written 1/0
  kBit,          // exactly 0 or 1
  kEnvName,      // 1+ chars of [A-Za-z0-9_.-]
  kToken,        // 1-64 chars of [A-Za-z0-9_.-] (IsValidTraceId)
  kAlgorithm,    // brute|inj|bij|obj
  kOrder,        // dfs|random
  kSide,         // q|p
  kOp,           // insert|delete|compact
};

/// Whether, and how, a field appears on its line.
enum class Use {
  kRequired,  // key=value, always written
  kOptional,  // key=value, written only when it differs from the default
  kBare,      // a leading value without a key (SHARD idx, ENV name)
};

/// One schema entry. `Slot` is `void*` when the schema binds a record to
/// parse into, `const void*` when it binds one to format from.
template <typename Slot>
struct FieldT {
  const char* key;
  Type type;
  Slot slot;
  Use use = Use::kRequired;
};
using Field = FieldT<void*>;
using ConstField = FieldT<const void*>;

/// The field type a schema builds for a record `R` (const or not).
template <typename R>
using FieldFor =
    FieldT<std::conditional_t<std::is_const<R>::value, const void*, void*>>;

template <typename R>  // QUERY: WireRequest
std::array<FieldFor<R>, 10> QuerySchema(R& r) {
  using F = FieldFor<R>;
  const Use opt = Use::kOptional;
  return {
      F{"env", Type::kEnvName, &r.env_name, opt},
      F{"algo", Type::kAlgorithm, &r.spec.algorithm, opt},
      F{"order", Type::kOrder, &r.spec.order, opt},
      F{"verify", Type::kBool, &r.spec.verify, opt},
      F{"seed", Type::kUint64, &r.spec.random_seed, opt},
      F{"limit", Type::kUint64, &r.spec.limit, opt},
      F{"io_ms", Type::kNonNegative, &r.spec.io_ms_per_fault, opt},
      F{"deadline_ms", Type::kPositive, &r.deadline_ms, opt},
      F{"trace", Type::kBool, &r.trace, opt},
      F{"trace_id", Type::kToken, &r.trace_id, opt},
  };
}

/// INSERT uses all five fields, DELETE the first three, COMPACT only env
/// (MutationFieldCount).
template <typename R>  // INSERT/DELETE/COMPACT: WireMutation
std::array<FieldFor<R>, 5> MutationSchema(R& r) {
  using F = FieldFor<R>;
  return {
      F{"env", Type::kEnvName, &r.env_name, Use::kOptional},
      F{"side", Type::kSide, &r.side},
      F{"id", Type::kInt64, &r.rec.id},
      F{"x", Type::kDouble, &r.rec.pt.x},
      F{"y", Type::kDouble, &r.rec.pt.y},
  };
}

template <typename S>  // EPOCH request: the env name
std::array<FieldFor<S>, 1> EpochRequestSchema(S* env_name) {
  using F = FieldFor<S>;
  return {
      F{"env", Type::kEnvName, env_name, Use::kOptional},
  };
}

template <typename R>  // END: WireSummary
std::array<FieldFor<R>, 10> EndSchema(R& r) {
  using F = FieldFor<R>;
  return {
      F{"pairs", Type::kUint64, &r.pairs},
      F{"candidates", Type::kUint64, &r.stats.candidates},
      F{"results", Type::kUint64, &r.stats.results},
      F{"node_accesses", Type::kUint64, &r.stats.node_accesses},
      F{"faults", Type::kUint64, &r.stats.page_faults},
      F{"cold_faults", Type::kUint64, &r.stats.cold_faults},
      F{"warm_faults", Type::kUint64, &r.stats.warm_faults},
      F{"io_s", Type::kDouble, &r.stats.io_seconds},
      F{"io_wall_s", Type::kDouble, &r.stats.io_wall_seconds},
      F{"cpu_s", Type::kDouble, &r.stats.cpu_seconds},
  };
}

template <typename R>  // SHARD: WireShardStats
std::array<FieldFor<R>, 10> ShardSchema(R& r) {
  using F = FieldFor<R>;
  return {
      F{"shard", Type::kUint64, &r.shard, Use::kBare},
      F{"envs", Type::kUint64, &r.environments},
      F{"queued", Type::kUint64, &r.queued},
      F{"inflight", Type::kUint64, &r.inflight},
      F{"submitted", Type::kUint64, &r.submitted},
      F{"admitted", Type::kUint64, &r.admitted},
      F{"shed", Type::kUint64, &r.shed},
      F{"completed", Type::kUint64, &r.completed},
      F{"cancelled", Type::kUint64, &r.cancelled},
      F{"failed", Type::kUint64, &r.failed},
  };
}

template <typename R>  // ENV: WireEnvStats
std::array<FieldFor<R>, 10> EnvSchema(R& r) {
  using F = FieldFor<R>;
  return {
      F{"name", Type::kEnvName, &r.name, Use::kBare},
      F{"shard", Type::kUint64, &r.shard},
      F{"live", Type::kBit, &r.live},
      F{"generation", Type::kUint64, &r.generation},
      F{"epoch", Type::kUint64, &r.epoch},
      F{"delta", Type::kUint64, &r.delta},
      F{"tombstones", Type::kUint64, &r.tombstones},
      F{"compactions", Type::kUint64, &r.compactions},
      F{"base_q", Type::kUint64, &r.base_q},
      F{"base_p", Type::kUint64, &r.base_p},
  };
}

template <typename U>  // ENDSTATS: the two row counts
std::array<FieldFor<U>, 2> StatsEndSchema(U* shards, U* envs) {
  using F = FieldFor<U>;
  return {
      F{"shards", Type::kUint64, shards},
      F{"envs", Type::kUint64, envs},
  };
}

template <typename R>  // MUT: WireMutationAck
std::array<FieldFor<R>, 7> MutationAckSchema(R& r) {
  using F = FieldFor<R>;
  return {
      F{"op", Type::kOp, &r.op},
      F{"env", Type::kEnvName, &r.env_name},
      F{"epoch", Type::kUint64, &r.epoch},
      F{"generation", Type::kUint64, &r.generation},
      F{"delta", Type::kUint64, &r.delta},
      F{"tombstones", Type::kUint64, &r.tombstones},
      F{"compactions", Type::kUint64, &r.compactions},
  };
}

template <typename R>  // TRACE: WireTraceSpan
std::array<FieldFor<R>, 6> TraceSchema(R& r) {
  using F = FieldFor<R>;
  return {
      F{"id", Type::kToken, &r.id},
      F{"depth", Type::kUint64, &r.depth},
      F{"span", Type::kToken, &r.span},
      F{"count", Type::kUint64, &r.count},
      F{"total_s", Type::kDouble9, &r.total_s},
      F{"start_s", Type::kDouble9, &r.start_s},
  };
}

template <typename S, typename U>  // ENDTRACE: trace id and row count
std::array<FieldFor<U>, 2> TraceEndSchema(S* id, U* spans) {
  using F = FieldFor<U>;
  return {
      F{"id", Type::kToken, id},
      F{"spans", Type::kUint64, spans},
  };
}

template <typename U>  // ENDMETRICS: the exposition's line count
std::array<FieldFor<U>, 1> MetricsEndSchema(U* lines) {
  using F = FieldFor<U>;
  return {
      F{"lines", Type::kUint64, lines},
  };
}

template <typename S, typename U>  // EPOCH response: env name and epoch
std::array<FieldFor<U>, 2> EpochResponseSchema(S* env_name, U* epoch) {
  using F = FieldFor<U>;
  return {
      F{"env", Type::kEnvName, env_name},
      F{"epoch", Type::kUint64, epoch},
  };
}

std::string FormatDouble(const char* format, double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), format, value);
  return buffer;
}

template <typename T>
const T& Get(const ConstField& field) {
  return *static_cast<const T*>(field.slot);
}

std::string FormatValue(const ConstField& field) {
  switch (field.type) {
    case Type::kUint64:
    case Type::kPositive:
      return std::to_string(Get<uint64_t>(field));
    case Type::kInt64:
      return std::to_string(Get<int64_t>(field));
    case Type::kDouble:
    case Type::kNonNegative:
      return FormatDouble("%.17g", Get<double>(field));
    case Type::kDouble9:
      return FormatDouble("%.9g", Get<double>(field));
    case Type::kBool:
    case Type::kBit:
      return Get<bool>(field) ? "1" : "0";
    case Type::kEnvName:
    case Type::kToken:
      return Get<std::string>(field);
    case Type::kAlgorithm:
      return AlgorithmWireName(Get<RcjAlgorithm>(field));
    case Type::kOrder:
      return SearchOrderWireName(Get<SearchOrder>(field));
    case Type::kSide:
      return LiveSideName(Get<LiveSide>(field));
    case Type::kOp:
      return MutationOpWireName(Get<WireMutationOp>(field));
  }
  return "";
}

/// The one formatter: `verb`, then each field in schema order. Optional
/// fields are omitted while they equal the matching field of `defaults`.
std::string FormatFields(const char* verb, const ConstField* fields,
                         size_t count, const ConstField* defaults = nullptr) {
  std::string line = verb;
  for (size_t i = 0; i < count; ++i) {
    const std::string value = FormatValue(fields[i]);
    if (fields[i].use == Use::kOptional &&
        value == FormatValue(defaults[i])) {
      continue;
    }
    line += ' ';
    if (fields[i].use != Use::kBare) {
      line += fields[i].key;
      line += '=';
    }
    line += value;
  }
  return line;
}

template <size_t N>
std::string FormatFields(const char* verb,
                         const std::array<ConstField, N>& fields) {
  return FormatFields(verb, fields.data(), N);
}

Status ParseValue(const Field& field, const std::string& value) {
  const std::string key = field.key;
  switch (field.type) {
    case Type::kUint64:
      return ParseUint64Field(key, value, static_cast<uint64_t*>(field.slot));
    case Type::kPositive: {
      uint64_t* out = static_cast<uint64_t*>(field.slot);
      RINGJOIN_RETURN_IF_ERROR(ParseUint64Field(key, value, out));
      if (*out == 0) {
        return Status::OutOfRange("field '" + key + "' must be positive");
      }
      return Status::OK();
    }
    case Type::kInt64:
      return ParseInt64Field(key, value, static_cast<int64_t*>(field.slot));
    case Type::kDouble:
    case Type::kDouble9:
      return ParseDoubleField(key, value, static_cast<double*>(field.slot));
    case Type::kNonNegative: {
      double* out = static_cast<double*>(field.slot);
      RINGJOIN_RETURN_IF_ERROR(ParseDoubleField(key, value, out));
      if (*out < 0.0) {
        return Status::OutOfRange("field '" + key + "' must be non-negative");
      }
      return Status::OK();
    }
    case Type::kBool:
      if (!ParseBoolName(value, static_cast<bool*>(field.slot))) {
        return Status::InvalidArgument(
            "field '" + key + "' wants 0/1/true/false, got '" + value + "'");
      }
      return Status::OK();
    case Type::kBit:
      if (value != "0" && value != "1") {
        return Status::InvalidArgument("field '" + key +
                                       "' wants 0 or 1, got '" + value + "'");
      }
      *static_cast<bool*>(field.slot) = value == "1";
      return Status::OK();
    case Type::kEnvName:
      if (!IsEnvName(value)) {
        return Status::InvalidArgument("invalid env name '" + value + "'");
      }
      *static_cast<std::string*>(field.slot) = value;
      return Status::OK();
    case Type::kToken:
      if (!IsValidTraceId(value)) {
        return Status::InvalidArgument(
            "field '" + key + "' wants 1-64 chars of [A-Za-z0-9_.-], got '" +
            value + "'");
      }
      *static_cast<std::string*>(field.slot) = value;
      return Status::OK();
    case Type::kAlgorithm:
      if (!ParseAlgorithmName(value, static_cast<RcjAlgorithm*>(field.slot))) {
        return Status::InvalidArgument("unknown algorithm '" + value +
                                       "' (want brute|inj|bij|obj)");
      }
      return Status::OK();
    case Type::kOrder:
      if (!ParseSearchOrderName(value,
                                static_cast<SearchOrder*>(field.slot))) {
        return Status::InvalidArgument("unknown search order '" + value +
                                       "' (want dfs|random)");
      }
      return Status::OK();
    case Type::kSide:
      if (!ParseLiveSideName(value, static_cast<LiveSide*>(field.slot))) {
        return Status::InvalidArgument("field '" + key + "' wants q|p, got '" +
                                       value + "'");
      }
      return Status::OK();
    case Type::kOp:
      if (!ParseMutationOpName(value,
                               static_cast<WireMutationOp*>(field.slot))) {
        return Status::InvalidArgument("unknown op '" + value +
                                       "' (want insert|delete|compact)");
      }
      return Status::OK();
  }
  return Status::InvalidArgument("field '" + key + "' has no wire type");
}

/// Who writes a line kind decides the key order it is parsed with.
enum class KeyOrder {
  kAny,        // requests: typed by people and scripts
  kCanonical,  // responses: exactly the formatter's order
};

constexpr size_t kMaxFields = 16;

/// The one strict parser: fills `fields` from `tokens` (tokens[0] is the
/// already-matched verb). Unknown, empty, duplicate and missing required
/// keys are InvalidArgument, as are keys out of schema order under
/// KeyOrder::kCanonical.
Status ParseFields(const std::vector<std::string>& tokens, Field* fields,
                   size_t count, KeyOrder order) {
  const std::string& verb = tokens[0];
  size_t t = 1;
  size_t first_keyed = 0;
  for (; first_keyed < count && fields[first_keyed].use == Use::kBare;
       ++first_keyed, ++t) {
    if (t >= tokens.size()) {
      return Status::InvalidArgument(verb + " line is missing field '" +
                                     fields[first_keyed].key + "'");
    }
    RINGJOIN_RETURN_IF_ERROR(ParseValue(fields[first_keyed], tokens[t]));
  }
  std::array<bool, kMaxFields> seen{};
  size_t next = first_keyed;  // KeyOrder::kCanonical: lowest legal index
  for (; t < tokens.size(); ++t) {
    const std::string& token = tokens[t];
    const size_t eq = token.find('=');
    if (eq == std::string::npos) {
      return Status::InvalidArgument(verb + " field '" + token +
                                     "' is not key=value");
    }
    if (eq == 0) {
      return Status::InvalidArgument("empty key in field '" + token + "'");
    }
    const std::string key = token.substr(0, eq);
    size_t i = first_keyed;
    while (i < count && key != fields[i].key) ++i;
    if (i == count) {
      return Status::InvalidArgument("unknown " + verb + " key '" + key +
                                     "'");
    }
    if (seen[i]) {
      return Status::InvalidArgument("duplicate key '" + key + "'");
    }
    if (order == KeyOrder::kCanonical && i < next) {
      return Status::InvalidArgument(verb + " key '" + key +
                                     "' is out of order");
    }
    seen[i] = true;
    next = i + 1;
    RINGJOIN_RETURN_IF_ERROR(ParseValue(fields[i], token.substr(eq + 1)));
  }
  for (size_t i = first_keyed; i < count; ++i) {
    if (fields[i].use == Use::kRequired && !seen[i]) {
      return Status::InvalidArgument(verb + " line is missing field '" +
                                     fields[i].key + "'");
    }
  }
  return Status::OK();
}

/// Tokenizes `line`, checks its verb, and parses the rest against `fields`.
template <size_t N>
Status ParseLine(const std::string& line, const char* verb,
                 std::array<Field, N> fields, KeyOrder order) {
  static_assert(N <= kMaxFields, "ParseFields tracks at most kMaxFields");
  const std::vector<std::string> tokens = Tokenize(line);
  if (tokens.empty() || tokens[0] != verb) {
    return Status::InvalidArgument(std::string("expected a ") + verb +
                                   " line");
  }
  return ParseFields(tokens, fields.data(), N, order);
}

/// How many leading MutationSchema fields `op` owns.
size_t MutationFieldCount(WireMutationOp op) {
  if (op == WireMutationOp::kInsert) return 5;
  if (op == WireMutationOp::kDelete) return 3;
  return 1;
}

}  // namespace

const char* AlgorithmWireName(RcjAlgorithm algorithm) {
  return NameOf(kAlgorithms, algorithm);
}

bool ParseAlgorithmName(const std::string& name, RcjAlgorithm* algorithm) {
  return ValueOf(kAlgorithms, name, algorithm);
}

const char* SearchOrderWireName(SearchOrder order) {
  return NameOf(kOrders, order);
}

bool ParseSearchOrderName(const std::string& name, SearchOrder* order) {
  return ValueOf(kOrders, name, order);
}

bool ParseBoolName(const std::string& name, bool* value) {
  if (name == "1" || name == "true") {
    *value = true;
    return true;
  }
  if (name == "0" || name == "false") {
    *value = false;
    return true;
  }
  return false;
}

Status ParseUint64Field(const std::string& key, const std::string& value,
                        uint64_t* out) {
  if (value.empty() ||
      value.find_first_not_of("0123456789") != std::string::npos) {
    return Status::InvalidArgument("field '" + key +
                                   "' is not an unsigned integer: '" +
                                   value + "'");
  }
  errno = 0;
  const unsigned long long parsed = std::strtoull(value.c_str(), nullptr, 10);
  if (errno == ERANGE) {
    return Status::OutOfRange("field '" + key + "' overflows uint64: '" +
                              value + "'");
  }
  *out = static_cast<uint64_t>(parsed);
  return Status::OK();
}

Status ParseInt64Field(const std::string& key, const std::string& value,
                       int64_t* out) {
  const size_t digits_from = value.rfind('-', 0) == 0 ? 1 : 0;
  if (value.size() == digits_from ||
      value.find_first_not_of("0123456789", digits_from) !=
          std::string::npos) {
    return Status::InvalidArgument("field '" + key +
                                   "' is not an integer: '" + value + "'");
  }
  errno = 0;
  const long long parsed = std::strtoll(value.c_str(), nullptr, 10);
  if (errno == ERANGE) {
    return Status::OutOfRange("field '" + key + "' overflows int64: '" +
                              value + "'");
  }
  *out = static_cast<int64_t>(parsed);
  return Status::OK();
}

Status ParseDoubleField(const std::string& key, const std::string& value,
                        double* out) {
  if (value.empty()) {
    return Status::InvalidArgument("field '" + key + "' is empty");
  }
  char* end = nullptr;
  const double parsed = std::strtod(value.c_str(), &end);
  if (end != value.c_str() + value.size() || !std::isfinite(parsed)) {
    return Status::InvalidArgument("field '" + key +
                                   "' is not a finite number: '" + value +
                                   "'");
  }
  *out = parsed;
  return Status::OK();
}

Status ParseRequestLine(const std::string& line, WireRequest* out) {
  *out = WireRequest{};
  return ParseLine(line, "QUERY", QuerySchema(*out), KeyOrder::kAny);
}

std::string FormatRequestLine(const WireRequest& request) {
  const WireRequest defaults;
  const auto fields = QuerySchema(request);
  return FormatFields("QUERY", fields.data(), fields.size(),
                      QuerySchema(defaults).data());
}

std::string FormatPairLine(const RcjPair& pair) {
  char buffer[192];
  std::snprintf(buffer, sizeof(buffer),
                "PAIR %" PRId64 " %" PRId64 " %.17g %.17g %.17g %.17g",
                pair.p.id, pair.q.id, pair.p.pt.x, pair.p.pt.y, pair.q.pt.x,
                pair.q.pt.y);
  return buffer;
}

Status ParsePairLine(const std::string& line, RcjPair* out) {
  const std::vector<std::string> tokens = Tokenize(line);
  if (tokens.size() != 7 || tokens[0] != "PAIR") {
    return Status::InvalidArgument(
        "PAIR line wants 'PAIR p_id q_id x1 y1 x2 y2'");
  }
  PointRecord p;
  PointRecord q;
  for (int side = 0; side < 2; ++side) {
    const std::string& id_token = tokens[1 + side];
    errno = 0;
    char* end = nullptr;
    const long long id = std::strtoll(id_token.c_str(), &end, 10);
    if (end != id_token.c_str() + id_token.size() || id_token.empty() ||
        errno == ERANGE) {
      return Status::InvalidArgument("bad point id '" + id_token + "'");
    }
    (side == 0 ? p : q).id = static_cast<PointId>(id);
  }
  double coords[4];
  for (int i = 0; i < 4; ++i) {
    const std::string& token = tokens[3 + i];
    char* end = nullptr;
    const double value = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size() || token.empty() ||
        !std::isfinite(value)) {
      return Status::InvalidArgument("bad coordinate '" + token + "'");
    }
    coords[i] = value;
  }
  p.pt = Point{coords[0], coords[1]};
  q.pt = Point{coords[2], coords[3]};
  *out = RcjPair::Make(p, q);
  return Status::OK();
}

std::string FormatEndLine(const WireSummary& summary) {
  return FormatFields("END", EndSchema(summary));
}

Status ParseEndLine(const std::string& line, WireSummary* out) {
  *out = WireSummary{};
  return ParseLine(line, "END", EndSchema(*out), KeyOrder::kCanonical);
}

std::string FormatErrLine(const Status& status) {
  std::string line = "ERR ";
  const char* name = "OK";
  for (const ErrCode& err : kErrCodes) {
    if (err.code == status.code()) name = err.name;
  }
  line += name;
  if (!status.message().empty()) {
    line += ' ';
    // Keep the frame one line no matter what the message contains.
    for (char c : status.message()) {
      line += (c == '\n' || c == '\r') ? ' ' : c;
    }
  }
  return line;
}

bool IsStatsRequestLine(const std::string& line) {
  return FirstTokenIs(line, "STATS", /*alone=*/true);
}

std::string FormatShardStatsLine(const WireShardStats& stats) {
  return FormatFields("SHARD", ShardSchema(stats));
}

Status ParseShardStatsLine(const std::string& line, WireShardStats* out) {
  *out = WireShardStats{};
  return ParseLine(line, "SHARD", ShardSchema(*out), KeyOrder::kCanonical);
}

std::string FormatEnvStatsLine(const WireEnvStats& stats) {
  return FormatFields("ENV", EnvSchema(stats));
}

Status ParseEnvStatsLine(const std::string& line, WireEnvStats* out) {
  *out = WireEnvStats{};
  return ParseLine(line, "ENV", EnvSchema(*out), KeyOrder::kCanonical);
}

std::string FormatStatsEndLine(const uint64_t shards, const uint64_t envs) {
  return FormatFields("ENDSTATS", StatsEndSchema(&shards, &envs));
}

Status ParseStatsEndLine(const std::string& line, uint64_t* shards,
                         uint64_t* envs) {
  return ParseLine(line, "ENDSTATS", StatsEndSchema(shards, envs),
                   KeyOrder::kCanonical);
}

const char* MutationOpWireName(WireMutationOp op) {
  return NameOf(kMutationOps, op);
}

bool ParseMutationOpName(const std::string& name, WireMutationOp* op) {
  return ValueOf(kMutationOps, name, op);
}

bool IsMutationRequestLine(const std::string& line) {
  return FirstTokenIs(line, "INSERT", false) ||
         FirstTokenIs(line, "DELETE", false) ||
         FirstTokenIs(line, "COMPACT", false);
}

Status ParseMutationLine(const std::string& line, WireMutation* out) {
  *out = WireMutation{};
  const std::vector<std::string> tokens = Tokenize(line);
  if (tokens.empty() || !ValueOf(kMutationVerbs, tokens[0], &out->op)) {
    return Status::InvalidArgument(
        "mutation must start with INSERT, DELETE, or COMPACT");
  }
  return ParseFields(tokens, MutationSchema(*out).data(),
                     MutationFieldCount(out->op), KeyOrder::kAny);
}

std::string FormatMutationLine(const WireMutation& mutation) {
  const WireMutation defaults;
  return FormatFields(NameOf(kMutationVerbs, mutation.op),
                      MutationSchema(mutation).data(),
                      MutationFieldCount(mutation.op),
                      MutationSchema(defaults).data());
}

std::string FormatMutationAckLine(const WireMutationAck& ack) {
  return FormatFields("MUT", MutationAckSchema(ack));
}

Status ParseMutationAckLine(const std::string& line, WireMutationAck* out) {
  *out = WireMutationAck{};
  return ParseLine(line, "MUT", MutationAckSchema(*out), KeyOrder::kCanonical);
}

bool IsValidTraceId(const std::string& id) {
  return id.size() <= 64 && IsEnvName(id);
}

bool IsTraceLine(const std::string& line) {
  return FirstTokenIs(line, "TRACE", false);
}

std::string FormatTraceLine(const WireTraceSpan& span) {
  return FormatFields("TRACE", TraceSchema(span));
}

Status ParseTraceLine(const std::string& line, WireTraceSpan* out) {
  *out = WireTraceSpan{};
  return ParseLine(line, "TRACE", TraceSchema(*out), KeyOrder::kCanonical);
}

bool IsTraceEndLine(const std::string& line) {
  return FirstTokenIs(line, "ENDTRACE", false);
}

std::string FormatTraceEndLine(const std::string& id, const uint64_t spans) {
  return FormatFields("ENDTRACE", TraceEndSchema(&id, &spans));
}

Status ParseTraceEndLine(const std::string& line, std::string* id,
                         uint64_t* spans) {
  return ParseLine(line, "ENDTRACE", TraceEndSchema(id, spans),
                   KeyOrder::kCanonical);
}

bool IsMetricsRequestLine(const std::string& line) {
  return FirstTokenIs(line, "METRICS", /*alone=*/true);
}

std::string FormatMetricsEndLine(const uint64_t lines) {
  return FormatFields("ENDMETRICS", MetricsEndSchema(&lines));
}

Status ParseMetricsEndLine(const std::string& line, uint64_t* lines) {
  return ParseLine(line, "ENDMETRICS", MetricsEndSchema(lines),
                   KeyOrder::kCanonical);
}

bool IsEpochRequestLine(const std::string& line) {
  return FirstTokenIs(line, "EPOCH", false);
}

std::string FormatEpochRequestLine(const std::string& env_name) {
  const std::string defaults = "default";
  return FormatFields("EPOCH", EpochRequestSchema(&env_name).data(), 1,
                      EpochRequestSchema(&defaults).data());
}

Status ParseEpochRequestLine(const std::string& line, std::string* env_name) {
  *env_name = "default";
  return ParseLine(line, "EPOCH", EpochRequestSchema(env_name),
                   KeyOrder::kAny);
}

std::string FormatEpochResponseLine(const std::string& env_name,
                                    const uint64_t epoch) {
  return FormatFields("EPOCH", EpochResponseSchema(&env_name, &epoch));
}

Status ParseEpochResponseLine(const std::string& line, std::string* env_name,
                              uint64_t* epoch) {
  return ParseLine(line, "EPOCH", EpochResponseSchema(env_name, epoch),
                   KeyOrder::kCanonical);
}

bool IsFailpointRequestLine(const std::string& line) {
  return FirstTokenIs(line, "FAILPOINT", false);
}

std::string FormatFailpointLine(const std::string& site,
                                const std::string& spec) {
  return "FAILPOINT " + site + " " + spec;
}

Status ParseFailpointLine(const std::string& line, std::string* site,
                          std::string* spec) {
  const std::vector<std::string> tokens = Tokenize(line);
  if (tokens.size() < 3 || tokens[0] != "FAILPOINT") {
    return Status::InvalidArgument(
        "FAILPOINT request wants 'FAILPOINT site spec...'");
  }
  // Sites share the trace-id charset: bare tokens, no '=' ambiguity.
  if (!IsValidTraceId(tokens[1])) {
    return Status::InvalidArgument("invalid failpoint site '" + tokens[1] +
                                   "'");
  }
  *site = tokens[1];
  spec->clear();
  for (size_t i = 2; i < tokens.size(); ++i) {
    if (i > 2) *spec += ' ';
    *spec += tokens[i];
  }
  return Status::OK();
}

Status ParseErrLine(const std::string& line, Status* out) {
  std::string trimmed = line;
  while (!trimmed.empty() &&
         (trimmed.back() == '\n' || trimmed.back() == '\r')) {
    trimmed.pop_back();
  }
  if (trimmed.rfind("ERR ", 0) != 0) {
    return Status::InvalidArgument("ERR line must start with 'ERR '");
  }
  const size_t token_begin = 4;
  size_t token_end = trimmed.find(' ', token_begin);
  if (token_end == std::string::npos) token_end = trimmed.size();
  const std::string name =
      trimmed.substr(token_begin, token_end - token_begin);
  for (const ErrCode& err : kErrCodes) {
    if (name == err.name) {
      std::string message;
      if (token_end < trimmed.size()) message = trimmed.substr(token_end + 1);
      *out = err.make(std::move(message));
      return Status::OK();
    }
  }
  return Status::InvalidArgument("unknown ERR code in '" + trimmed + "'");
}

}  // namespace net
}  // namespace rcj

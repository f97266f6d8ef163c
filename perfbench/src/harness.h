// Measurement and checking primitives of the ringjoin benchmark: clocks,
// the percentile rule, order-sensitive stream digests with a prefix oracle,
// the seeded query and mutation sequences, host stamping, and the metric
// report. Everything here is independent of the serving topology, so the
// benchmark's own tests cover it directly.
#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/delta_overlay.h"
#include "core/pair_sink.h"
#include "core/rcj_types.h"
#include "geometry/point.h"

namespace perfbench {

// ---- clocks ------------------------------------------------------------

/// Steady-clock seconds (arbitrary epoch).
double NowS();
/// Process CPU time (user + system, all threads) from getrusage.
double ProcessCpuS();
/// CPU time of the calling thread (CLOCK_THREAD_CPUTIME_ID).
double ThreadCpuS();
/// Peak resident set of the process in MiB (getrusage ru_maxrss).
double PeakRssMb();

// ---- the percentile rule -----------------------------------------------

/// Median; the mean of the two middle samples for an even count. 0 for an
/// empty sample.
double Median(std::vector<double> samples);

/// Arithmetic mean; 0 for an empty sample.
double Mean(const std::vector<double>& samples);

/// A percentile of a sample together with the sample size it came from.
struct Tail {
  double pct = 0.0;    ///< which percentile (99.9, 99, 95, 90, 75 or 50).
  double value = 0.0;  ///< its nearest-rank value.
  size_t n = 0;        ///< samples it was taken from.
  bool ok = false;     ///< false when even p50 lacks ten samples beyond.
};

/// The highest of p99.9, p99, p95, p90, p75 and p50 whose nearest-rank
/// value has at least ten samples beyond it — the tail a sample of this
/// size can support.
Tail TailPercentile(std::vector<double> samples);

/// "p99", "p99.9", ... for a Tail's percentile.
std::string PctLabel(double pct);

// ---- stream digests and the prefix oracle ------------------------------

/// Order-sensitive digest of a pair stream over (p.id, q.id): FNV-1a over
/// both ids of every pair, in delivery order.
class StreamDigest {
 public:
  void Add(int64_t p_id, int64_t q_id);
  uint64_t count() const { return count_; }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 1469598103934665603ull;
  uint64_t count_ = 0;
};

/// What a correct stream looks like: its length and digest.
struct Expected {
  uint64_t pairs = 0;
  uint64_t digest = 0;
};

/// A sink that digests the full serial stream of one (environment,
/// algorithm) and records the digest of its length-k prefix for every
/// requested limit k, so one serial run answers every top-k of the
/// sequence.
class PrefixOracle final : public rcj::PairSink {
 public:
  explicit PrefixOracle(std::vector<uint64_t> limits);
  bool Emit(const rcj::RcjPair& pair) override;

  /// The expected stream for `limit` (0 = the full join). A limit past
  /// the full length expects the full stream.
  Expected For(uint64_t limit) const;

 private:
  StreamDigest digest_;
  std::vector<std::pair<uint64_t, uint64_t>> prefixes_;  // (limit, digest)
};

/// A sink that only digests.
class DigestSink final : public rcj::PairSink {
 public:
  bool Emit(const rcj::RcjPair& pair) override {
    digest.Add(pair.p.id, pair.q.id);
    return true;
  }
  StreamDigest digest;
};

/// True iff a received stream of `pairs` pairs with `digest` is exactly
/// the expected stream (a top-k must be the exact prefix of the full
/// serial stream).
bool StreamMatches(const Expected& want, uint64_t pairs, uint64_t digest);

// ---- seeded input sequences ----------------------------------------------

/// One read of a query sequence. limit 0 = the full join.
struct QueryItem {
  uint32_t env = 0;
  rcj::RcjAlgorithm algo = rcj::RcjAlgorithm::kObj;
  uint64_t limit = 0;
};

/// The limits a serve_mix top-k draws from.
const std::vector<uint64_t>& TopkLimits();

/// serve_mix: env 50/50 over `envs`, a full join 5% of the time and
/// otherwise limit 1/10/100/1000 uniformly, OBJ 75% / INJ 25%. Every 20th
/// query is a full join, and every block of 160 queries holds 8 of them,
/// spread evenly over the environments and 3:1 OBJ:INJ, so every seed's
/// load carries the same full-join work at the same spacing.
std::vector<QueryItem> ServeMixSequence(uint64_t seed, size_t count,
                                        uint32_t envs);

/// One mutation of a churn sequence.
struct MutationItem {
  bool insert = true;
  rcj::LiveSide side = rcj::LiveSide::kQ;
  rcj::PointRecord rec;  ///< for a delete only rec.id matters.
};

/// Churn over a two-dataset environment built from (q, p): inserts and
/// deletes 50/50, sides 50/50, inserted points uniform over the default
/// domain with fresh ids, every delete naming an id live at that point of
/// the sequence.
std::vector<MutationItem> MutationSequence(
    uint64_t seed, size_t count, const std::vector<rcj::PointRecord>& q,
    const std::vector<rcj::PointRecord>& p);

/// Applies the first `count` mutations to (q, p) in order, keeping the
/// live environment's membership order: base order minus deletions, then
/// inserts in insertion order.
void ApplyMutations(const std::vector<MutationItem>& items, size_t count,
                    std::vector<rcj::PointRecord>* q,
                    std::vector<rcj::PointRecord>* p);

/// Seed of one named input stream of a run, so every input derives from
/// --seed alone.
uint64_t SubSeed(uint64_t seed, uint64_t stream);

// ---- host stamp and report ---------------------------------------------

/// nproc, CPU model, kernel, compiler, build type and the filesystem of
/// `wal_dir`, as one JSON object.
std::string HostJson(const std::string& wal_dir);


/// Named metrics with units, printed in insertion order.
class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit,
           const std::string& note = "");
  bool Has(const std::string& name) const;
  double Get(const std::string& name) const;

  /// {"name": {"value": v, "unit": u}, ...} restricted to `names` (all
  /// when empty), every value with full precision.
  std::string MetricsJson(const std::vector<std::string>& names = {}) const;
  /// One human-readable line per metric.
  std::string Lines() const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
    std::string note;
  };
  std::vector<Entry> entries_;
};

/// JSON string literal of `s`.
std::string JsonString(const std::string& s);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_

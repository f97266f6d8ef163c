// The traced run's per-layer probes. Each one times calls into one layer's
// public functions from the benchmark's side of the boundary — no span is
// recorded inside the program.
#ifndef PERFBENCH_PROBES_H_
#define PERFBENCH_PROBES_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/runner.h"
#include "harness.h"
#include "topology.h"

namespace perfbench {

/// Failure ledger shared by the workload and its probes: every checked
/// operation counts as attempted; a mismatch or error counts as failed.
struct Ledger {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;  ///< the first few failure messages.

  /// Records one checked operation; returns `ok`.
  bool Check(bool ok, const std::string& what);
};

/// The phase split of one serial, cold-buffer OBJ join (depth-first). It
/// re-drives RunBulkJoin's loop through the public calls
/// LeafPagesInOrder, RTree::ReadNode, BulkFilterCandidates and
/// VerifyMerged, delivering into a digest, so its stream must equal
/// RcjEnvironment::Run's.
struct PhaseSplit {
  double plan_s = 0.0;
  double leaf_read_s = 0.0;
  double filter_s = 0.0;  ///< includes forming the candidate circles.
  double verify_s = 0.0;
  double deliver_s = 0.0;
  double total_s = 0.0;   ///< wall of the whole loop, plan included.
  uint64_t plan_node_accesses = 0;
  uint64_t leaf_node_accesses = 0;
  uint64_t filter_node_accesses = 0;
  uint64_t verify_node_accesses = 0;
  uint64_t candidates = 0;
  uint64_t results = 0;
  StreamDigest digest;

  uint64_t node_accesses() const {
    return plan_node_accesses + leaf_node_accesses + filter_node_accesses +
           verify_node_accesses;
  }
  double unattributed_frac() const {
    const double attributed =
        plan_s + leaf_read_s + filter_s + verify_s + deliver_s;
    return total_s > 0.0 ? (total_s - attributed) / total_s : 0.0;
  }
};

rcj::Status RunPhaseSplit(rcj::RcjEnvironment* env, PhaseSplit* out);

/// What the ladder and mutation probes run against: a topology serving
/// `env_name`, the backend the proxy routes it to, and the in-process
/// entry to that backend's copy of the environment.
struct LayerTarget {
  Fleet* fleet = nullptr;
  std::string env_name;
  size_t backend = 0;
  /// A spec bound to the backend's environment (and overlay, for live).
  rcj::QuerySpec spec;
  /// The serial runner over that environment.
  std::function<rcj::Status(const rcj::QuerySpec&, rcj::PairSink*,
                            rcj::JoinStats*)>
      serial;
};

/// Per-tier unloaded latencies of the ladder, plus the fleet tier's
/// client-side wire spans.
struct LadderResult {
  std::vector<WireResult> fleet_requests;
};

/// The layer-tax ladder: every item runs unloaded through core
/// (RcjEnvironment::Run), engine, service, shard, net and fleet; every
/// tier's digest must equal the core tier's. Fills `<tier>.topk_ms_p50`,
/// `<tier>.full_ms_p50` and the per-layer taxes.
rcj::Status RunLadder(const LayerTarget& target,
                      const std::vector<QueryItem>& items, Report* layers,
                      Ledger* ledger,
                      LadderResult* result);

/// The static-environment probes on `env`: phase split (core.*), the
/// serial join's storage counters (storage.*), Engine::Run at `nproc`
/// threads (engine.* CPU/busy/efficiency), the top-k thread slowdown at
/// BackendThreads() on `topk_items`, view reuse, and the pair codec
/// timings.
rcj::Status RunEngineProbes(rcj::RcjEnvironment* env,
                            const std::vector<QueryItem>& topk_items,
                            size_t nproc, Report* layers, Ledger* ledger);

/// The mutation ladder (live -> shard -> net -> fleet, `per_tier` ops
/// each) on a live topology. Raises `*delta_peak` to the largest pending
/// delta (inserts + tombstones) seen after any op.
rcj::Status RunMutationLadder(const LayerTarget& target, size_t per_tier,
                              Report* layers, Ledger* ledger,
                              uint64_t* delta_peak);

/// Timed Compact() at kCompactThreshold pending mutations and the overlay
/// tax of a serial top-k, on a dedicated live environment over `input`
/// with its own journal under `wal_dir`. Fills live.compact_s and
/// live.overlay_tax_ms.
rcj::Status RunCompactionProbe(const EnvInput& input, uint64_t seed,
                               const std::string& wal_dir, Report* layers,
                               Ledger* ledger);

/// Scrapes the METRICS exposition of 127.0.0.1:`port` and returns the
/// value of the counter `name` (0 when absent).
rcj::Result<double> ScrapeCounter(uint16_t port, const std::string& name);

/// fleet.attempts_per_query and shard.shed_frac from the topology's
/// public counters.
void AddServingCounters(Fleet* fleet, Report* layers);

/// net.dial/ok/first_pair p50s and net.bytes_per_pair from wire spans.
void AddWireSpans(const std::vector<WireResult>& requests, Report* layers);

}  // namespace perfbench

#endif  // PERFBENCH_PROBES_H_

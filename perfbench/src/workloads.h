// The benchmark's three workloads. Each generates its inputs from the
// run seed, builds the topology (timed as set-up), computes its oracle
// with the serial runner, drives its load for the run's window, and — in
// a traced run — repeats the window with client spans recorded and runs
// the per-layer probes.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "harness.h"
#include "probes.h"

namespace perfbench {

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch root for journals; every workload removes what it created.
  std::string wal_root;
  size_t nproc = 1;
};

struct RunOutcome {
  /// Every end-to-end metric the workload defines, under the names of
  /// the benchmark doc, plus the gated names.
  Report e2e;
  /// Per-layer metrics (traced runs only).
  Report layers;
  Ledger ledger;
  /// Client-side spans of the traced window, one JSON object per line.
  std::vector<std::string> spans;
};

/// The gated end-to-end metric names, printed by every untraced run.
const std::vector<std::string>& EndToEndMetrics();
/// The per-layer metric names, printed by every traced run.
const std::vector<std::string>& PerLayerMetrics();
/// serve_mix, u300k_join, live_churn.
const std::vector<std::string>& WorkloadNames();

/// Refuses a load whose client threads or concurrent connections would
/// exceed the host's processors.
rcj::Status GuardClients(size_t clients, size_t connections, size_t nproc);

rcj::Status RunWorkload(const RunConfig& config, RunOutcome* outcome);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_

// perfbench — the ringjoin benchmark's measuring program.
//
//   perfbench --workload serve_mix|u300k_join|live_churn --seed N
//             --seconds S --trace 0|1 [--out-dir DIR] [--wal-dir DIR]
//
// Prints the host stamp, every end-to-end metric (trace 0) or per-layer
// metric (trace 1) by name with its unit, and, as the last line, one JSON
// object {"correct", "attempted", "failed", "metrics"}. Exits 1 when any
// checked operation failed, 2 on a usage or set-up error.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <system_error>
#include <thread>

#include "harness.h"
#include "topology.h"
#include "workloads.h"

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--out-dir DIR] [--wal-dir DIR]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig config;
  std::string out_dir = ".bench_build/perfbench-results";
  config.wal_root = ".bench_build/perfbench-wal";
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      config.workload = value;
    } else if (key == "--seed") {
      config.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      config.seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      config.trace = value == "1";
    } else if (key == "--out-dir") {
      out_dir = value;
    } else if (key == "--wal-dir") {
      config.wal_root = value;
    } else {
      return Usage(("unknown flag " + key).c_str());
    }
  }
  if (argc % 2 == 0) return Usage("flags come in --key value pairs");
  if (config.seconds <= 0.0) return Usage("--seconds must be positive");
  bool known = false;
  for (const std::string& name : perfbench::WorkloadNames()) {
    known = known || name == config.workload;
  }
  if (!known) return Usage("unknown --workload");
  config.nproc = std::max(1u, std::thread::hardware_concurrency());
  config.wal_root += "/" + config.workload + "-" + std::to_string(getpid());
  std::error_code ec;
  std::filesystem::create_directories(out_dir, ec);
  if (ec || !perfbench::ResetDir(config.wal_root).ok()) {
    return Usage("cannot create the scratch directories");
  }

  const std::string host = perfbench::HostJson(config.wal_root);
  std::printf("host: %s\n", host.c_str());
  std::fflush(stdout);

  perfbench::RunOutcome outcome;
  const rcj::Status status = perfbench::RunWorkload(config, &outcome);
  perfbench::RemoveDir(config.wal_root);
  if (!status.ok()) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n",
                 config.workload.c_str(), status.ToString().c_str());
    return 2;
  }

  const std::vector<std::string>& wanted =
      config.trace ? perfbench::PerLayerMetrics()
                   : perfbench::EndToEndMetrics();
  const perfbench::Report& printed =
      config.trace ? outcome.layers : outcome.e2e;
  for (const std::string& name : wanted) {
    outcome.ledger.Check(printed.Has(name), "metric " + name + " missing");
  }
  const bool correct = outcome.ledger.failed == 0;

  std::printf("end-to-end (%s, seed %llu, %.0f s%s):\n%s",
              config.workload.c_str(),
              static_cast<unsigned long long>(config.seed), config.seconds,
              config.trace ? ", traced run: every second request traced" : "",
              outcome.e2e.Lines().c_str());
  if (config.trace) {
    std::printf("per-layer:\n%s", outcome.layers.Lines().c_str());
  }
  for (const std::string& error : outcome.ledger.errors) {
    std::printf("FAILED: %s\n", error.c_str());
  }

  const std::string stem = out_dir + "/" + config.workload + "-seed" +
                           std::to_string(config.seed) + "-trace" +
                           (config.trace ? "1" : "0");
  {
    std::ofstream file(stem + ".json");
    file << "{\"workload\": " << perfbench::JsonString(config.workload)
         << ", \"seed\": " << config.seed << ", \"seconds\": "
         << config.seconds << ", \"trace\": " << (config.trace ? 1 : 0)
         << ", \"host\": " << host << ", \"attempted\": "
         << outcome.ledger.attempted << ", \"failed\": "
         << outcome.ledger.failed
         << ", \"end_to_end\": " << outcome.e2e.MetricsJson()
         << ", \"per_layer\": " << outcome.layers.MetricsJson() << "}\n";
  }
  if (config.trace) {
    std::ofstream spans(stem + ".spans.jsonl");
    for (const std::string& line : outcome.spans) spans << line << "\n";
  }

  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": %s}\n",
      correct ? "true" : "false",
      static_cast<unsigned long long>(outcome.ledger.attempted),
      static_cast<unsigned long long>(outcome.ledger.failed),
      printed.MetricsJson(wanted).c_str());
  return correct ? 0 : 1;
}

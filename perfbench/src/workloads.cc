#include "workloads.h"

#include <malloc.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <cstdio>
#include <memory>
#include <mutex>
#include <thread>

#include "engine/engine.h"
#include "net/protocol.h"
#include "net/protocol_client.h"
#include "obs/trace.h"
#include "workload/generator.h"

namespace perfbench {

using rcj::RcjAlgorithm;
using rcj::Status;

namespace {

// Set-up repetitions per run; the 300k builds vary more between
// repetitions, so u300k_join takes the median of more of them.
constexpr int kSetupReps = 3;
constexpr int kU300kSetupReps = 5;
// serve_mix environments: two 20k x 20k pointset pairs.
constexpr size_t kServeMixPoints = 20000;
// live_churn: 50k x 50k, one writer connection on an open-loop schedule
// of 1,000 mutations/s, 5 ms WAL group-commit window on every journal,
// auto-compaction at 4,000 pending mutations. One thread sends each
// mutation line at its due time; a second reads the OK/MUT
// acknowledgements in order. At most kChurnBacklog mutations are
// unacknowledged at once, so every window drains in bounded time: when
// the service falls that far behind, the sender waits, and the wait shows
// in loadgen.lag_ms_p99 and in the due-time latencies (mutation_ms_*).
constexpr size_t kChurnPoints = 50000;
constexpr double kChurnRate = 1000.0;
constexpr size_t kChurnBacklog = 32;
constexpr uint64_t kChurnReadLimit = 100;
// u300k_join: ROADMAP's U300k.
constexpr size_t kU300kPoints = 300000;
// Live probes of the static workloads run on at most this many points.
constexpr size_t kLiveProbePoints = 50000;

double Ms(double seconds) { return seconds * 1e3; }

/// "n=3: 2210.4, 2187.9, 2301.2" for a short sample list, "n=N" otherwise.
std::string Samples(const std::vector<double>& samples) {
  std::string out = "n=" + std::to_string(samples.size());
  if (samples.size() > 8) return out;
  for (size_t i = 0; i < samples.size(); ++i) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%s%.1f", i == 0 ? ": " : ", ",
                  samples[i]);
    out += buf;
  }
  return out;
}

/// Progress marks on stderr, so a slow or stuck phase is visible.
void Phase(const std::string& what) {
  std::fprintf(stderr, "perfbench: %s\n", what.c_str());
}

int AlgoIndex(RcjAlgorithm algo) { return algo == RcjAlgorithm::kInj ? 1 : 0; }

const char* AlgoName(RcjAlgorithm algo) {
  return algo == RcjAlgorithm::kInj ? "INJ" : "OBJ";
}

/// Serial-runner oracle of one environment: prefix digests of the full
/// OBJ and INJ streams at every top-k limit.
struct EnvOracle {
  std::unique_ptr<PrefixOracle> by_algo[2];
  Expected For(RcjAlgorithm algo, uint64_t limit) const {
    return by_algo[AlgoIndex(algo)]->For(limit);
  }
};

Status BuildOracle(const EnvInput& input, bool with_inj, EnvOracle* oracle) {
  rcj::Result<std::unique_ptr<rcj::RcjEnvironment>> env =
      rcj::RcjEnvironment::Build(input.q, input.p, rcj::RcjRunOptions{});
  if (!env.ok()) return env.status();
  for (const RcjAlgorithm algo : {RcjAlgorithm::kObj, RcjAlgorithm::kInj}) {
    if (algo == RcjAlgorithm::kInj && !with_inj) continue;
    std::vector<uint64_t> limits = TopkLimits();
    limits.push_back(kChurnReadLimit);
    auto prefix = std::make_unique<PrefixOracle>(limits);
    rcj::QuerySpec spec = rcj::QuerySpec::For(env.value().get());
    spec.algorithm = algo;
    rcj::JoinStats stats;
    RINGJOIN_RETURN_IF_ERROR(env.value()->Run(spec, prefix.get(), &stats));
    oracle->by_algo[AlgoIndex(algo)] = std::move(prefix);
  }
  return Status::OK();
}

/// Set-up is timed `reps` times and reported as a median: `tear_down`
/// (untimed) drops the previous repetition's state and hands the freed
/// heap back, so every repetition starts from a comparable heap; `set_up`
/// builds it again and runs the warm-up queries. The window uses the last
/// one.
Status TimeSetUps(int reps, const std::function<void()>& tear_down,
                  const std::function<Status()>& set_up,
                  std::vector<double>* seconds) {
  for (int rep = 0; rep < reps; ++rep) {
    tear_down();
    malloc_trim(0);
    const double start = NowS();
    RINGJOIN_RETURN_IF_ERROR(set_up());
    seconds->push_back(NowS() - start);
  }
  return Status::OK();
}

void Merge(const Ledger& from, Ledger* into) {
  into->attempted += from.attempted;
  into->failed += from.failed;
  for (const std::string& e : from.errors) {
    if (into->errors.size() < 20) into->errors.push_back(e);
  }
}

/// "topk uniform OBJ limit=100", "full clustered INJ".
std::string QueryLabel(const std::string& env_name, const QueryItem& item) {
  return (item.limit == 0 ? "full " : "topk ") + env_name + " " +
         AlgoName(item.algo) +
         (item.limit == 0 ? "" : " limit=" + std::to_string(item.limit));
}

std::string SpanJson(const WireResult& r, const std::string& query,
                     uint64_t id) {
  char buf[448];
  std::snprintf(buf, sizeof(buf),
                "{\"id\": %llu, \"query\": \"%s\", \"ok\": %s, \"pairs\": "
                "%llu, \"traced\": %s, \"trace_spans\": %llu, "
                "\"dial_ms\": %.6f, \"ok_ms\": %.6f, "
                "\"first_pair_ms\": %.6f, \"total_ms\": %.6f, "
                "\"done_ms\": %.6f}",
                static_cast<unsigned long long>(id), query.c_str(),
                r.status.ok() ? "true" : "false",
                static_cast<unsigned long long>(r.pairs),
                r.traced ? "true" : "false",
                static_cast<unsigned long long>(r.trace_spans),
                Ms(r.dialed - r.start), Ms(r.ok - r.dialed),
                Ms(r.first_pair - r.ok), Ms(r.end - r.start),
                Ms(r.done - r.start));
  return buf;
}

/// The requests that did not ask for a trace.
std::vector<WireResult> Untraced(const std::vector<WireResult>& requests) {
  std::vector<WireResult> out;
  for (const WireResult& r : requests) {
    if (!r.traced) out.push_back(r);
  }
  return out;
}

/// trace.overhead_frac: how much longer the requests that carried the
/// program's tracing took than their untraced neighbours in the same
/// window, by median (the means follow the few requests that waited
/// behind a full join).
void AddTraceOverhead(const std::vector<double>& untraced_ms,
                      const std::vector<double>& traced_ms,
                      const std::string& what, Report* layers) {
  const double base = Median(untraced_ms);
  layers->Add("trace.overhead_frac",
              base > 0.0 ? Median(traced_ms) / base - 1.0 : 0.0, "frac",
              what + ", traced n=" + std::to_string(traced_ms.size()) +
                  " vs untraced n=" + std::to_string(untraced_ms.size()));
}

void AddTail(Report* report, const std::string& stem,
             const std::vector<double>& samples) {
  const Tail tail = TailPercentile(samples);
  if (!tail.ok) return;
  report->Add(stem + "_" + PctLabel(tail.pct), tail.value, "ms",
              "n=" + std::to_string(tail.n));
}

/// Items of `sequence` for the ladder and the engine top-k probe: the
/// first `topk` top-k items and `full` full joins of environment 0.
std::vector<QueryItem> LadderItems(const std::vector<QueryItem>& sequence,
                                   size_t topk, size_t full) {
  std::vector<QueryItem> out;
  size_t have_topk = 0;
  size_t have_full = 0;
  for (const QueryItem& item : sequence) {
    if (item.env != 0) continue;
    if (item.limit == 0 && have_full < full) {
      out.push_back(item);
      ++have_full;
    } else if (item.limit != 0 && have_topk < topk) {
      out.push_back(item);
      ++have_topk;
    }
    if (have_topk == topk && have_full == full) break;
  }
  return out;
}

std::vector<QueryItem> TopkOnly(const std::vector<QueryItem>& items) {
  std::vector<QueryItem> out;
  for (const QueryItem& item : items) {
    if (item.limit != 0) out.push_back(item);
  }
  return out;
}

/// The process's WAL counters from one backend's METRICS scrape (the
/// registry is process-wide, so this covers every journal).
struct WalCounters {
  Status status;
  double syncs = 0.0;
  double appends = 0.0;
};

WalCounters ScrapeWal(uint16_t port) {
  WalCounters out;
  rcj::Result<double> syncs = ScrapeCounter(port, "rcj_wal_syncs_total");
  rcj::Result<double> appends = ScrapeCounter(port, "rcj_wal_appends_total");
  out.status = !syncs.ok() ? syncs.status() : appends.status();
  if (out.status.ok()) {
    out.syncs = syncs.value();
    out.appends = appends.value();
  }
  return out;
}

void AddWalSyncsPerMutation(const WalCounters& before, const WalCounters& after,
                            const std::string& note, Report* layers) {
  if (!before.status.ok() || !after.status.ok()) return;
  const double appends = after.appends - before.appends;
  layers->Add("live.wal_syncs_per_mutation",
              appends > 0.0 ? (after.syncs - before.syncs) / appends : 0.0,
              "ratio", note);
}

/// Probes shared by every traced run: engine/core/storage probes on a
/// static environment, the ladder on a serving topology, and the live
/// probes on a live topology.
struct ProbePlan {
  rcj::RcjEnvironment* probe_env = nullptr;
  LayerTarget ladder;
  std::vector<QueryItem> ladder_items;
  LayerTarget mutations;
  EnvInput live_input;
};

Status RunProbes(const RunConfig& config, const ProbePlan& plan,
                 RunOutcome* out, LadderResult* ladder) {
  Phase("probes: engine and core");
  RINGJOIN_RETURN_IF_ERROR(RunEngineProbes(plan.probe_env,
                                           TopkOnly(plan.ladder_items),
                                           config.nproc, &out->layers,
                                           &out->ledger));
  Phase("probes: layer ladder");
  RINGJOIN_RETURN_IF_ERROR(RunLadder(plan.ladder, plan.ladder_items,
                                     &out->layers, &out->ledger, ladder));
  AddServingCounters(plan.ladder.fleet, &out->layers);

  const uint16_t port =
      plan.mutations.fleet->backend_port(plan.mutations.backend);
  Phase("probes: mutation ladder");
  const WalCounters wal0 = ScrapeWal(port);
  uint64_t delta_peak = 0;
  RINGJOIN_RETURN_IF_ERROR(RunMutationLadder(plan.mutations, 60, &out->layers,
                                             &out->ledger, &delta_peak));
  AddWalSyncsPerMutation(wal0, ScrapeWal(port), "mutation ladder",
                         &out->layers);
  const rcj::LiveStats stats =
      plan.mutations.fleet->live(plan.mutations.backend)->stats();
  out->layers.Add("live.compactions", static_cast<double>(stats.compactions),
                  "count", "mutation ladder");
  out->layers.Add("live.delta_peak", static_cast<double>(delta_peak),
                  "count", "mutation ladder");
  Phase("probes: compaction");
  return RunCompactionProbe(plan.live_input, SubSeed(config.seed, 90),
                            config.wal_root + "/probe", &out->layers,
                            &out->ledger);
}

/// A live topology over at most kLiveProbePoints of `input`, for the live
/// probes of the static workloads.
rcj::Result<std::unique_ptr<Fleet>> StartLiveProbe(const RunConfig& config,
                                                   const EnvInput& input,
                                                   EnvInput* probe_input) {
  probe_input->name = "live";
  probe_input->q.assign(
      input.q.begin(),
      input.q.begin() + std::min(input.q.size(), kLiveProbePoints));
  probe_input->p.assign(
      input.p.begin(),
      input.p.begin() + std::min(input.p.size(), kLiveProbePoints));
  return Fleet::StartLive(*probe_input, config.wal_root + "/probe_fleet");
}

LayerTarget StaticTarget(Fleet* fleet, const std::string& name,
                         size_t env_index) {
  LayerTarget target;
  target.fleet = fleet;
  target.env_name = name;
  target.backend = fleet->primary(name);
  rcj::RcjEnvironment* env = fleet->env(target.backend, env_index);
  target.spec = rcj::QuerySpec::For(env);
  target.serial = [env](const rcj::QuerySpec& spec, rcj::PairSink* sink,
                        rcj::JoinStats* stats) {
    return env->Run(spec, sink, stats);
  };
  return target;
}

LayerTarget LiveTarget(Fleet* fleet, const std::string& name,
                       std::shared_ptr<rcj::LiveSnapshot> snapshot) {
  LayerTarget target;
  target.fleet = fleet;
  target.env_name = name;
  target.backend = fleet->primary(name);
  if (snapshot != nullptr) {
    target.spec = snapshot->Spec();
    target.serial = [snapshot](const rcj::QuerySpec& spec,
                               rcj::PairSink* sink, rcj::JoinStats* stats) {
      return snapshot->Run(spec, sink, stats);
    };
  }
  return target;
}

void AddCommonE2e(const std::vector<double>& setup, double cpu_s,
                  uint64_t ops, const Ledger& ledger, RunOutcome* out) {
  out->e2e.Add("setup_s", Median(setup), "s",
               "median of " + std::to_string(setup.size()));
  out->e2e.Add("failed_frac",
               ledger.attempted == 0
                   ? 0.0
                   : static_cast<double>(ledger.failed) /
                         static_cast<double>(ledger.attempted),
               "frac");
  out->e2e.Add("peak_rss_mb", PeakRssMb(), "MB");
  out->e2e.Add("cpu_ms_per_op",
               ops == 0 ? 0.0 : Ms(cpu_s) / static_cast<double>(ops), "ms",
               "ops=" + std::to_string(ops));
}

// ---- serve_mix ------------------------------------------------------------

struct ServeLoad {
  std::vector<double> topk_ms;         // untraced requests
  std::vector<double> full_ms;         // untraced requests
  std::vector<double> traced_topk_ms;  // traced run: trace=1 requests
  std::vector<WireResult> requests;    // traced run only
  std::vector<std::string> queries;    // traced run only
  uint64_t completed = 0;
  double elapsed = 0.0;
  double cpu = 0.0;
};

/// The closed loop of `clients` threads. In a traced run every second
/// request of each client carries trace=1; those are timed apart, up to
/// their ENDTRACE, and kept out of topk_ms/full_ms.
ServeLoad DriveServeMix(Fleet* fleet, const std::vector<QueryItem>& sequence,
                        const std::vector<EnvInput>& envs,
                        const std::vector<EnvOracle>& oracles, size_t clients,
                        double seconds, bool traced, Ledger* ledger) {
  std::atomic<size_t> cursor{0};
  ServeLoad load;
  std::mutex mu;
  const double cpu0 = ProcessCpuS();
  const double start = NowS();
  const double deadline = start + seconds;
  double last_end = start;
  std::vector<std::thread> threads;
  for (size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&]() {
      ServeLoad mine;
      Ledger checks;
      double my_last = start;
      for (size_t k = 0; NowS() < deadline; ++k) {
        const QueryItem& item =
            sequence[cursor.fetch_add(1) % sequence.size()];
        const bool trace = traced && k % 2 == 1;
        WireResult r =
            WireQuery(fleet->proxy_port(), envs[item.env].name, item, trace);
        const Expected want = oracles[item.env].For(item.algo, item.limit);
        const bool ok =
            r.status.ok() &&
            StreamMatches(want, r.pairs, r.digest.value());
        if (checks.Check(ok, "serve_mix " + envs[item.env].name + " " +
                                 AlgoName(item.algo) + " limit=" +
                                 std::to_string(item.limit) + ": " +
                                 r.status.ToString())) {
          if (!trace) {
            (item.limit == 0 ? mine.full_ms : mine.topk_ms)
                .push_back(Ms(r.end - r.start));
          } else if (item.limit != 0) {
            mine.traced_topk_ms.push_back(Ms(r.done - r.start));
          }
          ++mine.completed;
          my_last = r.end;
        }
        if (traced) {
          mine.requests.push_back(r);
          mine.queries.push_back(QueryLabel(envs[item.env].name, item));
        }
      }
      std::lock_guard<std::mutex> lock(mu);
      load.topk_ms.insert(load.topk_ms.end(), mine.topk_ms.begin(),
                          mine.topk_ms.end());
      load.full_ms.insert(load.full_ms.end(), mine.full_ms.begin(),
                          mine.full_ms.end());
      load.traced_topk_ms.insert(load.traced_topk_ms.end(),
                                 mine.traced_topk_ms.begin(),
                                 mine.traced_topk_ms.end());
      load.requests.insert(load.requests.end(), mine.requests.begin(),
                           mine.requests.end());
      load.queries.insert(load.queries.end(), mine.queries.begin(),
                          mine.queries.end());
      load.completed += mine.completed;
      last_end = std::max(last_end, my_last);
      Merge(checks, ledger);
    });
  }
  for (std::thread& t : threads) t.join();
  load.elapsed = std::max(last_end, deadline) - start;
  load.cpu = ProcessCpuS() - cpu0;
  return load;
}

Status RunServeMix(const RunConfig& config, RunOutcome* out) {
  const size_t clients = config.nproc;
  RINGJOIN_RETURN_IF_ERROR(GuardClients(clients, clients, config.nproc));
  std::vector<EnvInput> envs(2);
  envs[0].name = "uniform";
  envs[0].q = rcj::GenerateUniform(kServeMixPoints, SubSeed(config.seed, 1));
  envs[0].p = rcj::GenerateUniform(kServeMixPoints, SubSeed(config.seed, 2));
  envs[1].name = "clustered";
  envs[1].q = rcj::GenerateGaussianClusters(kServeMixPoints, 8, 1000.0,
                                            SubSeed(config.seed, 3));
  envs[1].p = rcj::GenerateGaussianClusters(kServeMixPoints, 8, 1000.0,
                                            SubSeed(config.seed, 4));
  const std::vector<QueryItem> sequence =
      ServeMixSequence(SubSeed(config.seed, 5), 100000, 2);

  std::vector<EnvOracle> oracles(envs.size());
  for (size_t e = 0; e < envs.size(); ++e) {
    RINGJOIN_RETURN_IF_ERROR(BuildOracle(envs[e], true, &oracles[e]));
  }

  Phase("serve_mix: oracle done, setting up");
  std::unique_ptr<Fleet> fleet;
  std::vector<double> setup;
  RINGJOIN_RETURN_IF_ERROR(TimeSetUps(
      kSetupReps, [&]() { fleet.reset(); },
      [&]() {
        rcj::Result<std::unique_ptr<Fleet>> started =
            Fleet::StartStatic(envs);
        if (!started.ok()) return started.status();
        fleet = std::move(started).value();
        for (size_t b = 0; b < fleet->backends(); ++b) {
          for (size_t e = 0; e < envs.size(); ++e) {
            const QueryItem warm{static_cast<uint32_t>(e), RcjAlgorithm::kObj,
                                 0};
            const WireResult r =
                WireQuery(fleet->backend_port(b), envs[e].name, warm);
            out->ledger.Check(r.status.ok() &&
                                  StreamMatches(oracles[e].For(warm.algo, 0),
                                                r.pairs, r.digest.value()),
                              "serve_mix warm-up: " + r.status.ToString());
          }
        }
        return Status::OK();
      },
      &setup));

  Phase("serve_mix: set up; primaries: " + envs[0].name + " on backend " +
        std::to_string(fleet->primary(envs[0].name)) + ", " + envs[1].name +
        " on backend " + std::to_string(fleet->primary(envs[1].name)));
  const ServeLoad load =
      DriveServeMix(fleet.get(), sequence, envs, oracles, clients,
                    config.seconds, config.trace, &out->ledger);

  AddCommonE2e(setup, load.cpu, load.completed, out->ledger, out);
  out->e2e.Add("topk_ms_p50", Median(load.topk_ms), "ms",
               "n=" + std::to_string(load.topk_ms.size()));
  AddTail(&out->e2e, "topk_ms", load.topk_ms);
  out->e2e.Add("full_ms_p50", Median(load.full_ms), "ms",
               "n=" + std::to_string(load.full_ms.size()));
  AddTail(&out->e2e, "full_ms", load.full_ms);
  out->e2e.Add("queries_per_s",
               static_cast<double>(load.completed) / load.elapsed, "1/s");
  out->e2e.Add("topk_ms_mean", Mean(load.topk_ms), "ms",
               "n=" + std::to_string(load.topk_ms.size()));
  // The top-k latencies sit in modes ~20 ms apart (one delayed-ACK stall
  // or two) with roughly half the queries in each, so their median jumps
  // between modes from run to run; the gate uses the mean.
  out->e2e.Add("main_ms", Mean(load.topk_ms), "ms", "= topk_ms_mean");
  out->e2e.Add("aux_ms", Median(load.full_ms), "ms", "= full_ms_p50");
  if (!config.trace) return Status::OK();

  for (size_t i = 0; i < load.requests.size(); ++i) {
    out->spans.push_back(SpanJson(load.requests[i], load.queries[i], i));
  }

  ProbePlan plan;
  plan.probe_env = fleet->env(fleet->primary(envs[0].name), 0);
  plan.ladder = StaticTarget(fleet.get(), envs[0].name, 0);
  plan.ladder_items = LadderItems(sequence, 60, 4);
  EnvInput live_input;
  rcj::Result<std::unique_ptr<Fleet>> live_fleet =
      StartLiveProbe(config, envs[0], &live_input);
  if (!live_fleet.ok()) return live_fleet.status();
  plan.mutations = LiveTarget(live_fleet.value().get(), "live", nullptr);
  plan.live_input = live_input;
  LadderResult ladder;
  RINGJOIN_RETURN_IF_ERROR(RunProbes(config, plan, out, &ladder));
  live_fleet.value().reset();
  RemoveDir(config.wal_root + "/probe_fleet");

  AddWireSpans(Untraced(load.requests), &out->layers);
  out->layers.Add("fleet.load_wait_ms_p50",
                  Median(load.topk_ms) - out->layers.Get("fleet.topk_ms_p50"),
                  "ms");
  out->layers.Add("loadgen.lag_ms_p99", 0.0, "ms", "closed loop: no schedule");
  AddTraceOverhead(load.topk_ms, load.traced_topk_ms, "loaded top-k",
                   &out->layers);
  return Status::OK();
}

// ---- u300k_join -------------------------------------------------------------

struct JoinLoad {
  std::vector<double> engine_ms;
  std::vector<double> serial_ms;
  std::vector<double> serial_cpu_ms;     // thread CPU time of the serial joins
  std::vector<double> traced_engine_ms;  // traced run only
  double elapsed = 0.0;
  double cpu = 0.0;
};

/// Full joins until `seconds` have passed. Each round runs the engine join
/// and then the serial one; in a traced run a round is instead an
/// untraced and a traced engine join (QuerySpec::trace set), and the
/// serial runner is measured by the phase-split probe.
JoinLoad DriveJoins(rcj::RcjEnvironment* env, rcj::Engine* engine,
                    const Expected& want, double seconds, bool traced,
                    Ledger* ledger) {
  JoinLoad load;
  const rcj::QuerySpec full = rcj::QuerySpec::For(env);
  const double cpu0 = ProcessCpuS();
  const double start = NowS();
  do {
    for (int step = 0; step < 2; ++step) {
      const bool serial = !traced && step == 1;
      const bool trace = traced && step == 1;
      rcj::obs::TraceContext context;
      rcj::QuerySpec spec = full;
      if (trace) spec.trace = &context;
      DigestSink sink;
      rcj::JoinStats stats;
      const double cpu0 = ThreadCpuS();
      const double t0 = NowS();
      const Status status = serial ? env->Run(spec, &sink, &stats)
                                   : engine->Run(spec, &sink, &stats);
      const double elapsed = NowS() - t0;
      const double cpu = ThreadCpuS() - cpu0;
      const bool ok = status.ok() &&
                      StreamMatches(want, sink.digest.count(),
                                    sink.digest.value()) &&
                      (!trace || !context.Spans().empty());
      if (!ledger->Check(ok, std::string("u300k ") +
                                 (serial ? "serial" : "engine") +
                                 (trace ? " traced" : "") +
                                 " join: " + status.ToString())) {
        continue;
      }
      if (serial) {
        load.serial_ms.push_back(Ms(elapsed));
        load.serial_cpu_ms.push_back(Ms(cpu));
      } else {
        (trace ? load.traced_engine_ms : load.engine_ms)
            .push_back(Ms(elapsed));
      }
    }
  } while (NowS() - start < seconds);
  load.elapsed = NowS() - start;
  load.cpu = ProcessCpuS() - cpu0;
  return load;
}

Status RunU300k(const RunConfig& config, RunOutcome* out) {
  RINGJOIN_RETURN_IF_ERROR(GuardClients(1, 0, config.nproc));
  EnvInput input;
  input.name = "u300k";
  input.q = rcj::GenerateUniform(kU300kPoints, SubSeed(config.seed, 1));
  input.p = rcj::GenerateUniform(kU300kPoints, SubSeed(config.seed, 2));

  Phase("u300k_join: setting up");
  std::unique_ptr<rcj::RcjEnvironment> env;
  std::unique_ptr<rcj::Engine> engine;
  std::vector<double> setup;
  std::vector<StreamDigest> warm_ups;
  RINGJOIN_RETURN_IF_ERROR(TimeSetUps(
      kU300kSetupReps,
      [&]() {
        engine.reset();
        env.reset();
      },
      [&]() {
        rcj::Result<std::unique_ptr<rcj::RcjEnvironment>> built =
            rcj::RcjEnvironment::Build(input.q, input.p, rcj::RcjRunOptions{});
        if (!built.ok()) return built.status();
        env = std::move(built).value();
        rcj::EngineOptions engine_options;
        engine_options.num_threads = config.nproc;
        engine = std::make_unique<rcj::Engine>(engine_options);
        DigestSink warm;
        rcj::JoinStats stats;
        const Status status =
            engine->Run(rcj::QuerySpec::For(env.get()), &warm, &stats);
        out->ledger.Check(status.ok(), "u300k warm-up: " + status.ToString());
        warm_ups.push_back(warm.digest);
        return Status::OK();
      },
      &setup));

  // The oracle's serial join doubles as the serial runner's warm-up, so
  // it runs on the set-up environment, after set-up is timed.
  Phase("u300k_join: oracle");
  PrefixOracle oracle({});
  rcj::JoinStats oracle_stats;
  RINGJOIN_RETURN_IF_ERROR(
      env->Run(rcj::QuerySpec::For(env.get()), &oracle, &oracle_stats));
  const Expected want = oracle.For(0);
  for (const StreamDigest& warm : warm_ups) {
    out->ledger.Check(StreamMatches(want, warm.count(), warm.value()),
                      "u300k warm-up stream differs from the oracle");
  }

  Phase("u300k_join: set up, load window");
  const JoinLoad load = DriveJoins(env.get(), engine.get(), want,
                                   config.seconds, config.trace, &out->ledger);
  const uint64_t joins = load.engine_ms.size() + load.serial_ms.size() +
                         load.traced_engine_ms.size();
  AddCommonE2e(setup, load.cpu, joins, out->ledger, out);
  out->e2e.Add("join_s_p50", Median(load.engine_ms) / 1e3, "s",
               "engine at " + std::to_string(config.nproc) + " threads, " +
                   Samples(load.engine_ms));
  out->e2e.Add("queries_per_s", static_cast<double>(joins) / load.elapsed,
               "1/s", "full joins");
  out->e2e.Add("main_ms", Median(load.engine_ms), "ms", "= join_s_p50");
  if (!config.trace) {
    // The traced window runs no serial joins (the phase split does).
    out->e2e.Add("serial_join_s_p50", Median(load.serial_ms) / 1e3, "s",
                 Samples(load.serial_ms));
    out->e2e.Add("serial_join_cpu_s_p50", Median(load.serial_cpu_ms) / 1e3,
                 "s", "thread CPU time, " + Samples(load.serial_cpu_ms));
    out->e2e.Add("aux_ms", Median(load.serial_ms), "ms",
                 "= serial_join_s_p50");
    return Status::OK();
  }
  engine.reset();

  // The ladder needs a serving topology over the same environment.
  rcj::Result<std::unique_ptr<Fleet>> fleet = Fleet::StartStatic({input});
  if (!fleet.ok()) return fleet.status();
  EnvInput live_input;
  rcj::Result<std::unique_ptr<Fleet>> live_fleet =
      StartLiveProbe(config, input, &live_input);
  if (!live_fleet.ok()) return live_fleet.status();

  ProbePlan plan;
  plan.probe_env = env.get();
  plan.ladder = StaticTarget(fleet.value().get(), input.name, 0);
  plan.ladder_items =
      LadderItems(ServeMixSequence(SubSeed(config.seed, 5), 100000, 1), 30, 1);
  plan.mutations = LiveTarget(live_fleet.value().get(), "live", nullptr);
  plan.live_input = live_input;
  LadderResult ladder;
  RINGJOIN_RETURN_IF_ERROR(RunProbes(config, plan, out, &ladder));
  live_fleet.value().reset();
  RemoveDir(config.wal_root + "/probe_fleet");

  for (size_t i = 0; i < ladder.fleet_requests.size(); ++i) {
    out->spans.push_back(SpanJson(ladder.fleet_requests[i],
                                  QueryLabel(input.name, plan.ladder_items[i]),
                                  i));
  }
  AddWireSpans(ladder.fleet_requests, &out->layers);
  out->layers.Add("fleet.load_wait_ms_p50", 0.0, "ms",
                  "no wire load in this workload");
  out->layers.Add("loadgen.lag_ms_p99", 0.0, "ms", "closed loop: no schedule");
  AddTraceOverhead(load.engine_ms, load.traced_engine_ms, "engine joins",
                   &out->layers);
  return Status::OK();
}

// ---- live_churn -------------------------------------------------------------

struct ChurnLoad {
  std::vector<double> topk_ms;         // untraced reads
  std::vector<double> traced_topk_ms;  // traced run: trace=1 reads
  std::vector<double> mutation_ms;     // due time -> MUT
  std::vector<double> ack_ms;          // sent -> MUT
  std::vector<double> lag_ms;          // due time -> sent
  std::vector<WireResult> requests;    // traced run only
  uint64_t reads = 0;
  uint64_t mutations = 0;
  uint64_t delta_peak = 0;
  double elapsed = 0.0;
  double cpu = 0.0;
};

/// Reads one mutation's OK + MUT acknowledgement.
Status ReadMutationAck(rcj::net::ProtocolClient* client,
                       rcj::net::WireMutationAck* ack) {
  std::string line;
  if (!client->ReadLine(&line)) return Status::IoError("no OK");
  if (line != "OK") {
    Status error = Status::Corruption("expected OK, got '" + line + "'");
    rcj::net::ParseErrLine(line, &error);
    return error;
  }
  if (!client->ReadLine(&line)) return Status::IoError("no MUT after OK");
  return rcj::net::ParseMutationAckLine(line, ack);
}

/// The open-loop writer on one connection: mutations churn[*cursor...]
/// are due every 1/kChurnRate s from `start`, the last one before
/// `deadline`; then the backlog drains. Advances *cursor past the
/// acknowledged ones.
void WriteChurn(uint16_t port, const std::vector<MutationItem>& churn,
                size_t* cursor, double start, double deadline,
                ChurnLoad* load, Ledger* checks) {
  rcj::Result<rcj::net::ProtocolClient> dialed =
      rcj::net::ProtocolClient::Connect("127.0.0.1", port);
  if (!checks->Check(dialed.ok(),
                     "churn writer dial: " + dialed.status().ToString())) {
    return;
  }
  rcj::net::ProtocolClient client = std::move(dialed).value();
  const size_t first = *cursor;
  const auto due = [start](size_t i) {
    return start + static_cast<double>(i) / kChurnRate;
  };

  std::mutex mu;
  std::condition_variable changed;
  // sent_at and the four below are guarded by mu.
  std::vector<double> sent_at;
  size_t acked = 0;
  bool sending = true;
  bool broken = false;
  bool send_failed = false;

  std::thread sender([&]() {
    for (size_t i = 0; first + i < churn.size() && due(i) < deadline; ++i) {
      const double wait = due(i) - NowS();
      if (wait > 0.0) {
        std::this_thread::sleep_for(std::chrono::duration<double>(wait));
      }
      std::unique_lock<std::mutex> lock(mu);
      changed.wait_for(
          lock, std::chrono::duration<double>(std::max(0.0, deadline - NowS())),
          [&]() { return broken || sent_at.size() - acked < kChurnBacklog; });
      const double send = NowS();
      if (broken || sent_at.size() - acked >= kChurnBacklog ||
          send >= deadline) {
        break;
      }
      // Sent under the lock, so sent_at holds exactly the lines sent.
      if (!client.SendLine(rcj::net::FormatMutationLine(
              ToWire(churn[first + i], "live")))) {
        send_failed = true;
        broken = true;
        break;
      }
      sent_at.push_back(send);
      load->lag_ms.push_back(Ms(send - due(i)));
      changed.notify_all();
    }
    std::lock_guard<std::mutex> lock(mu);
    sending = false;
    changed.notify_all();
  });

  uint64_t last_epoch = 0;
  for (size_t j = 0;; ++j) {
    double sent = 0.0;
    {
      std::unique_lock<std::mutex> lock(mu);
      changed.wait(lock, [&]() {
        return j < sent_at.size() || !sending || broken;
      });
      if (j >= sent_at.size() || broken) break;
      sent = sent_at[j];
    }
    rcj::net::WireMutationAck ack;
    Status status = ReadMutationAck(&client, &ack);
    const double acked_at = NowS();
    const MutationItem& item = churn[first + j];
    const rcj::net::WireMutationOp op =
        item.insert ? rcj::net::WireMutationOp::kInsert
                    : rcj::net::WireMutationOp::kDelete;
    if (status.ok() && (ack.op != op || ack.epoch <= last_epoch)) {
      status = Status::Corruption("acknowledgement out of order (epoch " +
                                  std::to_string(ack.epoch) + ")");
    }
    if (!checks->Check(status.ok(), "churn mutation " +
                                        std::to_string(first + j) + ": " +
                                        status.ToString())) {
      std::lock_guard<std::mutex> lock(mu);
      broken = true;
      changed.notify_all();
      break;
    }
    last_epoch = ack.epoch;
    load->mutation_ms.push_back(Ms(acked_at - due(j)));
    load->ack_ms.push_back(Ms(acked_at - sent));
    load->delta_peak =
        std::max<uint64_t>(load->delta_peak, ack.delta + ack.tombstones);
    std::lock_guard<std::mutex> lock(mu);
    ++acked;
    changed.notify_all();
  }
  sender.join();
  checks->Check(!send_failed, "churn mutation " +
                                  std::to_string(first + sent_at.size()) +
                                  ": send failed");
  *cursor += acked;
  load->mutations = acked;
}

/// One load window: the open-loop writer and `readers` closed-loop
/// `limit=100` readers. In a traced run every second read carries
/// trace=1; those are timed apart, up to their ENDTRACE.
ChurnLoad DriveChurn(Fleet* fleet, const std::vector<MutationItem>& churn,
                     size_t* cursor, size_t readers, double seconds,
                     bool traced, Ledger* ledger) {
  ChurnLoad load;
  std::mutex mu;
  const double cpu0 = ProcessCpuS();
  const double start = NowS();
  const double deadline = start + seconds;

  std::thread writer([&]() {
    Ledger checks;
    WriteChurn(fleet->proxy_port(), churn, cursor, start, deadline, &load,
               &checks);
    std::lock_guard<std::mutex> lock(mu);
    Merge(checks, ledger);
  });

  std::vector<std::thread> threads;
  for (size_t r = 0; r < readers; ++r) {
    threads.emplace_back([&]() {
      std::vector<double> mine;
      std::vector<double> mine_traced;
      std::vector<WireResult> spans;
      Ledger checks;
      const QueryItem item{0, RcjAlgorithm::kObj, kChurnReadLimit};
      for (size_t k = 0; NowS() < deadline; ++k) {
        const bool trace = traced && k % 2 == 1;
        WireResult result =
            WireQuery(fleet->proxy_port(), "live", item, trace);
        // Reads race the writer, so a read is checked for a complete
        // top-k stream; exact equality with an oracle is checked on both
        // replicas once the writer has quiesced.
        if (checks.Check(result.status.ok() &&
                             result.pairs == kChurnReadLimit,
                         "churn read: " + result.status.ToString() +
                             " pairs=" + std::to_string(result.pairs))) {
          if (trace) {
            mine_traced.push_back(Ms(result.done - result.start));
          } else {
            mine.push_back(Ms(result.end - result.start));
          }
        }
        if (traced) spans.push_back(result);
      }
      std::lock_guard<std::mutex> lock(mu);
      load.topk_ms.insert(load.topk_ms.end(), mine.begin(), mine.end());
      load.traced_topk_ms.insert(load.traced_topk_ms.end(),
                                 mine_traced.begin(), mine_traced.end());
      load.requests.insert(load.requests.end(), spans.begin(), spans.end());
      Merge(checks, ledger);
    });
  }
  writer.join();
  for (std::thread& t : threads) t.join();
  load.reads = load.topk_ms.size() + load.traced_topk_ms.size();
  load.elapsed = NowS() - start;
  load.cpu = ProcessCpuS() - cpu0;
  return load;
}

Status RunLiveChurn(const RunConfig& config, RunOutcome* out) {
  if (config.nproc < 2) {
    return Status::InvalidArgument("live_churn needs at least 2 processors");
  }
  const size_t readers = config.nproc - 1;
  RINGJOIN_RETURN_IF_ERROR(
      GuardClients(readers + 1, readers + 1, config.nproc));
  EnvInput input;
  input.name = "live";
  input.q = rcj::GenerateUniform(kChurnPoints, SubSeed(config.seed, 1));
  input.p = rcj::GenerateUniform(kChurnPoints, SubSeed(config.seed, 2));
  const size_t budget =
      static_cast<size_t>(config.seconds * kChurnRate * 1.2) + 2000;
  const std::vector<MutationItem> churn =
      MutationSequence(SubSeed(config.seed, 6), budget, input.q, input.p);

  EnvOracle base_oracle;
  RINGJOIN_RETURN_IF_ERROR(BuildOracle(input, false, &base_oracle));

  Phase("live_churn: oracle done, setting up");
  std::unique_ptr<Fleet> fleet;
  std::vector<double> setup;
  RINGJOIN_RETURN_IF_ERROR(TimeSetUps(
      kSetupReps, [&]() { fleet.reset(); },
      [&]() {
        rcj::Result<std::unique_ptr<Fleet>> started =
            Fleet::StartLive(input, config.wal_root + "/churn");
        if (!started.ok()) return started.status();
        fleet = std::move(started).value();
        for (size_t b = 0; b < fleet->backends(); ++b) {
          const QueryItem warm{0, RcjAlgorithm::kObj, 0};
          const WireResult r = WireQuery(fleet->backend_port(b), "live", warm);
          out->ledger.Check(
              r.status.ok() && StreamMatches(base_oracle.For(warm.algo, 0),
                                             r.pairs, r.digest.value()),
              "live_churn warm-up: " + r.status.ToString());
        }
        return Status::OK();
      },
      &setup));

  Phase("live_churn: set up, load window");
  const WalCounters wal0 = ScrapeWal(fleet->backend_port(0));
  const uint64_t compactions0 = fleet->live(0)->stats().compactions;

  size_t cursor = 0;
  const ChurnLoad load = DriveChurn(fleet.get(), churn, &cursor, readers,
                                    config.seconds, config.trace,
                                    &out->ledger);
  const WalCounters wal1 = ScrapeWal(fleet->backend_port(0));
  const uint64_t compactions =
      fleet->live(0)->stats().compactions - compactions0;

  Phase("live_churn: quiescing after " + std::to_string(cursor) +
        " mutations");
  // Quiesce: fold everything on both replicas, then each replica's full
  // stream must equal the serial runner over the same mutation prefix.
  {
    rcj::Result<rcj::net::ProtocolClient> dialed =
        rcj::net::ProtocolClient::Connect("127.0.0.1", fleet->proxy_port());
    Status status = dialed.status();
    if (dialed.ok()) {
      rcj::net::WireMutation compact;
      compact.op = rcj::net::WireMutationOp::kCompact;
      compact.env_name = "live";
      status = dialed.value().Mutate(compact, nullptr);
    }
    out->ledger.Check(status.ok(), "quiesce COMPACT: " + status.ToString());
  }
  Phase("live_churn: checking replicas");
  EnvInput final_input = input;
  ApplyMutations(churn, cursor, &final_input.q, &final_input.p);
  EnvOracle final_oracle;
  RINGJOIN_RETURN_IF_ERROR(BuildOracle(final_input, false, &final_oracle));
  for (size_t b = 0; b < fleet->backends(); ++b) {
    const WireResult r = WireQuery(fleet->backend_port(b), "live",
                                   QueryItem{0, RcjAlgorithm::kObj, 0});
    out->ledger.Check(
        r.status.ok() && StreamMatches(final_oracle.For(RcjAlgorithm::kObj, 0),
                                       r.pairs, r.digest.value()),
        "replica " + std::to_string(b) + " differs from the oracle after " +
            std::to_string(cursor) + " mutations: " + r.status.ToString());
  }

  AddCommonE2e(setup, load.cpu, load.reads + load.mutations, out->ledger,
               out);
  out->e2e.Add("topk_ms_p50", Median(load.topk_ms), "ms",
               "n=" + std::to_string(load.topk_ms.size()));
  AddTail(&out->e2e, "topk_ms", load.topk_ms);
  out->e2e.Add("queries_per_s",
               static_cast<double>(load.reads) / load.elapsed, "1/s");
  out->e2e.Add("mutations_per_s",
               static_cast<double>(load.mutations) / load.elapsed, "1/s",
               "acknowledged, of " +
                   std::to_string(static_cast<int>(kChurnRate)) +
                   " offered");
  out->e2e.Add("mutation_ms_p50", Median(load.mutation_ms), "ms",
               "due time -> MUT, n=" +
                   std::to_string(load.mutation_ms.size()));
  AddTail(&out->e2e, "mutation_ms", load.mutation_ms);
  out->e2e.Add("mutation_ack_ms_p50", Median(load.ack_ms), "ms",
               "sent -> MUT, at most " + std::to_string(kChurnBacklog) +
                   " in flight, n=" + std::to_string(load.ack_ms.size()));
  AddTail(&out->e2e, "mutation_ack_ms", load.ack_ms);
  out->e2e.Add("main_ms", Median(load.topk_ms), "ms", "= topk_ms_p50");
  // Due-time latency is not gated: when the writer cannot keep up with the
  // schedule it grows through the window and tracks the window's length.
  out->e2e.Add("aux_ms", Median(load.ack_ms), "ms", "= mutation_ack_ms_p50");
  if (!config.trace) return Status::OK();

  for (size_t i = 0; i < load.requests.size(); ++i) {
    out->spans.push_back(SpanJson(
        load.requests[i],
        QueryLabel("live", QueryItem{0, RcjAlgorithm::kObj, kChurnReadLimit}),
        i));
  }

  // Probes: a static copy of the final membership, and the quiesced
  // (compacted) live topology itself.
  rcj::Result<std::unique_ptr<rcj::RcjEnvironment>> probe_env =
      rcj::RcjEnvironment::Build(final_input.q, final_input.p,
                                 rcj::RcjRunOptions{});
  if (!probe_env.ok()) return probe_env.status();
  const size_t primary = fleet->primary("live");
  auto snapshot = std::make_shared<rcj::LiveSnapshot>(
      fleet->live(primary)->TakeSnapshot());
  ProbePlan plan;
  plan.probe_env = probe_env.value().get();
  plan.ladder = LiveTarget(fleet.get(), "live", snapshot);
  std::vector<QueryItem> items(30, QueryItem{0, RcjAlgorithm::kObj,
                                             kChurnReadLimit});
  items.push_back(QueryItem{0, RcjAlgorithm::kObj, 0});
  items.push_back(QueryItem{0, RcjAlgorithm::kObj, 0});
  plan.ladder_items = items;
  plan.mutations = LiveTarget(fleet.get(), "live", nullptr);
  plan.live_input = final_input;
  LadderResult ladder;
  RINGJOIN_RETURN_IF_ERROR(RunProbes(config, plan, out, &ladder));
  snapshot.reset();

  AddWireSpans(Untraced(load.requests), &out->layers);
  out->layers.Add("fleet.load_wait_ms_p50",
                  Median(load.topk_ms) - out->layers.Get("fleet.topk_ms_p50"),
                  "ms");
  const Tail lag = TailPercentile(load.lag_ms);
  out->layers.Add("loadgen.lag_ms_p99", lag.value, "ms",
                  PctLabel(lag.pct) + " of n=" + std::to_string(lag.n));
  out->layers.Add("live.compactions", static_cast<double>(compactions),
                  "count", "during the load windows");
  out->layers.Add("live.delta_peak", static_cast<double>(load.delta_peak),
                  "count", "pending mutations, from the acknowledgements");
  AddWalSyncsPerMutation(wal0, wal1, "load window, both backends",
                         &out->layers);
  AddTraceOverhead(load.topk_ms, load.traced_topk_ms, "loaded top-k reads",
                   &out->layers);
  return Status::OK();
}

}  // namespace

const std::vector<std::string>& EndToEndMetrics() {
  static const std::vector<std::string> names = {
      "setup_s", "main_ms", "aux_ms"};
  return names;
}

const std::vector<std::string>& PerLayerMetrics() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> out = {
        "core.plan_s",
        "core.leaf_read_s",
        "core.filter_s",
        "core.verify_s",
        "core.deliver_s",
        "core.unattributed_frac",
        "core.filter_node_accesses",
        "core.verify_node_accesses",
        "core.candidates",
        "core.results",
        "core.verify_yield",
        "storage.page_faults",
        "storage.cold_faults",
        "storage.warm_faults",
        "storage.hit_frac",
        "storage.io_wall_s",
        "storage.pool_pages",
        "rtree.pages",
        "engine.busy_s",
        "engine.cpu_s",
        "engine.parallel_eff",
        "engine.offcpu_frac",
        "engine.fault_inflation",
        "engine.topk_thread_slowdown",
        "engine.topk_candidates_ratio",
        "engine.view_reuse_frac",
    };
    const char* tiers[] = {"core", "engine", "service", "shard", "net",
                           "fleet"};
    for (const char* tier : tiers) {
      out.push_back(std::string(tier) + ".topk_ms_p50");
      out.push_back(std::string(tier) + ".full_ms_p50");
    }
    for (size_t t = 1; t < 6; ++t) {
      out.push_back(std::string(tiers[t]) + ".topk_tax_ms");
      out.push_back(std::string(tiers[t]) + ".full_tax_ms");
    }
    for (const char* name :
         {"fleet.load_wait_ms_p50", "net.dial_ms_p50", "net.ok_ms_p50",
          "net.first_pair_ms_p50", "net.pair_format_ns", "net.pair_parse_ns",
          "net.bytes_per_pair", "fleet.attempts_per_query", "shard.shed_frac",
          "live.mutation_us_p50", "shard.mutation_us_p50",
          "net.mutation_us_p50", "fleet.mutation_us_p50", "live.compact_s",
          "live.compactions", "live.delta_peak", "live.wal_syncs_per_mutation",
          "live.overlay_tax_ms", "loadgen.lag_ms_p99", "trace.overhead_frac"}) {
      out.push_back(name);
    }
    return out;
  }();
  return names;
}

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"serve_mix", "u300k_join",
                                                 "live_churn"};
  return names;
}

Status GuardClients(size_t clients, size_t connections, size_t nproc) {
  if (clients > nproc || connections > nproc) {
    return Status::InvalidArgument(
        "load generator would run " + std::to_string(clients) +
        " client threads / " + std::to_string(connections) +
        " connections on " + std::to_string(nproc) + " processors");
  }
  return Status::OK();
}

Status RunWorkload(const RunConfig& config, RunOutcome* outcome) {
  if (config.workload == "serve_mix") return RunServeMix(config, outcome);
  if (config.workload == "u300k_join") return RunU300k(config, outcome);
  if (config.workload == "live_churn") return RunLiveChurn(config, outcome);
  return Status::InvalidArgument("unknown workload '" + config.workload + "'");
}

}  // namespace perfbench

#include "probes.h"

#include <algorithm>
#include <memory>
#include <random>

#include "core/delta_overlay.h"
#include "core/filter.h"
#include "core/rcj_inj.h"
#include "engine/engine.h"
#include "live/mutation_log.h"
#include "net/protocol.h"
#include "net/protocol_client.h"
#include "service/service.h"

namespace perfbench {

using rcj::Status;

bool Ledger::Check(bool ok, const std::string& what) {
  ++attempted;
  if (!ok) {
    ++failed;
    if (errors.size() < 20) errors.push_back(what);
  }
  return ok;
}

Status RunPhaseSplit(rcj::RcjEnvironment* env, PhaseSplit* out) {
  *out = PhaseSplit();
  const rcj::RTree& tq = env->tq();
  const rcj::RTree& tp = env->tp();
  rcj::BufferManager& buffer = env->buffer();
  // Cold start, exactly as RcjEnvironment::Run begins.
  RINGJOIN_RETURN_IF_ERROR(buffer.Clear());
  buffer.ResetStats();
  const auto accesses = [&buffer]() {
    return buffer.stats().logical_accesses;
  };

  const double start = NowS();
  std::vector<uint64_t> pages;
  RINGJOIN_RETURN_IF_ERROR(rcj::LeafPagesInOrder(
      tq, rcj::SearchOrder::kDepthFirst, /*seed=*/42, &pages));
  double mark = NowS();
  out->plan_s = mark - start;
  out->plan_node_accesses = accesses();

  rcj::BulkFilterOptions filter_options;
  filter_options.symmetric_pruning = true;  // OBJ
  std::vector<rcj::PointRecord> group;
  std::vector<std::vector<rcj::PointRecord>> per_q;
  std::vector<rcj::CandidateCircle> circles;
  for (const uint64_t page : pages) {
    uint64_t before = accesses();
    rcj::Result<rcj::Node> leaf = tq.ReadNode(page);
    if (!leaf.ok()) return leaf.status();
    group.clear();
    for (const rcj::LeafEntry& entry : leaf.value().points) {
      group.push_back(entry.rec);
    }
    double now = NowS();
    out->leaf_read_s += now - mark;
    mark = now;
    out->leaf_node_accesses += accesses() - before;

    before = accesses();
    RINGJOIN_RETURN_IF_ERROR(
        rcj::BulkFilterCandidates(tp, group, filter_options, &per_q));
    circles.clear();
    for (size_t i = 0; i < group.size(); ++i) {
      for (const rcj::PointRecord& p : per_q[i]) {
        circles.push_back(rcj::CandidateCircle::Make(p, group[i]));
      }
    }
    now = NowS();
    out->filter_s += now - mark;
    mark = now;
    out->filter_node_accesses += accesses() - before;
    out->candidates += circles.size();

    before = accesses();
    RINGJOIN_RETURN_IF_ERROR(rcj::VerifyMerged(tq, tp, /*self_join=*/false,
                                               /*overlay=*/nullptr, &circles));
    now = NowS();
    out->verify_s += now - mark;
    mark = now;
    out->verify_node_accesses += accesses() - before;

    for (const rcj::CandidateCircle& c : circles) {
      if (!c.alive) continue;
      out->digest.Add(c.p.id, c.q.id);
      ++out->results;
    }
    now = NowS();
    out->deliver_s += now - mark;
    mark = now;
  }
  out->total_s = NowS() - start;
  return Status::OK();
}

namespace {

constexpr const char* kTiers[] = {"core", "engine", "service",
                                  "shard", "net",    "fleet"};
constexpr size_t kNumTiers = 6;

double Ms(double seconds) { return seconds * 1e3; }

}  // namespace

Status RunLadder(const LayerTarget& target,
                 const std::vector<QueryItem>& items, Report* layers,
                 Ledger* ledger, LadderResult* result) {
  const size_t backend_threads = BackendThreads();
  rcj::EngineOptions engine_options;
  engine_options.num_threads = backend_threads;
  rcj::Engine engine(engine_options);
  rcj::ServiceOptions service_options;
  service_options.engine.num_threads = backend_threads;
  rcj::Service service(service_options);
  rcj::ShardRouter* router = target.fleet->router(target.backend);

  struct Outcome {
    Status status;
    double ms = 0.0;
    uint64_t pairs = 0;
    uint64_t digest = 0;
  };
  const auto run = [&](size_t tier, const QueryItem& item) {
    Outcome outcome;
    rcj::QuerySpec spec = target.spec;
    spec.algorithm = item.algo;
    spec.limit = item.limit;
    DigestSink sink;
    rcj::JoinStats stats;
    const double start = NowS();
    switch (tier) {
      case 0:
        outcome.status = target.serial(spec, &sink, &stats);
        break;
      case 1:
        outcome.status = engine.Run(spec, &sink, &stats);
        break;
      case 2:
        outcome.status = service.Submit(spec, &sink).Wait();
        break;
      case 3: {
        rcj::QueryTicket ticket;
        outcome.status = router->Submit(target.env_name, spec, &sink, &ticket);
        if (outcome.status.ok()) outcome.status = ticket.Wait();
        break;
      }
      default: {
        const uint16_t port = tier == 4
                                  ? target.fleet->backend_port(target.backend)
                                  : target.fleet->proxy_port();
        WireResult wire = WireQuery(port, target.env_name, item);
        outcome.status = wire.status;
        outcome.ms = Ms(wire.end - wire.start);
        outcome.pairs = wire.pairs;
        outcome.digest = wire.digest.value();
        if (tier == 5) result->fleet_requests.push_back(wire);
        return outcome;
      }
    }
    outcome.ms = Ms(NowS() - start);
    outcome.pairs = sink.digest.count();
    outcome.digest = sink.digest.value();
    return outcome;
  };

  // One untimed warm-up query per tier.
  if (!items.empty()) {
    for (size_t tier = 0; tier < kNumTiers; ++tier) run(tier, items.front());
    result->fleet_requests.clear();
  }

  std::vector<double> topk[kNumTiers];
  std::vector<double> full[kNumTiers];
  for (const QueryItem& item : items) {
    Outcome core;
    for (size_t tier = 0; tier < kNumTiers; ++tier) {
      const Outcome outcome = run(tier, item);
      if (tier == 0) core = outcome;
      const bool ok =
          outcome.status.ok() && outcome.pairs == core.pairs &&
          outcome.digest == core.digest;
      if (!ledger->Check(ok, std::string("ladder tier ") + kTiers[tier] +
                                 " limit=" + std::to_string(item.limit) +
                                 ": " + outcome.status.ToString() +
                                 (outcome.status.ok() ? " digest mismatch"
                                                      : ""))) {
        continue;
      }
      (item.limit == 0 ? full : topk)[tier].push_back(outcome.ms);
    }
  }
  for (size_t tier = 0; tier < kNumTiers; ++tier) {
    const std::string name = kTiers[tier];
    const std::string n_topk = "n=" + std::to_string(topk[tier].size());
    const std::string n_full = "n=" + std::to_string(full[tier].size());
    layers->Add(name + ".topk_ms_p50", Median(topk[tier]), "ms", n_topk);
    layers->Add(name + ".full_ms_p50", Median(full[tier]), "ms", n_full);
  }
  for (size_t tier = 1; tier < kNumTiers; ++tier) {
    const std::string name = kTiers[tier];
    const std::string below = kTiers[tier - 1];
    layers->Add(name + ".topk_tax_ms",
                layers->Get(name + ".topk_ms_p50") -
                    layers->Get(below + ".topk_ms_p50"),
                "ms");
    layers->Add(name + ".full_tax_ms",
                layers->Get(name + ".full_ms_p50") -
                    layers->Get(below + ".full_ms_p50"),
                "ms");
  }
  return Status::OK();
}

Status RunEngineProbes(rcj::RcjEnvironment* env,
                       const std::vector<QueryItem>& topk_items, size_t nproc,
                       Report* layers, Ledger* ledger) {
  const size_t backend_threads = BackendThreads();
  const rcj::QuerySpec full = rcj::QuerySpec::For(env);

  // The serial join: the reference stream and storage.* counters.
  DigestSink serial_sink;
  rcj::JoinStats serial;
  double start = NowS();
  RINGJOIN_RETURN_IF_ERROR(env->Run(full, &serial_sink, &serial));
  const double serial_wall = NowS() - start;

  PhaseSplit split;
  RINGJOIN_RETURN_IF_ERROR(RunPhaseSplit(env, &split));
  ledger->Check(
      split.digest.count() == serial_sink.digest.count() &&
          split.digest.value() == serial_sink.digest.value() &&
          split.candidates == serial.candidates &&
          split.node_accesses() == serial.node_accesses,
      "phase split differs from RcjEnvironment::Run");
  layers->Add("core.plan_s", split.plan_s, "s");
  layers->Add("core.leaf_read_s", split.leaf_read_s, "s");
  layers->Add("core.filter_s", split.filter_s, "s");
  layers->Add("core.verify_s", split.verify_s, "s");
  layers->Add("core.deliver_s", split.deliver_s, "s");
  layers->Add("core.unattributed_frac", split.unattributed_frac(), "frac",
              "total " + std::to_string(split.total_s) + " s");
  layers->Add("core.filter_node_accesses",
              static_cast<double>(split.filter_node_accesses), "count");
  layers->Add("core.verify_node_accesses",
              static_cast<double>(split.verify_node_accesses), "count");
  layers->Add("core.candidates", static_cast<double>(split.candidates),
              "count");
  layers->Add("core.results", static_cast<double>(split.results), "count");
  layers->Add("core.verify_yield",
              split.candidates == 0
                  ? 0.0
                  : static_cast<double>(split.results) /
                        static_cast<double>(split.candidates),
              "frac");

  layers->Add("storage.page_faults", static_cast<double>(serial.page_faults),
              "count");
  layers->Add("storage.cold_faults", static_cast<double>(serial.cold_faults),
              "count");
  layers->Add("storage.warm_faults", static_cast<double>(serial.warm_faults),
              "count");
  layers->Add("storage.hit_frac",
              serial.node_accesses == 0
                  ? 0.0
                  : 1.0 - static_cast<double>(serial.page_faults) /
                              static_cast<double>(serial.node_accesses),
              "frac");
  layers->Add("storage.io_wall_s", serial.io_wall_seconds, "s");
  layers->Add("storage.pool_pages",
              static_cast<double>(env->buffer().capacity()), "count",
              "serial runner's buffer pool");
  layers->Add("rtree.pages",
              static_cast<double>(env->tq().num_pages() +
                                  env->tp().num_pages()),
              "count", "both trees");

  // Engine::Run at nproc threads, after one warm-up run.
  {
    rcj::EngineOptions options;
    options.num_threads = nproc;
    rcj::Engine engine(options);
    DigestSink warm;
    rcj::JoinStats warm_stats;
    RINGJOIN_RETURN_IF_ERROR(engine.Run(full, &warm, &warm_stats));
    DigestSink sink;
    rcj::JoinStats stats;
    const double cpu0 = ProcessCpuS();
    start = NowS();
    RINGJOIN_RETURN_IF_ERROR(engine.Run(full, &sink, &stats));
    const double wall = NowS() - start;
    const double cpu = ProcessCpuS() - cpu0;
    ledger->Check(sink.digest.value() == serial_sink.digest.value() &&
                      sink.digest.count() == serial_sink.digest.count(),
                  "engine stream differs from the serial stream");
    layers->Add("engine.busy_s", stats.cpu_seconds, "s",
                "summed task wall time");
    layers->Add("engine.cpu_s", cpu, "s", "getrusage");
    layers->Add("engine.parallel_eff",
                serial_wall / (static_cast<double>(nproc) * wall), "frac",
                "threads " + std::to_string(nproc));
    layers->Add("engine.offcpu_frac",
                stats.cpu_seconds > 0.0 ? 1.0 - cpu / stats.cpu_seconds : 0.0,
                "frac");
    layers->Add("engine.fault_inflation",
                serial.page_faults == 0
                    ? 0.0
                    : static_cast<double>(stats.page_faults) /
                          static_cast<double>(serial.page_faults),
                "ratio");
  }

  // Top-k at the backends' thread count against one thread and serial.
  {
    rcj::EngineOptions wide_options;
    wide_options.num_threads = backend_threads;
    rcj::Engine wide(wide_options);
    rcj::EngineOptions one_options;
    one_options.num_threads = 1;
    rcj::Engine one(one_options);
    std::vector<double> wide_ms;
    std::vector<double> one_ms;
    double wide_candidates = 0.0;
    double serial_candidates = 0.0;
    for (size_t i = 0; i <= topk_items.size(); ++i) {
      // Index 0 repeats the first item as an untimed warm-up.
      const QueryItem& item = topk_items[i == 0 ? 0 : i - 1];
      rcj::QuerySpec spec = full;
      spec.algorithm = item.algo;
      spec.limit = item.limit;
      DigestSink serial_topk;
      rcj::JoinStats serial_topk_stats;
      RINGJOIN_RETURN_IF_ERROR(env->Run(spec, &serial_topk, &serial_topk_stats));
      DigestSink wide_sink;
      DigestSink one_sink;
      rcj::JoinStats wide_stats;
      rcj::JoinStats one_stats;
      double t0 = NowS();
      RINGJOIN_RETURN_IF_ERROR(wide.Run(spec, &wide_sink, &wide_stats));
      const double wide_s = NowS() - t0;
      t0 = NowS();
      RINGJOIN_RETURN_IF_ERROR(one.Run(spec, &one_sink, &one_stats));
      const double one_s = NowS() - t0;
      if (i == 0) continue;
      ledger->Check(
          wide_sink.digest.value() == serial_topk.digest.value() &&
              one_sink.digest.value() == serial_topk.digest.value() &&
              wide_sink.digest.count() == serial_topk.digest.count(),
          "engine top-k differs from the serial prefix");
      wide_ms.push_back(Ms(wide_s));
      one_ms.push_back(Ms(one_s));
      wide_candidates += static_cast<double>(wide_stats.candidates);
      serial_candidates += static_cast<double>(serial_topk_stats.candidates);
    }
    const double one_p50 = Median(one_ms);
    layers->Add("engine.topk_thread_slowdown",
                one_p50 > 0.0 ? Median(wide_ms) / one_p50 : 0.0, "ratio",
                std::to_string(backend_threads) + " threads vs 1, n=" +
                    std::to_string(wide_ms.size()));
    layers->Add("engine.topk_candidates_ratio",
                serial_candidates > 0.0 ? wide_candidates / serial_candidates
                                        : 0.0,
                "ratio");
    const rcj::WorkerContextStats contexts = wide.context_stats();
    const double lookups =
        static_cast<double>(contexts.opens + contexts.reuses);
    layers->Add("engine.view_reuse_frac",
                lookups > 0.0 ? static_cast<double>(contexts.reuses) / lookups
                              : 0.0,
                "frac");
  }

  // The pair codec over (up to 100k of) the oracle's pairs.
  {
    rcj::QuerySpec spec = full;
    spec.limit = 100000;
    rcj::Result<rcj::RcjRunResult> run = env->Run(spec);
    if (!run.ok()) return run.status();
    const std::vector<rcj::RcjPair>& pairs = run.value().pairs;
    std::vector<std::string> lines;
    lines.reserve(pairs.size());
    double t0 = NowS();
    for (const rcj::RcjPair& pair : pairs) {
      lines.push_back(rcj::net::FormatPairLine(pair));
    }
    const double format_s = NowS() - t0;
    bool round_trip = true;
    rcj::RcjPair parsed;
    t0 = NowS();
    for (size_t i = 0; i < lines.size(); ++i) {
      if (!rcj::net::ParsePairLine(lines[i], &parsed).ok() ||
          parsed.p.id != pairs[i].p.id || parsed.q.id != pairs[i].q.id) {
        round_trip = false;
      }
    }
    const double parse_s = NowS() - t0;
    ledger->Check(round_trip, "pair codec round trip");
    const double n = std::max<double>(1.0, static_cast<double>(pairs.size()));
    layers->Add("net.pair_format_ns", format_s * 1e9 / n, "ns");
    layers->Add("net.pair_parse_ns", parse_s * 1e9 / n, "ns");
  }
  return Status::OK();
}

Status RunMutationLadder(const LayerTarget& target, size_t per_tier,
                         Report* layers, Ledger* ledger,
                         uint64_t* delta_peak) {
  rcj::LiveEnvironment* live = target.fleet->live(target.backend);
  rcj::ShardRouter* router = target.fleet->router(target.backend);
  std::mt19937_64 rng(per_tier);
  std::uniform_real_distribution<double> coord(0.0, 10000.0);
  // Ids far above any generated or churned id.
  int64_t next_id = int64_t{1} << 40;

  struct Wire {
    std::unique_ptr<rcj::net::ProtocolClient> client;
    uint16_t port = 0;
  };
  const char* names[] = {"live", "shard", "net", "fleet"};
  for (int tier = 0; tier < 4; ++tier) {
    Wire wire;
    if (tier >= 2) {
      wire.port = tier == 2 ? target.fleet->backend_port(target.backend)
                            : target.fleet->proxy_port();
      rcj::Result<rcj::net::ProtocolClient> dialed =
          rcj::net::ProtocolClient::Connect("127.0.0.1", wire.port);
      if (!dialed.ok()) return dialed.status();
      wire.client = std::make_unique<rcj::net::ProtocolClient>(
          std::move(dialed).value());
    }
    std::vector<double> us;
    int64_t last_id = 0;
    for (size_t i = 0; i < per_tier; ++i) {
      MutationItem item;
      item.side = rcj::LiveSide::kQ;
      item.insert = i % 2 == 0;
      if (item.insert) {
        item.rec.pt = rcj::Point{coord(rng), coord(rng)};
        item.rec.id = last_id = next_id++;
      } else {
        item.rec.id = last_id;  // deleting what the tier just inserted
      }
      const double start = NowS();
      Status status;
      switch (tier) {
        case 0:
          status = item.insert ? live->Insert(item.side, item.rec)
                               : live->Delete(item.side, item.rec.id);
          break;
        case 1:
          status = item.insert
                       ? router->Insert(target.env_name, item.side, item.rec)
                       : router->Delete(target.env_name, item.side,
                                        item.rec.id);
          break;
        default:
          status = wire.client->Mutate(ToWire(item, target.env_name), nullptr);
          break;
      }
      const double elapsed = NowS() - start;
      const rcj::LiveStats stats = live->stats();
      *delta_peak = std::max<uint64_t>(*delta_peak,
                                       stats.delta_size + stats.tombstones);
      if (ledger->Check(status.ok(), std::string("mutation ladder ") +
                                         names[tier] + ": " +
                                         status.ToString())) {
        us.push_back(elapsed * 1e6);
      }
    }
    layers->Add(std::string(names[tier]) + ".mutation_us_p50", Median(us),
                "us", "n=" + std::to_string(us.size()));
  }
  return Status::OK();
}

Status RunCompactionProbe(const EnvInput& input, uint64_t seed,
                          const std::string& wal_dir, Report* layers,
                          Ledger* ledger) {
  constexpr size_t threshold = kCompactThreshold;
  rcj::Result<std::unique_ptr<rcj::LiveEnvironment>> created =
      rcj::LiveEnvironment::Create(input.q, input.p, rcj::LiveOptions{});
  if (!created.ok()) return created.status();
  std::unique_ptr<rcj::LiveEnvironment> live = std::move(created).value();
  RINGJOIN_RETURN_IF_ERROR(ResetDir(wal_dir));
  rcj::MutationLogOptions log_options;
  log_options.dir = wal_dir;
  log_options.sync_interval_ms = kWalSyncMs;
  rcj::WalRecovery recovery;
  rcj::Result<std::unique_ptr<rcj::MutationLog>> log =
      rcj::MutationLog::Open(log_options, &recovery);
  if (!log.ok()) return log.status();
  live->AttachLog(std::move(log).value());

  constexpr int kCycles = 3;
  constexpr int kReads = 15;
  const std::vector<MutationItem> churn =
      MutationSequence(seed, kCycles * threshold, input.q, input.p);
  const auto topk_ms = [&]() {
    std::vector<double> ms;
    for (int r = 0; r < kReads; ++r) {
      const rcj::LiveSnapshot snapshot = live->TakeSnapshot();
      rcj::QuerySpec spec = snapshot.Spec();
      spec.limit = 100;
      DigestSink sink;
      rcj::JoinStats stats;
      const double start = NowS();
      const Status status = snapshot.Run(spec, &sink, &stats);
      const double elapsed = NowS() - start;
      if (ledger->Check(status.ok() && sink.digest.count() == 100,
                        "overlay top-k: " + status.ToString())) {
        ms.push_back(Ms(elapsed));
      }
    }
    return Median(ms);
  };

  std::vector<double> compact_s;
  std::vector<double> tax_ms;
  for (int cycle = 0; cycle < kCycles; ++cycle) {
    const double empty = topk_ms();
    for (size_t i = 0; i < threshold; ++i) {
      const MutationItem& item = churn[cycle * threshold + i];
      const Status status = item.insert
                                ? live->Insert(item.side, item.rec)
                                : live->Delete(item.side, item.rec.id);
      ledger->Check(status.ok(), "probe mutation: " + status.ToString());
    }
    const double loaded = topk_ms();
    tax_ms.push_back(loaded - empty);
    const double start = NowS();
    const Status status = live->Compact();
    compact_s.push_back(NowS() - start);
    ledger->Check(status.ok(), "probe compaction: " + status.ToString());
  }
  live.reset();
  RemoveDir(wal_dir);
  layers->Add("live.compact_s", Median(compact_s), "s",
              "at " + std::to_string(threshold) + " mutations, n=3");
  layers->Add("live.overlay_tax_ms", Median(tax_ms), "ms");
  return Status::OK();
}

rcj::Result<double> ScrapeCounter(uint16_t port, const std::string& name) {
  rcj::Result<rcj::net::ProtocolClient> dialed =
      rcj::net::ProtocolClient::Connect("127.0.0.1", port);
  if (!dialed.ok()) return dialed.status();
  rcj::net::ProtocolClient client = std::move(dialed).value();
  if (!client.SendLine("METRICS")) return Status::IoError("METRICS send");
  std::string line;
  if (!client.ReadLine(&line) || line != "OK") {
    return Status::IoError("METRICS not acknowledged");
  }
  double value = 0.0;
  const std::string prefix = name + " ";
  while (client.ReadLine(&line)) {
    if (line.rfind("ENDMETRICS", 0) == 0) return value;
    if (line.rfind(prefix, 0) == 0) {
      value = std::strtod(line.c_str() + prefix.size(), nullptr);
    }
  }
  return Status::IoError("METRICS stream ended early");
}

void AddServingCounters(Fleet* fleet, Report* layers) {
  const rcj::fleet::FleetProxy::Counters proxy = fleet->proxy()->counters();
  layers->Add("fleet.attempts_per_query",
              proxy.queries == 0
                  ? 0.0
                  : static_cast<double>(proxy.queries + proxy.retries) /
                        static_cast<double>(proxy.queries),
              "ratio", "queries=" + std::to_string(proxy.queries));
  uint64_t submitted = 0;
  uint64_t shed = 0;
  for (size_t b = 0; b < fleet->backends(); ++b) {
    for (const rcj::ShardStatus& shard : fleet->router(b)->Stats()) {
      submitted += shard.counters.submitted;
      shed += shard.counters.shed;
    }
  }
  layers->Add("shard.shed_frac",
              submitted == 0 ? 0.0
                             : static_cast<double>(shed) /
                                   static_cast<double>(submitted),
              "frac", "submitted=" + std::to_string(submitted));
}

void AddWireSpans(const std::vector<WireResult>& requests, Report* layers) {
  std::vector<double> dial;
  std::vector<double> ok;
  std::vector<double> first;
  double bytes = 0.0;
  double pairs = 0.0;
  for (const WireResult& r : requests) {
    if (!r.status.ok()) continue;
    dial.push_back(Ms(r.dialed - r.start));
    ok.push_back(Ms(r.ok - r.dialed));
    first.push_back(Ms(r.first_pair - r.ok));
    bytes += static_cast<double>(r.bytes);
    pairs += static_cast<double>(r.pairs);
  }
  const std::string n = "n=" + std::to_string(dial.size());
  layers->Add("net.dial_ms_p50", Median(dial), "ms", n);
  layers->Add("net.ok_ms_p50", Median(ok), "ms", n);
  layers->Add("net.first_pair_ms_p50", Median(first), "ms", n);
  layers->Add("net.bytes_per_pair", pairs > 0.0 ? bytes / pairs : 0.0,
              "B/pair");
}

}  // namespace perfbench

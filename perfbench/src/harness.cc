#include "harness.h"

#include <sys/resource.h>
#include <sys/statfs.h>
#include <sys/utsname.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <random>
#include <unordered_map>
#include <unordered_set>

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

double NowS() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double ProcessCpuS() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) *
             1e-6;
}

double ThreadCpuS() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double Median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  if (n % 2 == 1) return samples[n / 2];
  return 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

double Mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0.0;
  double sum = 0.0;
  for (const double v : samples) sum += v;
  return sum / static_cast<double>(samples.size());
}

Tail TailPercentile(std::vector<double> samples) {
  Tail tail;
  tail.n = samples.size();
  if (samples.empty()) return tail;
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  for (const double pct : {99.9, 99.0, 95.0, 90.0, 75.0, 50.0}) {
    // Nearest rank, 1-based; the small epsilon keeps exact products (e.g.
    // 0.99 * 1000) from rounding up a rank.
    const double exact = pct / 100.0 * static_cast<double>(n);
    const size_t rank = std::max<size_t>(
        1, static_cast<size_t>(std::ceil(exact - 1e-9)));
    if (n - rank >= 10) {
      tail.pct = pct;
      tail.value = samples[rank - 1];
      tail.ok = true;
      return tail;
    }
  }
  return tail;
}

std::string PctLabel(double pct) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "p%g", pct);
  return buf;
}

void StreamDigest::Add(int64_t p_id, int64_t q_id) {
  const uint64_t words[2] = {static_cast<uint64_t>(p_id),
                             static_cast<uint64_t>(q_id)};
  for (const uint64_t word : words) {
    for (int byte = 0; byte < 8; ++byte) {
      hash_ ^= (word >> (8 * byte)) & 0xffu;
      hash_ *= 1099511628211ull;
    }
  }
  ++count_;
}

PrefixOracle::PrefixOracle(std::vector<uint64_t> limits) {
  for (const uint64_t limit : limits) {
    if (limit != 0) prefixes_.emplace_back(limit, 0);
  }
  std::sort(prefixes_.begin(), prefixes_.end());
  prefixes_.erase(std::unique(prefixes_.begin(), prefixes_.end()),
                  prefixes_.end());
}

bool PrefixOracle::Emit(const rcj::RcjPair& pair) {
  digest_.Add(pair.p.id, pair.q.id);
  for (auto& prefix : prefixes_) {
    if (prefix.first == digest_.count()) prefix.second = digest_.value();
  }
  return true;
}

Expected PrefixOracle::For(uint64_t limit) const {
  if (limit == 0 || limit >= digest_.count()) {
    return Expected{digest_.count(), digest_.value()};
  }
  for (const auto& prefix : prefixes_) {
    if (prefix.first == limit) return Expected{limit, prefix.second};
  }
  // A limit the oracle was not asked for can never be matched.
  return Expected{limit, 0};
}

bool StreamMatches(const Expected& want, uint64_t pairs, uint64_t digest) {
  return want.pairs == pairs && want.digest == digest;
}

const std::vector<uint64_t>& TopkLimits() {
  static const std::vector<uint64_t> limits = {1, 10, 100, 1000};
  return limits;
}

std::vector<QueryItem> ServeMixSequence(uint64_t seed, size_t count,
                                        uint32_t envs) {
  // Full joins cost hundreds of top-k queries, so neither their share nor
  // their spacing is drawn: every 20th query is a full join, and every
  // block of kBlock queries holds kBlock / 20 of them, spread evenly over
  // the environments and 3:1 OBJ:INJ, in shuffled order. Top-k queries
  // draw env, limit and algorithm independently.
  constexpr size_t kBlock = 160;
  constexpr size_t kEvery = 20;
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<uint32_t> env(0, envs - 1);
  std::uniform_int_distribution<size_t> limit(0, TopkLimits().size() - 1);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  std::vector<QueryItem> out;
  out.reserve(count + kBlock);
  while (out.size() < count) {
    std::vector<QueryItem> full(kBlock / kEvery);
    for (size_t i = 0; i < full.size(); ++i) {
      full[i].env = static_cast<uint32_t>(i % envs);
      full[i].limit = 0;
      full[i].algo = (i / envs) % 4 == 3 ? rcj::RcjAlgorithm::kInj
                                         : rcj::RcjAlgorithm::kObj;
    }
    std::shuffle(full.begin(), full.end(), rng);
    for (size_t i = 0; i < kBlock; ++i) {
      if (i % kEvery == kEvery - 1) {
        out.push_back(full[i / kEvery]);
        continue;
      }
      QueryItem item;
      item.env = env(rng);
      item.limit = TopkLimits()[limit(rng)];
      item.algo = unit(rng) < 0.75 ? rcj::RcjAlgorithm::kObj
                                   : rcj::RcjAlgorithm::kInj;
      out.push_back(item);
    }
  }
  out.resize(count);
  return out;
}

std::vector<MutationItem> MutationSequence(
    uint64_t seed, size_t count, const std::vector<rcj::PointRecord>& q,
    const std::vector<rcj::PointRecord>& p) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> coord(0.0, 10000.0);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  std::vector<int64_t> live[2];
  int64_t next_id[2] = {0, 0};
  const std::vector<rcj::PointRecord>* sides[2] = {&q, &p};
  for (int s = 0; s < 2; ++s) {
    for (const rcj::PointRecord& rec : *sides[s]) {
      live[s].push_back(rec.id);
      next_id[s] = std::max<int64_t>(next_id[s], rec.id + 1);
    }
  }
  std::vector<MutationItem> out;
  out.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    MutationItem item;
    const int s = unit(rng) < 0.5 ? 0 : 1;
    item.side = s == 0 ? rcj::LiveSide::kQ : rcj::LiveSide::kP;
    item.insert = unit(rng) < 0.5 || live[s].empty();
    if (item.insert) {
      item.rec.pt = rcj::Point{coord(rng), coord(rng)};
      item.rec.id = next_id[s]++;
      live[s].push_back(item.rec.id);
    } else {
      std::uniform_int_distribution<size_t> pick(0, live[s].size() - 1);
      const size_t at = pick(rng);
      item.rec.id = live[s][at];
      live[s][at] = live[s].back();
      live[s].pop_back();
    }
    out.push_back(item);
  }
  return out;
}

void ApplyMutations(const std::vector<MutationItem>& items, size_t count,
                    std::vector<rcj::PointRecord>* q,
                    std::vector<rcj::PointRecord>* p) {
  std::vector<rcj::PointRecord>* sides[2] = {q, p};
  std::unordered_set<int64_t> removed[2];
  std::vector<rcj::PointRecord> inserted[2];
  for (size_t i = 0; i < count && i < items.size(); ++i) {
    const MutationItem& item = items[i];
    const int s = item.side == rcj::LiveSide::kQ ? 0 : 1;
    if (item.insert) {
      inserted[s].push_back(item.rec);
    } else {
      removed[s].insert(item.rec.id);
    }
  }
  for (int s = 0; s < 2; ++s) {
    std::vector<rcj::PointRecord> out;
    out.reserve(sides[s]->size() + inserted[s].size());
    for (const rcj::PointRecord& rec : *sides[s]) {
      if (removed[s].count(rec.id) == 0) out.push_back(rec);
    }
    for (const rcj::PointRecord& rec : inserted[s]) {
      if (removed[s].count(rec.id) == 0) out.push_back(rec);
    }
    *sides[s] = std::move(out);
  }
}

uint64_t SubSeed(uint64_t seed, uint64_t stream) {
  // splitmix64 of (seed, stream): distinct streams never share a seed.
  uint64_t z = seed * 0x9e3779b97f4a7c15ull + stream * 0xbf58476d1ce4e5b9ull +
               0x94d049bb133111ebull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

namespace {

/// Filesystem type name of `path` (statfs), or its magic number in hex.
std::string FilesystemOf(const std::string& path) {
  struct statfs info {};
  if (statfs(path.c_str(), &info) != 0) return "unknown";
  static const std::unordered_map<uint64_t, const char*> kNames = {
      {0xEF53, "ext4"},          {0x58465342, "xfs"},
      {0x01021994, "tmpfs"},     {0x794c7630, "overlayfs"},
      {0x9123683E, "btrfs"},     {0x6969, "nfs"},
      {0x2fc12fc1, "zfs"},       {0x65735546, "fuse"},
      {0xF2F52010, "f2fs"},      {0x5346544e, "ntfs"},
      {0x01021997, "9p"},        {0x62656572, "sysfs"},
  };
  const auto it = kNames.find(static_cast<uint64_t>(info.f_type));
  if (it != kNames.end()) return it->second;
  char buf[32];
  std::snprintf(buf, sizeof(buf), "0x%llx",
                static_cast<unsigned long long>(info.f_type));
  return buf;
}

}  // namespace

std::string HostJson(const std::string& wal_dir) {
  std::string cpu = "unknown";
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) cpu = line.substr(colon + 2);
      break;
    }
  }
  utsname uts{};
  uname(&uts);
  std::string out = "{";
  out += "\"nproc\": " + std::to_string(sysconf(_SC_NPROCESSORS_ONLN));
  out += ", \"cpu_model\": " + JsonString(cpu);
  out += ", \"kernel\": " + JsonString(std::string(uts.sysname) + " " +
                                        uts.release);
#if defined(__clang__)
  out += ", \"compiler\": " + JsonString(std::string("clang ") + __VERSION__);
#elif defined(__GNUC__)
  out += ", \"compiler\": " + JsonString(std::string("gcc ") + __VERSION__);
#else
  out += ", \"compiler\": \"unknown\"";
#endif
  out += ", \"build_type\": " + JsonString(PERFBENCH_BUILD_TYPE);
  out += ", \"wal_fs\": " + JsonString(FilesystemOf(wal_dir));
  out += "}";
  return out;
}

void Report::Add(const std::string& name, double value,
                 const std::string& unit, const std::string& note) {
  for (Entry& entry : entries_) {
    if (entry.name == name) {
      entry = Entry{name, value, unit, note};
      return;
    }
  }
  entries_.push_back(Entry{name, value, unit, note});
}

bool Report::Has(const std::string& name) const {
  for (const Entry& entry : entries_) {
    if (entry.name == name) return true;
  }
  return false;
}

double Report::Get(const std::string& name) const {
  for (const Entry& entry : entries_) {
    if (entry.name == name) return entry.value;
  }
  return 0.0;
}

namespace {

std::string Number(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

}  // namespace

std::string Report::MetricsJson(const std::vector<std::string>& names) const {
  std::string out = "{";
  bool first = true;
  const auto emit = [&](const Entry& entry) {
    if (!first) out += ", ";
    first = false;
    out += JsonString(entry.name) + ": {\"value\": " + Number(entry.value) +
           ", \"unit\": " + JsonString(entry.unit) + "}";
  };
  if (names.empty()) {
    for (const Entry& entry : entries_) emit(entry);
  } else {
    for (const std::string& name : names) {
      for (const Entry& entry : entries_) {
        if (entry.name == name) emit(entry);
      }
    }
  }
  return out + "}";
}

std::string Report::Lines() const {
  std::string out;
  for (const Entry& entry : entries_) {
    char buf[256];
    std::snprintf(buf, sizeof(buf), "  %-32s %16.6f %-8s", entry.name.c_str(),
                  entry.value, entry.unit.c_str());
    out += buf;
    if (!entry.note.empty()) out += " (" + entry.note + ")";
    out += "\n";
  }
  return out;
}

}  // namespace perfbench

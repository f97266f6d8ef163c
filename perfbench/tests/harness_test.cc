// Tests of the benchmark's own logic: the percentile rule, the prefix /
// digest check, the phase-split loop, and seed determinism.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <vector>

#include "core/runner.h"
#include "harness.h"
#include "probes.h"
#include "workload/generator.h"
#include "workloads.h"

namespace perfbench {
namespace {

std::vector<double> Ramp(size_t n) {
  std::vector<double> v;
  for (size_t i = n; i > 0; --i) v.push_back(static_cast<double>(i));
  return v;  // descending, so the rule must sort
}

TEST(PercentileRule, MedianOfOddAndEvenSamples) {
  EXPECT_DOUBLE_EQ(Median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(Median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_DOUBLE_EQ(Median({}), 0.0);
  EXPECT_DOUBLE_EQ(Mean({1.0, 2.0, 3.0, 6.0}), 3.0);
  EXPECT_DOUBLE_EQ(Mean({}), 0.0);
}

TEST(PercentileRule, PicksTheHighestPercentileWithTenSamplesBeyond) {
  // 1000 samples: p99 is rank 990 with exactly 10 samples beyond.
  Tail tail = TailPercentile(Ramp(1000));
  ASSERT_TRUE(tail.ok);
  EXPECT_DOUBLE_EQ(tail.pct, 99.0);
  EXPECT_DOUBLE_EQ(tail.value, 990.0);
  EXPECT_EQ(tail.n, 1000u);

  // 999 samples leave only 9 beyond p99's rank, so the rule falls to p95.
  tail = TailPercentile(Ramp(999));
  EXPECT_DOUBLE_EQ(tail.pct, 95.0);
  EXPECT_DOUBLE_EQ(tail.value, 950.0);

  // 10,000 samples support p99.9.
  tail = TailPercentile(Ramp(10000));
  EXPECT_DOUBLE_EQ(tail.pct, 99.9);
  EXPECT_DOUBLE_EQ(tail.value, 9990.0);

  // 20 samples support only the median; 19 support nothing.
  tail = TailPercentile(Ramp(20));
  EXPECT_TRUE(tail.ok);
  EXPECT_DOUBLE_EQ(tail.pct, 50.0);
  EXPECT_FALSE(TailPercentile(Ramp(19)).ok);
  EXPECT_EQ(PctLabel(99.9), "p99.9");
  EXPECT_EQ(PctLabel(99.0), "p99");
}

rcj::RcjPair PairOf(int64_t p, int64_t q) {
  rcj::RcjPair pair;
  pair.p.id = p;
  pair.q.id = q;
  return pair;
}

TEST(PrefixCheck, TopkMustBeTheExactPrefixOfTheFullStream) {
  PrefixOracle oracle({1, 2, 100});
  const std::vector<std::pair<int64_t, int64_t>> stream = {
      {1, 10}, {2, 10}, {3, 11}, {4, 12}};
  for (const auto& ids : stream) oracle.Emit(PairOf(ids.first, ids.second));

  StreamDigest two;
  two.Add(1, 10);
  two.Add(2, 10);
  EXPECT_TRUE(StreamMatches(oracle.For(2), two.count(), two.value()));

  // Same pairs, other order: the digest is order-sensitive.
  StreamDigest swapped;
  swapped.Add(2, 10);
  swapped.Add(1, 10);
  EXPECT_FALSE(StreamMatches(oracle.For(2), swapped.count(), swapped.value()));

  // A stream one pair short of the limit fails on its count.
  StreamDigest one;
  one.Add(1, 10);
  EXPECT_FALSE(StreamMatches(oracle.For(2), one.count(), one.value()));
  EXPECT_TRUE(StreamMatches(oracle.For(1), one.count(), one.value()));

  // A limit beyond the full join expects the full stream; so does 0.
  StreamDigest full;
  for (const auto& ids : stream) full.Add(ids.first, ids.second);
  EXPECT_TRUE(StreamMatches(oracle.For(100), full.count(), full.value()));
  EXPECT_TRUE(StreamMatches(oracle.For(0), full.count(), full.value()));
  // The p and q ids are not interchangeable.
  StreamDigest flipped;
  flipped.Add(10, 1);
  EXPECT_NE(flipped.value(), one.value());
}

TEST(PhaseSplit, StreamEqualsTheSerialRunner) {
  const std::vector<rcj::PointRecord> q = rcj::GenerateUniform(3000, 11);
  const std::vector<rcj::PointRecord> p = rcj::GenerateUniform(2500, 12);
  rcj::Result<std::unique_ptr<rcj::RcjEnvironment>> env =
      rcj::RcjEnvironment::Build(q, p, rcj::RcjRunOptions{});
  ASSERT_TRUE(env.ok());

  DigestSink serial;
  rcj::JoinStats stats;
  ASSERT_TRUE(env.value()
                  ->Run(rcj::QuerySpec::For(env.value().get()), &serial,
                        &stats)
                  .ok());
  ASSERT_GT(serial.digest.count(), 0u);

  PhaseSplit split;
  ASSERT_TRUE(RunPhaseSplit(env.value().get(), &split).ok());
  EXPECT_EQ(split.digest.count(), serial.digest.count());
  EXPECT_EQ(split.digest.value(), serial.digest.value());
  EXPECT_EQ(split.candidates, stats.candidates);
  EXPECT_EQ(split.results, stats.results);
  EXPECT_EQ(split.node_accesses(), stats.node_accesses);
  EXPECT_GE(split.unattributed_frac(), 0.0);
  EXPECT_LT(split.unattributed_frac(), 0.5);
}

uint64_t OracleDigest(uint64_t seed) {
  const std::vector<rcj::PointRecord> q =
      rcj::GenerateUniform(1500, SubSeed(seed, 1));
  const std::vector<rcj::PointRecord> p =
      rcj::GenerateUniform(1500, SubSeed(seed, 2));
  rcj::Result<std::unique_ptr<rcj::RcjEnvironment>> env =
      rcj::RcjEnvironment::Build(q, p, rcj::RcjRunOptions{});
  EXPECT_TRUE(env.ok());
  PrefixOracle oracle(TopkLimits());
  rcj::JoinStats stats;
  EXPECT_TRUE(env.value()
                  ->Run(rcj::QuerySpec::For(env.value().get()), &oracle,
                        &stats)
                  .ok());
  return oracle.For(0).digest ^ oracle.For(10).digest;
}

bool SameMutations(const std::vector<MutationItem>& a,
                   const std::vector<MutationItem>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].insert != b[i].insert || a[i].side != b[i].side ||
        a[i].rec.id != b[i].rec.id || a[i].rec.pt.x != b[i].rec.pt.x ||
        a[i].rec.pt.y != b[i].rec.pt.y) {
      return false;
    }
  }
  return true;
}

bool SameQueries(const std::vector<QueryItem>& a,
                 const std::vector<QueryItem>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].env != b[i].env || a[i].algo != b[i].algo ||
        a[i].limit != b[i].limit) {
      return false;
    }
  }
  return true;
}

TEST(Seeds, SameSeedSameInputsOtherSeedOtherInputs) {
  EXPECT_TRUE(SameQueries(ServeMixSequence(SubSeed(7, 5), 500, 2),
                          ServeMixSequence(SubSeed(7, 5), 500, 2)));
  EXPECT_FALSE(SameQueries(ServeMixSequence(SubSeed(7, 5), 500, 2),
                           ServeMixSequence(SubSeed(8, 5), 500, 2)));

  const std::vector<rcj::PointRecord> q = rcj::GenerateUniform(200, 1);
  const std::vector<rcj::PointRecord> p = rcj::GenerateUniform(200, 2);
  EXPECT_TRUE(SameMutations(MutationSequence(SubSeed(7, 6), 400, q, p),
                            MutationSequence(SubSeed(7, 6), 400, q, p)));
  EXPECT_FALSE(SameMutations(MutationSequence(SubSeed(7, 6), 400, q, p),
                             MutationSequence(SubSeed(8, 6), 400, q, p)));

  EXPECT_EQ(OracleDigest(7), OracleDigest(7));
  EXPECT_NE(OracleDigest(7), OracleDigest(8));
  EXPECT_NE(SubSeed(7, 1), SubSeed(7, 2));
}

TEST(Seeds, ServeMixSequenceFollowsItsMix) {
  const std::vector<QueryItem> items = ServeMixSequence(3, 20000, 2);
  size_t full = 0;
  size_t inj = 0;
  size_t env1 = 0;
  for (const QueryItem& item : items) {
    full += item.limit == 0;
    inj += item.algo == rcj::RcjAlgorithm::kInj;
    env1 += item.env == 1;
  }
  EXPECT_EQ(full, items.size() / 20);
  // Every block of 160 carries exactly 8 full joins, 3:1 OBJ:INJ.
  for (size_t block = 0; block < items.size() / 160; ++block) {
    size_t block_full = 0;
    size_t block_full_inj = 0;
    for (size_t i = block * 160; i < (block + 1) * 160; ++i) {
      block_full += items[i].limit == 0;
      block_full_inj +=
          items[i].limit == 0 && items[i].algo == rcj::RcjAlgorithm::kInj;
    }
    EXPECT_EQ(block_full, 8u);
    EXPECT_EQ(block_full_inj, 2u);
  }
  EXPECT_NEAR(static_cast<double>(inj) / items.size(), 0.25, 0.02);
  EXPECT_NEAR(static_cast<double>(env1) / items.size(), 0.5, 0.02);
}

TEST(Mutations, DeletesHitLiveIdsAndTheModelFollowsThem) {
  const std::vector<rcj::PointRecord> q = rcj::GenerateUniform(50, 1);
  const std::vector<rcj::PointRecord> p = rcj::GenerateUniform(50, 2);
  const std::vector<MutationItem> items = MutationSequence(9, 2000, q, p);
  std::vector<rcj::PointRecord> mq = q;
  std::vector<rcj::PointRecord> mp = p;
  ApplyMutations(items, items.size(), &mq, &mp);
  // Replay with an explicit live-set model: every delete names a live id.
  std::set<int64_t> live[2];
  for (const auto& rec : q) live[0].insert(rec.id);
  for (const auto& rec : p) live[1].insert(rec.id);
  for (const MutationItem& item : items) {
    std::set<int64_t>& side = live[item.side == rcj::LiveSide::kQ ? 0 : 1];
    if (item.insert) {
      EXPECT_TRUE(side.insert(item.rec.id).second);
    } else {
      EXPECT_EQ(side.erase(item.rec.id), 1u);
    }
  }
  std::set<int64_t> got_q;
  for (const auto& rec : mq) got_q.insert(rec.id);
  std::set<int64_t> got_p;
  for (const auto& rec : mp) got_p.insert(rec.id);
  EXPECT_EQ(got_q, live[0]);
  EXPECT_EQ(got_p, live[1]);
  EXPECT_EQ(mq.size(), got_q.size());
}

TEST(LoadGenerator, RefusesMoreClientsThanProcessors) {
  EXPECT_TRUE(GuardClients(4, 4, 4).ok());
  EXPECT_FALSE(GuardClients(5, 4, 4).ok());
  EXPECT_FALSE(GuardClients(4, 5, 4).ok());
}

}  // namespace
}  // namespace perfbench

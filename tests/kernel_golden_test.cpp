// Golden pair streams of the filter and verify kernels. Each row pins, for
// one seeded join, the FNV-1a digest of the full (p.id, q.id) stream in
// delivery order, the pair count, and the paper's counters (candidates,
// node accesses, page faults). The values were recorded from the scalar
// kernels; any kernel rewrite (lane width, data layout, dispatch) must
// reproduce them exactly, so a change in rounding or evaluation order that
// flips one predicate shows up here as a different digest or count.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "core/runner.h"
#include "live/live_environment.h"
#include "workload/generator.h"

namespace rcj {
namespace {

constexpr size_t kN = 20000;

struct Observed {
  uint64_t digest = 0;
  uint64_t pairs = 0;
  uint64_t candidates = 0;
  uint64_t node_accesses = 0;
  uint64_t page_faults = 0;
};

// FNV-1a over the little-endian bytes of p.id then q.id of every pair.
class DigestSink final : public PairSink {
 public:
  bool Emit(const RcjPair& pair) override {
    Mix(static_cast<uint64_t>(pair.p.id));
    Mix(static_cast<uint64_t>(pair.q.id));
    ++pairs_;
    return true;
  }
  uint64_t digest() const { return hash_; }
  uint64_t pairs() const { return pairs_; }

 private:
  void Mix(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (v >> (8 * i)) & 0xffu;
      hash_ *= 0x100000001b3ull;
    }
  }
  uint64_t hash_ = 0xcbf29ce484222325ull;
  uint64_t pairs_ = 0;
};

Observed Summarize(const DigestSink& sink, const JoinStats& stats) {
  Observed out;
  out.digest = sink.digest();
  out.pairs = sink.pairs();
  out.candidates = stats.candidates;
  out.node_accesses = stats.node_accesses;
  out.page_faults = stats.page_faults;
  return out;
}

bool operator==(const Observed& a, const Observed& b) {
  return a.digest == b.digest && a.pairs == b.pairs &&
         a.candidates == b.candidates && a.node_accesses == b.node_accesses &&
         a.page_faults == b.page_faults;
}

// On a mismatch the message prints the observed row in table syntax.
void ExpectRow(RcjAlgorithm algorithm, const Observed& got,
               const Observed& want) {
  EXPECT_TRUE(got == want)
      << AlgorithmName(algorithm) << " observed {" << got.digest << "ull, "
      << got.pairs << ", " << got.candidates << ", " << got.node_accesses
      << ", " << got.page_faults << "}";
}

void CheckStatic(RcjEnvironment* env, RcjAlgorithm algorithm,
                 const Observed& want) {
  QuerySpec spec = QuerySpec::For(env);
  spec.algorithm = algorithm;
  DigestSink sink;
  JoinStats stats;
  const Status status = env->Run(spec, &sink, &stats);
  ASSERT_TRUE(status.ok()) << status.ToString();
  ExpectRow(algorithm, Summarize(sink, stats), want);
}

void CheckLive(const LiveSnapshot& snapshot, RcjAlgorithm algorithm,
               const Observed& want) {
  QuerySpec spec = snapshot.Spec();
  spec.algorithm = algorithm;
  DigestSink sink;
  JoinStats stats;
  const Status status = snapshot.Run(spec, &sink, &stats);
  ASSERT_TRUE(status.ok()) << status.ToString();
  ExpectRow(algorithm, Summarize(sink, stats), want);
}

TEST(KernelGoldenTest, Uniform) {
  auto env = RcjEnvironment::Build(GenerateUniform(kN, 11),
                                   GenerateUniform(kN, 12), RcjRunOptions{});
  ASSERT_TRUE(env.ok()) << env.status().ToString();
  RcjEnvironment* e = env.value().get();
  CheckStatic(e, RcjAlgorithm::kInj,
              {15425510080825414157ull, 39855, 87544, 365714, 12218});
  CheckStatic(e, RcjAlgorithm::kBij,
              {2714119909818959821ull, 39855, 156725, 28534, 15315});
  CheckStatic(e, RcjAlgorithm::kObj,
              {2714119909818959821ull, 39855, 60884, 26373, 10493});
}

TEST(KernelGoldenTest, Clustered) {
  auto env = RcjEnvironment::Build(GenerateGaussianClusters(kN, 8, 1000.0, 13),
                                   GenerateGaussianClusters(kN, 8, 1000.0, 14),
                                   RcjRunOptions{});
  ASSERT_TRUE(env.ok()) << env.status().ToString();
  RcjEnvironment* e = env.value().get();
  CheckStatic(e, RcjAlgorithm::kInj,
              {3636884952568266090ull, 27988, 82335, 364915, 15372});
  CheckStatic(e, RcjAlgorithm::kBij,
              {9147461777523161798ull, 27988, 157408, 29062, 19436});
  CheckStatic(e, RcjAlgorithm::kObj,
              {9147461777523161798ull, 27988, 53704, 30772, 20553});
}

TEST(KernelGoldenTest, SelfJoin) {
  auto env =
      RcjEnvironment::BuildSelf(GenerateUniform(kN, 15), RcjRunOptions{});
  ASSERT_TRUE(env.ok()) << env.status().ToString();
  RcjEnvironment* e = env.value().get();
  CheckStatic(e, RcjAlgorithm::kInj,
              {6209463391602683609ull, 39751, 43919, 252626, 5107});
  CheckStatic(e, RcjAlgorithm::kBij,
              {7264194873780177149ull, 39751, 77337, 22549, 3974});
  CheckStatic(e, RcjAlgorithm::kObj,
              {7264194873780177149ull, 39751, 43058, 20212, 2479});
}

// Tombstones on both sides turn the verifier's face rule off and make the
// filter skip dead anchors; the inserted points add a delta overlay, so
// the merged path (tree kernels plus flat delta scans) is pinned too.
TEST(KernelGoldenTest, LiveWithTombstones) {
  auto live = LiveEnvironment::Create(GenerateUniform(kN, 16),
                                      GenerateUniform(kN, 17), LiveOptions{});
  ASSERT_TRUE(live.ok()) << live.status().ToString();
  LiveEnvironment& env = *live.value();
  for (PointId id = 0; id + 3 < static_cast<PointId>(kN); id += 7) {
    ASSERT_TRUE(env.Delete(LiveSide::kQ, id).ok());
    ASSERT_TRUE(env.Delete(LiveSide::kP, id + 3).ok());
  }
  const std::vector<PointRecord> extra_q = GenerateUniform(200, 18);
  const std::vector<PointRecord> extra_p = GenerateUniform(200, 19);
  for (size_t i = 0; i < extra_q.size(); ++i) {
    const PointId id = 1000000 + static_cast<PointId>(i);
    ASSERT_TRUE(env.Insert(LiveSide::kQ, {extra_q[i].pt, id}).ok());
    ASSERT_TRUE(env.Insert(LiveSide::kP, {extra_p[i].pt, id}).ok());
  }
  const LiveSnapshot snapshot = env.TakeSnapshot();
  ASSERT_NE(snapshot.overlay(), nullptr);
  CheckLive(snapshot, RcjAlgorithm::kInj,
            {8742262651844623490ull, 34364, 147443, 392302, 22834});
  CheckLive(snapshot, RcjAlgorithm::kBij,
            {2823711089264039018ull, 34364, 199536, 38397, 28259});
  CheckLive(snapshot, RcjAlgorithm::kObj,
            {2823711089264039018ull, 34364, 124531, 36629, 25366});
}

}  // namespace
}  // namespace rcj

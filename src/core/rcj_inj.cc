#include "core/rcj_inj.h"

#include <algorithm>
#include <random>

#include "core/filter.h"
#include "core/verify.h"

namespace rcj {

void ApplySearchOrder(SearchOrder order, uint64_t seed,
                      std::vector<uint64_t>* pages) {
  if (order == SearchOrder::kRandom) {
    std::mt19937_64 rng(seed);
    std::shuffle(pages->begin(), pages->end(), rng);
  }
}

Status LeafPagesInOrder(const RTree& tree, SearchOrder order, uint64_t seed,
                        std::vector<uint64_t>* pages) {
  pages->clear();
  RINGJOIN_RETURN_IF_ERROR(tree.CollectLeafPages(pages));
  ApplySearchOrder(order, seed, pages);
  return Status::OK();
}

Status RunInj(const RTree& tq, const RTree& tp, const InjOptions& options,
              PairSink* sink, JoinStats* stats) {
  uint64_t emitted = 0;
  std::vector<uint64_t> leaf_pages;
  if (options.leaf_pages == nullptr) {
    RINGJOIN_RETURN_IF_ERROR(
        LeafPagesInOrder(tq, options.order, options.random_seed,
                         &leaf_pages));
  }
  const std::vector<uint64_t>& pages =
      options.leaf_pages != nullptr ? *options.leaf_pages : leaf_pages;

  const DeltaOverlay* overlay = options.overlay;
  const std::unordered_set<PointId>* dead_q =
      overlay != nullptr ? overlay->dead_or_null(LiveSide::kQ) : nullptr;
  const std::unordered_set<PointId>* dead_p = nullptr;
  if (overlay != nullptr) {
    dead_p = options.self_join ? dead_q : overlay->dead_or_null(LiveSide::kP);
  }

  std::vector<PointRecord> candidates;
  std::vector<CandidateCircle> circles;
  for (const uint64_t page : pages) {
    Result<Node> leaf = tq.ReadNode(page);
    if (!leaf.ok()) return leaf.status();

    for (const LeafEntry& entry : leaf.value().points) {
      const PointRecord& q = entry.rec;
      if (dead_q != nullptr && dead_q->count(q.id) != 0) continue;
      RINGJOIN_RETURN_IF_ERROR(FilterCandidates(
          tp, q.pt, options.self_join ? q.id : kInvalidPointId, &candidates,
          dead_p));
      if (overlay != nullptr) {
        FilterCandidatesFlat(overlay->delta(LiveSide::kP), q.pt,
                             options.self_join ? q.id : kInvalidPointId,
                             &candidates);
      }

      circles.clear();
      for (const PointRecord& p : candidates) {
        // Self-join: each unordered pair is generated once, from its
        // higher-id endpoint's perspective (the filter guarantees every
        // true partner of q is present, so no pair is lost).
        if (options.self_join && p.id >= q.id) continue;
        circles.push_back(CandidateCircle::Make(p, q));
      }
      stats->candidates += circles.size();

      if (options.verify) {
        RINGJOIN_RETURN_IF_ERROR(
            VerifyMerged(tq, tp, options.self_join, overlay, &circles));
      }
      for (const CandidateCircle& c : circles) {
        if (!c.alive) continue;
        ++emitted;
        if (!sink->Emit(RcjPair{c.p, c.q, c.circle})) {
          stats->results += emitted;
          return Status::OK();  // early termination requested by the sink
        }
      }
    }
  }
  if (options.delta_tail && overlay != nullptr) {
    bool stopped = false;
    RINGJOIN_RETURN_IF_ERROR(RunDeltaTail(tq, tp, options.self_join,
                                          options.verify, *overlay, sink,
                                          &emitted, stats, &stopped));
  }
  stats->results += emitted;
  return Status::OK();
}

}  // namespace rcj

// Index Nested Loop Join for RCJ (paper Section 3, Algorithms 4 & 5):
// depth-first over the leaves of T_Q; for each point q, Filter() collects
// candidates from T_P, then Verify() checks the enclosing circles against
// both trees.
#ifndef RINGJOIN_CORE_RCJ_INJ_H_
#define RINGJOIN_CORE_RCJ_INJ_H_

#include <vector>

#include "common/status.h"
#include "core/delta_overlay.h"
#include "core/pair_sink.h"
#include "core/rcj_types.h"
#include "rtree/rtree.h"

namespace rcj {

/// Options for the INJ algorithm.
struct InjOptions {
  /// Leaf visiting order on T_Q (Section 3.4; kRandom is the ablation).
  SearchOrder order = SearchOrder::kDepthFirst;
  /// Disable to measure the filter step alone (paper Fig. 14).
  bool verify = true;
  /// T_Q and T_P are the same tree; identity pairs are excluded and each
  /// unordered pair is reported once (p.id < q.id).
  bool self_join = false;
  /// Shuffle seed for SearchOrder::kRandom.
  uint64_t random_seed = 42;
  /// When non-null, visits exactly these T_Q leaf pages in the given order
  /// and ignores `order`/`random_seed`. The parallel engine partitions the
  /// depth-first leaf order into contiguous ranges and hands one range to
  /// each worker; concatenating the workers' outputs in range order yields
  /// the serial result.
  const std::vector<uint64_t>* leaf_pages = nullptr;
  /// Pending mutations of a live environment (null = static join).
  /// Tombstoned T_Q points are skipped, tombstoned T_P points stop being
  /// candidates/anchors/witnesses, and delta records join both roles.
  const DeltaOverlay* overlay = nullptr;
  /// Append the overlay's delta-Q tail after the visited leaves. The serial
  /// runner and unsplit engine queries set this; a split engine query sets
  /// it only on the last leaf chunk, so the merged stream stays identical
  /// across thread counts.
  bool delta_tail = false;
};

/// Algorithm 5 (INJ_DF). Emits each surviving pair through `sink` as soon
/// as its leaf group is verified, in deterministic leaf/point order, and
/// accumulates candidate and result counts into `stats` (I/O and time
/// accounting is done by the caller around this call). Returns OK early,
/// with a prefix of the serial output emitted, when the sink requests
/// termination.
Status RunInj(const RTree& tq, const RTree& tp, const InjOptions& options,
              PairSink* sink, JoinStats* stats);

/// Leaf pages of `tree` in the requested order (shared by INJ and BIJ).
Status LeafPagesInOrder(const RTree& tree, SearchOrder order, uint64_t seed,
                        std::vector<uint64_t>* pages);

/// Reorders a depth-first leaf list as LeafPagesInOrder would: unchanged
/// for kDepthFirst, a seeded mt19937_64 shuffle for kRandom.
void ApplySearchOrder(SearchOrder order, uint64_t seed,
                      std::vector<uint64_t>* pages);

}  // namespace rcj

#endif  // RINGJOIN_CORE_RCJ_INJ_H_

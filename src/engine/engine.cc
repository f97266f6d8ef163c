#include "engine/engine.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <mutex>

#include "core/rcj_inj.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "storage/buffer_manager.h"
#include "storage/cost_model.h"

namespace rcj {
namespace {

using Clock = std::chrono::steady_clock;

size_t WorkerPoolPages(const RcjEnvironment& env,
                       const EngineOptions& options) {
  const auto scaled = static_cast<size_t>(
      options.worker_buffer_fraction *
      static_cast<double>(env.total_tree_pages()));
  return std::max(options.worker_min_buffer_pages, scaled);
}

/// Per-query streaming state, shared by the query's tasks. A split query's
/// serial leaf order is divided into `num_chunks` fixed contiguous chunks;
/// tasks claim chunks from the shared `next_chunk` cursor (work stealing),
/// buffer each chunk's pairs privately in `chunk_pairs`, then mark the
/// chunk complete via DeliverReadyRanges, which flushes `chunk_pairs`
/// entries to the delivery sink strictly in chunk order — so the sink
/// observes the exact serial pair stream, incrementally, as the frontier
/// of completed chunks advances.
struct QueryEmitState {
  std::mutex mu;
  /// Final delivery target: the caller's sink, or an engine-owned
  /// VectorSink into the result slot.
  PairSink* sink = nullptr;
  uint64_t limit = 0;      ///< 0 = unlimited (from QuerySpec::limit).
  uint64_t delivered = 0;  ///< pairs handed to `sink` so far.
  size_t next_range = 0;   ///< first chunk not yet flushed.
  enum : char { kPending = 0, kDone = 1, kFailed = 2 };
  std::vector<char> range_done;  ///< per-chunk completion state.
  /// True once nothing more may reach the sink: the limit was satisfied,
  /// the sink refused a pair, or an earlier chunk failed (a later chunk's
  /// output would no longer be a serial prefix).
  bool delivery_closed = false;
  /// First failure raised by the delivery sink itself (an Emit() that
  /// threw); settled into the query's result status at merge time.
  Status delivery_status;
  /// Set (once) when a task observed the query's deadline expired at a
  /// chunk boundary: the whole query resolves to this status at merge
  /// time, since a partial stream past a blown budget is not a result.
  Status abort_status;
  /// Relaxed cross-thread signal that remaining work is pointless: tasks
  /// stop claiming chunks and running traversals stop at their next
  /// emission.
  std::atomic<bool> cancelled{false};

  // ---- chunk scheduling (work stealing) ----
  /// The query's full T_Q leaf order (the environment's, or
  /// `shuffled_leaves`), or null when the query runs as one unsplit task
  /// (BRUTE, small tree, intra off).
  const std::vector<uint64_t>* leaves = nullptr;
  /// A random-order query's own shuffled copy of the environment's order.
  std::vector<uint64_t> shuffled_leaves;
  size_t chunk_size = 0;
  size_t num_chunks = 1;
  /// Shared claim cursor: fetch_add hands each task the next unclaimed
  /// chunk, so a task stuck in a dense (skewed) leaf region simply claims
  /// fewer chunks while idle workers steal the rest.
  std::atomic<size_t> next_chunk{0};
  /// Stable per-chunk buffers (sized up front, never resized) so a chunk
  /// finished out of order survives until the frontier reaches it.
  std::vector<std::vector<RcjPair>> chunk_pairs;
};

/// Task-local sink: buffers into the chunk's private vector and aborts the
/// traversal as soon as the query was cancelled (limit satisfied
/// elsewhere) or this chunk has buffered `limit` pairs itself. The
/// per-chunk cap is sound because delivery is cumulative in chunk order:
/// once a single chunk holds `limit` pairs, nothing past them can ever
/// reach the user's sink — so a limit-capped query stops early even when
/// it runs as one task (single worker, small tree, or BRUTE).
class TaskBufferSink final : public PairSink {
 public:
  TaskBufferSink(std::vector<RcjPair>* buffer,
                 const std::atomic<bool>* cancelled, uint64_t limit)
      : buffer_(buffer), cancelled_(cancelled), limit_(limit) {}

  bool Emit(const RcjPair& pair) override {
    if (cancelled_->load(std::memory_order_relaxed)) return false;
    buffer_->push_back(pair);
    return limit_ == 0 || buffer_->size() < limit_;
  }

 private:
  std::vector<RcjPair>* buffer_;
  const std::atomic<bool>* cancelled_;
  uint64_t limit_;
};

/// One schedulable unit: a claimant of its query's chunk cursor. A query
/// spawns min(max_tasks, num_chunks) of these; each loops, claiming and
/// executing chunks until the cursor (or a cancellation) runs dry.
struct EngineTask {
  size_t query_index = 0;
  QueryEmitState* emit = nullptr;

  Status status;
  JoinStats stats;  ///< candidate/result counts accumulated by ExecuteRcj.
  // Buffer accounting of this task's chunks (deltas of the worker pool's
  // counters, so a warm cached pool attributes only this query's work).
  uint64_t node_accesses = 0;
  uint64_t page_faults = 0;
  uint64_t cold_faults = 0;
  uint64_t warm_faults = 0;
  double io_wall_seconds = 0.0;
  Clock::time_point start;
  Clock::time_point end;
};

/// Announces a claimed chunk's leaf pages to the backing store before the
/// traversal reads them (EngineOptions::readahead_leaves). STR leaves are
/// nearly sequential on disk, so consecutive page numbers are coalesced
/// into single Prefetch ranges — one fadvise/madvise per run instead of
/// one per page.
void PrefetchChunkLeaves(const PageStore& store,
                         const std::vector<uint64_t>& leaves, size_t cap) {
  size_t issued = 0;
  size_t i = 0;
  while (i < leaves.size() && issued < cap) {
    uint64_t start = leaves[i];
    uint64_t count = 1;
    while (i + 1 < leaves.size() && issued + count < cap &&
           leaves[i + 1] == leaves[i] + 1) {
      ++count;
      ++i;
    }
    store.Prefetch(start, count);
    issued += count;
    ++i;
  }
}

/// Marks `range` complete and flushes every ready chunk at the frontier to
/// the delivery sink, in order. Called by the worker that finished the
/// chunk; the per-query mutex serializes delivery, so sinks see one thread
/// at a time. On reaching the limit (or a sink refusal / chunk failure),
/// closes delivery and raises the cancellation flag for the query's
/// remaining chunks.
void DeliverReadyRanges(QueryEmitState* st, size_t range, bool failed) {
  std::lock_guard<std::mutex> lock(st->mu);
  st->range_done[range] =
      failed ? QueryEmitState::kFailed : QueryEmitState::kDone;
  if (failed) {
    st->delivery_closed = true;
    st->cancelled.store(true, std::memory_order_relaxed);
  }
  while (st->next_range < st->range_done.size() &&
         st->range_done[st->next_range] != QueryEmitState::kPending) {
    const std::vector<RcjPair>* ready =
        st->range_done[st->next_range] == QueryEmitState::kDone
            ? &st->chunk_pairs[st->next_range]
            : nullptr;
    if (!st->delivery_closed && ready != nullptr) {
      // The sink is caller code (or a vector push_back that can hit
      // bad_alloc); a throw must not escape into the thread pool with the
      // frontier half-advanced — convert it to a per-query failure and
      // close delivery, keeping this function's state transitions atomic.
      try {
        for (const RcjPair& pair : *ready) {
          ++st->delivered;
          const bool more = st->sink->Emit(pair);
          const bool at_limit = st->limit != 0 && st->delivered >= st->limit;
          if (!more || at_limit) {
            st->delivery_closed = true;
            st->cancelled.store(true, std::memory_order_relaxed);
            break;
          }
        }
      } catch (const std::exception& e) {
        st->delivery_status =
            Status::IoError(std::string("result sink threw: ") + e.what());
        st->delivery_closed = true;
        st->cancelled.store(true, std::memory_order_relaxed);
      } catch (...) {
        st->delivery_status =
            Status::IoError("result sink threw a non-std exception");
        st->delivery_closed = true;
        st->cancelled.store(true, std::memory_order_relaxed);
      }
    }
    ++st->next_range;
  }
}

/// The task body: claim chunks from the query's cursor until it runs dry
/// (or the query is cancelled), executing each against this worker's
/// cached view — acquired lazily, so a task that never claims a chunk
/// touches no index at all. All failure paths (Status and exceptions)
/// collapse to a failed chunk, which closes delivery for the query without
/// poisoning batchmates.
void RunTaskChunks(const EngineQuery& query, const EngineOptions& options,
                   std::vector<std::unique_ptr<WorkerContext>>* contexts,
                   EngineTask* t) {
  QueryEmitState* emit = t->emit;
  WorkerView local_view;  // cache-off storage
  WorkerView* view = nullptr;
  BufferStats base;

  const auto ensure_view = [&]() -> Status {
    if (view != nullptr) return Status::OK();
    const RcjEnvironment& env = *query.spec.env;
    const size_t pool_pages = WorkerPoolPages(env, options);
    obs::TraceContext* trace = query.spec.trace;
    const obs::TraceClock::time_point open_start =
        trace != nullptr ? obs::TraceClock::now()
                         : obs::TraceClock::time_point();
    bool opened_fresh = true;  // the cache-off path always opens cold
    if (options.view_cache) {
      const size_t worker = ThreadPool::CurrentWorkerIndex();
      // Tasks only run on pool workers, so the index is always in range.
      Result<WorkerView*> acquired =
          (*contexts)[worker]->Acquire(env, pool_pages, &opened_fresh);
      if (!acquired.ok()) return acquired.status();
      view = acquired.value();
    } else {
      RINGJOIN_RETURN_IF_ERROR(
          OpenWorkerView(env, pool_pages, &local_view));
      view = &local_view;
    }
    if (trace != nullptr) {
      trace->Record(opened_fresh ? "view_open_cold" : "view_open_warm", 2,
                    open_start, obs::TraceClock::now());
    }
    // Snapshot the pool counters so this task charges exactly its own
    // chunks — excluding the header pins of a fresh open (like the old
    // post-open ResetStats) and every earlier query on a warm pool.
    base = view->buffer->stats();
    return Status::OK();
  };

  for (;;) {
    // An external cancel (service ticket, dropped network peer) joins the
    // internal one here, so even a query that never emits a pair stops at
    // the next chunk boundary.
    if (query.cancel != nullptr &&
        query.cancel->load(std::memory_order_relaxed)) {
      emit->cancelled.store(true, std::memory_order_relaxed);
    }
    // Leaf-chunk boundaries are the engine's deadline enforcement points:
    // a blown budget aborts the whole query (DeadlineExceeded at merge)
    // instead of letting it keep claiming chunks it can no longer use.
    if (query.spec.deadline_expired(Clock::now())) {
      std::lock_guard<std::mutex> lock(emit->mu);
      if (emit->abort_status.ok()) {
        emit->abort_status = Status::DeadlineExceeded(
            "query deadline expired at a leaf-chunk boundary");
      }
      emit->delivery_closed = true;
      emit->cancelled.store(true, std::memory_order_relaxed);
    }
    if (emit->cancelled.load(std::memory_order_relaxed)) break;
    const size_t chunk =
        emit->next_chunk.fetch_add(1, std::memory_order_relaxed);
    if (chunk >= emit->num_chunks) break;

    // The join code reports errors via Status, but allocation can still
    // throw on oversized result sets; convert to a per-query failure so
    // one starved query never poisons its batchmates (engine.h contract).
    Status status;
    try {
      status = ensure_view();
      if (status.ok()) {
        std::vector<uint64_t> subset;
        const std::vector<uint64_t>* subset_ptr = nullptr;
        if (emit->leaves != nullptr) {
          const size_t begin = chunk * emit->chunk_size;
          const size_t end = std::min(begin + emit->chunk_size,
                                      emit->leaves->size());
          subset.assign(emit->leaves->begin() + begin,
                        emit->leaves->begin() + end);
          subset_ptr = &subset;
        }
        const RcjEnvironment& env = *query.spec.env;
        if (subset_ptr != nullptr && options.readahead_leaves > 0) {
          PrefetchChunkLeaves(*env.q_page_store(), subset,
                              options.readahead_leaves);
        }
        TaskBufferSink sink(&emit->chunk_pairs[chunk], &emit->cancelled,
                            query.spec.limit);
        // Exactly one fragment of the query appends the overlay's delta-Q
        // tail: the last leaf chunk of a split query, or the whole query
        // when it was never split. Chunks deliver in index order, so the
        // merged stream stays identical across thread counts.
        const bool delta_tail = emit->leaves == nullptr ||
                                chunk == emit->num_chunks - 1;
        obs::TraceContext* trace = query.spec.trace;
        const obs::TraceClock::time_point chunk_start =
            trace != nullptr ? obs::TraceClock::now()
                             : obs::TraceClock::time_point();
        status = ExecuteRcj(view->tq_ref(), view->tp_ref(), env.qset(),
                            env.pset(), env.self_join(), query.spec,
                            subset_ptr, delta_tail, &sink, &t->stats);
        if (trace != nullptr) {
          trace->Record("leaf_chunk", 2, chunk_start,
                        obs::TraceClock::now());
        }
      }
    } catch (const std::exception& e) {
      status =
          Status::IoError(std::string("engine task threw: ") + e.what());
    } catch (...) {
      status = Status::IoError("engine task threw a non-std exception");
    }
    const bool failed = !status.ok();
    if (failed) t->status = status;
    DeliverReadyRanges(emit, chunk, failed);
    if (failed) break;
  }

  if (view != nullptr) {
    const BufferStats now = view->buffer->stats();
    t->node_accesses = now.logical_accesses - base.logical_accesses;
    t->page_faults = now.page_faults - base.page_faults;
    t->cold_faults = now.cold_faults - base.cold_faults;
    t->warm_faults = t->page_faults - t->cold_faults;
    t->io_wall_seconds = now.io_wall_seconds - base.io_wall_seconds;
    if (query.spec.trace != nullptr && t->page_faults > 0) {
      // Device wait attributed to this task's chunks; count = faults. The
      // sum across tasks can exceed the exec span's wall time — overlapped
      // waits are the parallel speedup, not an accounting error.
      query.spec.trace->RecordSeconds("io_wall", 2, t->io_wall_seconds,
                                      t->page_faults);
    }
  }
}

void SubmitTasks(const std::vector<EngineQuery>& queries,
                 const EngineOptions& engine_options,
                 std::vector<std::unique_ptr<WorkerContext>>* contexts,
                 ThreadPool* pool, std::vector<EngineTask>* tasks) {
  for (EngineTask& task : *tasks) {
    const EngineQuery& query = queries[task.query_index];
    EngineTask* t = &task;
    pool->Submit([t, &query, &engine_options, contexts] {
      t->start = Clock::now();
      RunTaskChunks(query, engine_options, contexts, t);
      t->end = Clock::now();
    });
  }
}

}  // namespace

Engine::Engine(EngineOptions options)
    : options_(options), pool_(options.num_threads) {
  contexts_.reserve(pool_.num_threads());
  for (size_t i = 0; i < pool_.num_threads(); ++i) {
    contexts_.push_back(std::make_unique<WorkerContext>(
        options_.max_cached_envs_per_worker));
  }
}

Engine::~Engine() = default;

void Engine::InvalidateCachedViews(const RcjEnvironment* env) {
  for (const std::unique_ptr<WorkerContext>& context : contexts_) {
    context->Invalidate(env);
  }
}

WorkerContextStats Engine::context_stats() const {
  WorkerContextStats total;
  for (const std::unique_ptr<WorkerContext>& context : contexts_) {
    const WorkerContextStats& stats = context->stats();
    total.opens += stats.opens;
    total.reuses += stats.reuses;
    total.evictions += stats.evictions;
    total.invalidations += stats.invalidations;
  }
  return total;
}

std::vector<EngineQueryResult> Engine::RunBatch(
    const std::vector<EngineQuery>& queries) {
  std::vector<EngineQueryResult> results(queries.size());

  // ---- Plan: expand each query into one or more claimant tasks over a
  // chunked leaf order. Leaf orders come from the environment, which
  // collected T_Q's depth-first order at Build time, so planning reads no
  // page. -------------------------------------------------------------
  std::vector<EngineTask> tasks;
  std::vector<std::vector<size_t>> tasks_of_query(queries.size());
  // Per-query streaming state and engine-owned collection sinks. Both are
  // stable vectors of pointers referenced by queued lambdas, so they must
  // outlive pool_.WaitIdle() below.
  std::vector<std::unique_ptr<QueryEmitState>> emit_states(queries.size());
  std::vector<std::unique_ptr<VectorSink>> collect_sinks(queries.size());

  for (size_t qi = 0; qi < queries.size(); ++qi) {
    const EngineQuery& query = queries[qi];
    const Status valid = query.spec.Validate();
    if (!valid.ok()) {
      results[qi].status = valid;
      continue;
    }

    emit_states[qi] = std::make_unique<QueryEmitState>();
    QueryEmitState* emit = emit_states[qi].get();

    // The depth-first (or seeded-shuffle) leaf order is resolved once on
    // the caller thread, then chunked, so flushing chunk outputs in order
    // equals the serial run.
    const std::vector<uint64_t>* leaves = nullptr;
    if (options_.intra_query_parallelism &&
        query.spec.algorithm != RcjAlgorithm::kBrute &&
        pool_.num_threads() > 1) {
      leaves = &query.spec.env->tq_leaf_pages();
      if (query.spec.order != SearchOrder::kDepthFirst) {
        emit->shuffled_leaves = *leaves;
        ApplySearchOrder(query.spec.order, query.spec.random_seed,
                         &emit->shuffled_leaves);
        leaves = &emit->shuffled_leaves;
      }
      if (leaves->size() < options_.min_leaves_to_split) leaves = nullptr;
    }
    if (query.sink != nullptr) {
      emit->sink = query.sink;
    } else {
      collect_sinks[qi] =
          std::make_unique<VectorSink>(&results[qi].run.pairs);
      emit->sink = collect_sinks[qi].get();
    }
    emit->limit = query.spec.limit;

    size_t num_tasks = 1;
    if (leaves != nullptr) {
      const size_t max_tasks = std::max<size_t>(
          1, pool_.num_threads() * options_.tasks_per_thread);
      // Auto chunks are several times finer than the task count, so the
      // cursor can rebalance a dense region. An explicit chunk size is
      // clamped to the static-split granularity (ceil(leaves/max_tasks)):
      // an oversized request degenerates to exactly the static contiguous
      // split, never below it — a huge --steal-chunk must not silently
      // serialize the query onto one worker.
      const size_t static_chunk =
          (leaves->size() + max_tasks - 1) / max_tasks;
      size_t chunk = options_.steal_chunk_leaves;
      if (chunk == 0) {
        chunk = std::max<size_t>(1, leaves->size() / (max_tasks * 8));
      }
      chunk = std::min(std::max<size_t>(1, chunk), static_chunk);
      emit->leaves = leaves;
      emit->chunk_size = chunk;
      emit->num_chunks = (leaves->size() + chunk - 1) / chunk;
      num_tasks = std::min(max_tasks, emit->num_chunks);
    }
    emit->range_done.assign(emit->num_chunks, QueryEmitState::kPending);
    emit->chunk_pairs.resize(emit->num_chunks);

    for (size_t r = 0; r < num_tasks; ++r) {
      EngineTask task;
      task.query_index = qi;
      task.emit = emit;
      tasks_of_query[qi].push_back(tasks.size());
      tasks.push_back(std::move(task));
    }
  }

  // ---- Execute: one flat task list, so inter- and intra-query work
  // interleaves freely across the pool. Queued lambdas hold pointers into
  // `tasks` and `queries`, so if a Submit() allocation throws mid-loop we
  // must drain the already-queued work before unwinding destroys them.
  try {
    SubmitTasks(queries, options_, &contexts_, &pool_, &tasks);
  } catch (...) {
    pool_.WaitIdle();
    throw;
  }
  pool_.WaitIdle();

  // ---- Merge: delivery already happened in chunk order as tasks
  // completed; here we aggregate the worker pools' fault accounting,
  // charge the paper's I/O cost model, and settle per-query statuses. ----
  static obs::Counter* queries_total =
      obs::MetricsRegistry::Default().counter("rcj_engine_queries_total");
  static obs::Counter* batches_total =
      obs::MetricsRegistry::Default().counter("rcj_engine_batches_total");
  static obs::Histogram* exec_seconds =
      obs::MetricsRegistry::Default().histogram("rcj_engine_exec_seconds");
  batches_total->Add();
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    if (!results[qi].status.ok()) continue;  // planning already failed
    EngineQueryResult& result = results[qi];
    double busy_seconds = 0.0;
    Clock::time_point first_start = Clock::time_point::max();
    Clock::time_point last_end = Clock::time_point::min();
    for (const size_t ti : tasks_of_query[qi]) {
      first_start = std::min(first_start, tasks[ti].start);
      last_end = std::max(last_end, tasks[ti].end);
    }
    for (const size_t ti : tasks_of_query[qi]) {
      const EngineTask& task = tasks[ti];
      if (!task.status.ok()) {
        result.status = task.status;
        break;
      }
      result.run.stats.candidates += task.stats.candidates;
      result.run.stats.node_accesses += task.node_accesses;
      result.run.stats.page_faults += task.page_faults;
      result.run.stats.cold_faults += task.cold_faults;
      result.run.stats.warm_faults += task.warm_faults;
      // Summed across tasks: with several workers faulting concurrently
      // this can exceed the batch's wall clock — it is total device wait,
      // the overlap is the speedup.
      result.run.stats.io_wall_seconds += task.io_wall_seconds;
      busy_seconds +=
          std::chrono::duration<double>(task.end - task.start).count();
    }
    if (result.status.ok() && !emit_states[qi]->abort_status.ok()) {
      result.status = emit_states[qi]->abort_status;
    }
    if (result.status.ok() && !emit_states[qi]->delivery_status.ok()) {
      result.status = emit_states[qi]->delivery_status;
    }
    if (!result.status.ok()) {
      // The caller's sink may have received a serial prefix before the
      // failing chunk was reached; the status is the source of truth.
      result.run = RcjRunResult();
      continue;
    }
    // Results = pairs actually delivered to the sink (the in-order
    // stream), not the sum of chunk buffers — chunks past a satisfied
    // limit may have buffered pairs that were rightly dropped.
    result.run.stats.results = emit_states[qi]->delivered;
    IoCostModel model;
    model.ms_per_fault = queries[qi].spec.io_ms_per_fault;
    BufferStats aggregated;
    aggregated.page_faults = result.run.stats.page_faults;
    aggregated.logical_accesses = result.run.stats.node_accesses;
    result.run.stats.io_seconds = model.SecondsFor(aggregated);
    // Summed execution time of the query's own tasks — comparable to the
    // serial runner's cpu_seconds and never inflated by other queries'
    // tasks interleaving on the pool. Batch latency is the caller's wall
    // clock around RunBatch.
    result.run.stats.cpu_seconds = busy_seconds;
    queries_total->Add();
    if (last_end > first_start) {
      // The query's wall window across its tasks (first start to last
      // end): what a p50/p99 latency summary should see, not the summed
      // busy time.
      exec_seconds->Observe(
          std::chrono::duration<double>(last_end - first_start).count());
      if (queries[qi].spec.trace != nullptr) {
        queries[qi].spec.trace->Record("exec", 1, first_start, last_end);
      }
    }
  }
  return results;
}

Result<RcjRunResult> Engine::Run(const QuerySpec& spec) {
  std::vector<EngineQuery> batch(1);
  batch[0].spec = spec;
  std::vector<EngineQueryResult> results = RunBatch(batch);
  if (!results[0].status.ok()) return results[0].status;
  return std::move(results[0].run);
}

Status Engine::Run(const QuerySpec& spec, PairSink* sink, JoinStats* stats) {
  std::vector<EngineQuery> batch(1);
  batch[0].spec = spec;
  batch[0].sink = sink;
  std::vector<EngineQueryResult> results = RunBatch(batch);
  if (!results[0].status.ok()) return results[0].status;
  *stats = results[0].run.stats;
  return Status::OK();
}

}  // namespace rcj

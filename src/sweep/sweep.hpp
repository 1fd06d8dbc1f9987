#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "analysis/feasibility.hpp"
#include "analysis/stics.hpp"
#include "cache/artifact_cache.hpp"
#include "obs/metrics.hpp"
#include "obs/task_events.hpp"
#include "sim/engine.hpp"
#include "support/thread_pool.hpp"

/// Sharded sweep runner — the substrate for the experiment sweeps
/// (STIC enumeration, feasibility cross-checks, rendezvous-time
/// tables).
///
/// The index space is partitioned into contiguous chunks; every chunk
/// is scheduled on a support::ThreadPool upfront and results are
/// merged BY CHUNK INDEX, never by completion order, so the output is
/// byte-identical for any thread count. The merge loop waits
/// (work-assisting, so a nested sweep inside a pool task cannot
/// deadlock) for the front chunk only and merges it while later chunks
/// are still executing.
namespace rdv::sweep {

struct SweepConfig {
  /// Items per chunk; 0 (the default) sizes chunks from the work:
  /// ceil(n / (4 x pool threads)), at least 1, so a sweep splits into
  /// about four chunks per thread. Small chunks load-balance better
  /// (a few slow items cannot serialize a short sweep on one worker),
  /// large chunks amortize scheduling; a nonzero value overrides the
  /// rule.
  std::size_t chunk_size = 0;
  /// Pool to run on; nullptr uses support::default_pool(). The runner
  /// tracks its own chunks with a support::TaskGroup, so independent
  /// sweeps may share one pool without waiting on each other; kernels
  /// may themselves run nested sweeps (or otherwise block on the same
  /// pool via TaskGroup::wait) — waits are work-assisting, so the
  /// blocked worker executes the tasks it is waiting for.
  support::ThreadPool* pool = nullptr;
  /// Per-graph artifact cache used by the kernels the sweep layer
  /// builds itself (e.g. feasibility_sweep's view classes); nullptr
  /// uses cache::global_cache(). Artifacts are deterministic functions
  /// of the graph, so the cache choice never changes sweep output.
  cache::ArtifactCache* cache = nullptr;
};

struct SweepStats {
  std::size_t items_total = 0;
  /// Effective items per chunk (the auto-sized value when
  /// SweepConfig::chunk_size is 0).
  std::size_t chunk_size = 0;
  std::size_t chunks_total = 0;
  std::size_t items_produced = 0;
  /// The sweep's id in the task-event log; 0 when events were off.
  std::uint64_t sweep_id = 0;
};

namespace detail {
inline std::size_t effective_chunk_size(const SweepConfig& config,
                                        std::size_t n,
                                        std::size_t threads) {
  if (config.chunk_size != 0) return config.chunk_size;
  const std::size_t target_chunks = 4 * threads;  // a pool has >= 1
  return std::max<std::size_t>(1, (n + target_chunks - 1) / target_chunks);
}
inline support::ThreadPool& effective_pool(const SweepConfig& config) {
  return config.pool != nullptr ? *config.pool : support::default_pool();
}
inline cache::ArtifactCache& effective_cache(const SweepConfig& config) {
  return config.cache != nullptr ? *config.cache : cache::global_cache();
}

/// Process-wide sweep-substrate counters: chunks executed and items
/// produced. Handles resolved once per process.
struct SweepMetrics {
  obs::Counter& chunks = obs::counter("sweep.chunks");
  obs::Counter& items = obs::counter("sweep.items");
};
inline SweepMetrics& sweep_metrics() {
  static SweepMetrics metrics;
  return metrics;
}
}  // namespace detail

/// Maps fn over [0, n) with deterministic ordering: out[i] == fn(i) for
/// any pool, thread count and chunk size.
template <typename R>
std::vector<R> sweep_map(std::size_t n,
                         const std::function<R(std::size_t)>& fn,
                         const SweepConfig& config = {},
                         SweepStats* stats = nullptr) {
  support::ThreadPool& pool = detail::effective_pool(config);
  const std::size_t chunk_size =
      detail::effective_chunk_size(config, n, pool.thread_count());
  const std::size_t chunks =
      n == 0 ? 0 : (n + chunk_size - 1) / chunk_size;
  // Profiler markers (ISSUE 9): the sweep id joins this sweep's chunk
  // tasks and merges into one DAG the analyzer can walk. All profiling
  // is sidecar-only — ids are allocated only when enabled, so the off
  // path costs one relaxed load.
  const bool profiled = obs::task_events_enabled();
  const std::uint64_t sweep_id = profiled ? obs::next_sweep_id() : 0;
  if (profiled) {
    obs::record_task_event(obs::TaskEventKind::kSweepBegin, 0, sweep_id,
                           chunk_size);
  }

  std::vector<std::vector<R>> chunk_out(chunks);
  // Completion slots: a chunk task fills chunk_out[c], then publishes
  // it with a release store the merge loop acquires — the only
  // synchronization the merge needs besides the pool's own.
  std::vector<std::atomic<bool>> chunk_done(chunks);
  std::vector<R> merged;
  merged.reserve(n);
  // Per-sweep completion tracking: the group counts only this sweep's
  // chunks, so concurrent sweeps sharing the pool never wait on each
  // other (ThreadPool::wait_idle would wait for the whole pool).
  support::TaskGroup group(pool);
  for (std::size_t c = 0; c < chunks; ++c) {
    const std::size_t lo = c * chunk_size;
    const std::size_t hi = std::min(n, lo + chunk_size);
    std::vector<R>* out = &chunk_out[c];
    std::atomic<bool>* done = &chunk_done[c];
    const std::uint64_t task_id = group.submit([lo, hi, out, done, &fn] {
      detail::SweepMetrics& metrics = detail::sweep_metrics();
      metrics.chunks.add();
      out->reserve(hi - lo);
      for (std::size_t i = lo; i < hi; ++i) out->push_back(fn(i));
      metrics.items.add(out->size());
      done->store(true, std::memory_order_release);
    });
    // Labels the pool task as chunk `c` of this sweep — the join key
    // between the pool lifecycle events and the sweep DAG.
    if (task_id != 0) {
      obs::record_task_event(obs::TaskEventKind::kChunkTask, task_id,
                             sweep_id, c);
    }
  }
  for (std::size_t front = 0; front < chunks; ++front) {
    // Tagged with the group: an assisting worker runs only this
    // sweep's chunks (plus its own deque's descendants), never an
    // unrelated task that could block or nest arbitrarily deep.
    pool.assist_until(
        [&chunk_done, front] {
          return chunk_done[front].load(std::memory_order_acquire);
        },
        group.tag());
    // Note for the analyzer: the chunk task publishes chunk_done
    // BEFORE the pool records its kEnd, so this kMergeBegin may carry a
    // timestamp slightly before the chunk's kEnd — the critical-path
    // walk clamps such subtractions.
    if (profiled) {
      obs::record_task_event(obs::TaskEventKind::kMergeBegin, 0, sweep_id,
                             front);
    }
    for (R& r : chunk_out[front]) merged.push_back(std::move(r));
    if (profiled) {
      obs::record_task_event(obs::TaskEventKind::kMergeEnd, 0, sweep_id,
                             front);
    }
    // Swap-with-empty, not clear(): a merged chunk would otherwise keep
    // its capacity until return.
    std::vector<R>().swap(chunk_out[front]);
  }
  group.wait();  // defensive: every scheduled chunk is already done
  if (profiled) {
    obs::record_task_event(obs::TaskEventKind::kSweepEnd, 0, sweep_id,
                           merged.size());
  }
  if (stats != nullptr) {
    *stats = SweepStats{n, chunk_size, chunks, merged.size(), sweep_id};
  }
  return merged;
}

/// Verifies every ordered STIC with delays 0..max_delay against
/// Corollary 3.1. Agents do not interact before they meet and agents
/// with equal views walk alike, so the sweep records one solo walk per
/// view class and decides each STIC by merging two walks
/// (sim::merge_walks), with sim::run_anonymous's verdicts. Precondition:
/// the program's instances share no mutable state (the model's
/// anonymity; core::universal_rv_program meets it).
[[nodiscard]] analysis::SweepSummary feasibility_sweep(
    const graph::Graph& g, std::uint64_t max_delay,
    const sim::AgentProgram& program, const sim::RunConfig& run_config,
    const SweepConfig& sweep_config = {});

}  // namespace rdv::sweep

#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

/// Task-lifecycle event log, the run's one timeline recorder: per-thread
/// rings of fixed-size events — submit / dequeue / steal / begin / end
/// / park / unpark from the thread pool, sweep / chunk / merge markers
/// from the pipelined sweep runner, experiment markers from the
/// experiment runner — carrying STABLE TASK IDS, so a post-run analyzer
/// (obs/profile.hpp) can stitch one task's lifecycle across threads:
/// who submitted it, who stole it, when it ran, and which merge
/// consumed its output. The Chrome trace and the scheduler profile are
/// both rendered from it.
///
/// Design:
///  - OFF by default; when off, the instrumentation costs one relaxed
///    atomic load per call site and records nothing. `rdv_bench
///    --trace-out` or `--profile-out` (or set_task_events_enabled)
///    switches it on.
///  - Each recording thread owns one fixed-capacity ring; a full ring
///    overwrites its oldest event (counted in the dropped tally) —
///    recording never blocks and never allocates. Events are plain
///    trivially-copyable structs.
///  - Rings register globally on first use and outlive their threads;
///    drain_task_events() snapshots every ring and merges the events
///    into one deterministic order.
///
/// Like metrics, the event log is sidecar-only: nothing here touches
/// stdout or a result byte.
namespace rdv::obs {

/// Stable per-thread observability id: the task-event rings' tid and
/// the Chrome trace's timeline row (assigned once per thread, in
/// first-use order).
[[nodiscard]] std::uint32_t thread_obs_id() noexcept;

enum class TaskEventKind : std::uint8_t {
  /// Pool: task enqueued (tid = submitter). task = id.
  kSubmit = 0,
  /// Pool: task popped from the executor's own deque or the shared
  /// queue (tid = executor). task = id.
  kDequeue,
  /// Pool: task popped from ANOTHER worker's deque (tid = thief).
  /// task = id, a = victim worker index within its pool.
  kSteal,
  /// Pool: task body starts / finishes executing (tid = executor).
  kBegin,
  kEnd,
  /// Pool: the thread went to sleep on the wake cv / woke from it.
  kPark,
  kUnpark,
  /// Sweep: sweep_map entry/exit on the merging thread. a = sweep id,
  /// b = effective items per chunk (begin) / items produced (end).
  kSweepBegin,
  kSweepEnd,
  /// Sweep: labels a just-submitted pool task as chunk `b` of sweep
  /// `a` — the join key between the pool lifecycle and the sweep DAG.
  kChunkTask,
  /// Sweep: merge of chunk `b` of sweep `a` starts / finishes on the
  /// merging thread.
  kMergeBegin,
  kMergeEnd,
  /// Experiment: run_experiment entry/exit on the calling thread.
  /// a = the experiment id's label (intern_label); at the end b = the
  /// sweep id of its case sweep (one case per chunk), 0 when none ran.
  kExpBegin,
  kExpEnd,
};

[[nodiscard]] const char* task_event_kind_name(TaskEventKind kind) noexcept;

struct TaskEvent {
  std::uint64_t t_micros = 0;
  /// Pool task id (next_task_id), 0 when the event has no task.
  std::uint64_t task = 0;
  /// Kind-specific (see TaskEventKind): victim index, sweep id.
  std::uint64_t a = 0;
  /// Kind-specific: chunk index, chunk count, items produced.
  std::uint64_t b = 0;
  /// Recording thread (thread_obs_id).
  std::uint32_t tid = 0;
  /// Per-ring sequence number: breaks same-microsecond ties so the
  /// merged order is deterministic for a fixed set of events.
  std::uint32_t seq = 0;
  TaskEventKind kind = TaskEventKind::kSubmit;
};

/// Global on/off switch (reads are one relaxed atomic load).
[[nodiscard]] bool task_events_enabled() noexcept;
void set_task_events_enabled(bool enabled) noexcept;

/// Ring capacity (events per thread) for rings created AFTER the call;
/// existing rings keep theirs. Default 65536.
void set_task_event_ring_capacity(std::size_t events) noexcept;

/// Process-wide task / sweep id allocators (1-based; 0 is "no id").
/// Monotone within a run — with deterministic submit order (a 1-thread
/// pool) the assigned ids are deterministic too.
[[nodiscard]] std::uint64_t next_task_id() noexcept;
[[nodiscard]] std::uint64_t next_sweep_id() noexcept;

/// Process-wide label table: a stable id (0-based) per distinct name,
/// so fixed-size events can name things (experiment ids) without
/// pointing into memory their owner may free before the drain. Ids
/// and names live until exit.
[[nodiscard]] std::uint64_t intern_label(std::string_view name);
/// The name interned as `id`; empty for an unknown id.
[[nodiscard]] std::string label_name(std::uint64_t id);

/// Records one event on the calling thread's ring (overwrites the
/// oldest when full). No-op when disabled — callers on hot paths
/// should check task_events_enabled() first to skip id allocation.
void record_task_event(TaskEventKind kind, std::uint64_t task = 0,
                       std::uint64_t a = 0, std::uint64_t b = 0);

/// Cumulative events lost to ring overwrites / recorded successfully
/// (all rings). Bridged into metrics as obs.task_events_dropped —
/// CI asserts zero drops on smoke runs.
[[nodiscard]] std::uint64_t task_events_dropped_count() noexcept;
[[nodiscard]] std::uint64_t task_events_recorded_count() noexcept;

/// Snapshots every ring, merged by (t_micros, tid, seq) — deterministic
/// for a fixed set of recorded events. Does not stop recording or
/// clear rings.
[[nodiscard]] std::vector<TaskEvent> drain_task_events();

/// Clears every ring and the dropped/recorded tallies (rings stay
/// registered; the id allocators keep counting).
void clear_task_events();

}  // namespace rdv::obs

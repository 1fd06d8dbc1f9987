#include "obs/task_events.hpp"

#include <algorithm>
#include <atomic>
#include <mutex>
#include <string>

#include "obs/metrics.hpp"
#include "obs/ring.hpp"
#include "support/check.hpp"

namespace rdv::obs {

namespace {

std::atomic<std::uint64_t> g_next_task{1};
std::atomic<std::uint64_t> g_next_sweep{1};
std::atomic<std::uint32_t> g_next_thread{0};

struct LabelTable {
  support::RankedMutex mutex{support::LockRank::kObsRing};
  std::vector<std::string> names;
};

LabelTable& labels() {
  static LabelTable table;
  return table;
}

}  // namespace

RingSet<TaskEvent>& task_rings() noexcept {
  static RingSet<TaskEvent> rings(65536);
  return rings;
}

std::uint32_t thread_obs_id() noexcept {
  thread_local const std::uint32_t id =
      g_next_thread.fetch_add(1, std::memory_order_relaxed);
  return id;
}

const char* task_event_kind_name(TaskEventKind kind) noexcept {
  switch (kind) {
    case TaskEventKind::kSubmit: return "submit";
    case TaskEventKind::kDequeue: return "dequeue";
    case TaskEventKind::kSteal: return "steal";
    case TaskEventKind::kBegin: return "begin";
    case TaskEventKind::kEnd: return "end";
    case TaskEventKind::kPark: return "park";
    case TaskEventKind::kUnpark: return "unpark";
    case TaskEventKind::kSweepBegin: return "sweep_begin";
    case TaskEventKind::kSweepEnd: return "sweep_end";
    case TaskEventKind::kChunkTask: return "chunk_task";
    case TaskEventKind::kMergeBegin: return "merge_begin";
    case TaskEventKind::kMergeEnd: return "merge_end";
    case TaskEventKind::kExpBegin: return "exp_begin";
    case TaskEventKind::kExpEnd: return "exp_end";
  }
  return "?";
}

bool task_events_enabled() noexcept { return task_rings().enabled(); }

void set_task_events_enabled(bool enabled) noexcept {
  task_rings().set_enabled(enabled);
}

void set_task_event_ring_capacity(std::size_t events) noexcept {
  task_rings().set_capacity(events);
}

std::uint64_t next_task_id() noexcept {
  return g_next_task.fetch_add(1, std::memory_order_relaxed);
}

std::uint64_t next_sweep_id() noexcept {
  return g_next_sweep.fetch_add(1, std::memory_order_relaxed);
}

std::uint64_t intern_label(std::string_view name) {
  LabelTable& table = labels();
  std::lock_guard lock(table.mutex);
  const auto it = std::find(table.names.begin(), table.names.end(), name);
  if (it != table.names.end()) {
    return static_cast<std::uint64_t>(it - table.names.begin());
  }
  table.names.emplace_back(name);
  return table.names.size() - 1;
}

std::string label_name(std::uint64_t id) {
  LabelTable& table = labels();
  std::lock_guard lock(table.mutex);
  return id < table.names.size() ? table.names[id] : std::string();
}

void record_task_event(TaskEventKind kind, std::uint64_t task,
                       std::uint64_t a, std::uint64_t b) {
  if (!task_events_enabled()) return;
  TaskEvent event;
  event.t_micros = now_micros();
  event.task = task;
  event.a = a;
  event.b = b;
  event.kind = kind;
  task_rings().record(event);
}

std::uint64_t task_events_dropped_count() noexcept {
  return task_rings().dropped();
}

std::uint64_t task_events_recorded_count() noexcept {
  return task_rings().recorded();
}

std::vector<TaskEvent> drain_task_events() {
  std::vector<TaskEvent> events = task_rings().snapshot();
  std::sort(events.begin(), events.end(),
            [](const TaskEvent& x, const TaskEvent& y) {
              if (x.t_micros != y.t_micros) return x.t_micros < y.t_micros;
              if (x.tid != y.tid) return x.tid < y.tid;
              return x.seq < y.seq;
            });
  return events;
}

void clear_task_events() { task_rings().clear(); }

}  // namespace rdv::obs

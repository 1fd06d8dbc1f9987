#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "obs/task_events.hpp"
#include "support/check.hpp"

/// The obs layer's one per-thread event ring, behind the task-lifecycle
/// log (TaskEvent).
///
///  - Each recording thread owns one fixed-capacity ring, registered on
///    first use under its thread_obs_id(). Rings outlive their threads
///    (the set holds them), so a drain after a worker exits still sees
///    its events.
///  - A full ring overwrites its oldest event; recording never blocks
///    on another recorder and allocates only on a thread's first
///    record. Every overwritten event counts as dropped, and so does
///    every event recorded into a capacity-0 ring.
///  - The ring mutex is private to its thread in steady state (only
///    snapshot/clear contend), so record() is an uncontended lock plus
///    a struct store.
namespace rdv::obs {

template <typename Event>
class RingSet {
 public:
  explicit RingSet(std::size_t capacity) noexcept : capacity_(capacity) {}

  RingSet(const RingSet&) = delete;
  RingSet& operator=(const RingSet&) = delete;

  [[nodiscard]] bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }
  void set_enabled(bool enabled) noexcept {
    enabled_.store(enabled, std::memory_order_relaxed);
  }

  /// Capacity of rings registered after the call; existing rings keep
  /// theirs.
  void set_capacity(std::size_t events) noexcept {
    capacity_.store(events, std::memory_order_relaxed);
  }

  /// Appends to the calling thread's ring, stamping the ring's tid and
  /// its per-ring sequence number.
  void record(Event event) {
    Ring& ring = local();
    std::lock_guard lock(ring.mutex);
    const std::size_t capacity = ring.slots.size();
    if (capacity == 0) {
      dropped_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    event.tid = ring.tid;
    event.seq = ring.seq++;
    if (ring.size == capacity) {
      dropped_.fetch_add(1, std::memory_order_relaxed);
    } else {
      ++ring.size;
    }
    recorded_.fetch_add(1, std::memory_order_relaxed);
    ring.slots[ring.head] = event;
    ring.head = (ring.head + 1) % capacity;
  }

  /// Every ring's events, each ring oldest-first, rings in registration
  /// order. Callers sort into their own deterministic merge order.
  [[nodiscard]] std::vector<Event> snapshot() {
    std::vector<Event> events;
    for (const auto& ring : registered()) {
      std::lock_guard lock(ring->mutex);
      const std::size_t capacity = ring->slots.size();
      const std::size_t first =
          capacity == 0 ? 0 : (ring->head + capacity - ring->size) % capacity;
      for (std::size_t i = 0; i < ring->size; ++i) {
        events.push_back(ring->slots[(first + i) % capacity]);
      }
    }
    return events;
  }

  /// Empties every ring (they stay registered) and zeroes the tallies.
  void clear() {
    for (const auto& ring : registered()) {
      std::lock_guard lock(ring->mutex);
      ring->head = 0;
      ring->size = 0;
      ring->seq = 0;
    }
    dropped_.store(0, std::memory_order_relaxed);
    recorded_.store(0, std::memory_order_relaxed);
  }

  /// Events lost to overwrites or a capacity-0 ring / events stored
  /// (overwriting ones included), across all rings since the last clear.
  [[nodiscard]] std::uint64_t dropped() const noexcept {
    return dropped_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t recorded() const noexcept {
    return recorded_.load(std::memory_order_relaxed);
  }

 private:
  struct Ring {
    support::RankedMutex mutex{support::LockRank::kObsRing};
    std::vector<Event> slots;
    /// Next write position; wraps. size saturates at capacity.
    std::size_t head = 0;
    std::size_t size = 0;
    std::uint32_t tid = 0;
    std::uint32_t seq = 0;
  };

  /// The calling thread's ring, registered (and sized) on first use.
  /// The thread_local is per Event type, so a process has exactly one
  /// RingSet per event type.
  Ring& local() {
    thread_local const std::shared_ptr<Ring> ring = [this] {
      auto r = std::make_shared<Ring>();
      r->slots.resize(capacity_.load(std::memory_order_relaxed));
      r->tid = thread_obs_id();
      std::lock_guard lock(mutex_);
      rings_.push_back(r);
      return r;
    }();
    return *ring;
  }

  std::vector<std::shared_ptr<Ring>> registered() {
    std::lock_guard lock(mutex_);
    return rings_;
  }

  std::atomic<bool> enabled_{false};
  std::atomic<std::size_t> capacity_;
  std::atomic<std::uint64_t> dropped_{0};
  std::atomic<std::uint64_t> recorded_{0};
  support::RankedMutex mutex_{support::LockRank::kObsRing};
  std::vector<std::shared_ptr<Ring>> rings_;
};

/// The process's ring set of task-lifecycle events (task_events.cpp).
/// Calling it constructs it; anything that starts long-lived recording
/// threads (support::ThreadPool) calls it first, so the set outlives
/// those threads at exit.
[[nodiscard]] RingSet<TaskEvent>& task_rings() noexcept;

}  // namespace rdv::obs

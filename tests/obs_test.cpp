#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <optional>
#include <regex>
#include <utility>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "exp/driver.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/metrics_tools.hpp"
#include "obs/profile.hpp"
#include "obs/task_events.hpp"
#include "store/log_tools.hpp"
#include "store/result_log.hpp"
#include "support/thread_pool.hpp"
#include "sweep/sweep.hpp"

namespace rdv::obs {
namespace {

// ---- metrics primitives ----------------------------------------------

/// Bumps a local counter from `threads` threads, `per_thread` times
/// each — the merged value must be exact no matter the thread count.
std::uint64_t count_with_threads(std::size_t threads,
                                 std::uint64_t per_thread) {
  Counter counter;
  std::vector<std::thread> workers;
  workers.reserve(threads);
  for (std::size_t t = 0; t < threads; ++t) {
    workers.emplace_back([&counter, per_thread] {
      for (std::uint64_t i = 0; i < per_thread; ++i) counter.add();
    });
  }
  for (auto& w : workers) w.join();
  return counter.value();
}

TEST(Metrics, CounterMergesDeterministicallyAcrossThreadCounts) {
  // 16 threads deliberately exceeds kStripes on small runners: several
  // threads share stripes, and the sum must still be exact.
  EXPECT_EQ(count_with_threads(1, 4800), 4800u);
  EXPECT_EQ(count_with_threads(4, 1200), 4800u);
  EXPECT_EQ(count_with_threads(16, 300), 4800u);
}

/// Observes the fixed multiset {0, 1, ..., n-1} partitioned across
/// `threads` threads and returns the merged snapshot.
HistogramSnapshot observe_with_threads(std::size_t threads,
                                       std::uint64_t n) {
  Histogram hist;
  std::vector<std::thread> workers;
  workers.reserve(threads);
  for (std::size_t t = 0; t < threads; ++t) {
    workers.emplace_back([&hist, t, threads, n] {
      for (std::uint64_t v = t; v < n; v += threads) hist.observe(v);
    });
  }
  for (auto& w : workers) w.join();
  return hist.snapshot();
}

TEST(Metrics, HistogramMergesDeterministicallyAcrossThreadCounts) {
  const HistogramSnapshot a = observe_with_threads(1, 1000);
  const HistogramSnapshot b = observe_with_threads(4, 1000);
  const HistogramSnapshot c = observe_with_threads(16, 1000);
  EXPECT_EQ(a.count, 1000u);
  EXPECT_EQ(a.sum, 999u * 1000u / 2);
  EXPECT_EQ(a.count, b.count);
  EXPECT_EQ(a.sum, b.sum);
  EXPECT_EQ(a.buckets, b.buckets);
  EXPECT_EQ(a.count, c.count);
  EXPECT_EQ(a.sum, c.sum);
  EXPECT_EQ(a.buckets, c.buckets);
}

TEST(Metrics, HistogramBucketEdges) {
  EXPECT_EQ(histogram_bucket(0), 0u);
  EXPECT_EQ(histogram_bucket(1), 1u);
  EXPECT_EQ(histogram_bucket(2), 2u);
  EXPECT_EQ(histogram_bucket(3), 2u);
  EXPECT_EQ(histogram_bucket(4), 3u);
  EXPECT_EQ(histogram_bucket(std::uint64_t{1} << 62), 63u);
  // bit_width of 2^63.. is 64 — must clamp into the last bucket, not
  // index out of range.
  EXPECT_EQ(histogram_bucket(std::uint64_t{1} << 63), 63u);
  EXPECT_EQ(histogram_bucket(~std::uint64_t{0}), 63u);
}

TEST(Metrics, GaugeSetAndAdd) {
  Gauge gauge;
  gauge.set(7);
  gauge.add(-10);
  EXPECT_EQ(gauge.value(), -3);
  gauge.reset();
  EXPECT_EQ(gauge.value(), 0);
}

TEST(Metrics, RegistryHandlesSurviveReset) {
  Counter& counter = Registry::instance().counter("obs_test.survivor");
  counter.add(5);
  EXPECT_EQ(counter.value(), 5u);
  Registry::instance().reset_for_tests();
  // Same object, zeroed — cached static handles elsewhere stay valid.
  EXPECT_EQ(counter.value(), 0u);
  EXPECT_EQ(&Registry::instance().counter("obs_test.survivor"), &counter);
  counter.add(1);
  EXPECT_EQ(counter.value(), 1u);
  Registry::instance().reset_for_tests();
}

TEST(Metrics, SnapshotSourcesAreIdempotentByName) {
  Registry::instance().reset_for_tests();
  Registry::instance().register_source(
      "obs_test.src",
      [](MetricsSnapshot& snap) { snap.counters["obs_test.a"] = 1; });
  // Re-registration replaces, never stacks.
  Registry::instance().register_source(
      "obs_test.src",
      [](MetricsSnapshot& snap) { snap.counters["obs_test.a"] = 2; });
  const MetricsSnapshot snap = Registry::instance().snapshot();
  ASSERT_EQ(snap.counters.count("obs_test.a"), 1u);
  EXPECT_EQ(snap.counters.at("obs_test.a"), 2u);
  Registry::instance().reset_for_tests();
}

// ---- task-lifecycle events -------------------------------------------

TEST(TaskEvents, DisabledRecordsNothingAndAllocatorsStayMonotone) {
  set_task_events_enabled(false);
  clear_task_events();
  record_task_event(TaskEventKind::kSubmit, 424242);
  for (const TaskEvent& e : drain_task_events()) {
    EXPECT_NE(e.task, 424242u);
  }
  EXPECT_EQ(task_events_recorded_count(), 0u);
  const std::uint64_t a = next_task_id();
  const std::uint64_t b = next_task_id();
  EXPECT_GT(a, 0u);
  EXPECT_GT(b, a);
  EXPECT_GT(next_sweep_id(), 0u);
}

TEST(TaskEvents, KindNamesAreStable) {
  EXPECT_STREQ(task_event_kind_name(TaskEventKind::kSubmit), "submit");
  EXPECT_STREQ(task_event_kind_name(TaskEventKind::kDequeue), "dequeue");
  EXPECT_STREQ(task_event_kind_name(TaskEventKind::kSteal), "steal");
  EXPECT_STREQ(task_event_kind_name(TaskEventKind::kBegin), "begin");
  EXPECT_STREQ(task_event_kind_name(TaskEventKind::kEnd), "end");
  EXPECT_STREQ(task_event_kind_name(TaskEventKind::kPark), "park");
  EXPECT_STREQ(task_event_kind_name(TaskEventKind::kUnpark), "unpark");
  EXPECT_STREQ(task_event_kind_name(TaskEventKind::kSweepBegin),
               "sweep_begin");
  EXPECT_STREQ(task_event_kind_name(TaskEventKind::kSweepEnd), "sweep_end");
  EXPECT_STREQ(task_event_kind_name(TaskEventKind::kChunkTask),
               "chunk_task");
  EXPECT_STREQ(task_event_kind_name(TaskEventKind::kMergeBegin),
               "merge_begin");
  EXPECT_STREQ(task_event_kind_name(TaskEventKind::kMergeEnd), "merge_end");
  EXPECT_STREQ(task_event_kind_name(TaskEventKind::kExpBegin), "exp_begin");
  EXPECT_STREQ(task_event_kind_name(TaskEventKind::kExpEnd), "exp_end");
}

// Events name experiments through the obs label table, so a name
// outlives the string it was interned from, keeps its full length, and
// one name interns to one id.
TEST(TaskEvents, ExpMarkersNameTheExperimentAfterItsOwnerIsGone) {
  clear_task_events();
  set_task_events_enabled(true);
  {
    const std::string name(200, 'x');
    const std::uint64_t label = intern_label(name);
    EXPECT_EQ(intern_label(name), label);
    EXPECT_NE(intern_label("obs_test_other"), label);
    std::thread([label] {
      record_task_event(TaskEventKind::kExpBegin, 0, label);
      record_task_event(TaskEventKind::kExpEnd, 0, label, 77);
    }).join();
  }
  set_task_events_enabled(false);
  const Profile profile = build_profile(drain_task_events());
  clear_task_events();
  ASSERT_EQ(profile.exps.size(), 1u);
  EXPECT_EQ(profile.exps[0].id, std::string(200, 'x'));
  EXPECT_EQ(profile.exps[0].sweep, 77u);
  EXPECT_LE(profile.exps[0].begin_t, profile.exps[0].end_t);
  EXPECT_EQ(label_name(999999), "");
}

TEST(TaskEvents, TinyRingOverflowCountsDropsAndKeepsNewest) {
  clear_task_events();
  set_task_event_ring_capacity(4);
  set_task_events_enabled(true);
  // A fresh thread gets a fresh capacity-4 ring; ten events must never
  // block, keep exactly the newest four, and count the six overwrites.
  std::thread([] {
    for (std::uint64_t i = 0; i < 10; ++i) {
      record_task_event(TaskEventKind::kBegin, 9000 + i);
    }
  }).join();
  set_task_events_enabled(false);
  set_task_event_ring_capacity(65536);
  std::vector<std::uint64_t> mine;
  for (const TaskEvent& e : drain_task_events()) {
    if (e.task >= 9000 && e.task < 9010) mine.push_back(e.task);
  }
  ASSERT_EQ(mine.size(), 4u);
  EXPECT_EQ(mine.front(), 9006u);
  EXPECT_EQ(mine.back(), 9009u);
  EXPECT_EQ(task_events_dropped_count(), 6u);
  EXPECT_EQ(task_events_recorded_count(), 10u);
  clear_task_events();
  EXPECT_EQ(task_events_dropped_count(), 0u);
  EXPECT_EQ(task_events_recorded_count(), 0u);
}

TEST(TaskEvents, ZeroCapacityRingCountsEveryRecordAsDropped) {
  clear_task_events();
  set_task_event_ring_capacity(0);
  set_task_events_enabled(true);
  std::thread([] {
    for (std::uint64_t i = 0; i < 5; ++i) {
      record_task_event(TaskEventKind::kBegin, 9100 + i);
    }
  }).join();
  set_task_events_enabled(false);
  set_task_event_ring_capacity(65536);
  for (const TaskEvent& e : drain_task_events()) {
    EXPECT_FALSE(e.task >= 9100 && e.task < 9105) << e.task;
  }
  EXPECT_EQ(task_events_dropped_count(), 5u);
  EXPECT_EQ(task_events_recorded_count(), 0u);
  clear_task_events();
}

TEST(TaskEvents, DrainIsDeterministicAndPreservesPerThreadOrder) {
  clear_task_events();
  set_task_events_enabled(true);
  // The recording thread exits before the drain: its ring must survive
  // in the directory with every event intact.
  std::thread([] {
    for (std::uint64_t i = 0; i < 50; ++i) {
      record_task_event(TaskEventKind::kSubmit, 7000 + i);
    }
  }).join();
  set_task_events_enabled(false);
  const std::vector<TaskEvent> first = drain_task_events();
  const std::vector<TaskEvent> second = drain_task_events();
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].task, second[i].task);
    EXPECT_EQ(first[i].tid, second[i].tid);
    EXPECT_EQ(first[i].seq, second[i].seq);
  }
  std::vector<std::uint64_t> mine;
  std::vector<std::uint32_t> tids;
  for (const TaskEvent& e : first) {
    if (e.task < 7000 || e.task >= 7050) continue;
    mine.push_back(e.task);
    tids.push_back(e.tid);
  }
  // (t, tid, seq) ordering keeps one thread's events in record order.
  ASSERT_EQ(mine.size(), 50u);
  for (std::size_t i = 0; i < mine.size(); ++i) {
    EXPECT_EQ(mine[i], 7000 + i);
    EXPECT_EQ(tids[i], tids[0]);
  }
  clear_task_events();
}

TEST(TaskEvents, ShortLivedThreadsKeepDistinctTids) {
  clear_task_events();
  set_task_events_enabled(true);
  for (std::uint64_t t = 0; t < 3; ++t) {
    std::thread([t] {
      record_task_event(TaskEventKind::kEnd, 7700 + t);
    }).join();
  }
  set_task_events_enabled(false);
  std::vector<std::uint32_t> tids;
  for (const TaskEvent& e : drain_task_events()) {
    if (e.task >= 7700 && e.task < 7703) tids.push_back(e.tid);
  }
  ASSERT_EQ(tids.size(), 3u);
  std::sort(tids.begin(), tids.end());
  EXPECT_EQ(std::unique(tids.begin(), tids.end()), tids.end());
  clear_task_events();
}

TEST(TaskEvents, DrainWhileRecordingIsSafe) {
  clear_task_events();
  set_task_events_enabled(true);
  std::atomic<bool> stop{false};
  std::thread writer([&stop] {
    std::uint64_t i = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      record_task_event(TaskEventKind::kBegin, 8000 + (i++ % 16));
    }
  });
  // Keep draining until the writer's events show up (it may still be
  // starting); every drained event must be well-formed mid-recording.
  std::size_t seen = 0;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (seen == 0 && std::chrono::steady_clock::now() < deadline) {
    for (const TaskEvent& e : drain_task_events()) {
      if (e.task < 8000 || e.task >= 8016) continue;
      ++seen;
      EXPECT_LE(static_cast<unsigned>(e.kind),
                static_cast<unsigned>(TaskEventKind::kMergeEnd));
    }
  }
  stop.store(true, std::memory_order_relaxed);
  writer.join();
  set_task_events_enabled(false);
  EXPECT_GT(seen, 0u);
  clear_task_events();
}

// ---- pool + sweep lifecycles -----------------------------------------

TEST(TaskEvents, PoolLifecyclesPairSubmitPopBeginEnd) {
  set_task_events_enabled(false);
  {
    // Profiling off: no lifecycle id, the task still runs.
    support::ThreadPool off_pool(1);
    std::atomic<int> ran{0};
    EXPECT_EQ(off_pool.submit([&ran] { ran.fetch_add(1); }), 0u);
    off_pool.wait_idle();
    EXPECT_EQ(ran.load(), 1);
  }
  clear_task_events();
  set_task_events_enabled(true);
  std::vector<std::uint64_t> ids;
  {
    support::ThreadPool pool(2);
    support::TaskGroup group(pool);
    std::atomic<int> ran{0};
    for (int i = 0; i < 16; ++i) {
      const std::uint64_t id =
          group.submit([&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
      EXPECT_NE(id, 0u);
      ids.push_back(id);
    }
    group.wait();
    EXPECT_EQ(ran.load(), 16);
  }
  set_task_events_enabled(false);
  const std::vector<TaskEvent> events = drain_task_events();
  clear_task_events();
  // Ids are distinct and monotone in submission order.
  for (std::size_t i = 1; i < ids.size(); ++i) EXPECT_GT(ids[i], ids[i - 1]);
  for (const std::uint64_t id : ids) {
    std::size_t submits = 0, pops = 0, begins = 0, ends = 0;
    for (const TaskEvent& e : events) {
      if (e.task != id) continue;
      switch (e.kind) {
        case TaskEventKind::kSubmit: ++submits; break;
        case TaskEventKind::kDequeue:
        case TaskEventKind::kSteal: ++pops; break;
        case TaskEventKind::kBegin: ++begins; break;
        case TaskEventKind::kEnd: ++ends; break;
        default: break;
      }
    }
    EXPECT_EQ(submits, 1u);
    EXPECT_EQ(pops, 1u);
    EXPECT_EQ(begins, 1u);
    EXPECT_EQ(ends, 1u);
  }
  const Profile profile = build_profile(events);
  std::size_t found = 0;
  for (const TaskProfile& t : profile.tasks) {
    if (std::find(ids.begin(), ids.end(), t.id) == ids.end()) continue;
    ++found;
    EXPECT_TRUE(t.complete());
    EXPECT_NE(t.dequeue_t, 0u);
    // kSubmit lands before the enqueue, so it never trails the pop or
    // the begin on the shared clock.
    EXPECT_LE(t.submit_t, t.dequeue_t);
    EXPECT_LE(t.submit_t, t.begin_t);
    EXPECT_LE(t.begin_t, t.end_t);
  }
  EXPECT_EQ(found, ids.size());
}

TEST(TaskEvents, ParkIntervalsCloseAndHerdFactorIsFinite) {
  clear_task_events();
  set_task_events_enabled(true);
  {
    support::ThreadPool pool(2);
    support::TaskGroup group(pool);
    // One deliberately slow task: the external waiter reaches the cv
    // and parks while it runs, so at least one park interval closes.
    group.submit([] {
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    });
    group.wait();
  }
  set_task_events_enabled(false);
  const Profile profile = build_profile(drain_task_events());
  clear_task_events();
  EXPECT_GE(profile.parks.size(), 1u);
  for (const ParkInterval& p : profile.parks) {
    EXPECT_LE(p.begin_t, p.end_t);
  }
  const double herd = herd_factor(profile);
  EXPECT_GE(herd, 0.0);
  EXPECT_TRUE(std::isfinite(herd));
}

// ---- profile analyzer ------------------------------------------------

std::function<int(std::size_t)> busy_kernel() {
  return [](std::size_t i) {
    std::uint64_t x = i + 1;
    for (int k = 0; k < 50000; ++k) {
      x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    }
    return static_cast<int>((x >> 32) & 0x3fffffff);
  };
}

TEST(Profile, SweepReconstructionAndCriticalPathBudget) {
  clear_task_events();
  set_task_events_enabled(true);
  std::vector<int> out;
  {
    support::ThreadPool pool(1);
    sweep::SweepConfig config;
    config.pool = &pool;
    config.chunk_size = 8;
    out = sweep::sweep_map<int>(64, busy_kernel(), config);
  }
  set_task_events_enabled(false);
  const Profile profile = build_profile(drain_task_events());
  clear_task_events();

  ASSERT_EQ(out.size(), 64u);
  EXPECT_EQ(profile.dropped, 0u);
  ASSERT_EQ(profile.sweeps.size(), 1u);
  const SweepProfile& sweep = profile.sweeps[0];
  EXPECT_EQ(sweep.chunks, 8u);
  EXPECT_EQ(sweep.items, 64u);
  ASSERT_GT(sweep.micros(), 0u);

  std::vector<std::uint64_t> chunks;
  for (const TaskProfile& t : profile.tasks) {
    if (!t.is_chunk) continue;
    EXPECT_EQ(t.sweep, sweep.id);
    EXPECT_TRUE(t.complete());
    chunks.push_back(t.chunk);
  }
  std::sort(chunks.begin(), chunks.end());
  ASSERT_EQ(chunks.size(), 8u);
  for (std::uint64_t c = 0; c < 8; ++c) EXPECT_EQ(chunks[c], c);
  ASSERT_EQ(profile.merges.size(), 8u);
  for (std::uint64_t c = 0; c < 8; ++c) {
    EXPECT_EQ(profile.merges[c].sweep, sweep.id);
    EXPECT_EQ(profile.merges[c].chunk, c);
    EXPECT_NE(profile.merges[c].end_t, 0u);
  }

  const CriticalPath cp = critical_path(profile, sweep.id);
  EXPECT_EQ(cp.total_micros, sweep.micros());
  ASSERT_FALSE(cp.steps.empty());
  EXPECT_EQ(cp.steps.front().kind, "merge");
  EXPECT_EQ(cp.steps.back().kind, "task");
  // The stages partition the sweep wall; the telescoped sum deviates
  // only by clamped inversions (a merge can begin a hair before its
  // chunk's kEnd lands), far inside the 5% budget rdv_profile's strict
  // mode enforces.
  const double total = static_cast<double>(cp.total_micros);
  const double sum = static_cast<double>(cp.stage_sum());
  EXPECT_LE(std::abs(sum - total) / total, 0.05);
  EXPECT_GE(herd_factor(profile), 0.0);
}

/// Structural fingerprint of a profiled 1-thread sweep: ids normalized
/// to the first submitted task, everything timing-free.
struct SweepShape {
  std::vector<std::uint64_t> task_norm_ids;
  std::vector<std::uint64_t> task_chunks;
  std::vector<std::uint64_t> merge_chunks;
  std::uint64_t chunks = 0;
  std::uint64_t items = 0;
  std::size_t exec_tids = 0;
  std::size_t stolen = 0;
};

SweepShape one_thread_sweep_shape(std::vector<int>& out) {
  clear_task_events();
  set_task_events_enabled(true);
  {
    support::ThreadPool pool(1);
    sweep::SweepConfig config;
    config.pool = &pool;
    config.chunk_size = 8;
    const std::function<int(std::size_t)> fn = [](std::size_t i) {
      return static_cast<int>(i * 3 + 1);
    };
    out = sweep::sweep_map<int>(48, fn, config);
  }
  set_task_events_enabled(false);
  const Profile profile = build_profile(drain_task_events());
  clear_task_events();
  SweepShape shape;
  std::uint64_t min_id = 0;
  for (const TaskProfile& t : profile.tasks) {
    if (!t.is_chunk) continue;
    if (min_id == 0 || t.id < min_id) min_id = t.id;
  }
  std::vector<std::uint32_t> tids;
  for (const TaskProfile& t : profile.tasks) {
    if (!t.is_chunk) continue;
    shape.task_norm_ids.push_back(t.id - min_id);
    shape.task_chunks.push_back(t.chunk);
    if (t.stolen) ++shape.stolen;
    tids.push_back(t.exec_tid);
  }
  std::sort(tids.begin(), tids.end());
  shape.exec_tids = static_cast<std::size_t>(
      std::unique(tids.begin(), tids.end()) - tids.begin());
  for (const MergeProfile& m : profile.merges) {
    shape.merge_chunks.push_back(m.chunk);
  }
  if (!profile.sweeps.empty()) {
    shape.chunks = profile.sweeps[0].chunks;
    shape.items = profile.sweeps[0].items;
  }
  return shape;
}

TEST(Profile, OneThreadRunsAreStructurallyDeterministic) {
  std::vector<int> out1;
  std::vector<int> out2;
  const SweepShape a = one_thread_sweep_shape(out1);
  const SweepShape b = one_thread_sweep_shape(out2);
  EXPECT_EQ(out1, out2);
  EXPECT_EQ(a.task_norm_ids, b.task_norm_ids);
  EXPECT_EQ(a.task_chunks, b.task_chunks);
  EXPECT_EQ(a.merge_chunks, b.merge_chunks);
  EXPECT_EQ(a.chunks, b.chunks);
  EXPECT_EQ(a.items, b.items);
  // A 1-thread pool executes every chunk on its one worker — no steals,
  // one executor tid, in both runs.
  EXPECT_EQ(a.exec_tids, 1u);
  EXPECT_EQ(b.exec_tids, 1u);
  EXPECT_EQ(a.stolen + b.stolen, 0u);
}

/// Hand-built profile with round-number timestamps, so every stage of
/// the critical path is checkable exactly: sweep [1000, 2000], chunk 0
/// [submit 1010, begin 1020, end 1500], chunk 1 [1012, 1030, 1400],
/// merges [1510,1530] and [1530,1540].
Profile sample_profile() {
  Profile profile;
  profile.events = 42;
  profile.dropped = 0;
  profile.t_min = 1000;
  profile.t_max = 2000;
  SweepProfile sweep;
  sweep.id = 5;
  sweep.chunks = 2;
  sweep.items = 2;
  sweep.chunk_size = 1;
  sweep.tid = 0;
  sweep.begin_t = 1000;
  sweep.end_t = 2000;
  profile.sweeps.push_back(sweep);
  TaskProfile t0;
  t0.id = 11;
  t0.sweep = 5;
  t0.chunk = 0;
  t0.is_chunk = true;
  t0.submit_tid = 0;
  t0.exec_tid = 1;
  t0.submit_t = 1010;
  t0.dequeue_t = 1015;
  t0.begin_t = 1020;
  t0.end_t = 1500;
  TaskProfile t1 = t0;
  t1.id = 12;
  t1.chunk = 1;
  t1.submit_t = 1012;
  t1.dequeue_t = 1016;
  t1.begin_t = 1030;
  t1.end_t = 1400;
  profile.tasks = {t0, t1};
  MergeProfile m0;
  m0.sweep = 5;
  m0.chunk = 0;
  m0.tid = 0;
  m0.begin_t = 1510;
  m0.end_t = 1530;
  MergeProfile m1 = m0;
  m1.chunk = 1;
  m1.begin_t = 1530;
  m1.end_t = 1540;
  profile.merges = {m0, m1};
  profile.parks.push_back(ParkInterval{0, 1100, 1200});
  profile.exps.push_back(ExpProfile{"sample_exp", 5, 0, 1000, 2000});
  return profile;
}

TEST(Profile, CriticalPathStagesTelescopeExactly) {
  const Profile profile = sample_profile();
  const CriticalPath cp = critical_path(profile, 5);
  EXPECT_EQ(cp.total_micros, 1000u);
  EXPECT_EQ(cp.tail_micros, 460u);    // 2000 - last merge end 1540
  EXPECT_EQ(cp.merge_micros, 30u);    // both merges are on the path
  EXPECT_EQ(cp.stall_micros, 10u);    // merge 0 began 10us after task 0
  EXPECT_EQ(cp.exec_micros, 480u);    // binding chunk 0: 1020 -> 1500
  EXPECT_EQ(cp.queue_micros, 10u);    // 1010 -> 1020
  EXPECT_EQ(cp.schedule_micros, 10u); // sweep begin 1000 -> submit 1010
  EXPECT_EQ(cp.stage_sum(), cp.total_micros);
  ASSERT_EQ(cp.steps.size(), 3u);
  EXPECT_EQ(cp.steps[0].kind, "merge");
  EXPECT_EQ(cp.steps[0].chunk, 1u);
  EXPECT_EQ(cp.steps[1].kind, "merge");
  EXPECT_EQ(cp.steps[1].chunk, 0u);
  EXPECT_EQ(cp.steps[2].kind, "task");
  EXPECT_EQ(cp.steps[2].chunk, 0u);

  const CriticalPath unknown = critical_path(profile, 999);
  EXPECT_EQ(unknown.total_micros, 0u);
  EXPECT_TRUE(unknown.steps.empty());
}

TEST(Profile, JsonRoundTripIsByteStable) {
  const Profile profile = sample_profile();
  const std::string json = render_profile_json(profile);
  Profile parsed;
  ASSERT_TRUE(parse_profile_json(json, &parsed));
  EXPECT_EQ(render_profile_json(parsed), json);
  EXPECT_EQ(parsed.events, 42u);
  EXPECT_EQ(parsed.t_max, 2000u);
  ASSERT_EQ(parsed.tasks.size(), 2u);
  EXPECT_TRUE(parsed.tasks[0].is_chunk);
  EXPECT_EQ(parsed.tasks[1].chunk, 1u);
  EXPECT_EQ(parsed.merges.size(), 2u);
  EXPECT_EQ(parsed.parks.size(), 1u);
  ASSERT_EQ(parsed.sweeps.size(), 1u);
  EXPECT_EQ(parsed.sweeps[0].items, 2u);
  EXPECT_EQ(parsed.sweeps[0].chunk_size, 1u);
  ASSERT_EQ(parsed.exps.size(), 1u);
  EXPECT_EQ(parsed.exps[0].id, "sample_exp");
  EXPECT_EQ(parsed.exps[0].sweep, 5u);
}

TEST(Profile, JsonParserIsStrict) {
  Profile out;
  EXPECT_FALSE(parse_profile_json("", &out));
  EXPECT_FALSE(parse_profile_json("{}", &out));
  EXPECT_FALSE(parse_profile_json("not json", &out));
  const std::string good = render_profile_json(sample_profile());
  EXPECT_FALSE(parse_profile_json(good.substr(0, good.size() - 2), &out));
  EXPECT_FALSE(parse_profile_json(good + "x", &out));
  std::string bad_format = good;
  const std::size_t at = bad_format.find("\"format\":2");
  ASSERT_NE(at, std::string::npos);
  bad_format.replace(at, 10, "\"format\":9");
  EXPECT_FALSE(parse_profile_json(bad_format, &out));
}

TEST(Profile, ReportTopDiffAndTraceRendersCarryTheHeadlines) {
  const Profile profile = sample_profile();
  const std::string report = render_profile_report(profile);
  EXPECT_NE(report.find("critical path (stage sum"), std::string::npos);
  EXPECT_NE(report.find("queue latency (submit -> begin, log2 us):"),
            std::string::npos);
  EXPECT_NE(report.find("steals: 0/"), std::string::npos);
  EXPECT_NE(report.find("herd:"), std::string::npos);

  // Top is ranked by execution time: n=1 keeps chunk 0 (480us), cuts
  // chunk 1 (370us).
  const std::string top = render_profile_top(profile, 1);
  EXPECT_NE(top.find("task 11"), std::string::npos);
  EXPECT_EQ(top.find("task 12"), std::string::npos);

  const std::string diff = render_profile_diff(profile, profile);
  EXPECT_NE(diff.find("tasks executed"), std::string::npos);

  const std::string trace = render_chrome_trace(profile);
  EXPECT_NE(trace.find("\"cat\":\"flow\""), std::string::npos);
  EXPECT_NE(trace.find("\"ph\":\"s\""), std::string::npos);
  EXPECT_NE(trace.find("\"ph\":\"f\""), std::string::npos);
}

TEST(Profile, ChromeTraceEscapesAndShapes) {
  Profile profile = sample_profile();
  profile.exps[0].id = "quote\"back\\slash";
  const std::string json = render_chrome_trace(profile);
  EXPECT_EQ(json.rfind("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[", 0),
            0u);
  EXPECT_EQ(json.substr(json.size() - 2), "]}");
  EXPECT_NE(json.find("{\"name\":\"quote\\\"back\\\\slash\",\"cat\":\"exp\","
                      "\"ph\":\"X\",\"pid\":1,\"tid\":0,\"ts\":1000,"
                      "\"dur\":1000,\"args\":{\"cases\":2,\"sweep\":5}}"),
            std::string::npos);
  EXPECT_NE(json.find("{\"name\":\"chunk 5:0\",\"cat\":\"task\",\"ph\":\"X\","
                      "\"pid\":1,\"tid\":1,\"ts\":1020,\"dur\":480,"
                      "\"args\":{\"task\":11}}"),
            std::string::npos);
  EXPECT_NE(json.find("{\"name\":\"merge 5:1\",\"cat\":\"sweep\","),
            std::string::npos);
  EXPECT_NE(json.find("{\"name\":\"park\",\"cat\":\"pool\",\"ph\":\"X\","
                      "\"pid\":1,\"tid\":0,\"ts\":1100,\"dur\":100}"),
            std::string::npos);
}

TEST(Profile, SweepSliceCarriesItemsAndEffectiveChunk) {
  clear_task_events();
  set_task_events_enabled(true);
  {
    support::ThreadPool pool(4);
    sweep::SweepConfig config;
    config.pool = &pool;
    const std::function<int(std::size_t)> id = [](std::size_t i) {
      return static_cast<int>(i);
    };
    (void)sweep::sweep_map<int>(36, id, config);  // auto: 3 per chunk
  }
  set_task_events_enabled(false);
  const Profile profile = build_profile(drain_task_events());
  clear_task_events();
  ASSERT_EQ(profile.sweeps.size(), 1u);
  EXPECT_EQ(profile.sweeps[0].items, 36u);
  EXPECT_EQ(profile.sweeps[0].chunk_size, 3u);
  EXPECT_EQ(profile.sweeps[0].chunks, 12u);
  EXPECT_NE(render_chrome_trace(profile).find(
                "\"args\":{\"chunks\":12,\"items\":36,\"chunk\":3}"),
            std::string::npos);
}

/// Parses the report's per-thread line into {busy, parked, idle} %.
std::map<std::uint32_t, std::array<double, 3>> report_utilization(
    const std::string& report) {
  static const std::regex kLine(
      R"(tid (\d+): busy ([0-9.]+)% \(.*\), parked ([0-9.]+)%, idle ([0-9.]+)%)");
  std::map<std::uint32_t, std::array<double, 3>> out;
  for (std::sregex_iterator it(report.begin(), report.end(), kLine), end;
       it != end; ++it) {
    out[static_cast<std::uint32_t>(std::stoul((*it)[1]))] = {
        std::stod((*it)[2]), std::stod((*it)[3]), std::stod((*it)[4])};
  }
  return out;
}

TEST(Profile, NestedExecutionIsNotDoubleCountedInUtilization) {
  // Thread 1 runs task 21 over [1000, 1900] and, assisting inside it,
  // the nested task 22 over [1100, 1500]; it also parks inside task 21
  // over [1600, 1700]. Summing durations would report busy 130%.
  // Thread 0 parks over [1000, 1900] and merges over [1950, 2000].
  Profile profile;
  profile.t_min = 1000;
  profile.t_max = 2000;
  TaskProfile outer;
  outer.id = 21;
  outer.exec_tid = 1;
  outer.submit_t = 1000;
  outer.begin_t = 1000;
  outer.end_t = 1900;
  TaskProfile nested = outer;
  nested.id = 22;
  nested.submit_t = 1050;
  nested.begin_t = 1100;
  nested.end_t = 1500;
  profile.tasks = {outer, nested};
  MergeProfile merge;
  merge.sweep = 1;
  merge.tid = 0;
  merge.begin_t = 1950;
  merge.end_t = 2000;
  profile.merges = {merge};
  profile.parks = {ParkInterval{0, 1000, 1900}, ParkInterval{1, 1600, 1700}};

  const auto usage = report_utilization(render_profile_report(profile));
  ASSERT_EQ(usage.size(), 2u);
  const std::array<double, 3> expected_tid0 = {5.0, 90.0, 5.0};
  const std::array<double, 3> expected_tid1 = {80.0, 10.0, 10.0};
  EXPECT_EQ(usage.at(0), expected_tid0);
  EXPECT_EQ(usage.at(1), expected_tid1);
  for (const auto& [tid, pct] : usage) {
    EXPECT_LE(pct[0], 100.0) << tid;
    EXPECT_NEAR(pct[0] + pct[1] + pct[2], 100.0, 0.15) << tid;
  }
}

// ---- snapshot JSON + the gate ----------------------------------------

MetricsSnapshot sample_snapshot() {
  MetricsSnapshot snap;
  snap.counters["alpha.hits"] = 3;
  snap.counters["beta.misses"] = 0;
  snap.gauges["depth"] = -4;
  HistogramSnapshot hist;
  hist.count = 2;
  hist.sum = 300;
  hist.buckets[8] = 2;
  snap.histograms["exp.t1.wall_micros"] = hist;
  return snap;
}

TEST(MetricsJson, RoundTripIsByteStable) {
  const MetricsSnapshot snap = sample_snapshot();
  const std::string json = render_metrics_json(snap);
  const MetricsSnapshot parsed = parse_metrics_json(json);
  EXPECT_EQ(parsed.counters, snap.counters);
  EXPECT_EQ(parsed.gauges, snap.gauges);
  ASSERT_EQ(parsed.histograms.count("exp.t1.wall_micros"), 1u);
  EXPECT_EQ(parsed.histograms.at("exp.t1.wall_micros").sum, 300u);
  // Render(parse(render(x))) == render(x): byte-stable for diffing.
  EXPECT_EQ(render_metrics_json(parsed), json);
}

TEST(MetricsJson, ParserIsStrict) {
  EXPECT_THROW((void)parse_metrics_json(""), std::runtime_error);
  EXPECT_THROW((void)parse_metrics_json("{}"), std::runtime_error);
  EXPECT_THROW((void)parse_metrics_json("not json"), std::runtime_error);
  EXPECT_THROW((void)parse_metrics_json(R"({"format":99,"counters":{},)"
                                        R"("gauges":{},"histograms":{}})"),
               std::runtime_error);
  const std::string good = render_metrics_json(sample_snapshot());
  EXPECT_THROW((void)parse_metrics_json(good.substr(0, good.size() - 2)),
               std::runtime_error);
  EXPECT_THROW((void)parse_metrics_json(good + "x"), std::runtime_error);
}

// ---- the shared JSON reader and writer -------------------------------

TEST(Json, StringWriterPinsEscapesAndRoundTripsEveryByte) {
  std::string out;
  append_json_string(out, std::string("q\"b\\s\n\r\t\x01\x1f\x7f", 11));
  EXPECT_EQ(out, "\"q\\\"b\\\\s\\n\\r\\t\\u0001\\u001f\x7f\"");
  std::string every_byte;
  for (int c = 0; c < 256; ++c) every_byte += static_cast<char>(c);
  std::string quoted;
  append_json_string(quoted, every_byte);
  JsonCursor cursor("test json", quoted);
  EXPECT_EQ(cursor.parse_string(), every_byte);
  cursor.finish();
}

TEST(Json, IntegersOutOfRangeAreOffsetErrorsNeverWrapped) {
  struct Case {
    const char* text;
    bool is_signed;
    bool ok;
    std::int64_t value;  // checked when ok (unsigned cases cast)
  };
  const Case cases[] = {
      {"18446744073709551615", false, true, -1},
      {"18446744073709551616", false, false, 0},
      {"99999999999999999999", false, false, 0},
      {"123456789012345678901234567890", false, false, 0},
      {"-1", false, false, 0},
      {"9223372036854775807", true, true, INT64_MAX},
      {"9223372036854775808", true, false, 0},
      {"-9223372036854775808", true, true, INT64_MIN},
      {"-9223372036854775809", true, false, 0},
      {"-123456789012345678901234567890", true, false, 0},
      {"-0", true, true, 0},
      {"007", true, false, 0},
      {"-", true, false, 0},
  };
  for (const Case& c : cases) {
    JsonCursor cursor("test json", c.text);
    try {
      const std::int64_t value =
          c.is_signed ? cursor.parse_int()
                      : static_cast<std::int64_t>(cursor.parse_uint());
      cursor.finish();
      EXPECT_TRUE(c.ok) << c.text << " parsed as " << value;
      EXPECT_EQ(value, c.value) << c.text;
    } catch (const std::runtime_error& e) {
      EXPECT_FALSE(c.ok) << c.text << ": " << e.what();
      EXPECT_NE(std::string(e.what()).find("test json: "), std::string::npos);
      EXPECT_NE(std::string(e.what()).find(" at offset "), std::string::npos);
    }
  }
}

/// [begin, end) of every integer token of a JSON text outside string
/// literals (a leading '-' included).
std::vector<std::pair<std::size_t, std::size_t>> integer_spans(
    std::string_view text) {
  std::vector<std::pair<std::size_t, std::size_t>> spans;
  std::size_t i = 0;
  while (i < text.size()) {
    if (text[i] == '"') {
      for (++i; i < text.size() && text[i] != '"'; ++i) {
        if (text[i] == '\\') ++i;
      }
      ++i;
    } else if (text[i] == '-' || (text[i] >= '0' && text[i] <= '9')) {
      std::size_t j = i + 1;
      while (j < text.size() && text[j] >= '0' && text[j] <= '9') ++j;
      spans.emplace_back(i, j);
      i = j;
    } else {
      ++i;
    }
  }
  return spans;
}

/// The integer tokens, sorted, with "-0" read as "0": what a strict
/// parse must carry over exactly.
std::vector<std::string> integer_tokens(std::string_view text) {
  std::vector<std::string> tokens;
  for (const auto& [begin, end] : integer_spans(text)) {
    const std::string token(text.substr(begin, end - begin));
    tokens.push_back(token == "-0" ? "0" : token);
  }
  std::sort(tokens.begin(), tokens.end());
  return tokens;
}

/// Parses `text` as a metrics snapshot (is_profile false) or a profile
/// and re-renders it; nullopt on a strict parse error.
std::optional<std::string> reparse(bool is_profile, const std::string& text) {
  if (is_profile) {
    Profile profile;
    if (!parse_profile_json(text, &profile)) return std::nullopt;
    return render_profile_json(profile);
  }
  try {
    return render_metrics_json(parse_metrics_json(text));
  } catch (const std::runtime_error&) {
    return std::nullopt;
  }
}

TEST(Json, MutatedSidecarsParseStrictlyOrExactly) {
  MetricsSnapshot snap = sample_snapshot();
  snap.counters["max.counter"] = UINT64_MAX;
  snap.gauges["min.gauge"] = INT64_MIN;
  snap.gauges["max.gauge"] = INT64_MAX;
  Profile profile = sample_profile();
  profile.parks.push_back(ParkInterval{UINT32_MAX, 1300, 1400});
  profile.tasks[1].steal_victim = UINT64_MAX;
  const std::string docs[] = {render_metrics_json(snap),
                              render_profile_json(profile)};
  const char kFlips[] = {'0', '9', '-', '"', '\\', ' ', '{', '}', ',', '\0'};

  for (const bool is_profile : {false, true}) {
    const std::string& doc = docs[is_profile ? 1 : 0];
    ASSERT_EQ(reparse(is_profile, doc), doc);
    // A valid parse must carry every integer over exactly: a wrapped or
    // truncated value changes the token multiset of the re-rendering.
    const auto check = [&](const std::string& mutated, const char* what,
                           std::size_t at) {
      const std::optional<std::string> rendered = reparse(is_profile, mutated);
      if (!rendered) return;
      EXPECT_EQ(integer_tokens(*rendered), integer_tokens(mutated))
          << what << " at " << at << (is_profile ? " (profile)" : " (metrics)");
    };
    for (std::size_t at = 0; at < doc.size(); ++at) {
      EXPECT_FALSE(reparse(is_profile, doc.substr(0, at)).has_value())
          << "truncation at " << at;
      for (const char flip : kFlips) {
        if (doc[at] == flip) continue;
        std::string mutated = doc;
        mutated[at] = flip;
        check(mutated, "flip", at);
      }
      std::string mutated = doc;
      mutated[at] = static_cast<char>(mutated[at] ^ 0x01);
      check(mutated, "bit flip", at);
    }
    // Every integer widened to 30 digits, or pushed one past 2^64, is
    // out of range wherever it sits.
    for (auto [begin, end] : integer_spans(doc)) {
      if (doc[begin] == '-') ++begin;
      for (const char* wide :
           {"123456789012345678901234567890", "18446744073709551616"}) {
        std::string mutated = doc;
        mutated.replace(begin, end - begin, wide);
        EXPECT_FALSE(reparse(is_profile, mutated).has_value())
            << wide << " at " << begin;
      }
    }
  }
}

TEST(Diff, PassesWithinBandFailsBeyond) {
  MetricsSnapshot base = sample_snapshot();
  MetricsSnapshot current = sample_snapshot();
  // Identical snapshots never regress.
  EXPECT_EQ(diff_snapshots(base, current).regressions, 0u);
  // 30% slower: beyond a 25% band, within a 50% one.
  current.histograms["exp.t1.wall_micros"].sum = 390;
  DiffOptions strict;
  strict.tolerance = 0.25;
  const DiffReport bad = diff_snapshots(base, current, strict);
  EXPECT_EQ(bad.regressions, 1u);
  ASSERT_FALSE(bad.lines.empty());
  EXPECT_NE(bad.lines[0].find("REGRESSION"), std::string::npos);
  DiffOptions loose;
  loose.tolerance = 0.5;
  EXPECT_EQ(diff_snapshots(base, current, loose).regressions, 0u);
  // Below the noise floor nothing regresses, however slow relatively.
  strict.min_micros = 1000;
  EXPECT_EQ(diff_snapshots(base, current, strict).regressions, 0u);
}

TEST(Diff, MissingSeriesIsReportedNotFailed) {
  const MetricsSnapshot base = sample_snapshot();
  MetricsSnapshot current = sample_snapshot();
  current.histograms.clear();
  const DiffReport report = diff_snapshots(base, current);
  EXPECT_EQ(report.regressions, 0u);
  bool missing = false;
  for (const std::string& line : report.lines) {
    if (line.find("MISSING") != std::string::npos) missing = true;
  }
  EXPECT_TRUE(missing);
}

/// History snapshot carrying just the gated series, with mean sum/count.
MetricsSnapshot snapshot_with_wall(std::uint64_t count, std::uint64_t sum) {
  MetricsSnapshot snap;
  HistogramSnapshot hist;
  hist.count = count;
  hist.sum = sum;
  hist.buckets[8] = count;
  snap.histograms["exp.t1.wall_micros"] = hist;
  return snap;
}

TEST(Diff, HistoryTightensTheBandForStableSeries) {
  const MetricsSnapshot base = sample_snapshot();      // mean 150us
  MetricsSnapshot current = sample_snapshot();
  current.histograms["exp.t1.wall_micros"].sum = 224;  // mean 112us

  // No history: the flat band vs the (slow) baseline passes 112 easily.
  EXPECT_EQ(diff_snapshots_with_history(base, current, {}).regressions, 0u);

  // Five stable runs at mean 100: the variance band collapses to
  // mu + mu*min_band_frac = 105, and the same 112 is a regression the
  // flat band would wave through.
  const std::vector<MetricsSnapshot> stable(5, snapshot_with_wall(2, 200));
  const DiffReport tight =
      diff_snapshots_with_history(base, current, stable);
  EXPECT_EQ(tight.regressions, 1u);
  bool noted = false;
  for (const std::string& line : tight.lines) {
    if (line.find("history n=5") != std::string::npos) noted = true;
  }
  EXPECT_TRUE(noted);

  // A noisy history widens its own band: means 80..120 give sigma
  // ~12.6us, so the 3-sigma band (~138us) absorbs the same 112.
  const std::vector<MetricsSnapshot> noisy = {
      snapshot_with_wall(2, 160), snapshot_with_wall(2, 200),
      snapshot_with_wall(2, 240), snapshot_with_wall(2, 200),
      snapshot_with_wall(2, 200)};
  EXPECT_EQ(diff_snapshots_with_history(base, current, noisy).regressions,
            0u);
}

TEST(Diff, ThinHistoryFallsBackToTheFlatBand) {
  const MetricsSnapshot base = sample_snapshot();
  MetricsSnapshot current = sample_snapshot();
  current.histograms["exp.t1.wall_micros"].sum = 224;
  // Two runs are below the default min_history_runs of three: the gate
  // must fall back to the flat band (and say so) instead of trusting a
  // two-point distribution.
  const std::vector<MetricsSnapshot> thin(2, snapshot_with_wall(2, 200));
  const DiffReport report =
      diff_snapshots_with_history(base, current, thin);
  EXPECT_EQ(report.regressions, 0u);
  bool noted = false;
  for (const std::string& line : report.lines) {
    if (line.find("thin history n=2") != std::string::npos) noted = true;
  }
  EXPECT_TRUE(noted);
}

TEST(Diff, LoadSnapshotDirSkipsCorruptEntriesAndMissingDirs) {
  char dir_template[] = "/tmp/rdv_obs_hist_XXXXXX";
  ASSERT_NE(::mkdtemp(dir_template), nullptr);
  const std::string dir = dir_template;
  const std::string good = render_metrics_json(sample_snapshot());
  std::ofstream(dir + "/a.json") << good;
  std::ofstream(dir + "/b.json") << good;
  std::ofstream(dir + "/c.json") << "not a snapshot";
  std::ofstream(dir + "/ignored.txt") << good;
  const std::vector<MetricsSnapshot> history = load_snapshot_dir(dir);
  EXPECT_EQ(history.size(), 2u);  // c.json skipped, .txt never considered
  for (const MetricsSnapshot& snap : history) {
    EXPECT_EQ(snap.counters.at("alpha.hits"), 3u);
  }
  EXPECT_TRUE(load_snapshot_dir(dir + "/no/such/dir").empty());
  ::unlink((dir + "/a.json").c_str());
  ::unlink((dir + "/b.json").c_str());
  ::unlink((dir + "/c.json").c_str());
  ::unlink((dir + "/ignored.txt").c_str());
  ::rmdir(dir.c_str());
}

TEST(Assertions, ResolveCountersGaugesAndHistogramProjections) {
  const MetricsSnapshot snap = sample_snapshot();
  EXPECT_TRUE(check_assertion(snap, "alpha.hits==3").ok);
  EXPECT_TRUE(check_assertion(snap, "alpha.hits>=3").ok);
  EXPECT_TRUE(check_assertion(snap, "alpha.hits<=3").ok);
  EXPECT_TRUE(check_assertion(snap, "alpha.hits!=2").ok);
  EXPECT_TRUE(check_assertion(snap, "beta.misses==0").ok);
  EXPECT_FALSE(check_assertion(snap, "alpha.hits<3").ok);
  EXPECT_FALSE(check_assertion(snap, "alpha.hits>3").ok);
  EXPECT_TRUE(check_assertion(snap, "depth==-4").ok);
  EXPECT_TRUE(check_assertion(snap, "exp.t1.wall_micros.count==2").ok);
  EXPECT_TRUE(check_assertion(snap, "exp.t1.wall_micros.sum==300").ok);
  // Missing names and malformed expressions fail with a message, never
  // pass silently.
  EXPECT_FALSE(check_assertion(snap, "no.such.series==0").ok);
  EXPECT_FALSE(check_assertion(snap, "alpha.hits").ok);
  EXPECT_FALSE(check_assertion(snap, "alpha.hits==").ok);
  EXPECT_FALSE(check_assertion(snap, "").ok);
}

// ---- end-to-end: sidecars never change primary output ----------------

/// Runs exp::run_main with stdout redirected to a temp file; returns
/// the captured bytes.
std::string run_capturing_stdout(const std::vector<const char*>& argv,
                                 int& exit_code) {
  std::fflush(stdout);
  const int saved = ::dup(STDOUT_FILENO);
  EXPECT_GE(saved, 0);
  char path[] = "/tmp/rdv_obs_stdout_XXXXXX";
  const int fd = ::mkstemp(path);
  EXPECT_GE(fd, 0);
  ::dup2(fd, STDOUT_FILENO);
  exit_code = exp::run_main(static_cast<int>(argv.size()), argv.data());
  std::fflush(stdout);
  ::dup2(saved, STDOUT_FILENO);
  ::close(saved);
  ::close(fd);
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  ::unlink(path);
  return buffer.str();
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

std::size_t count_of(const std::string& haystack, const std::string& needle) {
  std::size_t n = 0;
  for (std::size_t at = haystack.find(needle); at != std::string::npos;
       at = haystack.find(needle, at + needle.size())) {
    ++n;
  }
  return n;
}

/// Experiment `id`'s one "exp" slice names its case sweep; each case is
/// one chunk of that sweep, so the trace draws every case as exactly
/// one chunk slice.
void expect_case_chunk_slices(const std::string& trace,
                              const std::string& id) {
  const std::string slice = "{\"name\":\"" + id + "\",\"cat\":\"exp\",";
  ASSERT_EQ(count_of(trace, slice), 1u) << id;
  const std::string args = "\"args\":{\"cases\":";
  const std::size_t at = trace.find(args, trace.find(slice));
  ASSERT_NE(at, std::string::npos) << id;
  char* end = nullptr;
  const std::uint64_t cases =
      std::strtoull(trace.c_str() + at + args.size(), &end, 10);
  const std::string sweep_key = ",\"sweep\":";
  ASSERT_EQ(std::string_view(end, sweep_key.size()), sweep_key) << id;
  const std::string sweep =
      std::to_string(std::strtoull(end + sweep_key.size(), nullptr, 10));
  EXPECT_GE(cases, 1u) << id;
  for (std::uint64_t c = 0; c < cases; ++c) {
    EXPECT_EQ(count_of(trace, "{\"name\":\"chunk " + sweep + ":" +
                                  std::to_string(c) + "\","),
              1u)
        << id << " case " << c;
  }
}

TEST(EndToEnd, PrimaryStdoutIsByteIdenticalWithSidecarsOn) {
  const std::string metrics_path = "/tmp/rdv_obs_test_metrics.json";
  const std::string trace_path = "/tmp/rdv_obs_test_trace.json";
  const std::string metrics_flag = "--metrics-out=" + metrics_path;
  const std::string trace_flag = "--trace-out=" + trace_path;

  int plain_rc = -1;
  const std::string plain = run_capturing_stdout(
      {"rdv_bench", "t1_shrink_families", "--smoke"}, plain_rc);
  int sidecar_rc = -1;
  const std::string sidecar = run_capturing_stdout(
      {"rdv_bench", "t1_shrink_families", "--smoke", metrics_flag.c_str(),
       trace_flag.c_str()},
      sidecar_rc);
  set_task_events_enabled(false);

  EXPECT_EQ(plain_rc, 0);
  EXPECT_EQ(sidecar_rc, 0);
  EXPECT_FALSE(plain.empty());
  EXPECT_EQ(plain, sidecar);

  // The metrics sidecar parses strictly and carries the pool, sweep,
  // cache, store, and per-experiment series the gate consumes.
  const MetricsSnapshot snap = parse_metrics_json(read_file(metrics_path));
  EXPECT_EQ(snap.counters.count("pool.submits"), 1u);
  EXPECT_EQ(snap.counters.count("sweep.chunks"), 1u);
  EXPECT_EQ(snap.counters.count("cache.view_classes.hits"), 1u);
  EXPECT_EQ(snap.counters.count("store.view_classes.hits"), 1u);
  EXPECT_EQ(snap.counters.count("uxs.corpus_verifications"), 1u);
  EXPECT_EQ(
      snap.histograms.count("exp.t1_shrink_families.wall_micros"), 1u);
  EXPECT_GE(
      snap.histograms.at("exp.t1_shrink_families.wall_micros").count, 1u);

  // --trace-out alone switches the task-event log on: the trace has the
  // experiment slice, its cases as chunk slices, and flow events.
  const std::string trace = read_file(trace_path);
  EXPECT_NE(trace.find("\"traceEvents\":["), std::string::npos);
  expect_case_chunk_slices(trace, "t1_shrink_families");
  EXPECT_NE(trace.find("\"cat\":\"flow\""), std::string::npos);

  ::unlink(metrics_path.c_str());
  ::unlink(trace_path.c_str());
  clear_task_events();
}

TEST(EndToEnd, ProfileSidecarKeepsStdoutByteIdenticalAndStitchesFlows) {
  const std::string profile_path = "/tmp/rdv_obs_test_profile.json";
  const std::string trace_path = "/tmp/rdv_obs_test_profile_trace.json";
  const std::string profile_flag = "--profile-out=" + profile_path;
  const std::string trace_flag = "--trace-out=" + trace_path;

  int plain_rc = -1;
  const std::string plain = run_capturing_stdout(
      {"rdv_bench", "t1_shrink_families", "--smoke"}, plain_rc);
  int profiled_rc = -1;
  const std::string profiled = run_capturing_stdout(
      {"rdv_bench", "t1_shrink_families", "--smoke", profile_flag.c_str(),
       trace_flag.c_str()},
      profiled_rc);
  set_task_events_enabled(false);

  EXPECT_EQ(plain_rc, 0);
  EXPECT_EQ(profiled_rc, 0);
  EXPECT_FALSE(plain.empty());
  EXPECT_EQ(plain, profiled);

  // The profile sidecar parses strictly and reconstructs the smoke
  // run's experiment and sweeps with zero ring drops.
  Profile profile;
  ASSERT_TRUE(parse_profile_json(read_file(profile_path), &profile));
  EXPECT_EQ(profile.dropped, 0u);
  EXPECT_GE(profile.sweeps.size(), 1u);
  EXPECT_FALSE(profile.tasks.empty());
  bool chunk_seen = false;
  for (const TaskProfile& t : profile.tasks) chunk_seen |= t.is_chunk;
  EXPECT_TRUE(chunk_seen);
  ASSERT_EQ(profile.exps.size(), 1u);
  EXPECT_EQ(profile.exps[0].id, "t1_shrink_families");
  EXPECT_NE(profile.exps[0].sweep, 0u);

  // The trace draws the same timeline: case chunk slices plus the task
  // flow arrows.
  const std::string trace = read_file(trace_path);
  expect_case_chunk_slices(trace, "t1_shrink_families");
  EXPECT_NE(trace.find("\"cat\":\"flow\""), std::string::npos);
  EXPECT_NE(trace.find("\"ph\":\"s\""), std::string::npos);

  ::unlink(profile_path.c_str());
  ::unlink(trace_path.c_str());
  clear_task_events();
}

// One timeline: with both sidecars on, every sweep, chunk task and
// merge of the profile is exactly one slice of the trace, and nothing
// else draws them a second time.
TEST(EndToEnd, TraceDrawsEachSweepChunkAndMergeOnce) {
  const std::string profile_path = "/tmp/rdv_obs_test_once_profile.json";
  const std::string trace_path = "/tmp/rdv_obs_test_once_trace.json";
  const std::string profile_flag = "--profile-out=" + profile_path;
  const std::string trace_flag = "--trace-out=" + trace_path;
  clear_task_events();
  int rc = -1;
  (void)run_capturing_stdout(
      {"rdv_bench", "t1_shrink_families", "t2_feasibility_characterization",
       "--smoke", "--threads", "4", profile_flag.c_str(), trace_flag.c_str()},
      rc);
  set_task_events_enabled(false);
  EXPECT_EQ(rc, 0);

  Profile profile;
  ASSERT_TRUE(parse_profile_json(read_file(profile_path), &profile));
  const std::string trace = read_file(trace_path);
  EXPECT_EQ(profile.dropped, 0u);
  ASSERT_GE(profile.sweeps.size(), 3u);  // two case sweeps, t2's inner ones
  for (const SweepProfile& s : profile.sweeps) {
    EXPECT_EQ(count_of(trace,
                       "{\"name\":\"sweep " + std::to_string(s.id) + "\","),
              1u)
        << "sweep " << s.id;
  }
  std::size_t chunk_tasks = 0;
  for (const TaskProfile& t : profile.tasks) {
    if (!t.is_chunk) continue;
    ++chunk_tasks;
    EXPECT_EQ(count_of(trace, "{\"name\":\"chunk " + std::to_string(t.sweep) +
                                  ":" + std::to_string(t.chunk) + "\","),
              1u)
        << "chunk " << t.sweep << ":" << t.chunk;
  }
  EXPECT_GE(chunk_tasks, profile.sweeps.size());
  ASSERT_FALSE(profile.merges.empty());
  for (const MergeProfile& m : profile.merges) {
    EXPECT_EQ(count_of(trace, "{\"name\":\"merge " + std::to_string(m.sweep) +
                                  ":" + std::to_string(m.chunk) + "\","),
              1u)
        << "merge " << m.sweep << ":" << m.chunk;
  }
  // A second recorder would draw each of them again as a "sweep"
  // slice named map, chunk or merge.
  for (const char* span : {"map", "chunk", "merge"}) {
    EXPECT_EQ(count_of(trace, std::string("{\"name\":\"") + span +
                                  "\",\"cat\":\"sweep\""),
              0u)
        << span;
  }
  ASSERT_EQ(profile.exps.size(), 2u);
  expect_case_chunk_slices(trace, "t1_shrink_families");
  expect_case_chunk_slices(trace, "t2_feasibility_characterization");

  ::unlink(profile_path.c_str());
  ::unlink(trace_path.c_str());
  clear_task_events();
}

// The census result log at 1 and 4 threads: the same records with
// wall time ignored, and each experiment's case details ahead of its
// own summary record, one detail per table row.
TEST(EndToEnd, CensusResultLogIsThreadStableWithDetailsFirst) {
  std::vector<std::vector<store::ResultRecord>> logs;
  for (const char* threads : {"1", "4"}) {
    const std::string path =
        std::string("/tmp/rdv_obs_test_census_t") + threads + ".rdvl";
    const std::string log_flag = "--result-log=" + path;
    int rc = -1;
    (void)run_capturing_stdout(
        {"rdv_bench", "c1_random_census", "c2_implicit_census", "--smoke",
         "--check", "--threads", threads, log_flag.c_str()},
        rc);
    EXPECT_EQ(rc, 0);
    logs.push_back(store::read_result_log(path));
    ::unlink(path.c_str());
  }
  const store::LogDiff diff = store::diff_logs(logs[0], logs[1]);
  EXPECT_TRUE(diff.identical) << diff.report;

  const std::vector<store::ResultRecord>& log = logs[0];
  std::size_t at = 0;
  for (const std::string id : {"c1_random_census", "c2_implicit_census"}) {
    SCOPED_TRACE(id);
    std::size_t details = 0;
    while (at < log.size() && log[at].experiment_id.starts_with(id + "/")) {
      ++details;
      ++at;
    }
    ASSERT_LT(at, log.size());
    EXPECT_EQ(log[at].experiment_id, id);
    EXPECT_GT(details, 0u);
    EXPECT_EQ(details, log[at].rows.size());
    ++at;
  }
  EXPECT_EQ(at, log.size());
}

}  // namespace
}  // namespace rdv::obs

#include "obs/profile.hpp"

#include <algorithm>
#include <array>
#include <cstdio>
#include <map>
#include <string_view>
#include <unordered_map>

#include "obs/json.hpp"
#include "obs/metrics.hpp"

namespace rdv::obs {

namespace {

std::uint64_t clamped_sub(std::uint64_t a, std::uint64_t b) noexcept {
  return a > b ? a - b : 0;
}

std::string format_ms(std::uint64_t micros) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.2f", static_cast<double>(micros) / 1000.0);
  return buf;
}

std::string format_pct(double fraction) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.1f", fraction * 100.0);
  return buf;
}

// ---- rendering ------------------------------------------------------

void append_task_json(std::string& out, const TaskProfile& t) {
  out += "{\"id\":" + std::to_string(t.id);
  out += ",\"sweep\":" + std::to_string(t.sweep);
  out += ",\"chunk\":" + std::to_string(t.chunk);
  out += ",\"is_chunk\":";
  out += t.is_chunk ? "true" : "false";
  out += ",\"stolen\":";
  out += t.stolen ? "true" : "false";
  out += ",\"victim\":" + std::to_string(t.steal_victim);
  out += ",\"submit_tid\":" + std::to_string(t.submit_tid);
  out += ",\"exec_tid\":" + std::to_string(t.exec_tid);
  out += ",\"submit\":" + std::to_string(t.submit_t);
  out += ",\"dequeue\":" + std::to_string(t.dequeue_t);
  out += ",\"begin\":" + std::to_string(t.begin_t);
  out += ",\"end\":" + std::to_string(t.end_t);
  out += '}';
}

std::uint32_t parse_tid(JsonCursor& cursor) {
  const std::uint64_t tid = cursor.parse_uint();
  if (tid > UINT32_MAX) cursor.fail("thread id out of range");
  return static_cast<std::uint32_t>(tid);
}

TaskProfile parse_task(JsonCursor& cursor) {
  TaskProfile t;
  cursor.parse_object([&](std::string key) {
    if (key == "id") t.id = cursor.parse_uint();
    else if (key == "sweep") t.sweep = cursor.parse_uint();
    else if (key == "chunk") t.chunk = cursor.parse_uint();
    else if (key == "is_chunk") t.is_chunk = cursor.parse_bool();
    else if (key == "stolen") t.stolen = cursor.parse_bool();
    else if (key == "victim") t.steal_victim = cursor.parse_uint();
    else if (key == "submit_tid") t.submit_tid = parse_tid(cursor);
    else if (key == "exec_tid") t.exec_tid = parse_tid(cursor);
    else if (key == "submit") t.submit_t = cursor.parse_uint();
    else if (key == "dequeue") t.dequeue_t = cursor.parse_uint();
    else if (key == "begin") t.begin_t = cursor.parse_uint();
    else if (key == "end") t.end_t = cursor.parse_uint();
    else cursor.fail("unknown task field '" + key + "'");
  });
  return t;
}

MergeProfile parse_merge(JsonCursor& cursor) {
  MergeProfile m;
  cursor.parse_object([&](std::string key) {
    if (key == "sweep") m.sweep = cursor.parse_uint();
    else if (key == "chunk") m.chunk = cursor.parse_uint();
    else if (key == "tid") m.tid = parse_tid(cursor);
    else if (key == "begin") m.begin_t = cursor.parse_uint();
    else if (key == "end") m.end_t = cursor.parse_uint();
    else cursor.fail("unknown merge field '" + key + "'");
  });
  return m;
}

ParkInterval parse_park(JsonCursor& cursor) {
  ParkInterval p;
  cursor.parse_object([&](std::string key) {
    if (key == "tid") p.tid = parse_tid(cursor);
    else if (key == "begin") p.begin_t = cursor.parse_uint();
    else if (key == "end") p.end_t = cursor.parse_uint();
    else cursor.fail("unknown park field '" + key + "'");
  });
  return p;
}

SweepProfile parse_sweep(JsonCursor& cursor) {
  SweepProfile s;
  cursor.parse_object([&](std::string key) {
    if (key == "id") s.id = cursor.parse_uint();
    else if (key == "chunks") s.chunks = cursor.parse_uint();
    else if (key == "items") s.items = cursor.parse_uint();
    else if (key == "chunk") s.chunk_size = cursor.parse_uint();
    else if (key == "tid") s.tid = parse_tid(cursor);
    else if (key == "begin") s.begin_t = cursor.parse_uint();
    else if (key == "end") s.end_t = cursor.parse_uint();
    else cursor.fail("unknown sweep field '" + key + "'");
  });
  return s;
}

ExpProfile parse_exp(JsonCursor& cursor) {
  ExpProfile x;
  cursor.parse_object([&](std::string key) {
    if (key == "id") x.id = cursor.parse_string();
    else if (key == "sweep") x.sweep = cursor.parse_uint();
    else if (key == "tid") x.tid = parse_tid(cursor);
    else if (key == "begin") x.begin_t = cursor.parse_uint();
    else if (key == "end") x.end_t = cursor.parse_uint();
    else cursor.fail("unknown exp field '" + key + "'");
  });
  return x;
}

constexpr std::uint64_t kProfileFormat = 2;

/// Flow ids for the chunk-end -> merge-begin arrows live in a distinct
/// id space from the submit -> begin arrows (which use the task id).
constexpr std::uint64_t kMergeFlowBase = 1ULL << 62;

/// log2 latency histogram over 65 buckets (bucket b = values of
/// bit_width b; bucket 0 = zero), matching obs::histogram_bucket.
struct LatencyHistogram {
  std::array<std::uint64_t, 65> buckets{};
  std::uint64_t count = 0;
  std::uint64_t sum = 0;

  void observe(std::uint64_t value) {
    buckets[histogram_bucket(value)] += 1;
    ++count;
    sum += value;
  }
  [[nodiscard]] double mean() const {
    return count == 0 ? 0.0
                      : static_cast<double>(sum) / static_cast<double>(count);
  }
};

void append_histogram_lines(std::string& out, const LatencyHistogram& hist) {
  if (hist.count == 0) {
    out += "  (empty)\n";
    return;
  }
  for (std::size_t b = 0; b < hist.buckets.size(); ++b) {
    if (hist.buckets[b] == 0) continue;
    const std::uint64_t lo = b == 0 ? 0 : 1ULL << (b - 1);
    const std::uint64_t hi = b == 0 ? 1 : 1ULL << b;
    out += "  [" + std::to_string(lo) + "," + std::to_string(hi) +
           ") us: " + std::to_string(hist.buckets[b]) + "\n";
  }
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.1f", hist.mean());
  out += "  mean " + std::string(buf) + " us over " +
         std::to_string(hist.count) + " samples\n";
}

/// Per-thread time accounting for the report. Busy and parked are
/// unions of intervals, not sums: a worker waiting inside a task
/// (TaskGroup::wait) executes nested tasks within the outer task's
/// interval, and may park inside it. Parked time takes precedence over
/// busy, so busy + parked + idle is exactly the profile's span.
struct ThreadUsage {
  std::uint64_t busy_micros = 0;
  std::uint64_t park_micros = 0;
  std::uint64_t tasks = 0;
  std::uint64_t merges = 0;
};

using Interval = std::pair<std::uint64_t, std::uint64_t>;

/// Total length of the union of half-open intervals.
std::uint64_t union_micros(std::vector<Interval> intervals) {
  std::sort(intervals.begin(), intervals.end());
  std::uint64_t total = 0;
  std::uint64_t covered_to = 0;
  for (const auto& [begin, end] : intervals) {
    const std::uint64_t from = std::max(begin, covered_to);
    if (end > from) {
      total += end - from;
      covered_to = end;
    }
  }
  return total;
}

std::map<std::uint32_t, ThreadUsage> thread_usage(const Profile& profile) {
  std::map<std::uint32_t, ThreadUsage> usage;
  std::map<std::uint32_t, std::vector<Interval>> busy;
  std::map<std::uint32_t, std::vector<Interval>> parked;
  // Clipped to the span, so a hand-edited profile cannot push a
  // thread past 100%.
  const std::uint64_t lo = profile.t_min;
  const std::uint64_t hi = std::max(profile.t_min, profile.t_max);
  const auto clip = [lo, hi](std::uint64_t begin, std::uint64_t end) {
    return Interval{std::clamp(begin, lo, hi), std::clamp(end, lo, hi)};
  };
  for (const TaskProfile& t : profile.tasks) {
    if (t.begin_t == 0 || t.end_t == 0) continue;
    ++usage[t.exec_tid].tasks;
    busy[t.exec_tid].push_back(clip(t.begin_t, t.end_t));
  }
  for (const MergeProfile& m : profile.merges) {
    ++usage[m.tid].merges;
    busy[m.tid].push_back(clip(m.begin_t, m.end_t));
  }
  for (const ParkInterval& p : profile.parks) {
    (void)usage[p.tid];
    parked[p.tid].push_back(clip(p.begin_t, p.end_t));
  }
  for (auto& [tid, u] : usage) {
    std::vector<Interval>& park = parked[tid];
    u.park_micros = union_micros(park);
    std::vector<Interval>& either = busy[tid];
    either.insert(either.end(), park.begin(), park.end());
    u.busy_micros = union_micros(std::move(either)) - u.park_micros;
  }
  return usage;
}

std::uint64_t executed_task_count(const Profile& profile) {
  std::uint64_t executed = 0;
  for (const TaskProfile& t : profile.tasks) {
    if (t.begin_t != 0) ++executed;
  }
  return executed;
}

std::uint64_t stolen_task_count(const Profile& profile) {
  std::uint64_t stolen = 0;
  for (const TaskProfile& t : profile.tasks) {
    if (t.stolen) ++stolen;
  }
  return stolen;
}

std::uint64_t total_exec_micros(const Profile& profile) {
  std::uint64_t total = 0;
  for (const TaskProfile& t : profile.tasks) total += t.exec_micros();
  return total;
}

}  // namespace

Profile build_profile(const std::vector<TaskEvent>& events) {
  Profile profile;
  profile.events = events.size();
  profile.dropped = task_events_dropped_count();

  std::unordered_map<std::uint64_t, TaskProfile> tasks;
  std::map<std::pair<std::uint64_t, std::uint64_t>, MergeProfile> merges;
  std::unordered_map<std::uint32_t, std::uint64_t> pending_park;
  std::map<std::uint64_t, SweepProfile> sweeps;
  // Open experiments by (thread, label): their begin timestamps.
  std::map<std::pair<std::uint32_t, std::uint64_t>, std::uint64_t>
      pending_exp;

  for (const TaskEvent& e : events) {
    if (profile.t_min == 0 || e.t_micros < profile.t_min) {
      profile.t_min = e.t_micros;
    }
    profile.t_max = std::max(profile.t_max, e.t_micros);
    switch (e.kind) {
      case TaskEventKind::kSubmit: {
        TaskProfile& t = tasks[e.task];
        t.id = e.task;
        t.submit_t = e.t_micros;
        t.submit_tid = e.tid;
        break;
      }
      case TaskEventKind::kDequeue: {
        TaskProfile& t = tasks[e.task];
        t.id = e.task;
        t.dequeue_t = e.t_micros;
        break;
      }
      case TaskEventKind::kSteal: {
        TaskProfile& t = tasks[e.task];
        t.id = e.task;
        t.dequeue_t = e.t_micros;
        t.stolen = true;
        t.steal_victim = e.a;
        break;
      }
      case TaskEventKind::kBegin: {
        TaskProfile& t = tasks[e.task];
        t.id = e.task;
        t.begin_t = e.t_micros;
        t.exec_tid = e.tid;
        break;
      }
      case TaskEventKind::kEnd: {
        TaskProfile& t = tasks[e.task];
        t.id = e.task;
        t.end_t = e.t_micros;
        break;
      }
      case TaskEventKind::kPark:
        pending_park[e.tid] = e.t_micros;
        break;
      case TaskEventKind::kUnpark: {
        const auto it = pending_park.find(e.tid);
        // An unpark whose park was overwritten (ring wrap) has no
        // interval to close; skip it rather than invent one.
        if (it == pending_park.end()) break;
        profile.parks.push_back(ParkInterval{e.tid, it->second, e.t_micros});
        pending_park.erase(it);
        break;
      }
      case TaskEventKind::kSweepBegin: {
        SweepProfile& s = sweeps[e.a];
        s.id = e.a;
        s.chunk_size = e.b;
        s.tid = e.tid;
        s.begin_t = e.t_micros;
        break;
      }
      case TaskEventKind::kSweepEnd: {
        SweepProfile& s = sweeps[e.a];
        s.id = e.a;
        s.items = e.b;
        if (s.chunk_size != 0) {
          s.chunks = (s.items + s.chunk_size - 1) / s.chunk_size;
        }
        s.end_t = e.t_micros;
        break;
      }
      case TaskEventKind::kChunkTask: {
        TaskProfile& t = tasks[e.task];
        t.id = e.task;
        t.sweep = e.a;
        t.chunk = e.b;
        t.is_chunk = true;
        break;
      }
      case TaskEventKind::kMergeBegin: {
        MergeProfile& m = merges[{e.a, e.b}];
        m.sweep = e.a;
        m.chunk = e.b;
        m.tid = e.tid;
        m.begin_t = e.t_micros;
        break;
      }
      case TaskEventKind::kMergeEnd: {
        MergeProfile& m = merges[{e.a, e.b}];
        m.sweep = e.a;
        m.chunk = e.b;
        m.end_t = e.t_micros;
        break;
      }
      case TaskEventKind::kExpBegin:
        pending_exp[{e.tid, e.a}] = e.t_micros;
        break;
      case TaskEventKind::kExpEnd: {
        const auto it = pending_exp.find({e.tid, e.a});
        if (it == pending_exp.end()) break;
        profile.exps.push_back(
            ExpProfile{label_name(e.a), e.b, e.tid, it->second, e.t_micros});
        pending_exp.erase(it);
        break;
      }
    }
  }

  profile.tasks.reserve(tasks.size());
  for (const auto& [id, t] : tasks) profile.tasks.push_back(t);
  std::sort(profile.tasks.begin(), profile.tasks.end(),
            [](const TaskProfile& a, const TaskProfile& b) {
              return a.id < b.id;
            });
  profile.merges.reserve(merges.size());
  for (const auto& [key, m] : merges) profile.merges.push_back(m);
  profile.sweeps.reserve(sweeps.size());
  for (const auto& [id, s] : sweeps) profile.sweeps.push_back(s);
  const auto by_begin_then_tid = [](const auto& a, const auto& b) {
    return a.begin_t != b.begin_t ? a.begin_t < b.begin_t : a.tid < b.tid;
  };
  std::sort(profile.parks.begin(), profile.parks.end(), by_begin_then_tid);
  std::sort(profile.exps.begin(), profile.exps.end(), by_begin_then_tid);
  return profile;
}

double herd_factor(const Profile& profile) noexcept {
  const std::uint64_t executed = executed_task_count(profile);
  if (executed == 0) return 0.0;
  return static_cast<double>(profile.parks.size()) /
         static_cast<double>(executed);
}

CriticalPath critical_path(const Profile& profile, std::uint64_t sweep) {
  CriticalPath path;
  const SweepProfile* sp = nullptr;
  for (const SweepProfile& s : profile.sweeps) {
    if (s.id == sweep) sp = &s;
  }
  if (sp == nullptr) return path;
  path.sweep = sweep;
  path.total_micros = sp->micros();

  std::vector<const MergeProfile*> merges;
  for (const MergeProfile& m : profile.merges) {
    if (m.sweep == sweep && m.end_t != 0) merges.push_back(&m);
  }
  std::unordered_map<std::uint64_t, const TaskProfile*> by_chunk;
  for (const TaskProfile& t : profile.tasks) {
    if (t.is_chunk && t.sweep == sweep) by_chunk[t.chunk] = &t;
  }

  if (merges.empty()) {
    // Nothing merged (a zero-chunk sweep): the whole wall is tail.
    path.tail_micros = path.total_micros;
    return path;
  }

  // Merges are sequential on the merging thread, in chunk order; walk
  // backward from the last one, at each hop following whichever
  // dependency was binding: the previous merge or the chunk's task.
  path.tail_micros = clamped_sub(sp->end_t, merges.back()->end_t);
  std::size_t i = merges.size() - 1;
  for (;;) {
    const MergeProfile& cur = *merges[i];
    path.merge_micros += cur.micros();
    path.steps.push_back({"merge", cur.chunk, cur.micros()});
    const TaskProfile* task = nullptr;
    if (const auto it = by_chunk.find(cur.chunk); it != by_chunk.end()) {
      if (it->second->complete()) task = it->second;
    }
    const std::uint64_t task_end = task != nullptr ? task->end_t : 0;
    const std::uint64_t prev_end = i > 0 ? merges[i - 1]->end_t : 0;
    if (i > 0 && prev_end >= task_end) {
      path.stall_micros += clamped_sub(cur.begin_t, prev_end);
      --i;
      continue;
    }
    if (task != nullptr) {
      path.stall_micros += clamped_sub(cur.begin_t, task->end_t);
      path.exec_micros = task->exec_micros();
      path.queue_micros = task->queue_micros();
      path.schedule_micros = clamped_sub(task->submit_t, sp->begin_t);
      path.steps.push_back(
          {"task", cur.chunk, path.queue_micros + path.exec_micros});
    } else {
      // No usable task lifecycle (dropped events): fold the rest into
      // schedule so the stages still partition the wall.
      path.schedule_micros = clamped_sub(cur.begin_t, sp->begin_t);
    }
    break;
  }
  return path;
}

std::string render_profile_json(const Profile& profile) {
  std::string out = "{\"format\":" + std::to_string(kProfileFormat);
  out += ",\"events\":" + std::to_string(profile.events);
  out += ",\"dropped\":" + std::to_string(profile.dropped);
  out += ",\"t_min\":" + std::to_string(profile.t_min);
  out += ",\"t_max\":" + std::to_string(profile.t_max);
  out += ",\"tasks\":[";
  for (std::size_t i = 0; i < profile.tasks.size(); ++i) {
    if (i != 0) out += ',';
    append_task_json(out, profile.tasks[i]);
  }
  out += "],\"merges\":[";
  for (std::size_t i = 0; i < profile.merges.size(); ++i) {
    const MergeProfile& m = profile.merges[i];
    if (i != 0) out += ',';
    out += "{\"sweep\":" + std::to_string(m.sweep);
    out += ",\"chunk\":" + std::to_string(m.chunk);
    out += ",\"tid\":" + std::to_string(m.tid);
    out += ",\"begin\":" + std::to_string(m.begin_t);
    out += ",\"end\":" + std::to_string(m.end_t);
    out += '}';
  }
  out += "],\"parks\":[";
  for (std::size_t i = 0; i < profile.parks.size(); ++i) {
    const ParkInterval& p = profile.parks[i];
    if (i != 0) out += ',';
    out += "{\"tid\":" + std::to_string(p.tid);
    out += ",\"begin\":" + std::to_string(p.begin_t);
    out += ",\"end\":" + std::to_string(p.end_t);
    out += '}';
  }
  out += "],\"sweeps\":[";
  for (std::size_t i = 0; i < profile.sweeps.size(); ++i) {
    const SweepProfile& s = profile.sweeps[i];
    if (i != 0) out += ',';
    out += "{\"id\":" + std::to_string(s.id);
    out += ",\"chunks\":" + std::to_string(s.chunks);
    out += ",\"items\":" + std::to_string(s.items);
    out += ",\"chunk\":" + std::to_string(s.chunk_size);
    out += ",\"tid\":" + std::to_string(s.tid);
    out += ",\"begin\":" + std::to_string(s.begin_t);
    out += ",\"end\":" + std::to_string(s.end_t);
    out += '}';
  }
  out += "],\"exps\":[";
  for (std::size_t i = 0; i < profile.exps.size(); ++i) {
    const ExpProfile& x = profile.exps[i];
    if (i != 0) out += ',';
    out += "{\"id\":";
    append_json_string(out, x.id);
    out += ",\"sweep\":" + std::to_string(x.sweep);
    out += ",\"tid\":" + std::to_string(x.tid);
    out += ",\"begin\":" + std::to_string(x.begin_t);
    out += ",\"end\":" + std::to_string(x.end_t);
    out += '}';
  }
  out += "]}";
  return out;
}

bool parse_profile_json(const std::string& text, Profile* out) {
  try {
    JsonCursor cursor("profile json", text);
    Profile profile;
    bool saw_format = false;
    cursor.parse_object([&](std::string key) {
      if (key == "format") {
        saw_format = true;
        const std::uint64_t format = cursor.parse_uint();
        if (format != kProfileFormat) {
          cursor.fail("unsupported format " + std::to_string(format));
        }
      } else if (key == "events") {
        profile.events = cursor.parse_uint();
      } else if (key == "dropped") {
        profile.dropped = cursor.parse_uint();
      } else if (key == "t_min") {
        profile.t_min = cursor.parse_uint();
      } else if (key == "t_max") {
        profile.t_max = cursor.parse_uint();
      } else if (key == "tasks") {
        cursor.parse_array([&] {
          profile.tasks.push_back(parse_task(cursor));
        });
      } else if (key == "merges") {
        cursor.parse_array([&] {
          profile.merges.push_back(parse_merge(cursor));
        });
      } else if (key == "parks") {
        cursor.parse_array([&] {
          profile.parks.push_back(parse_park(cursor));
        });
      } else if (key == "sweeps") {
        cursor.parse_array([&] {
          profile.sweeps.push_back(parse_sweep(cursor));
        });
      } else if (key == "exps") {
        cursor.parse_array([&] {
          profile.exps.push_back(parse_exp(cursor));
        });
      } else {
        cursor.fail("unknown top-level key '" + key + "'");
      }
    });
    if (!saw_format) cursor.fail("missing format field");
    cursor.finish();
    *out = std::move(profile);
    return true;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "obs: %s\n", e.what());
    return false;
  }
}

std::string render_profile_report(const Profile& profile) {
  std::string out = "profile: " + std::to_string(profile.events) +
                    " events, " + std::to_string(profile.dropped) +
                    " dropped, span " +
                    format_ms(clamped_sub(profile.t_max, profile.t_min)) +
                    " ms\n";

  for (const ExpProfile& x : profile.exps) {
    out += "experiment " + x.id + ": wall " + format_ms(x.micros()) +
           " ms, case sweep " + std::to_string(x.sweep) + "\n";
  }
  for (const SweepProfile& s : profile.sweeps) {
    out += "sweep " + std::to_string(s.id) + ": " +
           std::to_string(s.chunks) + " chunks, " +
           std::to_string(s.items) + " items, wall " +
           format_ms(s.micros()) + " ms\n";
    const CriticalPath cp = critical_path(profile, s.id);
    const double coverage =
        cp.total_micros == 0
            ? 1.0
            : static_cast<double>(cp.stage_sum()) /
                  static_cast<double>(cp.total_micros);
    out += "  critical path (stage sum " + format_ms(cp.stage_sum()) +
           " ms, " + format_pct(coverage) + "% of wall):\n";
    out += "    schedule " + format_ms(cp.schedule_micros) + " | queue " +
           format_ms(cp.queue_micros) + " | exec " +
           format_ms(cp.exec_micros) + " | stall " +
           format_ms(cp.stall_micros) + " | merge " +
           format_ms(cp.merge_micros) + " | tail " +
           format_ms(cp.tail_micros) + " ms\n";
    if (!cp.steps.empty()) {
      // Steps are walked last-merge-first; the binding hop is last.
      const CriticalPathStep& binding = cp.steps.back();
      std::uint64_t path_merges = 0;
      for (const CriticalPathStep& step : cp.steps) {
        if (step.kind == "merge") ++path_merges;
      }
      out += "    path: " + binding.kind + " chunk " +
             std::to_string(binding.chunk) + " (" +
             format_ms(binding.micros) + " ms) -> " +
             std::to_string(path_merges) + " merge(s)\n";
    }
  }

  const auto usage = thread_usage(profile);
  const std::uint64_t span = clamped_sub(profile.t_max, profile.t_min);
  out += "threads (" + std::to_string(usage.size()) + "):\n";
  for (const auto& [tid, u] : usage) {
    const double denom = span == 0 ? 1.0 : static_cast<double>(span);
    const std::uint64_t idle = span - u.busy_micros - u.park_micros;
    out += "  tid " + std::to_string(tid) + ": busy " +
           format_pct(static_cast<double>(u.busy_micros) / denom) +
           "% (" + format_ms(u.busy_micros) + " ms, " +
           std::to_string(u.tasks) + " tasks, " + std::to_string(u.merges) +
           " merges), parked " +
           format_pct(static_cast<double>(u.park_micros) / denom) +
           "%, idle " + format_pct(static_cast<double>(idle) / denom) +
           "%\n";
  }

  LatencyHistogram queue_hist;
  LatencyHistogram steal_hist;
  for (const TaskProfile& t : profile.tasks) {
    if (!t.complete()) continue;
    queue_hist.observe(t.queue_micros());
    if (t.stolen) {
      steal_hist.observe(clamped_sub(t.dequeue_t, t.submit_t));
    }
  }
  out += "queue latency (submit -> begin, log2 us):\n";
  append_histogram_lines(out, queue_hist);
  if (steal_hist.count != 0) {
    out += "steal latency (submit -> steal, log2 us):\n";
    append_histogram_lines(out, steal_hist);
  }

  const std::uint64_t executed = executed_task_count(profile);
  const std::uint64_t stolen = stolen_task_count(profile);
  out += "steals: " + std::to_string(stolen) + "/" +
         std::to_string(executed) + " tasks";
  if (executed != 0) {
    out += " (" +
           format_pct(static_cast<double>(stolen) /
                      static_cast<double>(executed)) +
           "%)";
  }
  out += "\n";
  char herd[64];
  std::snprintf(herd, sizeof herd, "%.2f", herd_factor(profile));
  out += "herd: " + std::to_string(profile.parks.size()) + " wakeups / " +
         std::to_string(executed) + " tasks executed = " + herd +
         " wakeups per useful task\n";
  return out;
}

std::string render_profile_top(const Profile& profile, std::size_t n) {
  std::vector<const TaskProfile*> ranked;
  for (const TaskProfile& t : profile.tasks) {
    if (t.begin_t != 0 && t.end_t != 0) ranked.push_back(&t);
  }
  std::sort(ranked.begin(), ranked.end(),
            [](const TaskProfile* a, const TaskProfile* b) {
              const std::uint64_t ea = a->exec_micros();
              const std::uint64_t eb = b->exec_micros();
              return ea != eb ? ea > eb : a->id < b->id;
            });
  if (ranked.size() > n) ranked.resize(n);
  std::string out = "top " + std::to_string(ranked.size()) +
                    " tasks by execution time:\n";
  for (const TaskProfile* t : ranked) {
    out += "  task " + std::to_string(t->id);
    if (t->is_chunk) {
      out += " (sweep " + std::to_string(t->sweep) + " chunk " +
             std::to_string(t->chunk) + ")";
    }
    out += ": exec " + format_ms(t->exec_micros()) + " ms, queue " +
           format_ms(t->queue_micros()) + " ms, tid " +
           std::to_string(t->exec_tid);
    if (t->stolen) {
      out += ", stolen from worker " + std::to_string(t->steal_victim);
    }
    out += "\n";
  }
  return out;
}

std::string render_profile_diff(const Profile& a, const Profile& b) {
  std::string out = "profile diff (a -> b):\n";
  const auto line = [&out](const char* name, double va, double vb,
                           const char* unit) {
    char buf[160];
    if (va == 0.0) {
      std::snprintf(buf, sizeof buf, "  %-18s %12.2f -> %12.2f %s\n", name,
                    va, vb, unit);
    } else {
      std::snprintf(buf, sizeof buf,
                    "  %-18s %12.2f -> %12.2f %s (%+.1f%%)\n", name, va, vb,
                    unit, (vb - va) / va * 100.0);
    }
    out += buf;
  };
  line("events", static_cast<double>(a.events),
       static_cast<double>(b.events), "");
  line("tasks executed", static_cast<double>(executed_task_count(a)),
       static_cast<double>(executed_task_count(b)), "");
  line("steals", static_cast<double>(stolen_task_count(a)),
       static_cast<double>(stolen_task_count(b)), "");
  line("wakeups", static_cast<double>(a.parks.size()),
       static_cast<double>(b.parks.size()), "");
  line("herd factor", herd_factor(a), herd_factor(b), "");
  line("total exec", static_cast<double>(total_exec_micros(a)) / 1000.0,
       static_cast<double>(total_exec_micros(b)) / 1000.0, "ms");
  line("span", static_cast<double>(clamped_sub(a.t_max, a.t_min)) / 1000.0,
       static_cast<double>(clamped_sub(b.t_max, b.t_min)) / 1000.0, "ms");
  line("sweeps", static_cast<double>(a.sweeps.size()),
       static_cast<double>(b.sweeps.size()), "");
  return out;
}

std::string render_chrome_trace(const Profile& profile) {
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  const auto append = [&out, &first](const std::string& event) {
    if (!first) out += ',';
    first = false;
    out += event;
  };
  // One complete ("X") slice; `args` is a pre-rendered object or empty.
  const auto slice = [&append](const std::string& quoted_name,
                               const char* cat, std::uint32_t tid,
                               std::uint64_t ts, std::uint64_t dur,
                               const std::string& args) {
    append("{\"name\":" + quoted_name + ",\"cat\":\"" + cat +
           "\",\"ph\":\"X\",\"pid\":1,\"tid\":" + std::to_string(tid) +
           ",\"ts\":" + std::to_string(ts) + ",\"dur\":" +
           std::to_string(dur) + (args.empty() ? "" : ",\"args\":" + args) +
           "}");
  };
  const auto quoted = [](std::string_view name) {
    std::string q;
    append_json_string(q, name);
    return q;
  };
  std::unordered_map<std::uint64_t, const SweepProfile*> sweep_by_id;
  for (const SweepProfile& s : profile.sweeps) sweep_by_id[s.id] = &s;
  for (const ExpProfile& x : profile.exps) {
    const auto it = sweep_by_id.find(x.sweep);
    const std::uint64_t cases =
        it != sweep_by_id.end() ? it->second->chunks : 0;
    slice(quoted(x.id), "exp", x.tid, x.begin_t, x.micros(),
          "{\"cases\":" + std::to_string(cases) +
              ",\"sweep\":" + std::to_string(x.sweep) + "}");
  }
  for (const SweepProfile& s : profile.sweeps) {
    if (s.end_t == 0) continue;
    slice(quoted("sweep " + std::to_string(s.id)), "sweep", s.tid,
          s.begin_t, s.micros(),
          "{\"chunks\":" + std::to_string(s.chunks) +
              ",\"items\":" + std::to_string(s.items) +
              ",\"chunk\":" + std::to_string(s.chunk_size) + "}");
  }
  for (const TaskProfile& t : profile.tasks) {
    if (t.begin_t != 0 && t.end_t != 0) {
      const std::string name = t.is_chunk
                                   ? "chunk " + std::to_string(t.sweep) +
                                         ":" + std::to_string(t.chunk)
                                   : "task " + std::to_string(t.id);
      slice(quoted(name), "task", t.exec_tid, t.begin_t, t.exec_micros(),
            "{\"task\":" + std::to_string(t.id) + "}");
    }
    // Flow arrows: submit ("s") -> optional steal step ("t") -> begin
    // ("f"). Chrome draws one arrow chain per flow id.
    if (t.submit_t != 0 && t.begin_t != 0) {
      const std::string id = std::to_string(t.id);
      append("{\"name\":\"task\",\"cat\":\"flow\",\"ph\":\"s\",\"id\":" +
             id + ",\"pid\":1,\"tid\":" + std::to_string(t.submit_tid) +
             ",\"ts\":" + std::to_string(t.submit_t) + "}");
      if (t.stolen && t.dequeue_t != 0) {
        append("{\"name\":\"task\",\"cat\":\"flow\",\"ph\":\"t\",\"id\":" +
               id + ",\"pid\":1,\"tid\":" + std::to_string(t.exec_tid) +
               ",\"ts\":" + std::to_string(t.dequeue_t) + "}");
      }
      append("{\"name\":\"task\",\"cat\":\"flow\",\"ph\":\"f\",\"bp\":\"e\""
             ",\"id\":" +
             id + ",\"pid\":1,\"tid\":" + std::to_string(t.exec_tid) +
             ",\"ts\":" + std::to_string(t.begin_t) + "}");
    }
  }
  std::map<std::pair<std::uint64_t, std::uint64_t>, const TaskProfile*>
      chunk_tasks;
  for (const TaskProfile& t : profile.tasks) {
    if (t.is_chunk && t.complete()) chunk_tasks[{t.sweep, t.chunk}] = &t;
  }
  for (const MergeProfile& m : profile.merges) {
    if (m.end_t == 0) continue;
    slice(quoted("merge " + std::to_string(m.sweep) + ":" +
                 std::to_string(m.chunk)),
          "sweep", m.tid, m.begin_t, m.micros(),
          "{\"chunk\":" + std::to_string(m.chunk) + "}");
    // Second flow: the chunk's task end -> its merge begin, in a
    // distinct id space so it never collides with the submit flows.
    if (const auto it = chunk_tasks.find({m.sweep, m.chunk});
        it != chunk_tasks.end()) {
      const TaskProfile& t = *it->second;
      const std::string id = std::to_string(kMergeFlowBase + t.id);
      append("{\"name\":\"merge\",\"cat\":\"flow\",\"ph\":\"s\",\"id\":" +
             id + ",\"pid\":1,\"tid\":" + std::to_string(t.exec_tid) +
             ",\"ts\":" + std::to_string(t.end_t) + "}");
      append("{\"name\":\"merge\",\"cat\":\"flow\",\"ph\":\"f\",\"bp\":"
             "\"e\",\"id\":" +
             id + ",\"pid\":1,\"tid\":" + std::to_string(m.tid) +
             ",\"ts\":" + std::to_string(std::max(m.begin_t, t.end_t)) +
             "}");
    }
  }
  for (const ParkInterval& p : profile.parks) {
    slice("\"park\"", "pool", p.tid, p.begin_t,
          clamped_sub(p.end_t, p.begin_t), "");
  }
  out += "]}";
  return out;
}

}  // namespace rdv::obs

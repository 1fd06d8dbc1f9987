// rdv_perfbench: the repository benchmark. One process runs one
// workload (census, classify or warm-store) on a 4-worker pool it owns:
//
//   rdv_perfbench --workload W --seed N --seconds S --trace 0|1
//                 --scratch DIR --reference FILE [--spawn-ns T]
//
// Set-up (inputs, pool start, store fill, then a first pass) is
// repeated kSetups times and its median is reported as setup_s, plus
// process start when the launcher passes its spawn time. The one-time
// oracle checks run after it, outside every timed window. Passes then
// run back to back for S seconds (closed loop).
// --trace 0 reports the end-to-end metrics; --trace 1 alternates
// untraced and traced passes and reports the per-layer metrics. Each
// pass prints one line (wall, CPU, CPU / wall, busy ratio) so a slow
// mode can be read off the output. The last stdout line is the JSON
// result. `--write-reference FILE` records the census digests from a
// 1-worker run instead.
#include <malloc.h>

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <string>
#include <string_view>

#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "obs/task_events.hpp"
#include "workload.hpp"

extern char** environ;

namespace perfbench {
namespace {

constexpr int kSetups = 3;
constexpr int kMinPasses = 3;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  std::string scratch;
  std::string reference;
  std::string write_reference;
  std::int64_t spawn_ns = 0;
};

bool parse(int argc, char** argv, Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string_view key = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    errno = 0;
    if (key == "--workload") {
      a.workload = value;
    } else if (key == "--seed") {
      a.seed = std::strtoull(value, &end, 10);
    } else if (key == "--seconds") {
      a.seconds = std::strtod(value, &end);
    } else if (key == "--trace") {
      a.trace = static_cast<int>(std::strtol(value, &end, 10));
    } else if (key == "--scratch") {
      a.scratch = value;
    } else if (key == "--reference") {
      a.reference = value;
    } else if (key == "--write-reference") {
      a.write_reference = value;
    } else if (key == "--spawn-ns") {
      a.spawn_ns = std::strtoll(value, &end, 10);
    } else {
      return false;
    }
    if (end != nullptr && (*end != '\0' || errno != 0)) return false;
  }
  return argc % 2 == 1;
}

/// cache::global_cache() reads RDV_* knobs and the scenarios read
/// REPRO_* knobs; either would change what is measured.
const char* forbidden_env() {
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "RDV_", 4) == 0 ||
        std::strncmp(*e, "REPRO_", 6) == 0) {
      return *e;
    }
  }
  return nullptr;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

/// Scheduler numbers of one traced pass, from the obs task-event
/// profile and the obs registry's pool counters.
class SchedulerTrace {
 public:
  void begin() {
    rdv::obs::clear_task_events();
    counters0_ = rdv::obs::Registry::instance().snapshot().counters;
    rdv::obs::set_task_events_enabled(true);
  }

  /// Critical-path stages summed over the sweeps the calling thread
  /// started (the top-level sweeps; nested ones lie on their paths).
  void end(LayerValues& layer, std::uint64_t& dropped) {
    rdv::obs::set_task_events_enabled(false);
    const auto counters = rdv::obs::Registry::instance().snapshot().counters;
    const rdv::obs::Profile profile =
        rdv::obs::build_profile(rdv::obs::drain_task_events());
    dropped += profile.dropped;
    const std::uint32_t self = rdv::obs::thread_obs_id();
    double exec = 0, wait = 0, tail = 0;
    for (const rdv::obs::SweepProfile& sweep : profile.sweeps) {
      if (sweep.tid != self) continue;
      const rdv::obs::CriticalPath cp =
          rdv::obs::critical_path(profile, sweep.id);
      exec += static_cast<double>(cp.exec_micros);
      wait += static_cast<double>(cp.schedule_micros + cp.queue_micros +
                                  cp.stall_micros);
      tail += static_cast<double>(cp.tail_micros);
    }
    layer["sweep.cp_exec_ms"] = exec / 1e3;
    layer["sweep.cp_wait_ms"] = wait / 1e3;
    layer["sweep.cp_tail_ms"] = tail / 1e3;
    const auto delta = [&](const char* name) {
      const auto after = counters.find(name);
      const auto before = counters0_.find(name);
      return static_cast<double>(
          (after == counters.end() ? 0 : after->second) -
          (before == counters0_.end() ? 0 : before->second));
    };
    const double submits = delta("pool.submits");
    layer["pool.wakeups_per_task"] =
        submits > 0 ? delta("pool.wakeups") / submits : 0.0;
    layer["pool.steals"] = delta("pool.steals");
  }

 private:
  std::map<std::string, std::uint64_t> counters0_;
};

/// Every per-layer metric, with its unit. A workload that does not
/// exercise a layer through the benchmark's own calls reports 0 there.
const std::vector<std::pair<const char*, const char*>> kLayerMetrics = {
    {"exp.t2_ms", "ms"},
    {"exp.t6_ms", "ms"},
    {"exp.c1_ms", "ms"},
    {"exp.other_ms", "ms"},
    {"sweep.parallel_eff", "ratio"},
    {"sweep.cp_exec_ms", "ms"},
    {"sweep.cp_wait_ms", "ms"},
    {"sweep.cp_tail_ms", "ms"},
    {"sweep.busy_ratio", "ratio"},
    {"sweep.tail_ms", "ms"},
    {"pool.task_overhead_us", "us"},
    {"pool.wakeups_per_task", "count"},
    {"pool.steals", "count"},
    {"sim.universal.rounds", "count"},
    {"sim.universal.mrounds_per_s", "Mrounds/s"},
    {"sim.qhat.rounds", "count"},
    {"sim.qhat.mrounds_per_s", "Mrounds/s"},
    {"uxs.corpus_verifications", "count"},
    {"uxs.provision_ms", "ms"},
    {"views.shrink_ms", "ms"},
    {"views.shrink_mpairs_per_s", "Mpairs/s"},
    {"views.refine_ms", "ms"},
    {"views.refine_knodes_per_s", "knodes/s"},
    {"views.quotient_ms", "ms"},
    {"cache.lookup_ms", "ms"},
    {"cache.resident_mb", "MiB"},
    {"store.load_ms", "ms"},
    {"store.read_mb_per_s", "MiB/s"},
    {"store.hits", "count"},
    {"store.misses", "count"},
    {"store.corrupt", "count"},
    {"codec.decode_mb_per_s", "MiB/s"},
    {"codec.encode_mb_per_s", "MiB/s"},
    {"store.save_ms", "ms"},
    {"store.write_mb_per_s", "MiB/s"},
    {"trace.overhead_pct", "%"},
    {"fail_ratio", "ratio"},
};

void print_result(bool correct, std::uint64_t attempted,
                  std::uint64_t failed, const Metrics& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : metrics) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g",
                  std::isfinite(m.value) ? m.value : 0.0);
    out += first ? "" : ", ";
    out += "\"" + name + "\": {\"value\": " + value + ", \"unit\": \"" +
           m.unit + "\"}";
    first = false;
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

using Factory = std::unique_ptr<Workload> (*)(const Options&);

/// The workload named `name`, or nullptr.
Factory factory(std::string_view name) {
  if (name == "census") return &make_census;
  if (name == "classify") return &make_classify;
  if (name == "warm-store") return &make_warm_store;
  return nullptr;
}

int run(const Args& args) {
  double process_start_s = 0;
  if (args.spawn_ns > 0) {
    timespec now{};
    clock_gettime(CLOCK_REALTIME, &now);
    const std::int64_t ns = now.tv_sec * 1000000000LL + now.tv_nsec;
    process_start_s = static_cast<double>(ns - args.spawn_ns) / 1e9;
  }
  Options options;
  options.seed = args.seed;
  options.scratch_dir = args.scratch;
  options.reference_path = args.reference;
  const bool traced_run = args.trace == 1;

  // Set-up counts its first pass: it pays the one-time costs (the
  // process-global UXS cache, allocator growth, page faults) that users
  // pay once per process, and keeps them out of the pass medians.
  std::vector<double> setups;
  std::unique_ptr<Workload> w;
  for (int r = 0; r < kSetups; ++r) {
    w.reset();
    const auto t0 = Clock::now();
    w = factory(args.workload)(options);
    const double build_s = seconds_since(t0);
    const PassResult first = w->pass(false);
    setups.push_back(seconds_since(t0));
    std::printf("setup %d: %.4f s (inputs, pool, store %.4f s; first pass "
                "wall %.4f s cpu %.4f s)\n",
                r, setups.back(), build_s, first.wall_s, first.cpu_s);
  }
  std::printf("setup: process start %.4f s\n", process_start_s);

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  {
    const std::uint64_t oracle_failures = w->verify_once();
    attempted += oracle_failures;
    failed += oracle_failures;
  }

  std::vector<PassResult> plain;
  std::vector<PassResult> traced;
  std::uint64_t dropped = 0;
  SchedulerTrace scheduler;
  const auto start = Clock::now();
  for (int i = 0;; ++i) {
    const bool enough = static_cast<int>(plain.size()) >= kMinPasses &&
                        (!traced_run ||
                         static_cast<int>(traced.size()) >= kMinPasses);
    if (enough && seconds_since(start) >= args.seconds) break;
    const bool trace_this = traced_run && i % 2 == 1;
    if (trace_this) scheduler.begin();
    // Return the previous pass's freed memory to the kernel, then open
    // a new peak-RSS window for this pass.
    malloc_trim(0);
    reset_peak_rss();
    PassResult p = w->pass(trace_this);
    p.peak_rss_mb = peak_rss_mb();
    if (trace_this) scheduler.end(p.layer, dropped);
    attempted += p.attempted;
    failed += p.failed;
    std::printf(
        "pass %3d %s wall %.4f s cpu %.4f s cpu/wall %.2f busy %.2f tail "
        "%.1f ms rss %.1f MiB\n",
        i, trace_this ? "traced" : "plain ", p.wall_s, p.cpu_s,
        p.cpu_s / p.wall_s, p.busy_ratio, p.tail_ms, p.peak_rss_mb);
    if (trace_this) {
      std::printf("    layers:");
      for (const auto& [name, value] : p.layer) {
        std::printf(" %s=%.4g", name.c_str(), value);
      }
      std::printf("\n");
    }
    (trace_this ? traced : plain).push_back(std::move(p));
  }

  const auto collect = [](const std::vector<PassResult>& passes, auto get) {
    std::vector<double> v;
    for (const PassResult& p : passes) v.push_back(get(p));
    return v;
  };
  const std::vector<double> walls =
      collect(plain, [](const PassResult& p) { return p.wall_s; });
  Metrics metrics;
  if (!traced_run) {
    const std::size_t n = plain.size();
    const auto report = [&](const char* name, double value, const char* unit,
                            const std::string& how) {
      metrics[name] = {value, unit};
      std::printf("%-12s %14.6g %-4s %s\n", name, value, unit, how.c_str());
    };
    const std::string over = " over " + std::to_string(n) + " passes";
    report("wall_s", median(walls), "s",
           "median" + over + ", quartiles " +
               std::to_string(quantile(walls, 0.25)) + " .. " +
               std::to_string(quantile(walls, 0.75)));
    report("cpu_s",
           median(collect(plain, [](const PassResult& p) { return p.cpu_s; })),
           "s", "median" + over);
    report("stics_per_s",
           median(collect(plain,
                          [](const PassResult& p) {
                            return static_cast<double>(p.stics) / p.wall_s;
                          })),
           "1/s", "median" + over);
    report("setup_s", process_start_s + median(setups), "s",
           "process start + median of " + std::to_string(kSetups) +
               " set-ups");
    // Each pass starts from a trimmed heap, so the largest per-pass peak
    // is the peak of the measured window without carried-over garbage.
    const std::vector<double> rss =
        collect(plain, [](const PassResult& p) { return p.peak_rss_mb; });
    report("peak_rss_mb", *std::max_element(rss.begin(), rss.end()), "MiB",
           "largest per-pass peak" + over);
    std::printf("%-12s %14.6g %-4s %llu failed of %llu attempted\n",
                "fail_ratio",
                static_cast<double>(failed) /
                    static_cast<double>(std::max<std::uint64_t>(attempted, 1)),
                "", static_cast<unsigned long long>(failed),
                static_cast<unsigned long long>(attempted));
  } else {
    LayerValues layer;
    std::map<std::string, std::vector<double>> samples;
    for (const PassResult& p : traced) {
      for (const auto& [name, value] : p.layer) samples[name].push_back(value);
      samples["sweep.parallel_eff"].push_back(
          p.cpu_s / (p.wall_s * static_cast<double>(kWorkers)));
      samples["sweep.busy_ratio"].push_back(p.busy_ratio);
      samples["sweep.tail_ms"].push_back(p.tail_ms);
    }
    for (const auto& [name, v] : samples) layer[name] = median(v);
    const double traced_wall =
        median(collect(traced, [](const PassResult& p) { return p.wall_s; }));
    layer["trace.overhead_pct"] =
        100.0 * (traced_wall - median(walls)) / median(walls);
    layer["pool.task_overhead_us"] = pool_task_overhead_us(w->pool());
    w->probe_layers(layer);
    // Trace consistency: the four experiment timers must account for
    // each traced census pass within 5%, and no event may be dropped.
    for (const PassResult& p : traced) {
      const auto t2 = p.layer.find("exp.t2_ms");
      if (t2 == p.layer.end()) break;
      const double sum = t2->second + p.layer.at("exp.t6_ms") +
                         p.layer.at("exp.c1_ms") + p.layer.at("exp.other_ms");
      ++attempted;
      if (std::abs(sum - 1e3 * p.wall_s) > 0.05 * 1e3 * p.wall_s) {
        std::fprintf(stderr, "census: exp.*_ms sum %.1f ms vs wall %.1f ms\n",
                     sum, 1e3 * p.wall_s);
        ++failed;
      }
    }
    ++attempted;
    if (dropped != 0) {
      std::fprintf(stderr, "task-event profile dropped %llu events\n",
                   static_cast<unsigned long long>(dropped));
      ++failed;
    }
    layer["fail_ratio"] =
        static_cast<double>(failed) / static_cast<double>(attempted);
    for (const auto& [name, unit] : kLayerMetrics) {
      const auto it = layer.find(name);
      metrics[name] = {it == layer.end() ? 0.0 : it->second, unit};
      std::printf("%-28s %14.6g %s\n", name, metrics[name].value, unit);
    }
  }
  w.reset();  // stops the pool before any static is destroyed
  print_result(failed == 0, std::max<std::uint64_t>(attempted, 1), failed,
               metrics);
  return 0;
}

}  // namespace

double pool_task_overhead_us(rdv::support::ThreadPool& pool) {
  constexpr int kTasks = 10000;
  std::vector<double> samples;
  for (int s = 0; s < 5; ++s) {
    const auto t0 = Clock::now();
    rdv::support::TaskGroup group(pool);
    for (int i = 0; i < kTasks; ++i) group.submit([] {});
    group.wait();
    samples.push_back(1e6 * seconds_since(t0) / kTasks);
  }
  return median(samples);
}

}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::parse(argc, argv, args)) {
    std::fprintf(stderr, "rdv_perfbench: bad arguments\n");
    return 2;
  }
  if (const char* var = perfbench::forbidden_env()) {
    std::fprintf(stderr,
                 "rdv_perfbench: refusing to run with %s set; the "
                 "library reads RDV_* and REPRO_* variables\n",
                 var);
    return 2;
  }
  if (!args.write_reference.empty()) {
    return perfbench::write_census_reference(args.write_reference) ? 0 : 1;
  }
  if (perfbench::factory(args.workload) == nullptr || args.seconds <= 0 ||
      (args.trace != 0 && args.trace != 1) || args.scratch.empty() ||
      args.reference.empty()) {
    std::fprintf(stderr,
                 "rdv_perfbench: need --workload census|classify|warm-store "
                 "--seed N --seconds S --trace 0|1 --scratch DIR "
                 "--reference FILE\n");
    return 2;
  }
  return perfbench::run(args);
}

#pragma once

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

/// Small helpers shared by the benchmark's workloads: clocks, order
/// statistics, a content digest and the metric record.
namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// User + system CPU seconds of the whole process (every thread).
[[nodiscard]] inline double process_cpu_s() {
  rusage r{};
  getrusage(RUSAGE_SELF, &r);
  return static_cast<double>(r.ru_utime.tv_sec + r.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(r.ru_utime.tv_usec + r.ru_stime.tv_usec);
}

/// Starts a new peak-resident-set window (Linux clear_refs "5");
/// returns false where the kernel does not support it.
inline bool reset_peak_rss() {
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr) return false;
  const bool ok = std::fputs("5", f) >= 0;
  return std::fclose(f) == 0 && ok;
}

/// Peak resident set of this process since the last reset_peak_rss (or
/// since start), in MiB.
[[nodiscard]] inline double peak_rss_mb() {
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    double kib = -1;
    while (std::fgets(line, sizeof line, f) != nullptr) {
      if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1) break;
    }
    std::fclose(f);
    if (kib >= 0) return kib / 1024.0;
  }
  rusage r{};
  getrusage(RUSAGE_SELF, &r);
  return static_cast<double>(r.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Median; 0 for an empty sample.
[[nodiscard]] inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t h = v.size() / 2;
  return v.size() % 2 == 1 ? v[h] : 0.5 * (v[h - 1] + v[h]);
}

/// 64-bit FNV-1a, the digest the correctness checks compare.
[[nodiscard]] inline std::uint64_t fnv1a(
    std::string_view bytes, std::uint64_t h = 0xcbf29ce484222325ULL) {
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// Per-layer numbers keyed by metric name.
using LayerValues = std::map<std::string, double>;

/// One metric as printed in the result line.
struct Metric {
  double value = 0.0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

/// What one timed pass of a workload produced.
struct PassResult {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  /// STICs classified in the pass (the numerator of stics_per_s).
  std::uint64_t stics = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Summed kernel time / (wall x workers); 0 where the workload's
  /// kernels are the library's own (census).
  double busy_ratio = 0.0;
  /// Pass end minus the moment the first worker ran out of items.
  double tail_ms = 0.0;
  /// Peak resident set during the pass (and its checks), in MiB.
  double peak_rss_mb = 0.0;
  /// Traced passes only.
  LayerValues layer;
};

/// Per-item kernel timestamps, from which busy ratio and tail follow.
struct KernelSpan {
  Clock::time_point begin;
  Clock::time_point end;
  std::size_t worker = 0;
};

/// Fills busy_ratio and tail_ms of `pass` from the items' spans.
inline void attribute_kernels(const std::vector<KernelSpan>& spans,
                              Clock::time_point pass_begin,
                              Clock::time_point pass_end,
                              std::size_t workers, PassResult& pass) {
  double busy = 0.0;
  std::map<std::size_t, Clock::time_point> last_end;
  for (const KernelSpan& s : spans) {
    busy += std::chrono::duration<double>(s.end - s.begin).count();
    auto [it, fresh] = last_end.emplace(s.worker, s.end);
    if (!fresh) it->second = std::max(it->second, s.end);
  }
  const double wall =
      std::chrono::duration<double>(pass_end - pass_begin).count();
  pass.busy_ratio = wall > 0 ? busy / (wall * static_cast<double>(workers))
                             : 0.0;
  // A worker that ran no item ran out of work at the pass start.
  Clock::time_point first_idle = pass_end;
  if (last_end.size() < workers) first_idle = pass_begin;
  for (const auto& [worker, end] : last_end) {
    first_idle = std::min(first_idle, end);
  }
  pass.tail_ms =
      1e3 * std::chrono::duration<double>(pass_end - first_idle).count();
}

}  // namespace perfbench

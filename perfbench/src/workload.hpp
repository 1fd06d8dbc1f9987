#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "support/thread_pool.hpp"
#include "util.hpp"

/// The benchmark's workloads. Constructing one is its set-up (inputs,
/// pool start, store fill); destroying it stops its pool and removes
/// its files. Every workload runs on a 4-worker pool it owns; the
/// calling thread only submits work and waits.
namespace perfbench {

inline constexpr std::size_t kWorkers = 4;

struct Options {
  std::uint64_t seed = 0;
  /// Directory the workload may create files under (warm-store).
  std::string scratch_dir;
  /// Per-experiment table digests of the census (census only).
  std::string reference_path;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// One closed-loop pass. A traced pass also times the benchmark's
  /// calls into each layer and fills PassResult::layer.
  virtual PassResult pass(bool traced) = 0;

  /// Checks made once, after set-up and outside every timed
  /// window (oracle cross-checks). Returns the number of failed checks.
  virtual std::uint64_t verify_once() { return 0; }

  /// Traced runs only: layer probes made outside the passes, plus
  /// numbers gathered during set-up.
  virtual void probe_layers(LayerValues& layer) = 0;

  [[nodiscard]] virtual rdv::support::ThreadPool& pool() = 0;
};

[[nodiscard]] std::unique_ptr<Workload> make_census(const Options& options);
[[nodiscard]] std::unique_ptr<Workload> make_classify(const Options& options);
[[nodiscard]] std::unique_ptr<Workload> make_warm_store(
    const Options& options);

/// Writes the census reference digests (one "<id> <hex digest>" line
/// per experiment) from a 1-worker run; returns false on failure.
bool write_census_reference(const std::string& path);

/// Mean cost of one empty task pushed through support::TaskGroup on
/// `pool` (10^4 tasks per sample, median of 5 samples), in µs.
[[nodiscard]] double pool_task_overhead_us(rdv::support::ThreadPool& pool);

}  // namespace perfbench

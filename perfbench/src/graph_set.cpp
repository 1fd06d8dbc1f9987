// The `classify` and `warm-store` workloads. Both run over one seeded
// graph set: about fifty random connected graphs at the census density
// (extra edges ≈ 1.75 n, n spread over 128..1024, so Shrink tables run
// from 64 KB to 4 MB, around a core's L2) plus three vertex-transitive
// explicit graphs, which take the symmetric branch of Corollary 3.1.
// One graph is one sweep item (chunk size 1): many similar items keep
// load imbalance from hiding kernel speed.
//
// classify computes view classes, quotient and all-pairs Shrink with
// the views kernels and classifies every ordered STIC with delay <= 3;
// no cache, no disk. warm-store fills a DiskStore during set-up and
// then resolves the same artifacts through a fresh ArtifactCache backed
// by it on every pass, so store, codec and cache do the work and views
// does none. Its reads come from the OS page cache: they measure
// syscalls, checksum and decode, not the device.
#include <unistd.h>

#include <array>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <optional>
#include <utility>

#include "cache/artifact_cache.hpp"
#include "graph/families/families.hpp"
#include "obs/task_events.hpp"
#include "store/codec.hpp"
#include "store/disk_store.hpp"
#include "sweep/sweep.hpp"
#include "views/quotient.hpp"
#include "views/refinement.hpp"
#include "views/refinement_worklist.hpp"
#include "views/shrink.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

using namespace rdv;
namespace families = rdv::graph::families;
using graph::Graph;
using graph::Node;

constexpr std::uint64_t kMaxDelay = 3;
constexpr std::uint32_t kRandomGraphs = 48;
constexpr double kMiB = 1024.0 * 1024.0;

/// SplitMix64: the benchmark's own input stream, so the inputs depend
/// on the seed argument alone.
class SplitMix {
 public:
  explicit SplitMix(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  std::uint32_t in(std::uint32_t lo, std::uint32_t hi) {  // [lo, hi]
    return lo + static_cast<std::uint32_t>(next() % (hi - lo + 1));
  }

 private:
  std::uint64_t state_;
};

struct Input {
  Graph g;
  bool vertex_transitive = false;
};

std::vector<Input> make_graph_set(std::uint64_t seed) {
  SplitMix rng(seed);
  std::vector<Input> set;
  // One size per stratum of [128, 1024): the seed moves each size
  // within its stratum, so the total work barely depends on the seed.
  constexpr std::uint32_t kStratum = (1024 - 128) / kRandomGraphs;
  for (std::uint32_t i = 0; i < kRandomGraphs; ++i) {
    const std::uint32_t n = 128 + i * kStratum + rng.in(0, kStratum - 1);
    set.push_back({families::random_connected(n, n * 7 / 4, rng.next()),
                   false});
  }
  set.push_back({families::oriented_torus(rng.in(16, 20), rng.in(16, 20)),
                 true});
  set.push_back({families::hypercube(rng.in(8, 9)), true});
  set.push_back({families::oriented_ring(rng.in(256, 384)), true});
  for (std::size_t i = set.size() - 1; i > 0; --i) {
    std::swap(set[i], set[rng.next() % (i + 1)]);
  }
  return set;
}

/// Corollary 3.1 over every ordered STIC with delay 0..kMaxDelay: a
/// STIC is feasible iff its nodes are nonsymmetric or delay >= Shrink.
struct Summary {
  std::uint32_t classes = 0;
  std::uint32_t quotient_classes = 0;
  std::uint64_t symmetric_pairs = 0;
  std::uint64_t feasible = 0;
  std::uint64_t infeasible = 0;
  std::uint32_t max_shrink = 0;

  [[nodiscard]] std::uint64_t stics() const { return feasible + infeasible; }
  friend bool operator==(const Summary&, const Summary&) = default;
};

Summary classify(const Graph& g, const views::ViewClasses& classes,
                 const views::QuotientGraph& quotient,
                 const views::AllPairsShrink& shrink) {
  Summary s;
  s.classes = classes.class_count;
  s.quotient_classes = quotient.class_count();
  for (Node u = 0; u < g.size(); ++u) {
    for (Node v = 0; v < g.size(); ++v) {
      if (u == v) continue;
      const bool symmetric = classes.symmetric(u, v);
      const std::uint32_t d = shrink.at(u, v);
      s.symmetric_pairs += symmetric ? 1 : 0;
      s.max_shrink = std::max(s.max_shrink, d);
      for (std::uint64_t delay = 0; delay <= kMaxDelay; ++delay) {
        if (!symmetric || delay >= d) {
          ++s.feasible;
        } else {
          ++s.infeasible;
        }
      }
    }
  }
  return s;
}

/// The three per-graph artifacts.
struct Artifacts {
  std::shared_ptr<const views::ViewClasses> classes;
  std::shared_ptr<const views::QuotientGraph> quotient;
  std::shared_ptr<const views::AllPairsShrink> shrink;
};

struct Item {
  Summary summary;
  KernelSpan span;
  /// Traced passes: seconds in each timed layer call.
  double refine_s = 0;
  double quotient_s = 0;
  double shrink_s = 0;
  double lookup_s = 0;
  std::uint64_t pairs_explored = 0;
};

/// Times `fn` when `traced`, adding the seconds to `slot`.
template <typename Fn>
auto timed(bool traced, double& slot, Fn&& fn) {
  if (!traced) return fn();
  const auto t0 = Clock::now();
  auto value = fn();
  slot += seconds_since(t0);
  return value;
}

/// Runs `kernel` once per graph on `pool` (chunk size 1) and fills the
/// pass's wall, CPU, busy ratio and tail.
std::vector<Item> run_items(support::ThreadPool& pool, std::size_t n,
                            const std::function<Item(std::size_t)>& kernel,
                            PassResult& result) {
  sweep::SweepConfig config;
  config.chunk_size = 1;
  config.pool = &pool;
  const auto t0 = Clock::now();
  const double cpu0 = process_cpu_s();
  std::vector<Item> items = sweep::sweep_map<Item>(
      n,
      [&kernel](std::size_t i) {
        const auto begin = Clock::now();
        Item item = kernel(i);
        item.span = {begin, Clock::now(), rdv::obs::thread_obs_id()};
        return item;
      },
      config);
  const auto t1 = Clock::now();
  result.wall_s = std::chrono::duration<double>(t1 - t0).count();
  result.cpu_s = process_cpu_s() - cpu0;
  std::vector<KernelSpan> spans;
  spans.reserve(items.size());
  for (const Item& item : items) spans.push_back(item.span);
  attribute_kernels(spans, t0, t1, pool.thread_count(), result);
  return items;
}

/// Runs fn(i) for i < n as one pool task each and waits.
void fan_out(support::ThreadPool& pool, std::size_t n,
             const std::function<void(std::size_t)>& fn) {
  support::TaskGroup group(pool);
  for (std::size_t i = 0; i < n; ++i) group.submit([&fn, i] { fn(i); });
  group.wait();
}

class Classify final : public Workload {
 public:
  explicit Classify(const Options& options)
      : seed_(options.seed), inputs_(make_graph_set(options.seed)) {}

  PassResult pass(bool traced) override {
    PassResult result;
    const bool keep = expected_.empty();
    if (keep) kept_.resize(inputs_.size());
    std::vector<Item> items = run_items(
        pool_, inputs_.size(),
        [&](std::size_t i) {
          const Graph& g = inputs_[i].g;
          Item item;
          auto classes = timed(traced, item.refine_s, [&] {
            return views::compute_view_classes(g);
          });
          auto quotient = timed(traced, item.quotient_s, [&] {
            return views::build_quotient(g, classes);
          });
          auto shrink = timed(traced, item.shrink_s,
                              [&] { return views::shrink_all_pairs(g); });
          item.pairs_explored = shrink.pairs_explored;
          item.summary = classify(g, classes, quotient, shrink);
          if (keep) {
            kept_[i] = {
                std::make_shared<views::ViewClasses>(std::move(classes)),
                std::make_shared<views::QuotientGraph>(std::move(quotient)),
                std::make_shared<views::AllPairsShrink>(std::move(shrink))};
          }
          return item;
        },
        result);
    if (keep) {
      for (const Item& item : items) expected_.push_back(item.summary);
      oracle_ok_.assign(inputs_.size(), true);
    }

    double kernel_s = 0;
    double refine_s = 0;
    double quotient_s = 0;
    double shrink_s = 0;
    double nodes = 0;
    double pairs = 0;
    for (std::size_t i = 0; i < items.size(); ++i) {
      const Item& item = items[i];
      ++result.attempted;
      if (!(item.summary == expected_[i]) || !oracle_ok_[i]) ++result.failed;
      result.stics += item.summary.stics();
      kernel_s += std::chrono::duration<double>(item.span.end -
                                                item.span.begin)
                      .count();
      refine_s += item.refine_s;
      quotient_s += item.quotient_s;
      shrink_s += item.shrink_s;
      nodes += inputs_[i].g.size();
      pairs += static_cast<double>(item.pairs_explored);
    }
    if (traced) {
      result.layer["views.refine_ms"] = 1e3 * refine_s;
      result.layer["views.refine_knodes_per_s"] = nodes / refine_s / 1e3;
      result.layer["views.quotient_ms"] = 1e3 * quotient_s;
      result.layer["views.shrink_ms"] = 1e3 * shrink_s;
      result.layer["views.shrink_mpairs_per_s"] = pairs / shrink_s / 1e6;
      // The views calls run inside the kernels, so their sum cannot
      // exceed the kernel time; a trace that says otherwise is broken.
      if (refine_s + quotient_s + shrink_s > kernel_s) {
        std::fprintf(stderr, "classify: views time exceeds kernel time\n");
        ++result.failed;
      }
    }
    return result;
  }

  /// Cross-checks the first pass's artifacts against the oracles:
  /// per-pair Shrink BFS on a seeded sample of pairs, the naive
  /// refinement on graphs of up to 256 nodes, and Shrink = distance
  /// with a single view class on the vertex-transitive graphs.
  std::uint64_t verify_once() override {
    std::vector<char> ok(inputs_.size(), 1);
    fan_out(pool_, inputs_.size(), [&](std::size_t i) {
      const Graph& g = inputs_[i].g;
      const Artifacts& a = kept_[i];
      const std::uint32_t n = g.size();
      if (n <= 256) {
        const views::ViewClasses naive = views::compute_view_classes_naive(g);
        if (naive.class_of != a.classes->class_of) ok[i] = 0;
      }
      if (n <= 384) {
        SplitMix rng(seed_ ^ (0x5eed0000ULL + i));
        for (int k = 0; k < 2; ++k) {
          const Node u = rng.in(0, n - 1);
          Node v = rng.in(0, n - 2);
          if (v >= u) ++v;
          if (views::shrink_with_witness(g, u, v).shrink !=
              a.shrink->at(u, v)) {
            ok[i] = 0;
          }
        }
      }
      if (inputs_[i].vertex_transitive) {
        if (a.classes->class_count != 1) ok[i] = 0;
        for (Node u = 0; u < n && ok[i]; ++u) {
          const auto dist = graph::bfs_distances(g, u);
          for (Node v = 0; v < n; ++v) {
            if (v != u && a.shrink->at(u, v) != dist[v]) ok[i] = 0;
          }
        }
      }
    });
    kept_.clear();
    std::uint64_t failed = 0;
    for (std::size_t i = 0; i < ok.size(); ++i) {
      if (ok[i]) continue;
      oracle_ok_[i] = false;
      ++failed;
      std::fprintf(stderr, "classify: oracle mismatch on %s\n",
                   inputs_[i].g.name().c_str());
    }
    return failed;
  }

  void probe_layers(LayerValues&) override {}

  support::ThreadPool& pool() override { return pool_; }

 private:
  support::ThreadPool pool_{kWorkers};
  std::uint64_t seed_;
  std::vector<Input> inputs_;
  /// Per-graph results of the first pass, which every pass must match.
  std::vector<Summary> expected_;
  std::vector<bool> oracle_ok_;
  /// The first pass's artifacts, held until verify_once.
  std::vector<Artifacts> kept_;
};

constexpr store::Kind kKinds[] = {store::Kind::kViewClasses,
                                  store::Kind::kQuotients,
                                  store::Kind::kShrinkAllPairs};

std::string encode(const Artifacts& a, std::size_t kind) {
  switch (kind) {
    case 0: return store::encode_view_classes(*a.classes);
    case 1: return store::encode_quotient(*a.quotient);
    default: return store::encode_all_pairs_shrink(*a.shrink);
  }
}

/// Decodes a payload of kind index `kind` and re-encodes it.
std::string decode_and_encode(const std::string& payload, std::size_t kind,
                              double& decode_s, double& encode_s) {
  Artifacts a;
  auto t0 = Clock::now();
  switch (kind) {
    case 0:
      a.classes = std::make_shared<views::ViewClasses>(
          store::decode_view_classes(payload));
      break;
    case 1:
      a.quotient = std::make_shared<views::QuotientGraph>(
          store::decode_quotient(payload));
      break;
    default:
      a.shrink = std::make_shared<views::AllPairsShrink>(
          store::decode_all_pairs_shrink(payload));
  }
  decode_s += seconds_since(t0);
  t0 = Clock::now();
  std::string bytes = encode(a, kind);
  encode_s += seconds_since(t0);
  return bytes;
}

std::uint64_t recompute_count() {
  return views::shrink_all_pairs_compute_count() +
         views::refine_worklist_compute_count() + views::refine_naive_count();
}

class WarmStore final : public Workload {
 public:
  explicit WarmStore(const Options& options)
      : inputs_(make_graph_set(options.seed)) {
    static std::atomic<int> instance{0};
    dir_ = options.scratch_dir + "/store-" + std::to_string(::getpid()) +
           "-" + std::to_string(instance++);
    std::filesystem::remove_all(dir_);
    store::DiskConfig config;
    config.root = dir_;
    store_ = std::make_shared<store::DiskStore>(config);
    fill();
  }

  ~WarmStore() override {
    store_.reset();
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  PassResult pass(bool traced) override {
    PassResult result;
    cache::CacheConfig config;
    config.disk = store_;
    cache::ArtifactCache cache(config);
    const std::uint64_t computes0 = recompute_count();
    const store::DiskStats disk0 = store_->total_stats();
    std::vector<Artifacts> got(inputs_.size());
    std::vector<Item> items = run_items(
        pool_, inputs_.size(),
        [&](std::size_t i) {
          const Graph& g = inputs_[i].g;
          Item item;
          Artifacts& a = got[i];
          const auto t0 = Clock::now();
          const cache::GraphFingerprint fp = cache::fingerprint(g);
          a.classes = cache.view_classes(g, fp);
          a.quotient = cache.quotient(g, fp);
          a.shrink = cache.all_pairs_shrink(g, fp);
          if (traced) item.lookup_s = seconds_since(t0);
          item.summary = classify(g, *a.classes, *a.quotient, *a.shrink);
          return item;
        },
        result);
    const std::uint64_t recomputes = recompute_count() - computes0;
    const store::DiskStats disk1 = store_->total_stats();

    // An operation is one artifact load: the pass must have served
    // every one from the store, recomputed nothing, and decoded the
    // bytes set-up encoded.
    std::vector<int> mismatches(inputs_.size(), 0);
    fan_out(pool_, inputs_.size(), [&](std::size_t i) {
      for (std::size_t k = 0; k < 3; ++k) {
        if (fnv1a(encode(got[i], k)) != digests_[i][k]) ++mismatches[i];
      }
    });
    result.attempted = 3 * inputs_.size();
    const std::uint64_t hits = disk1.hits - disk0.hits;
    std::uint64_t failed = (hits < result.attempted ? result.attempted - hits
                                                    : 0) +
                           (disk1.corrupt - disk0.corrupt) + recomputes;
    double lookup_s = 0;
    for (std::size_t i = 0; i < items.size(); ++i) {
      failed += static_cast<std::uint64_t>(mismatches[i]);
      if (!(items[i].summary == expected_[i])) ++failed;
      result.stics += items[i].summary.stics();
      lookup_s += items[i].lookup_s;
    }
    result.failed = std::min(failed, result.attempted);
    if (failed != 0) {
      std::fprintf(stderr,
                   "warm-store: %llu failed loads (recomputes %llu)\n",
                   static_cast<unsigned long long>(failed),
                   static_cast<unsigned long long>(recomputes));
    }

    if (traced) {
      result.layer["cache.lookup_ms"] = 1e3 * lookup_s;
      result.layer["cache.resident_mb"] =
          static_cast<double>(cache.stats().total_bytes()) / kMiB;
      result.layer["store.hits"] = static_cast<double>(hits);
      result.layer["store.misses"] =
          static_cast<double>(disk1.misses - disk0.misses);
      result.layer["store.corrupt"] =
          static_cast<double>(disk1.corrupt - disk0.corrupt);
      probe_store(result);
    }
    return result;
  }

  std::uint64_t verify_once() override {
    if (fill_failures_ != 0) {
      std::fprintf(stderr, "warm-store: %llu saves failed in set-up\n",
                   static_cast<unsigned long long>(fill_failures_));
    }
    return fill_failures_;
  }

  void probe_layers(LayerValues& layer) override {
    layer["store.save_ms"] = 1e3 * save_s_;
    layer["store.write_mb_per_s"] = saved_bytes_ / kMiB / save_s_;
  }

  support::ThreadPool& pool() override { return pool_; }

 private:
  /// Computes every artifact with the views kernels, encodes it and
  /// saves it (fsync'd) into the store; the digests and summaries are
  /// what every pass must reproduce.
  void fill() {
    const std::size_t n = inputs_.size();
    expected_.resize(n);
    digests_.resize(n);
    std::vector<double> save_s(n, 0.0);
    std::vector<double> bytes(n, 0.0);
    std::vector<int> save_failures(n, 0);
    fan_out(pool_, n, [&](std::size_t i) {
      const Graph& g = inputs_[i].g;
      Artifacts a;
      a.classes = std::make_shared<views::ViewClasses>(
          views::compute_view_classes(g));
      a.quotient = std::make_shared<views::QuotientGraph>(
          views::build_quotient(g, *a.classes));
      a.shrink = std::make_shared<views::AllPairsShrink>(
          views::shrink_all_pairs(g));
      expected_[i] = classify(g, *a.classes, *a.quotient, *a.shrink);
      const std::string key =
          cache::ArtifactCache::disk_key(cache::fingerprint(g));
      for (std::size_t k = 0; k < 3; ++k) {
        const std::string payload = encode(a, k);
        digests_[i][k] = fnv1a(payload);
        const auto t0 = Clock::now();
        if (!store_->save(kKinds[k], key, payload)) ++save_failures[i];
        save_s[i] += seconds_since(t0);
        bytes[i] += static_cast<double>(payload.size());
      }
    });
    keys_.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      keys_.push_back(
          cache::ArtifactCache::disk_key(cache::fingerprint(inputs_[i].g)));
      save_s_ += save_s[i];
      saved_bytes_ += bytes[i];
      fill_failures_ += static_cast<std::uint64_t>(save_failures[i]);
    }
  }

  /// Loads every key of the pass straight from the store, decodes and
  /// re-encodes it, timing each layer call and checking the bytes.
  void probe_store(PassResult& result) {
    struct Probe {
      double load_s = 0;
      double decode_s = 0;
      double encode_s = 0;
      double bytes = 0;
      std::uint64_t bad = 0;
    };
    const std::size_t n = inputs_.size();
    std::vector<Probe> probes(n);
    fan_out(pool_, n, [&](std::size_t i) {
      Probe& p = probes[i];
      for (std::size_t k = 0; k < 3; ++k) {
        const auto t0 = Clock::now();
        const std::optional<std::string> payload =
            store_->load(kKinds[k], keys_[i]);
        p.load_s += seconds_since(t0);
        if (!payload) {
          ++p.bad;
          continue;
        }
        p.bytes += static_cast<double>(payload->size());
        try {
          if (fnv1a(decode_and_encode(*payload, k, p.decode_s,
                                      p.encode_s)) != digests_[i][k]) {
            ++p.bad;
          }
        } catch (const store::CodecError&) {
          ++p.bad;  // pool tasks must not throw
        }
      }
    });
    Probe total;
    for (const Probe& p : probes) {
      total.load_s += p.load_s;
      total.decode_s += p.decode_s;
      total.encode_s += p.encode_s;
      total.bytes += p.bytes;
      total.bad += p.bad;
    }
    result.attempted += 3 * n;
    result.failed += total.bad;
    result.layer["store.load_ms"] = 1e3 * total.load_s;
    result.layer["store.read_mb_per_s"] = total.bytes / kMiB / total.load_s;
    result.layer["codec.decode_mb_per_s"] =
        total.bytes / kMiB / total.decode_s;
    result.layer["codec.encode_mb_per_s"] =
        total.bytes / kMiB / total.encode_s;
  }

  support::ThreadPool pool_{kWorkers};
  std::vector<Input> inputs_;
  std::string dir_;
  std::shared_ptr<store::DiskStore> store_;
  std::vector<std::string> keys_;
  std::vector<Summary> expected_;
  std::vector<std::array<std::uint64_t, 3>> digests_;
  double save_s_ = 0;
  double saved_bytes_ = 0;
  std::uint64_t fill_failures_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_classify(const Options& options) {
  return std::make_unique<Classify>(options);
}

std::unique_ptr<Workload> make_warm_store(const Options& options) {
  return std::make_unique<WarmStore>(options);
}

}  // namespace perfbench

// The `census` workload: every registered experiment at census scale,
// run through exp::run_experiment, one experiment after another, with a
// fresh in-memory artifact cache per pass and no disk store or result
// log. Inputs are the paper's fixed instances, so the seed is unused.
// An operation is one experiment; it fails when its rendered table
// differs from the committed 1-worker reference digest or a verdict
// column reports a failure.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "analysis/steiner.hpp"
#include "analysis/stics.hpp"
#include "cache/artifact_cache.hpp"
#include "core/universal_rv.hpp"
#include "exp/scenarios/scenarios.hpp"
#include "graph/families/families.hpp"
#include "graph/families/qhat.hpp"
#include "graph/families/qhat_implicit.hpp"
#include "sim/engine.hpp"
#include "uxs/corpus.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

using namespace rdv;

/// Digest of everything an experiment prints: table and notes.
std::uint64_t output_digest(const exp::ExpOutput& out) {
  std::uint64_t h = fnv1a(out.table.to_markdown());
  for (const std::string& note : out.notes) h = fnv1a(note, fnv1a("\n", h));
  return h;
}

/// False when a verdict column of the table reports a failure.
bool verdicts_pass(const support::Table& table) {
  const auto& headers = table.headers();
  for (std::size_t c = 0; c < headers.size(); ++c) {
    for (const auto& row : table.rows()) {
      if (headers[c] == "sim agrees" && row[c] != "yes") return false;
      if (headers[c] == "simulated worst" && row[c] == "MISSED") return false;
    }
  }
  return true;
}

/// Sum of the "STICs" column: ordered STICs the experiment classified.
/// False when a cell is not a count.
bool stic_count(const support::Table& table, std::uint64_t& total) {
  const auto& headers = table.headers();
  for (std::size_t c = 0; c < headers.size(); ++c) {
    if (headers[c] != "STICs") continue;
    for (const auto& row : table.rows()) {
      char* end = nullptr;
      total += std::strtoull(row[c].c_str(), &end, 10);
      if (row[c].empty() || *end != '\0') return false;
    }
  }
  return true;
}

/// The experiments timed individually; the rest sum into exp.other_ms.
const char* layer_name(const std::string& id) {
  if (id == "t2_feasibility_characterization") return "exp.t2_ms";
  if (id == "t6_lower_bound_qhat") return "exp.t6_ms";
  if (id == "c1_random_census") return "exp.c1_ms";
  return "exp.other_ms";
}

/// Experiments whose STICs count towards stics_per_s: those that
/// classify each ordered STIC of an explicit graph (c2 counts its
/// implicit families in closed form).
bool counts_stics(const std::string& id) {
  return id == "t2_feasibility_characterization" || id == "c1_random_census";
}

class Census final : public Workload {
 public:
  explicit Census(const Options& options) {
    exp::scenarios::register_builtin(registry_);
    std::ifstream in(options.reference_path);
    std::string id;
    std::string hex;
    while (in >> id >> hex) {
      reference_[id] = std::strtoull(hex.c_str(), nullptr, 16);
    }
  }

  PassResult pass(bool traced) override {
    PassResult result;
    const auto t0 = Clock::now();
    const double cpu0 = process_cpu_s();
    const std::uint64_t verifications0 = uxs::corpus_verification_count();
    cache::ArtifactCache cache;
    exp::ExpContext ctx;
    ctx.scale = exp::Scale::kCensus;
    ctx.sweep.pool = &pool_;
    ctx.sweep.cache = &cache;
    std::vector<exp::ExpOutput> outputs;
    outputs.reserve(registry_.size());
    for (const char* name :
         {"exp.t2_ms", "exp.t6_ms", "exp.c1_ms", "exp.other_ms"}) {
      if (traced) result.layer[name] = 0.0;
    }
    for (const exp::Experiment& e : registry_.all()) {
      const auto e0 = Clock::now();
      outputs.push_back(exp::run_experiment(e, ctx));
      if (traced) result.layer[layer_name(e.id)] += 1e3 * seconds_since(e0);
    }
    result.wall_s = seconds_since(t0);
    result.cpu_s = process_cpu_s() - cpu0;
    if (traced) {
      result.layer["uxs.corpus_verifications"] = static_cast<double>(
          uxs::corpus_verification_count() - verifications0);
    }

    const auto& all = registry_.all();
    for (std::size_t i = 0; i < all.size(); ++i) {
      ++result.attempted;
      const auto ref = reference_.find(all[i].id);
      std::uint64_t stics = 0;
      const bool ok = ref != reference_.end() &&
                      ref->second == output_digest(outputs[i]) &&
                      verdicts_pass(outputs[i].table) &&
                      stic_count(outputs[i].table, stics);
      if (!ok) {
        ++result.failed;
        std::fprintf(stderr, "census: %s output check failed\n",
                     all[i].id.c_str());
      }
      if (counts_stics(all[i].id)) result.stics += stics;
    }
    return result;
  }

  void probe_layers(LayerValues& layer) override {
    probe_universal(layer);
    probe_qhat(layer);
    probe_uxs(layer);
  }

  support::ThreadPool& pool() override { return pool_; }

 private:
  /// Runs `fn` as one task on the pool and returns its wall seconds.
  template <typename Fn>
  double on_worker(Fn&& fn) {
    double seconds = 0.0;
    support::TaskGroup group(pool_);
    group.submit([&] {
      const auto t0 = Clock::now();
      fn();
      seconds = seconds_since(t0);
    });
    group.wait();
    return seconds;
  }

  /// UniversalRV on t2's oriented_ring(4) STICs with t2's caps: every
  /// feasible STIC plus the first two infeasible ones, which run to the
  /// 2^24-round cap.
  void probe_universal(LayerValues& layer) {
    const graph::Graph g = graph::families::oriented_ring(4);
    const views::ViewClasses classes = views::compute_view_classes(g);
    core::UniversalOptions options;
    options.max_phases = 150;
    const sim::AgentProgram program = core::universal_rv_program(options);
    sim::RunConfig config;
    config.max_rounds = 1u << 24;
    std::uint64_t rounds = 0;
    const double seconds = on_worker([&] {
      int infeasible = 0;
      for (const analysis::Stic& stic : analysis::enumerate_stics(g, 2)) {
        if (!analysis::classify_stic(g, classes, stic).feasible &&
            ++infeasible > 2) {
          continue;
        }
        rounds += sim::run_anonymous(g, program, stic.u, stic.v, stic.delay,
                                     config)
                      .rounds_simulated;
      }
    });
    layer["sim.universal.rounds"] = static_cast<double>(rounds);
    layer["sim.universal.mrounds_per_s"] = rounds / seconds / 1e6;
  }

  /// t6's k = 7 row: the dedicated-Z algorithm from the root to every
  /// node of Z on the implicit Q-hat topology.
  void probe_qhat(LayerValues& layer) {
    constexpr std::uint32_t k = 7;
    std::uint64_t rounds = 0;
    const double seconds = on_worker([&] {
      const graph::families::QhatImplicitTopology topo(4 * k);
      const auto z = graph::families::qhat_z_set(topo, topo.root(), k);
      const auto program = analysis::dedicated_z_program(k);
      sim::RunConfig config;
      config.max_rounds = 64ull * k * (std::uint64_t{2} << k);
      for (const auto v : z) {
        rounds += sim::run_anonymous(topo, program, topo.root(), v, 2 * k,
                                     config)
                      .rounds_simulated;
      }
    });
    layer["sim.qhat.rounds"] = static_cast<double>(rounds);
    layer["sim.qhat.mrounds_per_s"] = rounds / seconds / 1e6;
  }

  /// Cold cache::cached_uxs calls for the sizes the census experiments
  /// resolve through their context cache.
  void probe_uxs(LayerValues& layer) {
    cache::ArtifactCache cold;
    const double seconds = on_worker([&] {
      for (const std::uint32_t n : {2u, 3u, 4u, 5u, 6u, 7u, 8u, 9u, 10u, 12u,
                                    14u}) {
        (void)cache::cached_uxs(n, &cold);
      }
    });
    layer["uxs.provision_ms"] = 1e3 * seconds;
  }

  support::ThreadPool pool_{kWorkers};
  exp::Registry registry_;
  std::map<std::string, std::uint64_t> reference_;
};

}  // namespace

std::unique_ptr<Workload> make_census(const Options& options) {
  return std::make_unique<Census>(options);
}

bool write_census_reference(const std::string& path) {
  support::ThreadPool pool(1);
  exp::Registry registry;
  exp::scenarios::register_builtin(registry);
  cache::ArtifactCache cache;
  exp::ExpContext ctx;
  ctx.scale = exp::Scale::kCensus;
  ctx.sweep.pool = &pool;
  ctx.sweep.cache = &cache;
  std::ostringstream lines;
  for (const exp::Experiment& e : registry.all()) {
    const exp::ExpOutput out = exp::run_experiment(e, ctx);
    if (!verdicts_pass(out.table)) return false;
    char hex[17];
    std::snprintf(hex, sizeof hex, "%016llx",
                  static_cast<unsigned long long>(output_digest(out)));
    lines << e.id << ' ' << hex << '\n';
  }
  std::ofstream file(path);
  file << lines.str();
  return static_cast<bool>(file.flush());
}

}  // namespace perfbench

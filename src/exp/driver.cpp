#include "exp/driver.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iterator>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "cache/artifact_cache.hpp"
#include "exp/scenarios/scenarios.hpp"
#include "obs/metrics.hpp"
#include "obs/metrics_tools.hpp"
#include "obs/profile.hpp"
#include "obs/task_events.hpp"
#include "store/result_log.hpp"
#include "support/env.hpp"
#include "support/thread_pool.hpp"
#include "uxs/corpus.hpp"
#include "views/refinement.hpp"
#include "views/refinement_worklist.hpp"
#include "views/shrink.hpp"

namespace rdv::exp {
namespace {

constexpr const char* kUsage = R"(usage: rdv_bench [options] [id-or-filter ...]

Runs registered experiments (positional arguments select by exact id
first, then by substring over ids/titles/tags). With no arguments,
lists the registry.

options:
  --list           list matching experiments and exit
  --describe       print axes / output schema of matching experiments and exit
  --all            select every registered experiment
  --smoke          smoke scale (tiny axes; CI-sized)
  --full           full scale
  --census         census scale (full + big random-graph STIC censuses)
  --threads N      run on a dedicated pool of N threads
  --chunk N        inner-sweep chunk size (default: ~4 chunks per thread)
  --csv-dir DIR    write <dir>/<id>.csv
  --json-dir DIR   write <dir>/<id>.json
  --json           also print each table as JSON to stdout
  --store-dir DIR  persistent artifact store (same as RDV_STORE_DIR):
                   warm runs skip recomputing view classes, quotients,
                   Shrink, and UXS corpus verification
  --result-log F   append every table, each census case's detail
                   records first, to a compact binary log (round-trip
                   verified under --check)
  --metrics-out F  write the unified metrics snapshot (cache/store/
                   pool/sweep/exp series) as JSON after the run; feed
                   it to rdv_metrics dump|diff|assert
  --trace-out F    write the run's timeline as a Chrome trace / Perfetto
                   JSON (chrome://tracing, ui.perfetto.dev): experiment,
                   sweep, chunk, merge and park slices, plus flow arrows
                   stitching each task's submit -> steal -> execute ->
                   merge across threads
  --profile-out F  write the scheduler profile (experiments, submit/
                   steal/exec/park per task, sweep DAGs) as JSON;
                   analyze with rdv_profile report|top|diff. Either
                   flag switches on the one task-event log both files
                   are rendered from
  --check          fail (exit 1) if any experiment emits an empty table
  --help           this text

Value-taking options accept both `--opt VALUE` and `--opt=VALUE`.

Per-experiment wall-clock timings (exp.<id>.wall_micros) and the
cache, store, UXS-verification and refinement counters go to the
--metrics-out snapshot; read it with rdv_metrics dump. Metrics and
traces are sidecar-only: stdout bytes are identical with and without
them.
)";

struct Args {
  bool help = false;
  bool list = false;
  bool describe = false;
  bool all = false;
  bool json_stdout = false;
  bool check = false;
  Scale scale = Scale::kQuick;
  std::size_t threads = 0;
  std::size_t chunk = 0;
  std::string csv_dir;
  std::string json_dir;
  std::string store_dir;
  std::string result_log;
  std::string metrics_out;
  std::string trace_out;
  std::string profile_out;
  std::vector<std::string> selectors;
};

/// Where an option lands: a flag, a scale, a positive count or a
/// nonempty path. The last two take a value.
using Slot = std::variant<bool Args::*, Scale, std::size_t Args::*,
                          std::string Args::*>;

struct Option {
  std::string_view name;
  Slot slot;
};

/// Every option, each name spelled once.
const Option kOptions[] = {
    {"--help", &Args::help},
    {"-h", &Args::help},
    {"--list", &Args::list},
    {"--describe", &Args::describe},
    {"--all", &Args::all},
    {"--json", &Args::json_stdout},
    {"--check", &Args::check},
    {"--smoke", Scale::kSmoke},
    {"--full", Scale::kFull},
    {"--census", Scale::kCensus},
    {"--threads", &Args::threads},
    {"--chunk", &Args::chunk},
    {"--csv-dir", &Args::csv_dir},
    {"--json-dir", &Args::json_dir},
    {"--store-dir", &Args::store_dir},
    {"--result-log", &Args::result_log},
    {"--metrics-out", &Args::metrics_out},
    {"--trace-out", &Args::trace_out},
    {"--profile-out", &Args::profile_out},
};

bool parse_size(std::string_view text, std::size_t& out) {
  const std::string copy(text);
  char* end = nullptr;
  const unsigned long long v = std::strtoull(copy.c_str(), &end, 10);
  if (end == copy.c_str() || *end != '\0' || v == 0) return false;
  out = static_cast<std::size_t>(v);
  return true;
}

/// Returns 0 on success, 2 on a usage error (reported on stderr).
int parse_args(int argc, const char* const* argv, Args& args) {
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    if (arg.empty() || arg[0] != '-') {
      args.selectors.emplace_back(arg);
      continue;
    }
    // --opt=VALUE: split once here so every value-taking option accepts
    // both spellings.
    std::optional<std::string_view> value;
    if (const std::size_t eq = arg.find('=');
        arg.starts_with("--") && eq != std::string_view::npos) {
      value = arg.substr(eq + 1);
      arg = arg.substr(0, eq);
    }
    const std::string name(arg);
    const Option* option = std::find_if(
        std::begin(kOptions), std::end(kOptions),
        [&](const Option& o) { return o.name == arg; });
    if (option == std::end(kOptions)) {
      std::fprintf(stderr, "rdv_bench: unknown option %s\n%s", name.c_str(),
                   kUsage);
      return 2;
    }
    const bool takes_value = !std::holds_alternative<bool Args::*>(
                                 option->slot) &&
                             !std::holds_alternative<Scale>(option->slot);
    if (value && !takes_value) {
      std::fprintf(stderr, "rdv_bench: option %s does not take a value\n",
                   name.c_str());
      return 2;
    }
    if (!value && takes_value && i + 1 < argc) value = argv[++i];
    if (const auto* flag = std::get_if<bool Args::*>(&option->slot)) {
      args.*(*flag) = true;
    } else if (const auto* scale = std::get_if<Scale>(&option->slot)) {
      args.scale = *scale;
    } else if (const auto* count =
                   std::get_if<std::size_t Args::*>(&option->slot)) {
      if (!value || !parse_size(*value, args.*(*count))) {
        std::fprintf(stderr, "rdv_bench: %s needs a positive count\n",
                     name.c_str());
        return 2;
      }
    } else if (!value || value->empty()) {
      std::fprintf(stderr, "rdv_bench: %s needs a path\n", name.c_str());
      return 2;
    } else {
      args.*std::get<std::string Args::*>(option->slot) = std::string(*value);
    }
  }
  return 0;
}

/// Resolves selectors against the registry, preserving registry order
/// and deduplicating. Returns false when a selector matched nothing.
bool select(const Registry& registry, const Args& args,
            std::vector<const Experiment*>& selected) {
  if (args.all || args.selectors.empty()) {
    for (const Experiment& e : registry.all()) selected.push_back(&e);
    return true;
  }
  std::vector<bool> picked(registry.size(), false);
  for (const std::string& selector : args.selectors) {
    std::vector<const Experiment*> matched;
    if (const Experiment* exact = registry.find(selector)) {
      matched.push_back(exact);
    } else {
      matched = registry.match(selector);
    }
    if (matched.empty()) {
      std::fprintf(stderr,
                   "rdv_bench: no experiment matches '%s' (try --list)\n",
                   selector.c_str());
      return false;
    }
    for (const Experiment* e : matched) {
      picked[static_cast<std::size_t>(e - registry.all().data())] = true;
    }
  }
  for (std::size_t i = 0; i < registry.size(); ++i) {
    if (picked[i]) selected.push_back(&registry.all()[i]);
  }
  return true;
}

std::string join(const std::vector<std::string>& parts,
                 const char* separator) {
  std::string out;
  for (const std::string& part : parts) {
    if (!out.empty()) out += separator;
    out += part;
  }
  return out;
}

void print_list(const std::vector<const Experiment*>& selected) {
  support::Table table({"id", "tags", "summary"});
  for (const Experiment* e : selected) {
    table.add_row({e->id, join(e->tags, ","), e->summary});
  }
  std::printf("%zu experiments registered\n%s", selected.size(),
              table.to_markdown().c_str());
}

/// Bridges subsystem-owned statistics into metrics snapshots. The
/// subsystems keep their counters (per-instance, directly testable);
/// the registry reads them through these sources at snapshot time, so
/// there is exactly one bookkeeper per number. register_source is
/// idempotent by name — run_main may execute repeatedly in one process
/// (tests) without stacking duplicate contributors.
void register_metric_sources() {
  obs::Registry::instance().register_source(
      "exp.cache", [](obs::MetricsSnapshot& snap) {
        const cache::CacheStats stats = cache::global_cache().stats();
        const auto tier = [&snap](const char* kind,
                                  const cache::StoreStats& s) {
          const std::string p = std::string("cache.") + kind;
          snap.counters[p + ".hits"] = s.hits;
          snap.counters[p + ".misses"] = s.misses;
          snap.counters[p + ".evictions"] = s.evictions;
          snap.gauges[p + ".entries"] = static_cast<std::int64_t>(s.entries);
          snap.gauges[p + ".bytes"] = static_cast<std::int64_t>(s.bytes);
        };
        tier("view_classes", stats.view_classes);
        tier("quotients", stats.quotients);
        tier("uxs", stats.uxs);
        tier("all_pairs_shrink", stats.all_pairs_shrink);
      });
  obs::Registry::instance().register_source(
      "exp.store", [](obs::MetricsSnapshot& snap) {
        const store::DiskStore* disk = cache::global_cache().disk();
        snap.gauges["store.attached"] = disk != nullptr ? 1 : 0;
        // Zero series when no store is attached: the store tier always
        // appears in a snapshot, so baselines and assertions keep one
        // schema across cold, warm, and storeless runs.
        for (const store::Kind kind : store::kKinds) {
          const store::DiskStats s =
              disk != nullptr ? disk->stats(kind) : store::DiskStats{};
          const std::string p =
              std::string("store.") + store::kind_name(kind);
          snap.counters[p + ".hits"] = s.hits;
          snap.counters[p + ".misses"] = s.misses;
          snap.counters[p + ".corrupt"] = s.corrupt;
          snap.counters[p + ".version_mismatch"] = s.version_mismatch;
          snap.counters[p + ".writes"] = s.writes;
          snap.counters[p + ".write_failures"] = s.write_failures;
          snap.counters[p + ".bytes_read"] = s.bytes;
          snap.counters[p + ".bytes_written"] = s.bytes_written;
        }
      });
  obs::Registry::instance().register_source(
      "exp.obs", [](obs::MetricsSnapshot& snap) {
        // Observability self-monitoring: task-event ring overwrites
        // surface as a counter, so CI can assert
        // obs.task_events_dropped==0 on smoke runs — a sidecar that
        // silently lost events is worse than none.
        snap.counters["obs.task_events_dropped"] =
            obs::task_events_dropped_count();
        snap.counters["obs.task_events_recorded"] =
            obs::task_events_recorded_count();
      });
  obs::Registry::instance().register_source(
      "exp.process", [](obs::MetricsSnapshot& snap) {
        // The CI invariant assertions read these: zero pair-BFS on the
        // batched census path, zero verifications on a warm store.
        snap.counters["uxs.corpus_verifications"] =
            uxs::corpus_verification_count();
        snap.counters["views.shrink_pair_bfs"] =
            views::shrink_pair_bfs_count();
        snap.counters["views.shrink_all_pairs_computes"] =
            views::shrink_all_pairs_compute_count();
        // Worklist refinement effort (ISSUE 8). refine_naive counts
        // oracle runs — CI asserts it stays zero on the census path
        // (production refinement never falls back to O(n^2 m)).
        snap.counters["views.refine_worklist_computes"] =
            views::refine_worklist_compute_count();
        snap.counters["views.refine_splits"] = views::refine_split_count();
        snap.counters["views.refine_worklist_pops"] =
            views::refine_worklist_pop_count();
        snap.counters["views.refine_naive"] = views::refine_naive_count();
      });
}

/// Round-trips the just-written binary log and compares it against the
/// records the run produced — the --result-log leg of --check.
bool verify_result_log(const std::string& path,
                       const std::vector<store::ResultRecord>& expected) {
  std::vector<store::ResultRecord> read;
  try {
    read = store::read_result_log(path);
  } catch (const std::exception& ex) {
    std::fprintf(stderr, "rdv_bench: result log %s unreadable: %s\n",
                 path.c_str(), ex.what());
    return false;
  }
  if (read.size() != expected.size()) {
    std::fprintf(stderr,
                 "rdv_bench: result log %s has %zu records, expected %zu\n",
                 path.c_str(), read.size(), expected.size());
    return false;
  }
  for (std::size_t i = 0; i < read.size(); ++i) {
    // Byte-level comparison through the canonical encoding: any field
    // drift (id, scale, counters, schema, cells) fails the check.
    if (store::encode_result_record(read[i]) !=
        store::encode_result_record(expected[i])) {
      std::fprintf(stderr,
                   "rdv_bench: result log %s record %zu (%s) does not "
                   "round-trip\n",
                   path.c_str(), i, expected[i].experiment_id.c_str());
      return false;
    }
  }
  return true;
}

void print_describe(const std::vector<const Experiment*>& selected) {
  for (const Experiment* e : selected) {
    std::printf("%s — %s\n", e->id.c_str(), e->title.c_str());
    std::printf("  tags: %s\n", join(e->tags, ", ").c_str());
    for (const std::string& axis : e->axes) {
      std::printf("  axis: %s\n", axis.c_str());
    }
    std::printf("  columns: %s\n", join(e->headers, " | ").c_str());
    std::printf("\n");
  }
}

}  // namespace

int run_main(int argc, const char* const* argv) {
  Args args;
  if (const int usage_error = parse_args(argc, argv, args)) {
    return usage_error;
  }
  if (args.help) {
    std::fputs(kUsage, stdout);
    return 0;
  }
  // --store-dir is sugar for RDV_STORE_DIR; exported before anything
  // touches the global cache (which reads the knob exactly once).
  if (!args.store_dir.empty()) {
    support::env_export("RDV_STORE_DIR", args.store_dir);
  }
  // The task-event log flips on only when a sink was requested (and
  // before the pool spins up, so worker park events are captured too).
  const bool timeline = !args.trace_out.empty() || !args.profile_out.empty();
  if (timeline) obs::set_task_events_enabled(true);
  register_metric_sources();

  const Registry& registry = builtin_registry();
  std::vector<const Experiment*> selected;
  if (!select(registry, args, selected)) return 2;

  if (args.describe) {
    print_describe(selected);
    return 0;
  }
  // Bare `rdv_bench` lists instead of running everything by surprise.
  if (args.list || (args.selectors.empty() && !args.all)) {
    print_list(selected);
    return 0;
  }

  ExpContext ctx;
  ctx.scale = args.scale;
  if (args.chunk != 0) ctx.sweep.chunk_size = args.chunk;
  std::unique_ptr<support::ThreadPool> pool;
  if (args.threads != 0) {
    pool = std::make_unique<support::ThreadPool>(args.threads);
    ctx.sweep.pool = pool.get();
  }

  const EmitOptions emit_options{args.json_stdout, args.csv_dir,
                                 args.json_dir};

  std::unique_ptr<store::ResultLogWriter> log;
  if (!args.result_log.empty()) {
    log = std::make_unique<store::ResultLogWriter>(args.result_log);
    if (!log->ok()) {
      std::fprintf(stderr, "rdv_bench: cannot write result log %s\n",
                   args.result_log.c_str());
      return 2;
    }
  }

  int failures = 0;
  std::vector<store::ResultRecord> logged;
  for (std::size_t i = 0; i < selected.size(); ++i) {
    const Experiment& e = *selected[i];
    if (i != 0) std::printf("\n");
    std::printf("== %s [%s] ==\n", e.id.c_str(), scale_name(ctx.scale));
    try {
      ExpOutput output = run_experiment(e, ctx);
      // Per-scenario wall-clock series — what the CI perf-trend gate
      // diffs against its committed baseline band.
      obs::histogram("exp." + e.id + ".wall_micros")
          .observe(output.wall_micros);
      const std::vector<std::string> written =
          emit(e, output, emit_options);
      if (log != nullptr) {
        // The case details (the censuses' histograms), in case order,
        // then the experiment's own summary record.
        std::vector<store::ResultRecord> records = std::move(output.details);
        store::ResultRecord& record = records.emplace_back();
        record.experiment_id = e.id;
        record.scale = scale_name(ctx.scale);
        record.wall_micros = output.wall_micros;
        record.items_total = output.stats.items_total;
        record.items_produced = output.stats.items_produced;
        record.headers = output.table.headers();
        record.rows = output.table.rows();
        for (const store::ResultRecord& r : records) log->append(r);
        if (!log->ok()) {
          // One counted failure, then stop logging (and skip the final
          // round-trip, which could only re-report the same fault).
          std::fprintf(stderr, "rdv_bench: result log write failed at %s\n",
                       e.id.c_str());
          ++failures;
          log.reset();
        } else if (args.check) {
          std::move(records.begin(), records.end(),
                    std::back_inserter(logged));
        }
      }
      if (args.check && output.table.row_count() == 0) {
        std::fprintf(stderr, "rdv_bench: %s produced an empty table\n",
                     e.id.c_str());
        ++failures;
      }
      const std::size_t files_expected =
          (emit_options.csv_dir.empty() ? 0u : 1u) +
          (emit_options.json_dir.empty() ? 0u : 1u);
      if (args.check && written.size() != files_expected) {
        std::fprintf(stderr,
                     "rdv_bench: %s wrote %zu of %zu requested files\n",
                     e.id.c_str(), written.size(), files_expected);
        ++failures;
      }
    } catch (const std::exception& ex) {
      std::fprintf(stderr, "rdv_bench: %s failed: %s\n", e.id.c_str(),
                   ex.what());
      ++failures;
    }
  }
  if (log != nullptr && args.check &&
      !verify_result_log(args.result_log, logged)) {
    ++failures;
  }
  // Sidecar emission last: a full run's worth of series, written after
  // every primary byte (stdout, CSV/JSON tables, result log) is out.
  const auto sidecar = [&failures](bool written, const char* what,
                                   const std::string& path) {
    if (!written) {
      ++failures;
      return;
    }
    std::fprintf(stderr, "rdv_bench: %s written to %s\n", what,
                 path.c_str());
  };
  if (!args.metrics_out.empty()) {
    sidecar(write_file(args.metrics_out,
                       obs::render_metrics_json(
                           obs::Registry::instance().snapshot())),
            "metrics snapshot", args.metrics_out);
  }
  if (timeline) {
    const obs::Profile profile = obs::build_profile(obs::drain_task_events());
    if (!args.trace_out.empty()) {
      sidecar(write_file(args.trace_out, obs::render_chrome_trace(profile)),
              "chrome trace", args.trace_out);
    }
    if (!args.profile_out.empty()) {
      sidecar(write_file(args.profile_out, obs::render_profile_json(profile)),
              "scheduler profile", args.profile_out);
    }
  }
  if (failures != 0) {
    std::fprintf(stderr, "rdv_bench: %d of %zu experiments failed\n",
                 failures, selected.size());
    return 1;
  }
  return 0;
}

}  // namespace rdv::exp

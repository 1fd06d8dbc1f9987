// rdv_profile — analyze rdv_bench scheduler-profile sidecars.
//
// `rdv_bench --profile-out p.json` writes the reconstructed task
// lifecycles (obs/profile.hpp, format 2); this CLI re-analyzes them:
// `report` prints critical-path attribution, thread utilization,
// latency histograms and the thundering-herd factor; `top` ranks tasks
// by execution time; `diff` compares two profiles' aggregates.
// `report --strict` is the CI shape: it fails when events were dropped
// or a sweep's critical-path stages do not add back up to its wall.
//
// All logic lives in obs/profile.* so tests exercise exactly the code
// this CLI runs; this file is argv plumbing.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "obs/profile.hpp"

namespace {

constexpr const char* kUsage = R"(usage: rdv_profile <command> ...

commands:
  report FILE [--strict]
      print the full scheduler report: experiment walls and case
      sweeps, per-sweep critical-path stage attribution, per-thread
      busy/park/idle shares, queue- and steal-latency histograms,
      steal ratio, thundering-herd factor.
      --strict exits 1 when events were dropped or any sweep's stage
      sum deviates from its measured wall by more than 5%
  top FILE [-n N]
      the N longest-executing tasks (default 10)
  diff A B
      compare two profiles' aggregates (informational, always exit 0)

exit status: 0 ok, 1 strict-mode violation, 2 usage or parse error
)";

int usage_error(const char* message) {
  std::fprintf(stderr, "rdv_profile: %s\n%s", message, kUsage);
  return 2;
}

bool read_profile(const std::string& path, rdv::obs::Profile& out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "rdv_profile: cannot read %s\n", path.c_str());
    return false;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return rdv::obs::parse_profile_json(buffer.str(), &out);
}

int cmd_report(const std::vector<std::string>& args) {
  std::vector<std::string> files;
  bool strict = false;
  for (const std::string& arg : args) {
    if (arg == "--strict") {
      strict = true;
    } else if (!arg.empty() && arg[0] == '-') {
      return usage_error("unknown report option");
    } else {
      files.push_back(arg);
    }
  }
  if (files.size() != 1) return usage_error("report takes exactly one file");
  rdv::obs::Profile profile;
  if (!read_profile(files[0], profile)) return 2;
  std::fputs(rdv::obs::render_profile_report(profile).c_str(), stdout);
  if (!strict) return 0;

  int violations = 0;
  if (profile.dropped != 0) {
    std::printf("STRICT: %llu events dropped (lifecycles incomplete)\n",
                static_cast<unsigned long long>(profile.dropped));
    ++violations;
  }
  for (const rdv::obs::SweepProfile& s : profile.sweeps) {
    const rdv::obs::CriticalPath cp =
        rdv::obs::critical_path(profile, s.id);
    if (cp.total_micros == 0) continue;
    const double deviation =
        std::fabs(static_cast<double>(cp.stage_sum()) -
                  static_cast<double>(cp.total_micros)) /
        static_cast<double>(cp.total_micros);
    if (deviation > 0.05) {
      std::printf("STRICT: sweep %llu stage sum %llu us vs wall %llu us "
                  "(%.1f%% deviation > 5%%)\n",
                  static_cast<unsigned long long>(s.id),
                  static_cast<unsigned long long>(cp.stage_sum()),
                  static_cast<unsigned long long>(cp.total_micros),
                  deviation * 100.0);
      ++violations;
    }
  }
  if (violations != 0) {
    std::printf("%d strict violation%s\n", violations,
                violations == 1 ? "" : "s");
    return 1;
  }
  std::printf("strict: ok\n");
  return 0;
}

int cmd_top(const std::vector<std::string>& args) {
  std::vector<std::string> files;
  std::size_t n = 10;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "-n") {
      if (i + 1 >= args.size()) return usage_error("-n needs a value");
      char* end = nullptr;
      const unsigned long long v = std::strtoull(args[++i].c_str(), &end, 10);
      if (end == args[i].c_str() || *end != '\0' || v == 0) {
        return usage_error("-n needs a positive integer");
      }
      n = v;
    } else if (!args[i].empty() && args[i][0] == '-') {
      return usage_error("unknown top option");
    } else {
      files.push_back(args[i]);
    }
  }
  if (files.size() != 1) return usage_error("top takes exactly one file");
  rdv::obs::Profile profile;
  if (!read_profile(files[0], profile)) return 2;
  std::fputs(rdv::obs::render_profile_top(profile, n).c_str(), stdout);
  return 0;
}

int cmd_diff(const std::vector<std::string>& args) {
  if (args.size() != 2) return usage_error("diff takes two files");
  rdv::obs::Profile a;
  rdv::obs::Profile b;
  if (!read_profile(args[0], a) || !read_profile(args[1], b)) return 2;
  std::fputs(rdv::obs::render_profile_diff(a, b).c_str(), stdout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage_error("missing command");
  const std::string_view command = argv[1];
  if (command == "--help" || command == "-h" || command == "help") {
    std::fputs(kUsage, stdout);
    return 0;
  }
  std::vector<std::string> args(argv + 2, argv + argc);
  if (command == "report") return cmd_report(args);
  if (command == "top") return cmd_top(args);
  if (command == "diff") return cmd_diff(args);
  return usage_error("unknown command");
}

// Mixed-transport coexistence macro-benchmark (DESIGN.md §13): the same
// seeded leaf-spine scenario run three ways — AMRT solo, DCTCP solo, and
// mixed (AMRT foreground + a DCTCP background fraction) — reporting FCT and
// per-link utilization for each mode, as google-benchmark-shaped JSON that
// tools/bench_compare.py --coexist can diff across builds. The JSON context
// names the host (nproc, CPU model, compiler).
//
//   bench_coexist [--leaves N] [--spines N] [--hosts-per-leaf N] [--flows N]
//                 [--load F] [--seed N] [--fraction F] [--json PATH] [--check]
//
// All three modes share one seed and one topology, so the flow schedule is
// identical across them — the mixed run literally re-carries 100*fraction %
// of the same flow ids on DCTCP. --check exits non-zero unless every flow
// completes in every mode (the coexist_smoke ctest).
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "harness/experiment.hpp"
#include "host_info.hpp"

using namespace amrt;

namespace {

struct Options {
  int leaves = 2;
  int spines = 2;
  int hosts_per_leaf = 4;
  std::size_t flows = 120;
  double load = 0.6;
  std::uint64_t seed = 42;
  double fraction = 0.25;  // DCTCP background share of the mixed run
  std::string json_path;
  bool check = false;
};

struct ModeResult {
  std::string name;
  harness::ExperimentResult r;
  double wall_ms = 0.0;
};

harness::ExperimentConfig base_config(const Options& opt) {
  harness::ExperimentConfig cfg;
  cfg.workload = workload::Kind::kWebSearch;
  cfg.load = opt.load;
  cfg.n_flows = opt.flows;
  cfg.leaves = opt.leaves;
  cfg.spines = opt.spines;
  cfg.hosts_per_leaf = opt.hosts_per_leaf;
  cfg.seed = opt.seed;
  return cfg;
}

ModeResult run_mode(const Options& opt, const char* mode, transport::Protocol proto,
                    double fraction) {
  auto cfg = base_config(opt);
  cfg.proto = proto;
  cfg.background_dctcp_fraction = fraction;
  const auto t0 = std::chrono::steady_clock::now();
  ModeResult m;
  m.r = harness::run_leaf_spine(cfg);
  m.wall_ms = std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0)
                  .count();
  m.name = std::string{"BM_Coexist/leafspine_"} + std::to_string(opt.leaves) + "x" +
           std::to_string(opt.spines) + "x" + std::to_string(opt.hosts_per_leaf) + "/" + mode;
  return m;
}

void print_summary_json(std::FILE* out, const stats::FctSummary& s, const char* key,
                        const char* tail) {
  std::fprintf(out,
               "     \"%s\": {\"completed\": %zu, \"afct_us\": %.3f, \"p50_us\": %.3f, "
               "\"p99_us\": %.3f, \"max_fct_us\": %.3f}%s\n",
               key, s.completed, s.afct_us, s.p50_us, s.p99_us, s.max_fct_us, tail);
}

void print_json(std::FILE* out, const Options& opt, const std::vector<ModeResult>& modes) {
  std::fprintf(out,
               "{\n  \"context\": {\"leaves\": %d, \"spines\": %d, \"hosts_per_leaf\": %d, "
               "\"flows\": %zu, \"load\": %.3f, \"seed\": %llu, \"fraction\": %.3f,\n              ",
               opt.leaves, opt.spines, opt.hosts_per_leaf, opt.flows, opt.load,
               static_cast<unsigned long long>(opt.seed), opt.fraction);
  bench::print_host_fields(out);
  std::fprintf(out, "},\n");
  std::fprintf(out, "  \"benchmarks\": [\n");
  for (std::size_t i = 0; i < modes.size(); ++i) {
    const auto& m = modes[i];
    const auto& r = m.r;
    std::fprintf(out,
                 "    {\"name\": \"%s\", \"run_type\": \"iteration\", \"iterations\": 1,\n"
                 "     \"real_time\": %.3f, \"cpu_time\": %.3f, \"time_unit\": \"ms\",\n"
                 "     \"flows\": %zu, \"completed\": %zu,\n"
                 "     \"afct_us\": %.3f, \"p99_us\": %.3f, \"mean_slowdown\": %.4f,\n"
                 "     \"mean_utilization\": %.6f, \"max_queue_pkts\": %zu,\n"
                 "     \"drops\": %llu, \"trims\": %llu, \"events\": %llu,\n",
                 m.name.c_str(), m.wall_ms, m.wall_ms, r.flows_started, r.flows_completed,
                 r.fct_all.afct_us, r.fct_all.p99_us, r.fct_all.mean_slowdown,
                 r.mean_utilization, r.max_queue_pkts, static_cast<unsigned long long>(r.drops),
                 static_cast<unsigned long long>(r.trims),
                 static_cast<unsigned long long>(r.events));
    print_summary_json(out, r.fct_foreground, "foreground", ",");
    print_summary_json(out, r.fct_background, "background", ",");
    std::fprintf(out, "     \"downlink_utilization\": [");
    for (std::size_t u = 0; u < r.downlink_utilization.size(); ++u) {
      std::fprintf(out, "%s%.6f", u == 0 ? "" : ", ", r.downlink_utilization[u]);
    }
    std::fprintf(out, "]}%s\n", i + 1 < modes.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
}

void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--leaves N] [--spines N] [--hosts-per-leaf N] [--flows N]\n"
               "          [--load F] [--seed N] [--fraction F] [--json PATH] [--check]\n",
               argv0);
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        usage(argv[0]);
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--leaves") {
      opt.leaves = std::atoi(next());
    } else if (arg == "--spines") {
      opt.spines = std::atoi(next());
    } else if (arg == "--hosts-per-leaf") {
      opt.hosts_per_leaf = std::atoi(next());
    } else if (arg == "--flows") {
      opt.flows = static_cast<std::size_t>(std::atoll(next()));
    } else if (arg == "--load") {
      opt.load = std::atof(next());
    } else if (arg == "--seed") {
      opt.seed = static_cast<std::uint64_t>(std::atoll(next()));
    } else if (arg == "--fraction") {
      opt.fraction = std::atof(next());
      if (opt.fraction <= 0.0 || opt.fraction >= 1.0) {
        std::fprintf(stderr, "bench_coexist: --fraction must be in (0, 1)\n");
        return 2;
      }
    } else if (arg == "--json") {
      opt.json_path = next();
    } else if (arg == "--check") {
      opt.check = true;
    } else {
      usage(argv[0]);
      return 2;
    }
  }
  if (opt.check) {
    opt.flows = 60;  // a few seconds, same fabric
  }

  std::vector<ModeResult> modes;
  modes.push_back(run_mode(opt, "amrt_solo", transport::Protocol::kAmrt, 0.0));
  modes.push_back(run_mode(opt, "dctcp_solo", transport::Protocol::kDctcp, 0.0));
  modes.push_back(run_mode(opt, "mixed", transport::Protocol::kAmrt, opt.fraction));

  bool ok = true;
  for (const auto& m : modes) {
    const auto& r = m.r;
    std::fprintf(stderr,
                 "%-36s %7.1f ms  %zu/%zu flows  afct %8.1f us  p99 %9.1f us  util %5.1f%%  "
                 "fg/bg %zu/%zu\n",
                 m.name.c_str(), m.wall_ms, r.flows_completed, r.flows_started,
                 r.fct_all.afct_us, r.fct_all.p99_us, 100.0 * r.mean_utilization,
                 r.fct_foreground.completed, r.fct_background.completed);
    if (r.flows_completed != r.flows_started) {
      std::fprintf(stderr, "FAIL: %s completed only %zu of %zu flows\n", m.name.c_str(),
                   r.flows_completed, r.flows_started);
      ok = false;
    }
  }

  if (!opt.json_path.empty()) {
    if (opt.json_path == "-") {
      print_json(stdout, opt, modes);
    } else {
      std::FILE* f = std::fopen(opt.json_path.c_str(), "w");
      if (f == nullptr) {
        std::perror("bench_coexist: fopen");
        return 1;
      }
      print_json(f, opt, modes);
      std::fclose(f);
    }
  }
  return ok ? 0 : 1;
}

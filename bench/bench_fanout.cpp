// Front-end fan-out macro-benchmark (DESIGN.md §14): the same seeded
// leaf-spine fabric driven by the fan-out traffic engine (every arrival is
// one user request that fans out to N backend response flows converging on
// a front end) and run three ways — AMRT, DCTCP, and mixed (AMRT foreground
// + a DCTCP background fraction). The headline metric is per-request
// completion p99: a request is answered when its *slowest* response lands,
// so this is the tail-at-scale number the paper's incast discussion is
// about. Output is google-benchmark-shaped JSON that
// tools/bench_compare.py --fanout can diff across builds; its context names
// the host (nproc, CPU model, compiler).
//
//   bench_fanout [--leaves N] [--spines N] [--hosts-per-leaf N] [--requests N]
//                [--fanout N] [--response-bytes B] [--load F] [--seed N]
//                [--fraction F] [--json PATH] [--check]
//
// All modes share one seed and one topology, so the request schedule is
// identical across them. --check exits non-zero unless every flow completes
// and every request is accounted complete in every mode (the fanout_smoke
// ctest).
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
  std::size_t requests = 40;
  std::size_t fanout = 8;
  std::uint64_t response_bytes = 20'000;
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
  // n_flows counts member flows: `requests` requests of `fanout` responses.
  cfg.n_flows = opt.requests * opt.fanout;
  cfg.leaves = opt.leaves;
  cfg.spines = opt.spines;
  cfg.hosts_per_leaf = opt.hosts_per_leaf;
  cfg.seed = opt.seed;
  cfg.engine.engine = workload::Engine::kFanout;
  cfg.engine.fanout = opt.fanout;
  cfg.engine.response_bytes = opt.response_bytes;
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
  m.name = std::string{"BM_Fanout/leafspine_"} + std::to_string(opt.leaves) + "x" +
           std::to_string(opt.spines) + "x" + std::to_string(opt.hosts_per_leaf) + "/fan" +
           std::to_string(opt.fanout) + "/" + mode;
  return m;
}

void print_json(std::FILE* out, const Options& opt, const std::vector<ModeResult>& modes) {
  std::fprintf(out,
               "{\n  \"context\": {\"leaves\": %d, \"spines\": %d, \"hosts_per_leaf\": %d, "
               "\"requests\": %zu, \"fanout\": %zu, \"response_bytes\": %llu, \"load\": %.3f, "
               "\"seed\": %llu, \"fraction\": %.3f,\n              ",
               opt.leaves, opt.spines, opt.hosts_per_leaf, opt.requests, opt.fanout,
               static_cast<unsigned long long>(opt.response_bytes), opt.load,
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
                 "     \"afct_us\": %.3f, \"p99_us\": %.3f,\n"
                 "     \"requests\": %zu, \"requests_complete\": %zu,\n"
                 "     \"request_mean_us\": %.3f, \"request_p50_us\": %.3f, "
                 "\"request_p99_us\": %.3f, \"request_max_us\": %.3f,\n"
                 "     \"mean_utilization\": %.6f, \"max_queue_pkts\": %zu,\n"
                 "     \"drops\": %llu, \"trims\": %llu, \"events\": %llu}%s\n",
                 m.name.c_str(), m.wall_ms, m.wall_ms, r.flows_started, r.flows_completed,
                 r.fct_all.afct_us, r.fct_all.p99_us, r.request_stats.groups,
                 r.request_stats.complete, r.request_stats.mean_us, r.request_stats.p50_us,
                 r.request_stats.p99_us, r.request_stats.max_us, r.mean_utilization,
                 r.max_queue_pkts, static_cast<unsigned long long>(r.drops),
                 static_cast<unsigned long long>(r.trims),
                 static_cast<unsigned long long>(r.events), i + 1 < modes.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
}

void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--leaves N] [--spines N] [--hosts-per-leaf N] [--requests N]\n"
               "          [--fanout N] [--response-bytes B] [--load F] [--seed N]\n"
               "          [--fraction F] [--json PATH] [--check]\n",
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
    } else if (arg == "--requests") {
      opt.requests = static_cast<std::size_t>(std::atoll(next()));
    } else if (arg == "--fanout") {
      opt.fanout = static_cast<std::size_t>(std::atoll(next()));
    } else if (arg == "--response-bytes") {
      opt.response_bytes = static_cast<std::uint64_t>(std::atoll(next()));
    } else if (arg == "--load") {
      opt.load = std::atof(next());
    } else if (arg == "--seed") {
      opt.seed = static_cast<std::uint64_t>(std::atoll(next()));
    } else if (arg == "--fraction") {
      opt.fraction = std::atof(next());
      if (opt.fraction <= 0.0 || opt.fraction >= 1.0) {
        std::fprintf(stderr, "bench_fanout: --fraction must be in (0, 1)\n");
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
    opt.requests = 12;  // a few seconds, same fabric
  }

  std::vector<ModeResult> modes;
  modes.push_back(run_mode(opt, "amrt", transport::Protocol::kAmrt, 0.0));
  modes.push_back(run_mode(opt, "dctcp", transport::Protocol::kDctcp, 0.0));
  modes.push_back(run_mode(opt, "mixed", transport::Protocol::kAmrt, opt.fraction));

  bool ok = true;
  for (const auto& m : modes) {
    const auto& r = m.r;
    std::fprintf(stderr,
                 "%-44s %7.1f ms  %zu/%zu flows  %zu/%zu requests  req p99 %9.1f us  "
                 "afct %8.1f us\n",
                 m.name.c_str(), m.wall_ms, r.flows_completed, r.flows_started,
                 r.request_stats.complete, r.request_stats.groups, r.request_stats.p99_us,
                 r.fct_all.afct_us);
    if (r.flows_completed != r.flows_started) {
      std::fprintf(stderr, "FAIL: %s completed only %zu of %zu flows\n", m.name.c_str(),
                   r.flows_completed, r.flows_started);
      ok = false;
    }
    if (r.request_stats.complete != r.request_stats.groups) {
      std::fprintf(stderr, "FAIL: %s accounted only %zu of %zu requests complete\n",
                   m.name.c_str(), r.request_stats.complete, r.request_stats.groups);
      ok = false;
    }
  }

  if (!opt.json_path.empty()) {
    if (opt.json_path == "-") {
      print_json(stdout, opt, modes);
    } else {
      std::FILE* f = std::fopen(opt.json_path.c_str(), "w");
      if (f == nullptr) {
        std::perror("bench_fanout: fopen");
        return 1;
      }
      print_json(f, opt, modes);
      std::fclose(f);
    }
  }
  return ok ? 0 : 1;
}

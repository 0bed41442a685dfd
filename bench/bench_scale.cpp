// Macro-benchmark for the pooled network core: a three-tier fat-tree fabric
// (k=16 -> 1024 hosts, 320 switches by default) running the Section 8
// websearch workload under each receiver-driven transport. Reports raw event
// throughput (events/sec), packet throughput (delivered data packets/sec)
// and peak RSS, as google-benchmark-shaped JSON that
// tools/bench_compare.py --scale can diff across builds. Flow-fidelity rows
// report ms per event and flows per second instead: a fluid event is a
// max-min recompute, so events/sec says nothing about its cost. They also
// report flows_per_refill, the mean number of flows a recompute re-water-
// fills (the components its arrivals and completions reach). The
// JSON context names the host (nproc, CPU model, compiler), so a committed
// baseline says which machine it came from.
//
//   bench_scale [--k N] [--transport amrt|phost|homa|ndp|all]
//               [--flows N] [--load F] [--shards N] [--repeat R]
//               [--fidelity packet|flow|both] [--json PATH] [--check]
//
// --shards N runs each transport on the partitioned (pod-sharded) executor
// with N worker threads (see net/partition.hpp); --repeat R reports the
// median-of-R wall time. --fidelity flow runs the flow-level fast path
// (src/flowsim) on the same seeded workload; both emits a packet row and a
// "/flow"-suffixed row per transport, which is how the committed
// baselines/scale_k16_flow.json headroom figure is produced. --check
// shrinks the fabric (k=4, a few hundred flows) and exits non-zero unless
// every flow completes under every requested transport — the scale_smoke /
// shard_smoke ctests run exactly that in a few seconds. Packet rows stop at
// the harness's max_sim_time horizon, so a run that strands flows reports
// FAIL and exits 1 instead of running forever.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "harness/fidelity.hpp"
#include "harness/run.hpp"
#include "net/packet.hpp"
#include "net/topology.hpp"
#include "workload/traffic.hpp"
#include "workload/workloads.hpp"

using namespace amrt;

namespace {

struct Options {
  int k = 16;
  std::vector<transport::Protocol> protocols{
      transport::Protocol::kAmrt, transport::Protocol::kPhost, transport::Protocol::kHoma,
      transport::Protocol::kNdp};
  std::size_t flows = 2'000;
  double load = 0.5;
  std::uint64_t seed = 1;
  unsigned shards = 1;  // 1 = serial (the unchanged fast path)
  int repeat = 1;       // median-of-R wall time
  std::string json_path;  // empty: stdout only when --json given
  bool check = false;
  bool run_packet = true;  // --fidelity packet|flow|both
  bool run_flow = false;
};

struct RunResult {
  std::string name;
  double real_ms = 0.0;
  std::uint64_t events = 0;
  std::uint64_t delivered_pkts = 0;
  std::size_t flows = 0;
  std::size_t completed = 0;
  long peak_rss_kb = 0;
  unsigned shards = 1;
  bool flow = false;  // a flow-fidelity row
  double flows_per_refill = 0.0;  // flow rows: flows water-filled per recompute
};

long peak_rss_kb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss;  // KiB on Linux
}

// A packet row: the harness run object on a fat-tree with the stock 100us
// links, serial or pod-sharded across `opt.shards` worker threads. The
// schedule is drawn from the seed's stream before the fabric is built, so
// every shard count (and the flow row) runs the same flows.
RunResult run_packet(const Options& opt, transport::Protocol proto) {
  harness::RunSpec spec;
  spec.fabric.topology = harness::Topology::kFatTree;
  spec.fabric.fat_k = opt.k;
  spec.fabric.link_delay = net::FatTreeConfig{}.link_delay;
  spec.proto = proto;
  spec.seed = opt.seed;
  spec.shards = opt.shards;

  workload::TrafficConfig traffic;
  traffic.load = opt.load;
  traffic.n_flows = opt.flows;
  traffic.n_hosts = spec.fabric.host_count();
  traffic.host_rate = spec.fabric.link_rate;
  sim::Rng rng{opt.seed};
  const auto flows = workload::generate_traffic(
      {}, &workload::cdf(workload::Kind::kWebSearch), traffic, rng);

  harness::PacketRun run{spec, flows};
  const auto t0 = std::chrono::steady_clock::now();
  run.run();  // natural drain under the harness horizon: no samplers
  const auto t1 = std::chrono::steady_clock::now();

  RunResult r;
  r.name = std::string{"BM_Scale/fattree_k"} + std::to_string(opt.k) + "/" +
           transport::to_string(proto);
  r.real_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
  r.events = run.events();
  r.delivered_pkts = run.recorder().bytes_delivered() / net::kMssBytes;
  r.flows = flows.size();
  r.completed = run.recorder().completed().size();
  r.peak_rss_kb = peak_rss_kb();
  r.shards = opt.shards;
  return r;
}

// The flow-level fast path (src/flowsim) on the same seeded workload; the
// "/flow" row name keeps packet and fluid rows side by side in one JSON so
// tools/bench_compare.py --scale can diff either against a baseline.
RunResult run_one_flow(const Options& opt, transport::Protocol proto) {
  const auto t0 = std::chrono::steady_clock::now();
  const harness::FlowFatTreeResult f = harness::run_fat_tree_flow(
      opt.k, harness::rate_model_for(proto), opt.flows, opt.load, opt.seed);
  const auto t1 = std::chrono::steady_clock::now();

  RunResult r;
  r.name = std::string{"BM_Scale/fattree_k"} + std::to_string(opt.k) + "/" +
           transport::to_string(proto) + "/flow";
  r.real_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
  r.events = f.events;
  r.delivered_pkts = f.delivered_bytes / net::kMssBytes;
  r.flows = f.flows;
  r.completed = f.completed;
  r.peak_rss_kb = peak_rss_kb();
  r.flow = true;
  r.flows_per_refill = f.recomputes > 0 ? static_cast<double>(f.flows_refilled) /
                                              static_cast<double>(f.recomputes)
                                        : 0.0;
  return r;
}

// Median-of-R by wall time (the simulation itself is deterministic per
// mode, so only timing varies across repeats).
RunResult run_repeated(const Options& opt, transport::Protocol proto, bool flow_fidelity) {
  std::vector<RunResult> runs;
  const int reps = opt.repeat < 1 ? 1 : opt.repeat;
  runs.reserve(static_cast<std::size_t>(reps));
  for (int i = 0; i < reps; ++i) {
    runs.push_back(flow_fidelity ? run_one_flow(opt, proto) : run_packet(opt, proto));
  }
  std::sort(runs.begin(), runs.end(),
            [](const RunResult& a, const RunResult& b) { return a.real_ms < b.real_ms; });
  return runs[static_cast<std::size_t>(reps - 1) / 2];
}

// Host facts for the JSON context: a committed baseline names its machine.
std::string cpu_model() {
  std::ifstream in{"/proc/cpuinfo"};
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) != 0) continue;
    const auto start = line.find_first_not_of(" \t", line.find(':') + 1);
    if (start != std::string::npos) return line.substr(start);
  }
  return "unknown";
}

const char* compiler() {
#if defined(__clang__)
  return "clang " __clang_version__;
#elif defined(__GNUC__)
  return "GNU " __VERSION__;
#else
  return "unknown";
#endif
}

void print_json(std::FILE* out, const Options& opt, const std::vector<RunResult>& results) {
  std::fprintf(out,
               "{\n  \"context\": {\"k\": %d, \"flows\": %zu, \"load\": %.3f, \"shards\": %u, "
               "\"repeat\": %d,\n"
               "              \"nproc\": %u, \"cpu\": \"%s\", \"compiler\": \"%s\"},\n",
               opt.k, opt.flows, opt.load, opt.shards, opt.repeat,
               std::thread::hardware_concurrency(), cpu_model().c_str(), compiler());
  std::fprintf(out, "  \"benchmarks\": [\n");
  for (std::size_t i = 0; i < results.size(); ++i) {
    const RunResult& r = results[i];
    const double secs = r.real_ms / 1e3;
    const char* sep = i + 1 < results.size() ? "," : "";
    if (r.flow) {
      std::fprintf(out,
                   "    {\"name\": \"%s\", \"run_type\": \"iteration\", \"iterations\": 1,\n"
                   "     \"real_time\": %.3f, \"cpu_time\": %.3f, \"time_unit\": \"ms\",\n"
                   "     \"shards\": %u, \"wall_ms\": %.3f,\n"
                   "     \"events\": %llu, \"ms_per_event\": %.4f,\n"
                   "     \"flows_per_second\": %.0f, \"flows_per_refill\": %.1f,\n"
                   "     \"delivered_pkts\": %llu,\n"
                   "     \"flows\": %zu, \"completed\": %zu, \"peak_rss_mb\": %.1f}%s\n",
                   r.name.c_str(), r.real_ms, r.real_ms, r.shards, r.real_ms,
                   static_cast<unsigned long long>(r.events),
                   r.events > 0 ? r.real_ms / static_cast<double>(r.events) : 0.0,
                   secs > 0 ? static_cast<double>(r.flows) / secs : 0.0, r.flows_per_refill,
                   static_cast<unsigned long long>(r.delivered_pkts), r.flows, r.completed,
                   static_cast<double>(r.peak_rss_kb) / 1024.0, sep);
      continue;
    }
    const double eps = secs > 0 ? static_cast<double>(r.events) / secs : 0.0;
    std::fprintf(out,
                 "    {\"name\": \"%s\", \"run_type\": \"iteration\", \"iterations\": 1,\n"
                 "     \"real_time\": %.3f, \"cpu_time\": %.3f, \"time_unit\": \"ms\",\n"
                 "     \"shards\": %u, \"wall_ms\": %.3f,\n"
                 "     \"events\": %llu, \"events_per_second\": %.0f,\n"
                 "     \"events_per_second_per_shard\": %.0f,\n"
                 "     \"delivered_pkts\": %llu, \"delivered_pkts_per_second\": %.0f,\n"
                 "     \"flows\": %zu, \"completed\": %zu, \"peak_rss_mb\": %.1f}%s\n",
                 r.name.c_str(), r.real_ms, r.real_ms, r.shards, r.real_ms,
                 static_cast<unsigned long long>(r.events), eps,
                 eps / static_cast<double>(r.shards == 0 ? 1 : r.shards),
                 static_cast<unsigned long long>(r.delivered_pkts),
                 secs > 0 ? static_cast<double>(r.delivered_pkts) / secs : 0.0, r.flows,
                 r.completed, static_cast<double>(r.peak_rss_kb) / 1024.0, sep);
  }
  std::fprintf(out, "  ]\n}\n");
}

void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--k N] [--transport amrt|phost|homa|ndp|all] [--flows N]\n"
               "          [--load F] [--seed N] [--shards N] [--repeat R]\n"
               "          [--fidelity packet|flow|both] [--json PATH] [--check]\n",
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
    if (arg == "--k") {
      opt.k = std::atoi(next());
    } else if (arg == "--transport") {
      const std::string v = next();
      if (v != "all") opt.protocols = {transport::protocol_from_string(v)};
    } else if (arg == "--flows") {
      opt.flows = static_cast<std::size_t>(std::atoll(next()));
    } else if (arg == "--load") {
      opt.load = std::atof(next());
    } else if (arg == "--seed") {
      opt.seed = static_cast<std::uint64_t>(std::atoll(next()));
    } else if (arg == "--shards") {
      const int v = std::atoi(next());
      if (v < 1) {
        std::fprintf(stderr, "bench_scale: --shards must be >= 1\n");
        return 2;
      }
      opt.shards = static_cast<unsigned>(v);
    } else if (arg == "--repeat") {
      opt.repeat = std::atoi(next());
      if (opt.repeat < 1) {
        std::fprintf(stderr, "bench_scale: --repeat must be >= 1\n");
        return 2;
      }
    } else if (arg == "--fidelity") {
      const std::string v = next();
      if (v == "packet") {
        opt.run_packet = true;
        opt.run_flow = false;
      } else if (v == "flow") {
        opt.run_packet = false;
        opt.run_flow = true;
      } else if (v == "both") {
        opt.run_packet = true;
        opt.run_flow = true;
      } else {
        std::fprintf(stderr, "bench_scale: --fidelity must be packet, flow or both\n");
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
    opt.k = 4;
    opt.flows = 400;
  }

  std::vector<RunResult> results;
  bool ok = true;
  auto report = [&](const RunResult& r) {
    char rate[96];
    if (r.flow) {
      std::snprintf(rate, sizeof rate, "%.3f ms/event, %.0f flows/s, %.1f flows/refill",
                    r.events > 0 ? r.real_ms / static_cast<double>(r.events) : 0.0,
                    r.real_ms > 0 ? static_cast<double>(r.flows) / r.real_ms * 1e3 : 0.0,
                    r.flows_per_refill);
    } else {
      std::snprintf(rate, sizeof rate, "%.2fM ev/s, %u shard%s",
                    r.real_ms > 0 ? static_cast<double>(r.events) / r.real_ms / 1e3 : 0.0,
                    r.shards, r.shards == 1 ? "" : "s");
    }
    std::fprintf(stderr,
                 "%-28s %9.1f ms  %12llu events (%s)  %9llu pkts  %zu/%zu flows  rss %.1f MB\n",
                 r.name.c_str(), r.real_ms, static_cast<unsigned long long>(r.events), rate,
                 static_cast<unsigned long long>(r.delivered_pkts), r.completed, r.flows,
                 static_cast<double>(r.peak_rss_kb) / 1024.0);
    if (r.completed != r.flows) {
      std::fprintf(stderr, "FAIL: %s completed only %zu of %zu flows\n", r.name.c_str(),
                   r.completed, r.flows);
      ok = false;
    }
    results.push_back(r);
  };
  for (const auto proto : opt.protocols) {
    if (opt.run_packet) report(run_repeated(opt, proto, false));
    if (opt.run_flow) report(run_repeated(opt, proto, true));
  }

  if (!opt.json_path.empty()) {
    if (opt.json_path == "-") {
      print_json(stdout, opt, results);
    } else {
      std::FILE* f = std::fopen(opt.json_path.c_str(), "w");
      if (f == nullptr) {
        std::perror("bench_scale: fopen");
        return 1;
      }
      print_json(f, opt, results);
      std::fclose(f);
    }
  }
  return ok ? 0 : 1;
}

// Macro-benchmark for the pooled network core: a three-tier fat-tree fabric
// (k=16 -> 1024 hosts, 320 switches by default) running the Section 8
// websearch workload under each receiver-driven transport. Reports raw event
// throughput (events/sec), packet throughput (delivered data packets/sec)
// and peak RSS, as google-benchmark-shaped JSON that
// tools/bench_compare.py --scale can diff across builds. Flow-fidelity rows
// report ms per event and flows per second instead: a fluid event is a
// max-min recompute, so events/sec says nothing about its cost. They also
// report flows_per_refill, the mean number of flows a recompute re-water-
// fills (the components its arrivals and completions reach), and per
// recompute the bottleneck heap's entries, pops of its top and catch-ups
// (lagging tops re-keyed). Packet rows
// also report the event wheel's stats: its final bucket width, how often it
// re-geared, the mean size of the buckets it drained and the pushes that
// spilled past its near window (summed over shards), and the fabric's fixed
// state: build_ms, the time to construct the run (fabric, endpoints and the
// flow schedule), and fixed_rss_mb, the resident set once that is done and
// before the first event, and idle_share, the share of queue arrivals
// (switch and NIC ports together) that found their port idle and its queue
// empty and went straight to the serializer. Every row, and every repeat of
// one, runs in a forked child of a parent that has run nothing, so its peak
// RSS (the child's ru_maxrss from wait4) and fixed_rss_mb are its own, not
// what an earlier run left behind.
// The JSON context names the host (nproc, CPU model, compiler), so a
// committed baseline says which machine it came from.
//
//   bench_scale [--k N] [--transport amrt|phost|homa|ndp|all]
//               [--flows N] [--load F] [--seed N] [--shards N] [--repeat R]
//               [--fidelity packet|flow|both] [--json PATH] [--check]
//
// --k must be even and >= 2, --flows, --shards and --repeat >= 1 and --load
// > 0; a malformed or out-of-range value names the flag and exits 2, and
// --help prints the usage and exits 0. --shards N runs each transport's
// packet row on the partitioned (pod-sharded) executor with N worker threads
// (see net/partition.hpp); flow rows are serial. --repeat R reports the
// repeat with the median wall time. --fidelity flow runs the flow-level
// fast path (src/flowsim) on the same spec and schedule; both emits a
// packet row per transport and a "/flow"-suffixed row per distinct fluid
// rate model, named after every transport that shares it (pHost, Homa and
// NDP all run ideal max-min, so "pHost+Homa+NDP/flow" is one run). That is
// how the committed baselines/scale_k16_flow.json headroom figure is
// produced. --check shrinks the fabric (k=4, a few hundred flows) and exits
// non-zero unless every flow completes under every requested transport —
// the scale_smoke / shard_smoke ctests run exactly that in a few seconds.
// Packet rows stop at the harness's default 30 s horizon, so a run that
// strands flows reports FAIL and exits 1 instead of running forever.
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <fstream>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "harness/options.hpp"
#include "harness/experiment.hpp"
#include "harness/run.hpp"
#include "host_info.hpp"
#include "net/packet.hpp"
#include "net/topology.hpp"

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

// What one run measured; a forked child sends it back whole through a pipe.
struct RunResult {
  double real_ms = 0.0;
  std::uint64_t events = 0;
  std::uint64_t delivered_pkts = 0;
  std::size_t flows = 0;
  std::size_t completed = 0;
  long peak_rss_kb = 0;
  double build_ms = 0.0;  // packet rows: constructing the run
  long fixed_rss_kb = 0;  // packet rows: resident set before the first event
  double idle_share = 0.0;  // packet rows: queue arrivals passed to an idle port
  unsigned shards = 1;
  bool flow = false;  // a flow-fidelity row
  double flows_per_refill = 0.0;  // flow rows: flows water-filled per recompute
  // Flow rows: the bottleneck heap's entries, pops and catch-ups per recompute.
  double heap_entries = 0.0;
  double heap_pops = 0.0;
  double catch_ups = 0.0;
  sim::EventQueue::WheelStats wheel;  // packet rows
};
static_assert(std::is_trivially_copyable_v<RunResult>);

struct Row {
  std::string name;
  RunResult r;
};

// The current (not peak) resident set, from /proc/self/statm.
long current_rss_kb() {
  std::ifstream in{"/proc/self/statm"};
  long size = 0;
  long resident = 0;
  in >> size >> resident;
  return resident * (sysconf(_SC_PAGESIZE) / 1024);
}

// Both rows of a transport run this experiment and its schedule: a fat-tree with
// the stock 100us links, serial or pod-sharded across `opt.shards` worker
// threads, and the websearch flows drawn from the seed's stream before any
// fabric is built, so every shard count and the flow row run the same flows.
harness::ExperimentConfig scale_cfg(const Options& opt, transport::Protocol proto) {
  harness::ExperimentConfig cfg;
  harness::RunSpec& spec = cfg.run;
  spec.fabric.topology = harness::Topology::kFatTree;
  spec.fabric.fat_k = opt.k;
  spec.fabric.link_delay = net::FatTreeConfig{}.link_delay;
  spec.proto = proto;
  spec.seed = opt.seed;
  spec.shards = opt.shards;
  cfg.n_flows = opt.flows;
  cfg.load = opt.load;
  return cfg;
}

std::string row_name(const Options& opt, transport::Protocol proto) {
  return std::string{"BM_Scale/fattree_k"} + std::to_string(opt.k) + "/" +
         transport::to_string(proto);
}

// A packet row: the harness run object.
RunResult run_packet(const Options& opt, transport::Protocol proto) {
  const harness::ExperimentConfig cfg = scale_cfg(opt, proto);
  const auto flows = harness::draw_schedule(cfg);

  const auto t_build = std::chrono::steady_clock::now();
  harness::PacketRun run{cfg.run, flows};
  const auto t0 = std::chrono::steady_clock::now();
  const long fixed_rss_kb = current_rss_kb();
  run.run();  // natural drain under the harness horizon: no samplers
  const auto t1 = std::chrono::steady_clock::now();

  RunResult r;
  r.real_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
  r.events = run.events();
  r.delivered_pkts = run.recorder().bytes_delivered() / net::kMssBytes;
  r.flows = flows.size();
  r.completed = run.recorder().completed().size();
  r.build_ms = std::chrono::duration<double, std::milli>(t0 - t_build).count();
  r.fixed_rss_kb = fixed_rss_kb;
  r.shards = opt.shards;
  r.wheel = run.wheel_stats();
  std::uint64_t passed = 0;
  std::uint64_t enqueued = 0;
  net::Network& network = run.network();
  for (std::size_t p = 0; p < network.port_count(); ++p) {
    const net::QueueStats& q = network.port_at(static_cast<net::PortId>(p)).queue().stats();
    passed += q.passed;
    enqueued += q.enqueued;
  }
  r.idle_share = enqueued > 0 ? static_cast<double>(passed) / static_cast<double>(enqueued) : 0.0;
  return r;
}

// The flow-level fast path (src/flowsim) on the same spec and schedule; the
// "/flow" row name keeps packet and fluid rows side by side in one JSON so
// tools/bench_compare.py --scale can diff either against a baseline. Its
// time covers building the fluid run and running it.
RunResult run_one_flow(const Options& opt, transport::Protocol proto) {
  harness::ExperimentConfig cfg = scale_cfg(opt, proto);
  cfg.run.shards = 1;  // the flow level is serial
  const auto flows = harness::draw_schedule(cfg);

  const auto t0 = std::chrono::steady_clock::now();
  harness::FlowRun run{cfg.run, flows};
  run.run();
  const auto t1 = std::chrono::steady_clock::now();

  const flowsim::FlowSimResult& f = run.result();
  RunResult r;
  r.real_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
  r.events = f.events;
  r.delivered_pkts = run.recorder().bytes_delivered() / net::kMssBytes;
  r.flows = flows.size();
  r.completed = run.recorder().completed().size();
  r.flow = true;
  const auto per_recompute = [&](std::uint64_t n) {
    return f.recomputes > 0 ? static_cast<double>(n) / static_cast<double>(f.recomputes) : 0.0;
  };
  r.flows_per_refill = per_recompute(f.flows_refilled);
  r.heap_entries = per_recompute(f.heap_entries);
  r.heap_pops = per_recompute(f.heap_pops);
  r.catch_ups = per_recompute(f.catch_ups);
  return r;
}

// One run in a forked child, with the child's peak RSS from wait4. Exits 1
// if the child does not send its result back and exit cleanly.
RunResult run_forked(const Options& opt, transport::Protocol proto, bool flow_fidelity) {
  int fds[2];
  if (pipe(fds) != 0) {
    std::perror("bench_scale: pipe");
    std::exit(1);
  }
  std::fflush(nullptr);  // nothing buffered before the fork is written twice
  const pid_t pid = fork();
  if (pid < 0) {
    std::perror("bench_scale: fork");
    std::exit(1);
  }
  if (pid == 0) {
    close(fds[0]);
    const RunResult r = flow_fidelity ? run_one_flow(opt, proto) : run_packet(opt, proto);
    _exit(write(fds[1], &r, sizeof r) == static_cast<ssize_t>(sizeof r) ? 0 : 1);
  }
  close(fds[1]);
  RunResult r;
  auto* const bytes = reinterpret_cast<char*>(&r);
  std::size_t got = 0;
  while (got < sizeof r) {
    const ssize_t n = read(fds[0], bytes + got, sizeof r - got);
    if (n <= 0) break;
    got += static_cast<std::size_t>(n);
  }
  close(fds[0]);
  int status = 0;
  rusage ru{};
  if (wait4(pid, &status, 0, &ru) != pid || !WIFEXITED(status) || WEXITSTATUS(status) != 0 ||
      got != sizeof r) {
    std::fprintf(stderr, "bench_scale: the run of %s%s failed in its child\n",
                 row_name(opt, proto).c_str(), flow_fidelity ? "/flow" : "");
    std::exit(1);
  }
  r.peak_rss_kb = ru.ru_maxrss;  // KiB on Linux
  return r;
}

// The repeat with the median wall time (the simulation itself is
// deterministic per mode, so only timing and RSS vary across repeats).
RunResult run_repeated(const Options& opt, transport::Protocol proto, bool flow_fidelity) {
  std::vector<RunResult> runs;
  const int reps = opt.repeat < 1 ? 1 : opt.repeat;
  runs.reserve(static_cast<std::size_t>(reps));
  for (int i = 0; i < reps; ++i) runs.push_back(run_forked(opt, proto, flow_fidelity));
  std::sort(runs.begin(), runs.end(),
            [](const RunResult& a, const RunResult& b) { return a.real_ms < b.real_ms; });
  return runs[static_cast<std::size_t>(reps - 1) / 2];
}

void print_json(std::FILE* out, const Options& opt, const std::vector<Row>& results) {
  std::fprintf(out,
               "{\n  \"context\": {\"k\": %d, \"flows\": %zu, \"load\": %.3f, \"shards\": %u, "
               "\"repeat\": %d,\n              ",
               opt.k, opt.flows, opt.load, opt.shards, opt.repeat);
  bench::print_host_fields(out);
  std::fprintf(out, "},\n");
  std::fprintf(out, "  \"benchmarks\": [\n");
  for (std::size_t i = 0; i < results.size(); ++i) {
    const RunResult& r = results[i].r;
    const double secs = r.real_ms / 1e3;
    std::fprintf(out,
                 "    {\"name\": \"%s\", \"run_type\": \"iteration\", \"iterations\": 1,\n"
                 "     \"real_time\": %.3f, \"cpu_time\": %.3f, \"time_unit\": \"ms\",\n"
                 "     \"shards\": %u, \"wall_ms\": %.3f,\n",
                 results[i].name.c_str(), r.real_ms, r.real_ms, r.shards, r.real_ms);
    if (r.flow) {
      std::fprintf(out,
                   "     \"events\": %llu, \"ms_per_event\": %.4f,\n"
                   "     \"flows_per_second\": %.0f, \"flows_per_refill\": %.1f,\n"
                   "     \"heap_entries\": %.1f, \"heap_pops\": %.1f, \"catch_ups\": %.1f,\n"
                   "     \"delivered_pkts\": %llu,\n",
                   static_cast<unsigned long long>(r.events),
                   r.events > 0 ? r.real_ms / static_cast<double>(r.events) : 0.0,
                   secs > 0 ? static_cast<double>(r.flows) / secs : 0.0, r.flows_per_refill,
                   r.heap_entries, r.heap_pops, r.catch_ups,
                   static_cast<unsigned long long>(r.delivered_pkts));
    } else {
      const double eps = secs > 0 ? static_cast<double>(r.events) / secs : 0.0;
      std::fprintf(out,
                   "     \"events\": %llu, \"events_per_second\": %.0f,\n"
                   "     \"events_per_second_per_shard\": %.0f,\n"
                   "     \"delivered_pkts\": %llu, \"delivered_pkts_per_second\": %.0f,\n"
                   "     \"wheel_bucket_ns\": %lld, \"wheel_regears\": %llu,\n"
                   "     \"wheel_mean_bucket\": %.1f, \"wheel_far_spills\": %llu,\n"
                   "     \"build_ms\": %.1f, \"fixed_rss_mb\": %.1f, \"idle_share\": %.3f,\n",
                   static_cast<unsigned long long>(r.events), eps,
                   eps / static_cast<double>(r.shards == 0 ? 1 : r.shards),
                   static_cast<unsigned long long>(r.delivered_pkts),
                   secs > 0 ? static_cast<double>(r.delivered_pkts) / secs : 0.0,
                   static_cast<long long>(r.wheel.bucket_ns),
                   static_cast<unsigned long long>(r.wheel.regears), r.wheel.mean_bucket(),
                   static_cast<unsigned long long>(r.wheel.far_spills), r.build_ms,
                   static_cast<double>(r.fixed_rss_kb) / 1024.0, r.idle_share);
    }
    std::fprintf(out, "     \"flows\": %zu, \"completed\": %zu, \"peak_rss_mb\": %.1f}%s\n",
                 r.flows, r.completed, static_cast<double>(r.peak_rss_kb) / 1024.0,
                 i + 1 < results.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
}

void usage(std::FILE* out, const char* argv0) {
  std::fprintf(out,
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
    // A usage error naming the flag and its value (exit 2).
    auto bad = [&](const char* text) {
      std::fprintf(stderr, "bench_scale: bad value '%s' for %s\n", text, arg.c_str());
      usage(stderr, argv[0]);
      std::exit(2);
    };
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) bad("(none)");
      return argv[++i];
    };
    // The next argument as a whole T that `ok` accepts, or a usage error.
    auto number = [&](auto parsed, auto ok) {
      const char* text = next();
      const auto v = harness::parse_whole<decltype(parsed)>(text);
      if (!v || !ok(*v)) bad(text);
      return *v;
    };
    auto at_least_1 = [](auto v) { return v >= 1; };
    if (arg == "--help" || arg == "-h") {
      usage(stdout, argv[0]);
      return 0;
    } else if (arg == "--k") {
      opt.k = number(int{}, [](int v) { return v >= 2 && v % 2 == 0; });
    } else if (arg == "--transport") {
      const std::string v = next();
      try {
        if (v != "all") opt.protocols = {transport::protocol_from_string(v)};
      } catch (const std::invalid_argument&) {
        bad(v.c_str());
      }
    } else if (arg == "--flows") {
      opt.flows = number(std::size_t{}, at_least_1);
    } else if (arg == "--load") {
      opt.load = number(double{}, [](double v) { return std::isfinite(v) && v > 0.0; });
    } else if (arg == "--seed") {
      opt.seed = number(std::uint64_t{}, [](std::uint64_t) { return true; });
    } else if (arg == "--shards") {
      opt.shards = number(unsigned{}, at_least_1);
    } else if (arg == "--repeat") {
      opt.repeat = number(int{}, at_least_1);
    } else if (arg == "--fidelity") {
      const std::string v = next();
      if (v != "packet" && v != "flow" && v != "both") bad(v.c_str());
      opt.run_packet = v != "flow";
      opt.run_flow = v != "packet";
    } else if (arg == "--json") {
      opt.json_path = next();
    } else if (arg == "--check") {
      opt.check = true;
    } else {
      usage(stderr, argv[0]);
      return 2;
    }
  }
  if (opt.check) {
    opt.k = 4;
    opt.flows = 400;
  }

  std::vector<Row> results;
  bool ok = true;
  auto report = [&](const std::string& name, const RunResult& r) {
    char rate[256];
    if (r.flow) {
      std::snprintf(rate, sizeof rate,
                    "%.3f ms/event, %.0f flows/s, %.1f flows/refill, heap %.1f entries "
                    "%.1f pops %.1f catch-ups",
                    r.events > 0 ? r.real_ms / static_cast<double>(r.events) : 0.0,
                    r.real_ms > 0 ? static_cast<double>(r.flows) / r.real_ms * 1e3 : 0.0,
                    r.flows_per_refill, r.heap_entries, r.heap_pops, r.catch_ups);
    } else {
      std::snprintf(rate, sizeof rate,
                    "%.2fM ev/s, %u shard%s, wheel %lld ns, %llu regears, %.1f/bucket, "
                    "%llu far, build %.1f ms, fixed rss %.1f MB, idle share %.3f",
                    r.real_ms > 0 ? static_cast<double>(r.events) / r.real_ms / 1e3 : 0.0,
                    r.shards, r.shards == 1 ? "" : "s", static_cast<long long>(r.wheel.bucket_ns),
                    static_cast<unsigned long long>(r.wheel.regears), r.wheel.mean_bucket(),
                    static_cast<unsigned long long>(r.wheel.far_spills), r.build_ms,
                    static_cast<double>(r.fixed_rss_kb) / 1024.0, r.idle_share);
    }
    std::fprintf(stderr,
                 "%-28s %9.1f ms  %12llu events (%s)  %9llu pkts  %zu/%zu flows  rss %.1f MB\n",
                 name.c_str(), r.real_ms, static_cast<unsigned long long>(r.events), rate,
                 static_cast<unsigned long long>(r.delivered_pkts), r.completed, r.flows,
                 static_cast<double>(r.peak_rss_kb) / 1024.0);
    if (r.completed != r.flows) {
      std::fprintf(stderr, "FAIL: %s completed only %zu of %zu flows\n", name.c_str(),
                   r.completed, r.flows);
      ok = false;
    }
    results.push_back({name, r});
  };
  for (std::size_t i = 0; i < opt.protocols.size(); ++i) {
    const auto proto = opt.protocols[i];
    if (opt.run_packet) report(row_name(opt, proto), run_repeated(opt, proto, false));
    if (!opt.run_flow) continue;
    // One flow row per rate model, at its first transport, named after all
    // the transports that share it.
    const flowsim::RateModel model = harness::rate_model(proto);
    std::string name = row_name(opt, proto);
    bool first = true;
    for (std::size_t j = 0; j < opt.protocols.size(); ++j) {
      if (harness::rate_model(opt.protocols[j]) != model) continue;
      if (j < i) first = false;
      if (j > i) name += std::string{"+"} + transport::to_string(opt.protocols[j]);
    }
    if (first) report(name + "/flow", run_repeated(opt, proto, true));
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

// amrt_sim — command-line front end for the experiment runner
// (harness::run_experiment).
//
// Runs one experiment point — or, with --seeds=N, a parallel sweep over N
// consecutive seeds — and prints one result row per point, so it composes
// with shell loops and plotting scripts:
//
//   amrt_sim --proto=AMRT --workload=DM --load=0.7 --flows=300 --seed=3
//   amrt_sim --proto=pHost --workload=WSc --leaves=10 --spines=8 ...
//            --hosts-per-leaf=40 --link-delay-us=100 --csv
//   amrt_sim --proto=AMRT --seeds=8 --threads=4 --json=sweep.json
//
// All flags are optional; defaults match the laptop-scale leaf-spine used by
// the figure benches. A numeric flag must be a whole number of its type
// (--flows=3x and --flows=-1 are rejected), and harness::validate rejects
// what the harness cannot run; both exit with status 2.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <stdexcept>
#include <string>
#include <type_traits>

#include "harness/options.hpp"
#include "harness/sweep.hpp"
#include "net/topology.hpp"
#include "workload/flow_trace.hpp"

using namespace amrt;

namespace {

void usage() {
  std::puts(
      "amrt_sim [options]\n"
      "  --proto=AMRT|pHost|Homa|NDP|DCTCP   transport under test (default AMRT)\n"
      "  --fidelity=packet|flow|mixed  simulation fidelity (default packet; see\n"
      "                                DESIGN.md §15 — flow runs the fluid fast path,\n"
      "                                mixed keeps foreground flows packet-level)\n"
      "  --flow-background=FRAC        mixed fidelity: fraction of flows (by id)\n"
      "                                simulated fluidly (default 0.5)\n"
      "  --mixed=FRAC                  carry FRAC of flows (by id) on DCTCP background\n"
      "                                senders under an AMRT foreground (requires\n"
      "                                --proto=AMRT)\n"
      "  --workload=WSv|CF|HC|WSc|DM   flow-size distribution (default WSc)\n"
      "  --workload-engine=legacy|skewed|fanout|trace\n"
      "                                traffic engine (default legacy — byte-identical\n"
      "                                to older builds; see DESIGN.md §14)\n"
      "  --pairs=uniform|hotrack|permutation   pair model (skewed engine)\n"
      "  --arrivals=poisson|fixed      arrival model (default poisson)\n"
      "  --hosts-per-rack=N --hot-racks=F --hot-weight=F --locality=F\n"
      "                                hot-rack matrix knobs (skewed engine)\n"
      "  --coflow=F --coflow-width=N   expand F of arrivals into incast groups\n"
      "  --fanout=N --response-bytes=B fan-out engine: N responses per request\n"
      "                                (B=0 draws sizes from the workload CDF)\n"
      "  --trace=PATH                  replay a flow trace (engine=trace)\n"
      "  --trace-out=PATH              dump the generated schedule as a trace\n"
      "                                (single-point runs only)\n"
      "  --validate-trace=PATH         parse and validate a trace file, then exit\n"
      "  --load=X                      offered load fraction (default 0.5)\n"
      "  --flows=N                     number of flows (default 400)\n"
      "  --leaves=N --spines=N --hosts-per-leaf=N   fabric shape (4/4/8)\n"
      "  --link-gbps=N                 link rate (default 10)\n"
      "  --link-delay-us=N             per-link propagation (default 10)\n"
      "  --buffer-pkts=N               switch buffer (default 128)\n"
      "  --overcommit=K                Homa overcommitment degree (default 2)\n"
      "  --spray                       per-packet multipath instead of ECMP\n"
      "  --faults=N                    inject N random bounded fault incidents (link\n"
      "                                flaps, blackhole windows, rate dips; default 0)\n"
      "  --fault-seed=S                seed for the fault schedule (default 1)\n"
      "  --seed=S                      RNG seed (default 1)\n"
      "  --shards=N                    partition the fabric across N shard threads\n"
      "                                (default 1 = serial; excludes --faults and\n"
      "                                --fidelity=flow|mixed; see DESIGN.md §12)\n"
      "  --seeds=N                     sweep seeds S..S+N-1 in parallel (default 1)\n"
      "  --threads=N                   sweep worker threads (0 = one per core)\n"
      "  --json=PATH                   dump sweep results as JSON\n"
      "  --csv                         machine-readable one-line-per-point output\n"
      "  --fct-csv=PATH                dump per-flow completion records (first point)\n");
}

bool match(const std::string& arg, const char* prefix, std::string& value) {
  const std::string p = prefix;
  if (arg.rfind(p, 0) == 0) {
    value = arg.substr(p.size());
    return true;
  }
  return false;
}

// The whole of `v` as a T (harness::parse_whole): trailing characters, a
// sign on an unsigned flag, an out-of-range or a non-finite value throw.
template <class T>
T number(const std::string& v) {
  const std::optional<T> n = harness::parse_whole<T>(v);
  if (!n) throw std::invalid_argument("not a whole number of the flag's type");
  if constexpr (std::is_floating_point_v<T>) {
    if (!std::isfinite(*n)) throw std::invalid_argument("not finite");
  }
  return *n;
}

// A count flag that must be at least 1: zero is rejected, not clamped.
template <class T>
T positive(const std::string& v) {
  const T n = number<T>(v);
  if (n == 0) throw std::invalid_argument("must be at least 1");
  return n;
}

}  // namespace

int main(int argc, char** argv) {
  harness::ExperimentConfig cfg;
  harness::RunSpec& run = cfg.run;
  bool csv = false;
  std::string fct_csv_path;
  std::string json_path;
  std::size_t n_seeds = 1;
  unsigned threads = 0;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    std::string v;
    try {
      if (match(arg, "--proto=", v)) {
        run.proto = transport::protocol_from_string(v);
      } else if (match(arg, "--fidelity=", v)) {
        cfg.fidelity = harness::fidelity_from_string(v);
      } else if (match(arg, "--flow-background=", v)) {
        cfg.flow_background_fraction = number<double>(v);
      } else if (match(arg, "--mixed=", v)) {
        run.background_dctcp_fraction = number<double>(v);
      } else if (match(arg, "--workload=", v)) {
        cfg.workload = workload::kind_from_string(v);
      } else if (match(arg, "--workload-engine=", v)) {
        cfg.engine.engine = workload::engine_from_string(v);
      } else if (match(arg, "--pairs=", v)) {
        cfg.engine.pairs = workload::pair_model_from_string(v);
      } else if (match(arg, "--arrivals=", v)) {
        cfg.engine.arrivals = workload::arrival_model_from_string(v);
      } else if (match(arg, "--hosts-per-rack=", v)) {
        cfg.engine.skew.hosts_per_rack = number<std::size_t>(v);
      } else if (match(arg, "--hot-racks=", v)) {
        cfg.engine.skew.hot_rack_fraction = number<double>(v);
      } else if (match(arg, "--hot-weight=", v)) {
        cfg.engine.skew.hot_weight = number<double>(v);
      } else if (match(arg, "--locality=", v)) {
        cfg.engine.skew.locality = number<double>(v);
      } else if (match(arg, "--coflow=", v)) {
        cfg.engine.coflow_fraction = number<double>(v);
      } else if (match(arg, "--coflow-width=", v)) {
        cfg.engine.coflow_width = number<std::size_t>(v);
      } else if (match(arg, "--fanout=", v)) {
        cfg.engine.fanout = number<std::size_t>(v);
      } else if (match(arg, "--response-bytes=", v)) {
        cfg.engine.response_bytes = number<std::uint64_t>(v);
      } else if (match(arg, "--trace=", v)) {
        cfg.engine.engine = workload::Engine::kTrace;
        cfg.engine.trace_path = v;
      } else if (match(arg, "--trace-out=", v)) {
        cfg.trace_out = v;
      } else if (match(arg, "--validate-trace=", v)) {
        try {
          const auto flows = workload::read_trace_file(v);
          std::printf("%s: ok, %zu flows, last start %s\n", v.c_str(), flows.size(),
                      flows.back().start.str().c_str());
          return 0;
        } catch (const workload::TraceError& e) {
          std::fprintf(stderr, "%s\n", e.what());
          return 1;
        }
      } else if (match(arg, "--load=", v)) {
        cfg.load = number<double>(v);
      } else if (match(arg, "--flows=", v)) {
        cfg.n_flows = number<std::size_t>(v);
      } else if (match(arg, "--leaves=", v)) {
        run.fabric.leaves = number<int>(v);
      } else if (match(arg, "--spines=", v)) {
        run.fabric.spines = number<int>(v);
      } else if (match(arg, "--hosts-per-leaf=", v)) {
        run.fabric.hosts_per_leaf = number<int>(v);
      } else if (match(arg, "--link-gbps=", v)) {
        run.fabric.link_rate = sim::Bandwidth::gbps(number<int>(v));
      } else if (match(arg, "--link-delay-us=", v)) {
        run.fabric.link_delay = sim::Duration::microseconds(number<int>(v));
      } else if (match(arg, "--buffer-pkts=", v)) {
        run.fabric.queues.buffer_pkts = number<std::size_t>(v);
      } else if (match(arg, "--overcommit=", v)) {
        run.transport.homa_overcommit = number<int>(v);
      } else if (match(arg, "--faults=", v)) {
        cfg.fault_incidents = number<std::size_t>(v);
      } else if (match(arg, "--fault-seed=", v)) {
        cfg.fault_seed = number<std::uint64_t>(v);
      } else if (match(arg, "--seed=", v)) {
        run.seed = number<std::uint64_t>(v);
      } else if (match(arg, "--shards=", v)) {
        run.shards = positive<unsigned>(v);
      } else if (match(arg, "--seeds=", v)) {
        n_seeds = positive<std::size_t>(v);
      } else if (match(arg, "--threads=", v)) {
        threads = number<unsigned>(v);
      } else if (match(arg, "--json=", v)) {
        json_path = v;
      } else if (match(arg, "--fct-csv=", v)) {
        fct_csv_path = v;
      } else if (arg == "--spray") {
        run.fabric.multipath = net::MultipathMode::kPacketSpray;
      } else if (arg == "--csv") {
        csv = true;
      } else if (arg == "--help" || arg == "-h") {
        usage();
        return 0;
      } else {
        std::fprintf(stderr, "unknown option: %s\n", arg.c_str());
        usage();
        return 2;
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "bad option %s: %s\n", arg.c_str(), e.what());
      return 2;
    }
  }

  if (!cfg.trace_out.empty() && n_seeds > 1) {
    std::fprintf(stderr, "amrt_sim: --trace-out only supports a single point (drop --seeds)\n");
    return 2;
  }
  try {
    harness::validate(cfg);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "amrt_sim: %s\n", e.what());
    return 2;
  }

  // One point per seed; a single run is just a one-point sweep.
  std::vector<harness::ExperimentConfig> points;
  for (std::size_t s = 0; s < n_seeds; ++s) {
    auto point = cfg;
    point.run.seed = run.seed + s;
    points.push_back(point);
  }

  harness::SweepOptions sopts;
  sopts.threads = threads;
  if (points.size() > 1) {
    sopts.on_progress = [](std::size_t done, std::size_t total) {
      std::fprintf(stderr, "  amrt_sim %zu/%zu\n", done, total);
    };
  }
  harness::SweepRunner runner{sopts};
  const auto results = runner.run(points);

  if (!fct_csv_path.empty()) {
    std::ofstream out{fct_csv_path};
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", fct_csv_path.c_str());
      return 2;
    }
    harness::write_fct_csv(out, results.front().flow_records);
  }
  if (!json_path.empty()) {
    std::ofstream out{json_path};
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 2;
    }
    harness::write_results_json(out, points, results);
  }

  bool all_complete = true;
  for (const auto& r : results) all_complete = all_complete && r.flows_completed == r.flows_started;

  if (csv) {
    std::printf("proto,workload,engine,load,flows,seed,afct_us,p99_us,small_afct_us,large_afct_us,"
                "slowdown,utilization,max_queue,drops,trims,faulted,completed,events,wall_s,"
                "groups,group_p99_us,requests,request_p99_us,incomplete\n");
    for (std::size_t i = 0; i < points.size(); ++i) {
      const auto& p = points[i];
      const auto& r = results[i];
      std::printf(
          "%s,%s,%s,%.2f,%zu,%llu,%.1f,%.1f,%.1f,%.1f,%.2f,%.4f,%zu,%llu,%llu,%llu,%zu,%llu,%.2f,"
          "%zu,%.1f,%zu,%.1f,%zu\n",
          transport::to_string(p.run.proto), workload::abbrev(p.workload),
          workload::to_string(p.engine.engine), p.load, p.n_flows,
          static_cast<unsigned long long>(p.run.seed), r.fct_all.afct_us,
          r.fct_all.p99_us, r.fct_small.afct_us, r.fct_large.afct_us,
          r.fct_all.mean_slowdown, r.mean_utilization, r.max_queue_pkts,
          static_cast<unsigned long long>(r.drops), static_cast<unsigned long long>(r.trims),
          static_cast<unsigned long long>(r.faulted), r.flows_completed,
          static_cast<unsigned long long>(r.events), r.wall_seconds, r.group_stats.groups,
          r.group_stats.p99_us, r.request_stats.groups, r.request_stats.p99_us,
          r.flows_started - r.flows_completed);
    }
    return all_complete ? 0 : 1;
  }

  for (std::size_t i = 0; i < points.size(); ++i) {
    const auto& p = points[i];
    const auto& r = results[i];
    std::printf("%s on %s, load %.2f, %zu flows (seed %llu)\n", transport::to_string(p.run.proto),
                workload::name(p.workload), p.load, p.n_flows,
                static_cast<unsigned long long>(p.run.seed));
    std::printf("  completed:    %zu/%zu flows (%llu drops, %llu trims, %llu faulted)\n",
                r.flows_completed, r.flows_started, static_cast<unsigned long long>(r.drops),
                static_cast<unsigned long long>(r.trims),
                static_cast<unsigned long long>(r.faulted));
    std::printf("  FCT:          avg %.1fus, p99 %.1fus, small %.1fus, large %.1fus, slowdown %.2f\n",
                r.fct_all.afct_us, r.fct_all.p99_us, r.fct_small.afct_us, r.fct_large.afct_us,
                r.fct_all.mean_slowdown);
    if (r.group_stats.groups > 0) {
      std::printf("  groups:       %zu/%zu complete, cct p99 %.1fus, max %.1fus\n",
                  r.group_stats.complete, r.group_stats.groups, r.group_stats.p99_us,
                  r.group_stats.max_us);
    }
    if (r.request_stats.groups > 0) {
      std::printf("  requests:     %zu/%zu complete, p99 %.1fus, max %.1fus\n",
                  r.request_stats.complete, r.request_stats.groups, r.request_stats.p99_us,
                  r.request_stats.max_us);
    }
    if (p.run.background_dctcp_fraction > 0.0) {
      std::printf("  foreground:   AMRT avg %.1fus, p99 %.1fus (%zu flows)\n",
                  r.fct_foreground.afct_us, r.fct_foreground.p99_us, r.fct_foreground.completed);
      std::printf("  background:   DCTCP avg %.1fus, p99 %.1fus (%zu flows)\n",
                  r.fct_background.afct_us, r.fct_background.p99_us, r.fct_background.completed);
    }
    std::printf("  utilization:  %.1f%% (byte-weighted over active downlinks)\n",
                100.0 * r.mean_utilization);
    std::printf("  max queue:    %zu packets\n", r.max_queue_pkts);
    std::printf("  simulated %.3fs in %.2fs wall (%llu events)\n", r.sim_seconds, r.wall_seconds,
                static_cast<unsigned long long>(r.events));
  }
  return all_complete ? 0 : 1;
}

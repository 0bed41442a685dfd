#include "harness/fuzz.hpp"

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <vector>

#include "audit/auditor.hpp"
#include "fault/fault.hpp"
#include "harness/experiment.hpp"
#include "harness/run.hpp"
#include "harness/sweep.hpp"
#include "stats/fct.hpp"
#include "stats/group.hpp"
#include "workload/traffic.hpp"
#include "workload/workloads.hpp"

namespace amrt::harness::fuzz {

namespace {

using transport::Protocol;

// Splitmix-style finalizer: one seed, salted per (topo, protocol), yields
// independent parameter streams so `--seed 7 --topo chain --transport ndp`
// shares nothing with the same seed on another axis.
std::uint64_t mix(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ULL * (salt + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

std::uint64_t case_salt(const CaseConfig& c) {
  return (static_cast<std::uint64_t>(c.topo) << 8) | static_cast<std::uint64_t>(c.proto) |
         (c.mixed ? (1ULL << 16) : 0ULL) | (c.engine ? (1ULL << 17) : 0ULL);
}

struct Fnv {
  std::uint64_t h = 1469598103934665603ULL;  // FNV-1a offset basis
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (i * 8)) & 0xFFu;
      h *= 1099511628211ULL;
    }
  }
};

// Everything a case draws before the simulation starts: the fabric (every
// family's knobs are drawn; c.topo picks one), the traffic, and for mixed
// cases the fraction of flows (by id residue) that run DCTCP. Engine cases
// also draw a traffic-engine spec; the default is the legacy engine, which
// generates draw-for-draw like the original generator. run_case fills in
// the rest of the run.
ExperimentConfig draw_params(const CaseConfig& c, sim::Rng& rng) {
  ExperimentConfig p;
  FabricSpec& f = p.run.fabric;
  f.leaves = static_cast<int>(rng.uniform_int(2, 3));
  f.spines = static_cast<int>(rng.uniform_int(1, 2));
  f.hosts_per_leaf = static_cast<int>(rng.uniform_int(2, 4));
  const auto left_hosts = static_cast<std::size_t>(rng.uniform_int(2, 5));
  const auto right_hosts = static_cast<std::size_t>(rng.uniform_int(2, 5));
  const auto chain_switches = static_cast<int>(rng.uniform_int(2, 4));
  const auto hosts_per_switch = static_cast<int>(rng.uniform_int(1, 2));
  switch (c.topo) {
    case Topo::kLeafSpine:
      f.topology = Topology::kLeafSpine;
      break;
    case Topo::kFatTree:
      f.topology = Topology::kFatTree;
      break;
    case Topo::kDumbbell:
      f.topology = Topology::kLine;
      f.switches = 2;
      f.host_switch.assign(left_hosts, 0);
      f.host_switch.resize(left_hosts + right_hosts, 1);
      break;
    case Topo::kChain:
      f.topology = Topology::kLine;
      f.switches = chain_switches;
      for (int s = 0; s < chain_switches; ++s) {
        for (int h = 0; h < hosts_per_switch; ++h) f.host_switch.push_back(s);
      }
      break;
  }

  static constexpr int kRates[] = {10, 25, 40};
  f.link_rate = sim::Bandwidth::gbps(kRates[rng.index(3)]);
  f.link_delay = sim::Duration::microseconds(rng.uniform_int(1, 50));

  static constexpr std::size_t kBuffers[] = {8, 16, 32, 64, 128};
  f.queues.buffer_pkts = kBuffers[rng.index(5)];
  static constexpr std::size_t kTrim[] = {4, 8, 16};
  f.queues.trim_threshold = kTrim[rng.index(3)];
  // AMRT's selective-drop discipline is an orthogonal switch feature; flip
  // it per case so both admission paths get fuzzed.
  f.queues.selective_drop = c.proto == Protocol::kAmrt && rng.bernoulli(0.5);

  p.workload = workload::kAllKinds[rng.index(workload::kAllKinds.size())];
  p.load = rng.uniform(0.3, 0.8);
  p.n_flows = static_cast<std::size_t>(rng.uniform_int(8, 40));
  // Drawn last so the older topologies' parameter streams are unchanged.
  f.fat_k = rng.bernoulli(0.5) ? 6 : 4;
  // Mixed-only draw, strictly after every single-transport draw: non-mixed
  // cases consume exactly the old stream.
  if (c.mixed) p.run.background_dctcp_fraction = rng.uniform(0.2, 0.7);
  // Engine-only draws, strictly after everything above (including the mixed
  // draw): non-engine cases consume exactly the old stream.
  if (c.engine) {
    if (rng.bernoulli(0.5)) {
      p.engine.engine = workload::Engine::kSkewed;
      p.engine.pairs = rng.bernoulli(0.5) ? workload::PairModel::kHotRack
                                          : workload::PairModel::kPermutation;
      p.engine.arrivals = rng.bernoulli(0.5) ? workload::ArrivalModel::kPoisson
                                             : workload::ArrivalModel::kFixedRate;
      p.engine.skew.hosts_per_rack = static_cast<std::size_t>(rng.uniform_int(2, 4));
      p.engine.skew.hot_rack_fraction = rng.uniform(0.2, 0.6);
      p.engine.skew.hot_weight = rng.uniform(0.5, 0.9);
      p.engine.skew.locality = rng.uniform(0.1, 0.5);
      if (rng.bernoulli(0.5)) {
        p.engine.coflow_fraction = rng.uniform(0.1, 0.4);
        p.engine.coflow_width = static_cast<std::size_t>(rng.uniform_int(2, 4));
      }
    } else {
      p.engine.engine = workload::Engine::kFanout;
      p.engine.fanout = static_cast<std::size_t>(rng.uniform_int(2, 6));
      p.engine.response_bytes = rng.bernoulli(0.5) ? rng.uniform_int(2'000, 40'000) : 0;
    }
  }
  return p;
}

// Draws a bounded fault schedule against the built fabric's switch egress
// ports. Called after the build with the same parameter stream, so these
// draws sit strictly after every pre-existing one (replay contract: cases
// with faults off consume exactly the old stream). All windows are bounded
// multiples of the topology's base RTT — long enough to force every
// backstop in DESIGN.md §11, short enough that completion stays provable.
fault::FaultPlan draw_fault_plan(const CaseConfig& c, const net::Network& network,
                                 sim::Duration base_rtt, sim::Rng& rng) {
  fault::FaultPlan plan;
  plan.seed = mix(c.seed, case_salt(c) ^ 0xFA17ULL);
  // Only switch-owned egress ports fault (the FCT floor oracle assumes the
  // sender serializes at its configured rate at least once).
  const std::vector<net::PortId> eligible = fault::switch_ports(network);
  if (eligible.empty()) return plan;

  const auto incidents = rng.uniform_int(1, 4);
  plan.draw(rng, eligible, base_rtt, incidents);
  return plan;
}

// Livelock valve: typical cases finish in well under 10^5 events, and the
// worst observed legitimate case (deep loss recovery with 8-packet buffers
// under timeout backoff) converges around 6x10^6, so an order of magnitude
// above that separates "slow recovery" from a genuinely stuck event loop,
// which is reported as a failure instead of hanging the fuzzer.
constexpr std::uint64_t kEventLimit = 50'000'000;

// Oracles 1-4 plus the replay fingerprint, for serial and partitioned runs
// alike (a sharded run's recorder is the merged one and its master auditor
// holds the folded cross-shard ledger). Expects r.flows / r.completed /
// r.events / r.faulted to be set already.
void check_oracles(CaseResult& r, PacketRun& run, const FabricSpec& fabric) {
  const stats::FctRecorder& recorder = run.recorder();
  net::Network& network = run.network();
  auto fail = [&r](std::string why) {
    if (r.ok) {
      r.ok = false;
      r.failure = std::move(why);
    }
  };

  // Oracle 1: completion (an event-limit hit shows up here as livelock).
  if (r.completed < r.flows) {
    fail("incomplete: " + std::to_string(r.flows - r.completed) + " of " +
         std::to_string(r.flows) + " flows unfinished" +
         (r.events >= kEventLimit ? " (event limit hit)" : ""));
  }
  // Oracle 2: physics. Payload must serialize through the sender NIC and
  // cross at least one propagation delay; queueing/loss only adds to that.
  for (const auto& rec : recorder.completed()) {
    const sim::Duration floor =
        fabric.link_rate.tx_time(static_cast<std::int64_t>(rec.bytes)) + fabric.link_delay;
    if (rec.fct() < floor) {
      fail("fct below serialization floor: flow " + std::to_string(rec.flow) + " fct " +
           rec.fct().str() + " < " + floor.str());
      break;
    }
  }

  // Oracle 3: queue accounting at drain, on every switch port and host NIC.
  auto check_queue = [&](const net::EgressQueue& q, const std::string& where) {
    const auto& st = q.stats();
    if (q.total_pkts() != 0) {
      fail(where + ": " + std::to_string(q.total_pkts()) + " packets stranded after drain");
    } else if (st.enqueued != st.dequeued + st.dropped) {
      fail(where + ": stats identity broken: enqueued " + std::to_string(st.enqueued) +
           " != dequeued " + std::to_string(st.dequeued) + " + dropped " +
           std::to_string(st.dropped));
    }
    r.drops += st.dropped;
    r.trims += st.trimmed;
  };
  for (const auto& sw : network.switches()) {
    for (int i = 0; i < sw.port_count(); ++i) {
      check_queue(sw.port(i).queue(), network.label(sw.id()) + " port " + std::to_string(i));
    }
  }
  for (net::Host* host : run.hosts()) {
    check_queue(host->nic().queue(), network.label(host->id()) + " nic");
  }

  // Oracle 4 (audit builds; all calls are no-op stubs otherwise): the
  // conservation ledger must be drained and nothing may have tripped.
  audit::Auditor& auditor = run.auditor();
  auditor.check_drained();
  r.audit_violations = auditor.violation_count();
  if (r.audit_violations != 0) {
    fail("audit: " + auditor.violations().front());
  }

  // Fingerprint, for replay/parallel bit-identity checks.
  Fnv fnv;
  fnv.add(r.flows);
  for (const auto& rec : recorder.completed()) {
    fnv.add(rec.flow);
    fnv.add(rec.bytes);
    fnv.add(static_cast<std::uint64_t>(rec.start.ns()));
    fnv.add(static_cast<std::uint64_t>(rec.end.ns()));
  }
  fnv.add(r.drops);
  fnv.add(r.trims);
  fnv.add(r.events);
  fnv.add(r.faulted);
  r.hash = fnv.h;
}

// Oracle 5 (engine cases): group accounting. If every flow completed, every
// coflow group and every fan-out request must be complete in the GroupBook —
// a mismatch means membership bookkeeping lost or double-counted a member.
void check_group_oracle(CaseResult& r, const std::vector<workload::GeneratedFlow>& flows,
                        const stats::FctRecorder& recorder) {
  stats::GroupBook book;
  for (const auto& f : flows) book.note(f.id, f.group_id, f.request_id);
  if (book.empty() || r.completed < r.flows) return;
  const stats::GroupStats gs = book.group_stats(recorder.completed());
  const stats::GroupStats qs = book.request_stats(recorder.completed());
  auto fail = [&r](std::string why) {
    if (r.ok) {
      r.ok = false;
      r.failure = std::move(why);
    }
  };
  if (gs.complete != gs.groups) {
    fail("group accounting: " + std::to_string(gs.complete) + " of " + std::to_string(gs.groups) +
         " groups complete though every flow finished");
  }
  if (qs.complete != qs.groups) {
    fail("request accounting: " + std::to_string(qs.complete) + " of " + std::to_string(qs.groups) +
         " requests complete though every flow finished");
  }
}

}  // namespace

const char* to_string(Topo t) {
  switch (t) {
    case Topo::kLeafSpine:
      return "leafspine";
    case Topo::kDumbbell:
      return "dumbbell";
    case Topo::kChain:
      return "chain";
    case Topo::kFatTree:
      return "fattree";
  }
  return "?";
}

Topo topo_from_string(const std::string& s) {
  if (s == "leafspine" || s == "leaf-spine" || s == "ls") return Topo::kLeafSpine;
  if (s == "dumbbell" || s == "db") return Topo::kDumbbell;
  if (s == "chain") return Topo::kChain;
  if (s == "fattree" || s == "fat-tree" || s == "ft") return Topo::kFatTree;
  throw std::invalid_argument("unknown topology: " + s);
}

std::string repro_line(const CaseConfig& c) {
  return std::string{"scenario_fuzz --seed "} + std::to_string(c.seed) + " --topo " +
         to_string(c.topo) + " --transport " + transport::to_string(c.proto) +
         (c.faults ? " --faults" : "") +
         (c.shards > 1 ? " --shards " + std::to_string(c.shards) : "") +
         (c.mixed ? " --mixed" : "") + (c.engine ? " --workload-engine" : "");
}

CaseResult run_case(const CaseConfig& c) {
  // A fail-fast audit abort anywhere below prints this line.
  audit::set_context(repro_line(c));

  if (c.mixed && c.proto != Protocol::kAmrt) {
    throw std::invalid_argument("fuzz: --mixed requires --transport AMRT "
                                "(the foreground transport is fixed; DCTCP rides as background)");
  }
  if (c.shards > 1 && c.faults) {
    throw std::invalid_argument("fuzz: --faults and --shards are mutually exclusive "
                                "(fault injection mutates link state serially)");
  }

  sim::Rng draw{mix(c.seed, case_salt(c))};
  ExperimentConfig cfg = draw_params(c, draw);

  // No samplers and no horizon: once the last flow completes, recovery
  // timers cancel and the event set empties, so the run returns at drain
  // (or at the livelock valve).
  RunSpec& spec = cfg.run;
  spec.proto = c.proto;
  spec.seed = mix(c.seed, case_salt(c) ^ 0xA5A5ULL);
  spec.shards = c.shards;
  spec.horizon = sim::TimePoint::max();
  spec.event_limit = kEventLimit;
  spec.audit_context = repro_line(c);
  const auto flows = draw_schedule(cfg);

  PacketRun run{spec, flows};
  // Fault schedule: drawn after the topology (it needs the built port pool),
  // armed before the run. The injector owns the plan the scheduled
  // callbacks read, so it must outlive run.run() below.
  std::unique_ptr<fault::FaultInjector> injector;
  if (c.faults) {
    injector = std::make_unique<fault::FaultInjector>(
        run.network(), draw_fault_plan(c, run.network(), run.base_rtt(), draw));
    injector->arm();
  }
  run.run();

  CaseResult r;
  r.flows = flows.size();
  r.completed = run.recorder().completed().size();
  r.events = run.events();
  r.faulted = run.network().packets_faulted();
  check_oracles(r, run, spec.fabric);
  check_group_oracle(r, flows, run.recorder());
  return r;
}

FuzzReport run_fuzz(const FuzzOptions& opts) {
  std::vector<CaseConfig> cases;
  cases.reserve(opts.topos.size() * opts.protocols.size() * opts.seeds);
  for (const Topo topo : opts.topos) {
    // Partitioned sweeps cover only the topologies that have a pod/leaf cut;
    // the tiny dumbbell/chain fabrics are silently skipped rather than
    // forcing every caller to trim the default topology list.
    if (opts.shards > 1 && topo != Topo::kFatTree && topo != Topo::kLeafSpine) continue;
    for (const Protocol proto : opts.protocols) {
      // Mixed sweeps fix the foreground transport: only the AMRT axis runs.
      if (opts.mixed && proto != Protocol::kAmrt) continue;
      for (std::uint64_t s = 0; s < opts.seeds; ++s) {
        cases.push_back(CaseConfig{opts.first_seed + s, topo, proto, opts.faults, opts.shards,
                                   opts.mixed, opts.engine});
      }
    }
  }

  SweepOptions sweep_opts;
  sweep_opts.threads = opts.threads;
  SweepRunner runner{sweep_opts};
  const auto results = runner.map_points(cases, [](const CaseConfig& c) { return run_case(c); });

  FuzzReport report;
  report.cases = cases.size();
  for (std::size_t i = 0; i < cases.size(); ++i) {
    if (opts.on_case) opts.on_case(cases[i], results[i]);
    if (!results[i].ok) {
      ++report.failures;
      report.failure_lines.push_back(repro_line(cases[i]) + "  # " + results[i].failure);
    }
  }
  return report;
}

}  // namespace amrt::harness::fuzz

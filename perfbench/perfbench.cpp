// perfbench: complete runs of one benchmark workload, one after another.
//
//   perfbench --workload NAME --seed N [--runs K | --seconds S]
//             [--trace] [--trace-out PATH]
//   perfbench --context
//
// The process first runs input N once as a warm-up, so that the timed runs
// find the allocator's heap grown and the caches filled, as every point of a
// seed sweep after the first does. It then makes K timed runs of input N
// (default 1), or, with --seconds, timed runs of inputs N, N + 1, ... as long
// as they start within S seconds of the process start (at least one).
//
// Each workload is assembled here from the layers' public APIs (topology
// construction, core factories, the traffic engine, the scheduler, the stats
// recorder and group book, the fluid FlowSim, the sharded scenario). The
// seed only feeds the traffic engine and the simulation's own stream, so the
// simulation receives nothing but the generated schedule. Every run prints
// one JSON object on stdout: phase timings, CPU time, peak RSS, the output
// checks, a digest of the flow records and the simulated outcomes. With
// --trace the layer boundaries are wrapped (tracing.hpp), the serial event
// loop is driven in fixed simulated-time slices (the heartbeat), and the
// per-layer figures are added; --trace-out also writes the last run's span
// histograms and heartbeat timeline as JSON. run.py drives this binary and
// turns the raw figures into the benchmark's metrics.
#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/factory.hpp"
#include "flowsim/fabric.hpp"
#include "flowsim/flowsim.hpp"
#include "harness/experiment.hpp"
#include "harness/sharded.hpp"
#include "net/partition.hpp"
#include "net/topology.hpp"
#include "sim/shard.hpp"
#include "sim/simulation.hpp"
#include "stats/fct.hpp"
#include "stats/group.hpp"
#include "tracing.hpp"
#include "transport/endpoint.hpp"
#include "workload/traffic.hpp"
#include "workload/workloads.hpp"

using namespace amrt;
using perfbench::now_ns;
using perfbench::SpanStats;

namespace {

// --- workload definitions -----------------------------------------------------

enum class Mode { kSerial, kSharded, kFluid };

struct Workload {
  const char* name;
  Mode mode;
  bool fat_tree;  // else the leaf-spine fan-out fabric
  std::size_t flows;
  double load;
  // Nonzero: offer only the schedule's prefix that first reaches this many
  // payload bytes. A packet run's work scales with bytes, and the bytes of a
  // few hundred web-search flows swing by tens of percent with the seed as
  // the 30 MB tail is drawn or missed; a fixed volume keeps runs comparable.
  std::uint64_t byte_budget;
};

// Sizes are set so one run takes about a second on a 4-core x86 VM;
// README.md gives the reasoning and the measured figures.
constexpr int kFatTreeK = 16;           // 1024 hosts, 320 switches
constexpr unsigned kShards = 2;
constexpr int kLeaves = 8;              // fan-out fabric: 8 x 4 x 16 = 128 hosts
constexpr int kSpines = 4;
constexpr int kHostsPerLeaf = 16;
constexpr std::size_t kFanout = 16;     // responses per front-end request
constexpr std::uint64_t kResponseBytes = 20'000;
constexpr double kBackgroundFraction = 0.3;  // DCTCP share of the fan-out flows
constexpr sim::Duration kLeafSpineDelay = sim::Duration::microseconds(10);
constexpr sim::Duration kHeartbeatSlice = sim::Duration::milliseconds(1);
constexpr std::uint64_t kEventLimit = 1'000'000'000;  // runaway valve

// About 200 flows; the 600 generated reach it on any seed.
constexpr std::uint64_t kWebsearchBytes = 225'000'000;

constexpr Workload kWorkloads[] = {
    {"websearch_k16", Mode::kSerial, true, 600, 0.5, kWebsearchBytes},
    {"fanout_mixed", Mode::kSerial, false, 2'000 * kFanout, 0.1, 0},
    {"fluid_k16", Mode::kFluid, true, 1'000, 0.5, 0},
    // Not a gated workload: run.py traces it beside websearch_k16 for shard.*.
    {"websearch_k16_sharded", Mode::kSharded, true, 600, 0.5, kWebsearchBytes},
};

bool is_background(net::FlowId id) { return harness::is_background_flow(id, kBackgroundFraction); }

// --- results --------------------------------------------------------------------

double seconds_since(std::int64_t t0) { return static_cast<double>(now_ns() - t0) * 1e-9; }

struct HeartbeatSlice {
  double sim_ms = 0;
  double wall_ms = 0;
  std::uint64_t events = 0;
  std::size_t flows_done = 0;
  std::size_t pending = 0;
};

// Everything one run reports. Phase times are seconds of wall time.
struct Result {
  std::vector<std::pair<std::string, double>> phases;  // setup phases, in order
  double setup_s = 0;
  double run_s = 0;
  double collect_s = 0;
  double wall_s = 0;
  double cpu_s = 0;
  double peak_rss_mb = 0;

  std::size_t flows_offered = 0;
  std::size_t flows_completed = 0;
  std::uint64_t bytes_offered = 0;
  std::uint64_t bytes_delivered = 0;
  std::uint64_t digest = 0;
  double afct_us = 0;
  double p99_fct_us = 0;
  double req_p99_us = 0;
  double sim_seconds = 0;
  std::vector<std::string> errors;

  // Traced runs only.
  std::vector<std::pair<std::string, double>> layer;
  std::vector<std::pair<std::string, SpanStats>> spans;
  std::vector<HeartbeatSlice> heartbeat;
};

double ratio(double a, double b) { return b == 0 ? 0.0 : a / b; }

// Returns fn(), recording its wall time as the named phase.
template <typename F>
auto timed_phase(Result& r, const char* name, F&& fn) {
  const std::int64_t t0 = now_ns();
  auto out = fn();
  r.phases.emplace_back(name, seconds_since(t0));
  return out;
}

// --- shared steps -------------------------------------------------------------

struct Schedule {
  std::vector<workload::GeneratedFlow> flows;
  stats::GroupBook book;
};

Schedule generate(const Workload& w, std::size_t n_hosts, sim::Rng& rng, Result& r) {
  Schedule s;
  workload::WorkloadSpec spec;
  if (!w.fat_tree) {
    spec.engine = workload::Engine::kFanout;
    spec.fanout = kFanout;
    spec.response_bytes = kResponseBytes;
  }
  workload::TrafficConfig traffic;
  traffic.load = w.load;
  traffic.n_flows = w.flows;
  traffic.n_hosts = n_hosts;
  traffic.host_rate = sim::Bandwidth::gbps(10);
  s.flows = timed_phase(r, "workload.generate", [&] {
    return workload::generate_traffic(spec, &workload::cdf(workload::Kind::kWebSearch), traffic,
                                      rng);
  });
  // Flows are sorted by start with ids 1..n, so a prefix keeps both.
  std::size_t n = 0;
  while (n < s.flows.size() && (w.byte_budget == 0 || r.bytes_offered < w.byte_budget)) {
    r.bytes_offered += s.flows[n].bytes;
    s.book.note(s.flows[n].id, s.flows[n].group_id, s.flows[n].request_id);
    ++n;
  }
  s.flows.resize(n);
  r.flows_offered = n;
  return s;
}

// Output checks and the record digest, over the run's completed records.
void collect(const Schedule& sched, const stats::FctRecorder& rec, Result& r) {
  const std::int64_t t0 = now_ns();
  const stats::FctSummary sum = rec.summarize();
  r.afct_us = sum.afct_us;
  r.p99_fct_us = sum.p99_us;
  std::vector<stats::FlowRecord> records = rec.completed();
  if (!sched.book.empty()) {
    const stats::GroupStats req = sched.book.request_stats(records);
    r.req_p99_us = req.p99_us;
    if (req.complete != req.groups) {
      r.errors.push_back(std::to_string(req.groups - req.complete) + " of " +
                         std::to_string(req.groups) + " requests incomplete");
    }
  }
  r.phases.emplace_back("stats.summarize", seconds_since(t0));

  r.flows_completed = records.size();
  r.bytes_delivered = rec.bytes_delivered();
  if (r.flows_completed != r.flows_offered || rec.incomplete_count() != 0) {
    r.errors.push_back("completed " + std::to_string(r.flows_completed) + " of " +
                       std::to_string(r.flows_offered) + " flows");
  }
  if (r.bytes_delivered != r.bytes_offered) {
    r.errors.push_back("delivered " + std::to_string(r.bytes_delivered) + " payload bytes of " +
                       std::to_string(r.bytes_offered) + " offered");
  }

  // Flow ids are 1..n (TrafficEngine's contract): every record must match
  // its scheduled size, once, and end after it starts.
  std::sort(records.begin(), records.end(),
            [](const stats::FlowRecord& a, const stats::FlowRecord& b) { return a.flow < b.flow; });
  std::uint64_t h = 1469598103934665603ULL;  // FNV-1a over (flow, start, end)
  auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffU;
      h *= 1099511628211ULL;
    }
  };
  std::uint64_t prev = 0;
  std::size_t bad = 0;
  for (const auto& rc : records) {
    const bool ok = rc.flow > prev && rc.flow <= sched.flows.size() &&
                    sched.flows[rc.flow - 1].bytes == rc.bytes && rc.end >= rc.start;
    bad += ok ? 0 : 1;
    prev = rc.flow;
    mix(rc.flow);
    mix(static_cast<std::uint64_t>(rc.start.ns()));
    mix(static_cast<std::uint64_t>(rc.end.ns()));
    r.sim_seconds = std::max(r.sim_seconds, rc.end.to_seconds());
  }
  if (bad != 0) r.errors.push_back(std::to_string(bad) + " flow records disagree with the schedule");
  r.digest = h;
  r.collect_s = seconds_since(t0);
}

// Switch-queue counters, read after the run.
void add_net_layer(const net::Network& network, std::uint64_t ctrl_pkts, Result& r) {
  std::uint64_t sent = 0;
  std::uint64_t enq = 0;
  std::uint64_t drops = 0;
  std::size_t max_q = 0;
  for (const auto& sw : network.switches()) {
    for (int p = 0; p < sw.port_count(); ++p) {
      const net::EgressPort& port = sw.port(p);
      const net::QueueStats& st = port.queue().stats();
      sent += port.packets_sent();
      enq += st.enqueued;
      drops += st.dropped;
      max_q = std::max(max_q, st.max_data_pkts);
    }
  }
  r.layer.emplace_back("net.pkts_forwarded", static_cast<double>(sent));
  r.layer.emplace_back("net.ctrl_share", ratio(static_cast<double>(ctrl_pkts),
                                               static_cast<double>(sent)));
  r.layer.emplace_back("net.drop_ratio", ratio(static_cast<double>(drops),
                                               static_cast<double>(enq)));
  r.layer.emplace_back("net.max_queue_pkts", static_cast<double>(max_q));
}

// --- packet runs (serial and sharded) ------------------------------------------

// The traced run's wrappers, registered as the fabric is built.
struct PacketTracer {
  std::vector<perfbench::TracingMarker*> markers;
  std::vector<perfbench::TracingEndpoint*> endpoints;
  std::vector<std::unique_ptr<perfbench::TracingObserver>> observers;

  net::MarkerFactory wrap(net::MarkerFactory inner) {
    return [this, inner = std::move(inner)]() -> std::unique_ptr<net::DequeueMarker> {
      auto m = std::make_unique<perfbench::TracingMarker>(inner());
      markers.push_back(m.get());
      return m;
    };
  }
  stats::FlowObserver* wrap(stats::FlowObserver& inner) {
    observers.push_back(std::make_unique<perfbench::TracingObserver>(inner));
    return observers.back().get();
  }
};

stats::FlowObserver* observer_for(PacketTracer* tracer, stats::FlowObserver& recorder) {
  return tracer != nullptr ? tracer->wrap(recorder) : &recorder;
}

// A built packet fabric, whichever topology it is.
struct Fabric {
  std::vector<net::Host*> hosts;
  sim::Duration base_rtt;
  std::optional<net::FatTree> fat_tree;  // kept for partitioning
};

Fabric build_fabric(const Workload& w, net::Network& network, PacketTracer* tracer, Result& r) {
  return timed_phase(r, "net.build", [&] {
    Fabric f;
    if (w.fat_tree) {
      net::FatTreeConfig cfg;
      cfg.k = kFatTreeK;
      cfg.queue_factory = core::make_queue_factory(transport::Protocol::kAmrt);
      cfg.marker_factory = core::make_marker_factory(transport::Protocol::kAmrt);
      if (tracer != nullptr) cfg.marker_factory = tracer->wrap(std::move(cfg.marker_factory));
      net::FatTree topo = net::build_fat_tree(network, cfg);
      f.hosts = topo.hosts;
      f.base_rtt = topo.base_rtt;
      f.fat_tree = std::move(topo);
    } else {
      net::LeafSpineConfig cfg;
      cfg.leaves = kLeaves;
      cfg.spines = kSpines;
      cfg.hosts_per_leaf = kHostsPerLeaf;
      cfg.link_delay = kLeafSpineDelay;
      cfg.queue_factory = core::make_mixed_queue_factory();
      cfg.marker_factory = core::make_mixed_marker_factory();
      if (tracer != nullptr) cfg.marker_factory = tracer->wrap(std::move(cfg.marker_factory));
      const net::LeafSpine topo = net::build_leaf_spine(network, cfg);
      f.hosts = topo.hosts;
      f.base_rtt = topo.base_rtt;
    }
    return f;
  });
}

// Builds one endpoint per host (AMRT, or the AMRT+DCTCP mixed endpoint on
// the fan-out fabric) and returns the per-host flow starters.
std::vector<std::function<void(const transport::FlowSpec&)>> attach_endpoints(
    const Workload& w, const Fabric& fabric, PacketTracer* tracer,
    const std::function<sim::Simulation&(net::NodeId)>& sim_of,
    const std::function<stats::FlowObserver*(net::NodeId)>& observer_of, Result& r) {
  return timed_phase(r, "transport.endpoints", [&] {
    transport::TransportConfig tcfg;
    tcfg.host_rate = sim::Bandwidth::gbps(10);
    tcfg.base_rtt = fabric.base_rtt;
    std::vector<std::function<void(const transport::FlowSpec&)>> starters;
    starters.reserve(fabric.hosts.size());
    for (net::Host* host : fabric.hosts) {
      sim::Simulation& simu = sim_of(host->id());
      stats::FlowObserver* obs = observer_of(host->id());
      auto ep = w.fat_tree ? core::make_endpoint(transport::Protocol::kAmrt, simu, *host, tcfg, obs)
                           : core::make_mixed_endpoint(simu, *host, tcfg, obs, is_background);
      if (tracer != nullptr) {
        auto traced = std::make_unique<perfbench::TracingEndpoint>(std::move(ep));
        perfbench::TracingEndpoint* t = traced.get();
        tracer->endpoints.push_back(t);
        starters.emplace_back([t](const transport::FlowSpec& s) { t->start_flow(s); });
        host->attach(std::move(traced));
      } else {
        transport::TransportEndpoint* e = ep.get();
        starters.emplace_back([e](const transport::FlowSpec& s) { e->start_flow(s); });
        host->attach(std::move(ep));
      }
    }
    return starters;
  });
}

// Schedules every flow start on its sender's scheduler.
void schedule_starts(const Schedule& sched, const Fabric& fabric,
                     const std::vector<std::function<void(const transport::FlowSpec&)>>& starters,
                     const std::function<sim::Scheduler&(net::NodeId)>& sched_of, Result& r) {
  const std::int64_t t0 = now_ns();
  for (const auto& f : sched.flows) {
    const transport::FlowSpec spec{f.id, fabric.hosts[f.src_host]->id(),
                                   fabric.hosts[f.dst_host]->id(), f.bytes, f.start};
    const auto* start = &starters[f.src_host];
    sched_of(spec.src).at(f.start, [start, spec] { (*start)(spec); });
  }
  r.phases.emplace_back("sim.schedule", seconds_since(t0));
}

// Per-layer figures of a traced packet run. `loop_ns` is the event loop's
// wall time summed over threads; its self time excludes the spans below it.
void add_packet_layers(const PacketTracer& t, const net::Network& network,
                       const Schedule& sched, std::uint64_t events, double loop_ns,
                       Result& r) {
  perfbench::MarkerCounts mk;
  for (const auto* m : t.markers) mk.merge(m->counts());
  perfbench::EndpointCounts ep;
  for (const auto* e : t.endpoints) ep.merge(e->counts());
  SpanStats obs_all;
  SpanStats obs_top;
  for (const auto& o : t.observers) {
    obs_all.merge(o->all());
    obs_top.merge(o->top_level());
  }
  const double self_ns = loop_ns - static_cast<double>(ep.deliver.total_ns) -
                         static_cast<double>(ep.start_flow.total_ns) -
                         static_cast<double>(mk.span.total_ns) -
                         static_cast<double>(obs_top.total_ns);
  std::uint64_t needed = 0;
  for (const auto& f : sched.flows) needed += net::packets_for_bytes(f.bytes);

  r.layer.emplace_back("sim.events", static_cast<double>(events));
  r.layer.emplace_back("sim.ns_per_event", ratio(self_ns, static_cast<double>(events)));
  add_net_layer(network, mk.ctrl_pkts, r);
  r.layer.emplace_back("core.marker_calls", static_cast<double>(mk.span.count));
  r.layer.emplace_back("core.marker_ns", mk.span.mean_ns());
  r.layer.emplace_back("core.antiecn_keep_ratio",
                       ratio(static_cast<double>(mk.anti_kept), static_cast<double>(mk.anti_seen)));
  r.layer.emplace_back("core.threshold_mark_ratio",
                       ratio(static_cast<double>(mk.thresh_marked),
                             static_cast<double>(mk.thresh_seen)));
  r.layer.emplace_back("transport.rx_data", static_cast<double>(ep.rx_data));
  r.layer.emplace_back("transport.rx_ctrl", static_cast<double>(ep.rx_ctrl));
  r.layer.emplace_back("transport.deliver_ns", ep.deliver.mean_ns());
  r.layer.emplace_back("transport.start_flow_ns", ep.start_flow.mean_ns());
  r.layer.emplace_back("transport.rtx_ratio",
                       ratio(static_cast<double>(ep.rx_data), static_cast<double>(needed)));
  r.layer.emplace_back("stats.observer_ns", obs_all.mean_ns());
  r.spans = {{"core.marker", mk.span},
             {"transport.deliver", ep.deliver},
             {"transport.start_flow", ep.start_flow},
             {"stats.observer", obs_all},
             {"stats.observer_top_level", obs_top}};
}

void run_serial(const Workload& w, std::uint64_t seed, bool traced, Result& r) {
  const auto tracer = traced ? std::make_unique<PacketTracer>() : nullptr;
  PacketTracer* tp = tracer.get();
  const std::int64_t t0 = now_ns();

  sim::Simulation simu{seed};
  sim::Scheduler& sched = simu.scheduler();
  sched.set_event_limit(kEventLimit);
  net::Network network{simu};
  const Fabric fabric = build_fabric(w, network, tp, r);

  stats::FctRecorder recorder{sim::Bandwidth::gbps(10), fabric.base_rtt};
  stats::FlowObserver* obs = observer_for(tp, recorder);
  const auto starters = attach_endpoints(
      w, fabric, tp, [&](net::NodeId) -> sim::Simulation& { return simu; },
      [&](net::NodeId) { return obs; }, r);
  const Schedule s = generate(w, fabric.hosts.size(), simu.rng(), r);
  schedule_starts(s, fabric, starters, [&](net::NodeId) -> sim::Scheduler& { return sched; }, r);
  r.setup_s = seconds_since(t0);

  const std::int64_t run0 = now_ns();
  if (!traced) {
    sched.run();
  } else {
    // Heartbeat: the same event sequence in fixed simulated-time slices.
    sim::TimePoint until = sim::TimePoint::zero();
    while (!sched.idle() && sched.events_processed() < kEventLimit) {
      until = until + kHeartbeatSlice;
      const std::int64_t s0 = now_ns();
      const std::uint64_t e0 = sched.events_processed();
      sched.run_until(until);
      r.heartbeat.push_back({until.to_millis(), static_cast<double>(now_ns() - s0) * 1e-6,
                             sched.events_processed() - e0, recorder.completed().size(),
                             sched.pending_events()});
    }
  }
  r.run_s = seconds_since(run0);
  if (sched.events_processed() >= kEventLimit) r.errors.push_back("event limit hit");

  collect(s, recorder, r);
  r.wall_s = seconds_since(t0);

  if (tp != nullptr) {
    add_packet_layers(*tp, network, s, sched.events_processed(), r.run_s * 1e9, r);
    std::size_t pending_max = 0;
    for (const auto& h : r.heartbeat) pending_max = std::max(pending_max, h.pending);
    r.layer.emplace_back("sim.pending_events_max", static_cast<double>(pending_max));
  }
}

void run_sharded(const Workload& w, std::uint64_t seed, bool traced, Result& r) {
  const auto tracer = traced ? std::make_unique<PacketTracer>() : nullptr;
  PacketTracer* tp = tracer.get();
  const std::int64_t t0 = now_ns();

  sim::ShardGroup group{seed, kShards};
  net::Network network{group.master()};
  const Fabric fabric = build_fabric(w, network, tp, r);
  net::Partition part = timed_phase(r, "shard.partition", [&] {
    return net::partition_fat_tree(network, *fabric.fat_tree, kShards);
  });
  harness::ShardedScenario scen{group, network, std::move(part), sim::Bandwidth::gbps(10),
                                fabric.base_rtt};
  // One observer per shard recorder: its callbacks fire on that shard's thread.
  std::vector<stats::FlowObserver*> shard_obs(kShards, nullptr);
  for (net::Host* h : fabric.hosts) {
    stats::FlowObserver*& o = shard_obs[scen.shard_of(h->id())];
    if (o == nullptr) o = observer_for(tp, scen.recorder_of(h->id()));
  }
  const auto starters = attach_endpoints(
      w, fabric, tp, [&](net::NodeId id) -> sim::Simulation& { return scen.sim_of(id); },
      [&](net::NodeId id) { return shard_obs[scen.shard_of(id)]; }, r);
  const Schedule s = generate(w, fabric.hosts.size(), group.master().rng(), r);
  schedule_starts(s, fabric, starters,
                  [&](net::NodeId id) -> sim::Scheduler& { return scen.sched_of(id); }, r);
  r.setup_s = seconds_since(t0);

  const std::int64_t run0 = now_ns();
  harness::ShardedScenario::RunLimits limits;
  limits.event_limit = kEventLimit;
  const harness::ShardedScenario::RunStatus st = scen.run(limits);
  r.run_s = seconds_since(run0);
  if (st.event_limit_hit) r.errors.push_back("event limit hit");
  if (st.horizon_hit) r.errors.push_back("horizon hit");

  collect(s, scen.merged(), r);
  r.wall_s = seconds_since(t0);

  if (tp != nullptr) {
    // Shard threads' loop time: every worker spans the whole run.
    add_packet_layers(*tp, network, s, scen.events(), r.run_s * 1e9 * kShards, r);
    std::uint64_t max_ev = 0;
    for (unsigned i = 0; i < kShards; ++i) {
      max_ev = std::max(max_ev, group.shard(i).events_processed());
    }
    const double mean_ev = static_cast<double>(scen.events()) / kShards;
    r.layer.emplace_back("shard.rounds", static_cast<double>(st.rounds));
    r.layer.emplace_back("shard.events_per_round",
                         st.rounds == 0 ? 0.0
                                        : static_cast<double>(scen.events()) /
                                              static_cast<double>(st.rounds));
    r.layer.emplace_back("shard.imbalance",
                         mean_ev == 0 ? 0.0 : static_cast<double>(max_ev) / mean_ev);
  }
}

// --- the fluid run -------------------------------------------------------------

void run_fluid(const Workload& w, std::uint64_t seed, bool traced, Result& r) {
  const std::int64_t t0 = now_ns();
  const net::FatTreeConfig defaults;  // the packet fabric's rate and delay
  sim::Rng rng{seed};  // the stream Simulation{seed} would hand the packet run
  const std::size_t n_hosts = static_cast<std::size_t>(kFatTreeK * kFatTreeK * kFatTreeK / 4);
  const Schedule s = generate(w, n_hosts, rng, r);

  flowsim::FlowSimConfig cfg;
  cfg.rtt = net::path_base_rtt(6, defaults.link_rate, defaults.link_delay);
  cfg.payload_fraction = static_cast<double>(net::kMssBytes) / static_cast<double>(net::kMtuBytes);
  cfg.prop_delay = defaults.link_delay;
  cfg.mtu_tx = defaults.link_rate.tx_time(net::kMtuBytes);
  cfg.mtu_bytes = net::kMtuBytes;
  cfg.mss_bytes = net::kMssBytes;
  const std::int64_t b0 = now_ns();
  const flowsim::Fabric fabric = flowsim::Fabric::fat_tree(kFatTreeK, defaults.link_rate);
  flowsim::FlowSim fsim{fabric, cfg};
  for (const auto& f : s.flows) {
    fsim.add_flow(f.id, f.src_host, f.dst_host, f.bytes, f.start,
                  flowsim::RateModel::kAmrtGrantClock);
  }
  r.phases.emplace_back("flowsim.build", seconds_since(b0));
  r.setup_s = seconds_since(t0);

  stats::FctRecorder recorder{defaults.link_rate, cfg.rtt};
  std::optional<perfbench::TracingObserver> tobs;
  if (traced) tobs.emplace(recorder);
  const std::int64_t run0 = now_ns();
  const flowsim::FlowSimResult res =
      fsim.run(traced ? static_cast<stats::FlowObserver*>(&*tobs) : &recorder);
  r.run_s = seconds_since(run0);

  collect(s, recorder, r);
  r.wall_s = seconds_since(t0);

  if (traced) {
    const double self_ms = r.run_s * 1e3 - static_cast<double>(tobs->all().total_ns) * 1e-6;
    r.layer.emplace_back("flowsim.events", static_cast<double>(res.events));
    r.layer.emplace_back("flowsim.recomputes", static_cast<double>(res.recomputes));
    r.layer.emplace_back("flowsim.ms_per_event",
                         res.events == 0 ? 0.0 : self_ms / static_cast<double>(res.events));
    r.layer.emplace_back("flowsim.us_per_recompute",
                         res.recomputes == 0 ? 0.0
                                             : self_ms * 1e3 / static_cast<double>(res.recomputes));
    r.layer.emplace_back("stats.observer_ns", tobs->all().mean_ns());
    r.spans = {{"stats.observer", tobs->all()}};
  }
}

// --- output -------------------------------------------------------------------

// Peak resident set of this program image. VmHWM starts afresh at exec;
// ru_maxrss does not, so it would report the launching Python's footprint
// whenever this process is the smaller of the two.
double peak_rss_mb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  long kb = 0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %ld kB", &kb) == 1) break;
  }
  std::fclose(f);
  return static_cast<double>(kb) / 1024.0;
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

void print_pairs(std::FILE* out, const std::vector<std::pair<std::string, double>>& kv) {
  std::fputc('{', out);
  for (std::size_t i = 0; i < kv.size(); ++i) {
    std::fprintf(out, "%s\"%s\": %.9g", i == 0 ? "" : ", ", kv[i].first.c_str(), kv[i].second);
  }
  std::fputc('}', out);
}

void print_result(std::FILE* out, const Workload& w, std::uint64_t seed, bool traced, bool warmup,
                  const Result& r) {
  std::fprintf(out, "{\"workload\": \"%s\", \"seed\": %" PRIu64 ", \"traced\": %s, \"warmup\": %s, ",
               w.name, seed, traced ? "true" : "false", warmup ? "true" : "false");
  std::fprintf(out,
               "\"setup_s\": %.9g, \"run_s\": %.9g, \"collect_s\": %.9g, \"wall_s\": %.9g, "
               "\"cpu_s\": %.9g, \"peak_rss_mb\": %.6g, ",
               r.setup_s, r.run_s, r.collect_s, r.wall_s, r.cpu_s, r.peak_rss_mb);
  std::fprintf(out,
               "\"flows_offered\": %zu, \"flows_completed\": %zu, \"bytes_offered\": %" PRIu64
               ", \"bytes_delivered\": %" PRIu64 ", \"digest\": \"%016" PRIx64 "\", ",
               r.flows_offered, r.flows_completed, r.bytes_offered, r.bytes_delivered, r.digest);
  std::fprintf(out,
               "\"sim\": {\"afct_us\": %.6f, \"p99_fct_us\": %.6f, \"req_p99_us\": %.6f, "
               "\"seconds\": %.9f}, ",
               r.afct_us, r.p99_fct_us, r.req_p99_us, r.sim_seconds);
  std::fputs("\"phases\": ", out);
  print_pairs(out, r.phases);
  std::fputs(", \"layer\": ", out);
  print_pairs(out, r.layer);
  std::fputs(", \"errors\": [", out);
  for (std::size_t i = 0; i < r.errors.size(); ++i) {
    std::fprintf(out, "%s\"%s\"", i == 0 ? "" : ", ", json_escape(r.errors[i]).c_str());
  }
  std::fputs("]}\n", out);
}

// The traced run's full record: every span histogram and the heartbeat.
bool write_trace(const std::string& path, const Workload& w, std::uint64_t seed,
                 const Result& r) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fprintf(out, "{\"workload\": \"%s\", \"seed\": %" PRIu64 ",\n \"phases_s\": ", w.name, seed);
  print_pairs(out, r.phases);
  std::fputs(",\n \"layer\": ", out);
  print_pairs(out, r.layer);
  std::fputs(",\n \"spans\": {", out);
  for (std::size_t i = 0; i < r.spans.size(); ++i) {
    const SpanStats& s = r.spans[i].second;
    std::fprintf(out, "%s\n  \"%s\": {\"count\": %" PRIu64 ", \"total_ns\": %" PRIu64
                 ", \"log2_ns_hist\": [",
                 i == 0 ? "" : ",", r.spans[i].first.c_str(), s.count, s.total_ns);
    for (std::size_t b = 0; b < SpanStats::kBuckets; ++b) {
      std::fprintf(out, "%s%" PRIu64, b == 0 ? "" : ", ", s.hist[b]);
    }
    std::fputs("]}", out);
  }
  std::fputs("},\n \"heartbeat\": [", out);
  for (std::size_t i = 0; i < r.heartbeat.size(); ++i) {
    const HeartbeatSlice& h = r.heartbeat[i];
    std::fprintf(out,
                 "%s\n  {\"sim_ms\": %.3f, \"wall_ms\": %.3f, \"events\": %" PRIu64
                 ", \"flows_done\": %zu, \"pending\": %zu}",
                 i == 0 ? "" : ",", h.sim_ms, h.wall_ms, h.events, h.flows_done, h.pending);
  }
  std::fputs("]}\n", out);
  return std::fclose(out) == 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload NAME --seed N [--runs K | --seconds S]\n"
               "                 [--trace] [--trace-out PATH]\n"
               "       perfbench --context\n"
               "workloads:");
  for (const Workload& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fputc('\n', stderr);
  return 2;
}

bool parse_u64(const char* s, std::uint64_t& out) {
  char* end = nullptr;
  out = std::strtoull(s, &end, 10);
  return end != s && *end == '\0';
}

// One complete run on one input, printed as one JSON line; false on error.
bool run_once(const Workload& w, std::uint64_t seed, bool traced, bool warmup,
              const std::string& trace_out) {
  Result r;
  const double cpu0 = cpu_seconds();
  try {
    switch (w.mode) {
      case Mode::kSerial: run_serial(w, seed, traced, r); break;
      case Mode::kSharded: run_sharded(w, seed, traced, r); break;
      case Mode::kFluid: run_fluid(w, seed, traced, r); break;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s seed %" PRIu64 ": %s\n", w.name, seed, e.what());
    return false;
  }
  r.cpu_s = cpu_seconds() - cpu0;
  r.peak_rss_mb = peak_rss_mb();
  if (traced) {
    r.layer.emplace_back("trace.span_ns", perfbench::calibrate_span_ns());
    for (const auto& [n, v] : r.phases) r.layer.emplace_back(n + "_s", v);
  }
  print_result(stdout, w, seed, traced, warmup, r);
  std::fflush(stdout);
  if (!trace_out.empty() && !write_trace(trace_out, w, seed, r)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", trace_out.c_str());
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::string name;
  std::string trace_out;
  std::uint64_t seed = 0;
  std::uint64_t runs = 1;
  std::uint64_t seconds = 0;
  bool have_seed = false;
  bool traced = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--context") {
      std::printf("{\"compiler\": \"%s\", \"build_type\": \"%s\"}\n", PERFBENCH_COMPILER,
                  PERFBENCH_BUILD_TYPE);
      return 0;
    } else if (arg == "--workload" && has_value) {
      name = argv[++i];
    } else if (arg == "--seed" && has_value) {
      have_seed = parse_u64(argv[++i], seed);
    } else if (arg == "--runs" && has_value) {
      if (!parse_u64(argv[++i], runs)) return usage();
    } else if (arg == "--seconds" && has_value) {
      if (!parse_u64(argv[++i], seconds) || seconds == 0) return usage();
    } else if (arg == "--trace") {
      traced = true;
    } else if (arg == "--trace-out" && has_value) {
      trace_out = argv[++i];
    } else {
      return usage();
    }
  }
  const Workload* w = nullptr;
  for (const Workload& cand : kWorkloads) {
    if (name == cand.name) w = &cand;
  }
  if (w == nullptr || !have_seed) return usage();

  const std::int64_t t0 = now_ns();
  if (!run_once(*w, seed, traced, true, trace_out)) return 1;
  for (std::uint64_t j = 0;; ++j) {
    const bool more = seconds != 0 ? j == 0 || seconds_since(t0) < static_cast<double>(seconds)
                                   : j < runs;
    if (!more) break;
    if (!run_once(*w, seconds != 0 ? seed + j : seed, traced, false, trace_out)) return 1;
  }
  return 0;
}

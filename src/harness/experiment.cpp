#include "harness/experiment.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <functional>
#include <memory>
#include <optional>
#include <ostream>
#include <stdexcept>
#include <string>

#include "fault/fault.hpp"
#include "harness/run.hpp"
#include "net/monitor.hpp"
#include "workload/flow_trace.hpp"

namespace amrt::harness {

void write_fct_csv(std::ostream& os, const std::vector<stats::FlowRecord>& records) {
  os << "flow,bytes,start_us,end_us,fct_us,group_id,request_id\n";
  for (const auto& r : records) {
    os << r.flow << ',' << r.bytes << ',' << r.start.to_micros() << ',' << r.end.to_micros()
       << ',' << r.fct().to_micros() << ',';
    // Ungrouped flows get empty cells, not zeros: consumers that treat the
    // column as an id shouldn't see a phantom group 0.
    if (r.group != 0) os << r.group;
    os << ',';
    if (r.request != 0) os << r.request;
    os << '\n';
  }
}

const char* to_string(Fidelity f) {
  switch (f) {
    case Fidelity::kPacket: return "packet";
    case Fidelity::kFlow: return "flow";
    case Fidelity::kMixed: return "mixed";
  }
  return "?";
}

Fidelity fidelity_from_string(const std::string& name) {
  if (name == "packet") return Fidelity::kPacket;
  if (name == "flow") return Fidelity::kFlow;
  if (name == "mixed") return Fidelity::kMixed;
  throw std::invalid_argument("unknown fidelity '" + name + "' (packet|flow|mixed)");
}

bool is_background_flow(net::FlowId id, double fraction) {
  if (fraction <= 0.0) return false;
  if (fraction >= 1.0) return true;
  const auto cut = static_cast<net::FlowId>(fraction * 100.0 + 0.5);
  return (id % 100) < cut;
}

namespace {

// The RunSpec of an experiment: its fabric, transport, seed, shards and
// max_sim_time as the horizon. Both fidelities run over it.
RunSpec run_spec(const ExperimentConfig& cfg) {
  RunSpec spec;
  spec.fabric.leaves = cfg.leaves;
  spec.fabric.spines = cfg.spines;
  spec.fabric.hosts_per_leaf = cfg.hosts_per_leaf;
  spec.fabric.link_rate = cfg.link_rate;
  spec.fabric.link_delay = cfg.link_delay;
  spec.fabric.queues = cfg.queues;
  spec.fabric.multipath = cfg.multipath;
  spec.proto = cfg.proto;
  spec.background_dctcp_fraction = cfg.background_dctcp_fraction;
  spec.transport.homa_overcommit = cfg.homa_overcommit;
  spec.transport.loss_timeout = cfg.loss_timeout;
  spec.seed = cfg.seed;
  spec.shards = cfg.shards;
  spec.horizon = sim::TimePoint::zero() + cfg.max_sim_time;
  return spec;
}

// The per-flow half of a result, shared by every fidelity: FCT summaries,
// records and byte count from `recorder`, flows_started = `scheduled` (so
// flows the horizon cut off before they started count as incomplete), and
// the AMRT/DCTCP foreground/background split by background_fraction.
void fill_records(const stats::FctRecorder& recorder, std::size_t scheduled,
                  double background_fraction, ExperimentResult& out) {
  out.fct_all = recorder.summarize();
  out.fct_small = recorder.summarize(0, 100'000);
  out.fct_large = recorder.summarize(1'000'000, UINT64_MAX);
  out.flows_started = scheduled;
  out.flows_completed = recorder.completed().size();
  out.flow_records = recorder.completed();
  out.bytes_delivered = recorder.bytes_delivered();
  if (background_fraction <= 0.0) {
    out.fct_foreground = out.fct_all;
    return;
  }
  std::vector<stats::FlowRecord> fg;
  std::vector<stats::FlowRecord> bg;
  for (const auto& r : out.flow_records) {
    (is_background_flow(r.flow, background_fraction) ? bg : fg).push_back(r);
  }
  out.fct_foreground = stats::summarize(fg, recorder.ideal());
  out.fct_background = stats::summarize(bg, recorder.ideal());
}

// Per-port mean utilization restricted to the port's own active window, so
// a downlink that only carried traffic for 2ms of a 50ms run is judged on
// those 2ms (this is the "bottleneck utilization" of Fig. 13). Also returns
// the bytes the port moved, used as the weight when averaging across ports:
// a downlink that served one tiny RPC should not dilute the busy ones where
// the protocols actually differ.
struct PortUtilization {
  double utilization = -1.0;  // -1: never active
  double weight_bytes = 0.0;
};

PortUtilization active_window_utilization(const net::PortSampler& sampler) {
  const auto& samples = sampler.samples();
  std::size_t first = samples.size();
  std::size_t last = 0;
  for (std::size_t i = 0; i < samples.size(); ++i) {
    if (samples[i].utilization > 0.0) {
      first = std::min(first, i);
      last = i;
    }
  }
  if (first >= samples.size()) return {};
  double sum = 0.0;
  for (std::size_t i = first; i <= last; ++i) sum += samples[i].utilization;
  return PortUtilization{sum / static_cast<double>(last - first + 1),
                         static_cast<double>(samples[last].bytes_sent)};
}
// Annotates records with membership and fills the collective summaries.
void finish_group_stats(const stats::GroupBook& book, ExperimentResult& out) {
  if (book.empty()) return;
  book.annotate(out.flow_records);
  out.group_stats = book.group_stats(out.flow_records);
  out.request_stats = book.request_stats(out.flow_records);
}

// The run's schedule, drawn once for every fidelity and shard count from a
// fresh sim::Rng{cfg.seed}, optionally dumped as a replayable trace, with
// group/request membership registered in `book`.
std::vector<workload::GeneratedFlow> draw_schedule(const ExperimentConfig& cfg,
                                                   stats::GroupBook& book) {
  workload::TrafficConfig traffic;
  traffic.load = cfg.load;
  traffic.n_flows = cfg.n_flows;
  traffic.n_hosts = static_cast<std::size_t>(cfg.leaves) * static_cast<std::size_t>(cfg.hosts_per_leaf);
  traffic.host_rate = cfg.link_rate;
  const workload::EmpiricalCdf* sizes =
      cfg.engine.engine == workload::Engine::kTrace ? nullptr : &workload::cdf(cfg.workload);
  sim::Rng rng{cfg.seed};
  auto flows = workload::generate_traffic(cfg.engine, sizes, traffic, rng);
  if (!cfg.trace_out.empty()) workload::write_trace_file(cfg.trace_out, flows);
  for (const auto& f : flows) book.note(f.id, f.group_id, f.request_id);
  return flows;
}

// Injected fault schedule against every switch port of the fabric, drawn
// from its own seed stream (so a fault scenario can be pinned while the
// workload seed sweeps). The injector must outlive the run: its scheduled
// callbacks read it.
std::unique_ptr<fault::FaultInjector> arm_faults(const ExperimentConfig& cfg, PacketRun& run) {
  if (cfg.fault_incidents == 0) return nullptr;
  const net::LeafSpine& topo = run.leaf_spine();
  std::vector<net::PortId> fabric_ports;
  for (int l = 0; l < cfg.leaves; ++l) {
    for (int h = 0; h < cfg.hosts_per_leaf; ++h) fabric_ports.push_back(topo.leaf_down[l][h]);
    for (int s = 0; s < cfg.spines; ++s) {
      fabric_ports.push_back(topo.leaf_up[l][s]);
      fabric_ports.push_back(topo.spine_down[s][l]);
    }
  }
  fault::FaultPlan plan;
  plan.seed = cfg.fault_seed;
  sim::Rng fault_rng{cfg.fault_seed};
  plan.draw(fault_rng, fabric_ports, topo.base_rtt, cfg.fault_incidents);
  auto injector = std::make_unique<fault::FaultInjector>(run.network(), std::move(plan));
  injector->arm();
  return injector;
}

// Mixed fidelity's fluid half. The constructor runs the flows tagged
// background by is_background_flow(id, cfg.flow_background_fraction) on a
// FlowRun, recording binned per-link usage, and leaves only the foreground in
// `flows`. reserve() replays that usage as scheduled serialization-rate
// reservations (EgressPort::set_rate_scale) on the packet fabric that
// carries the foreground; merge_into() folds the fluid records into the
// packet result (fct_foreground/fct_background report the two sides,
// fct_all the merge).
class FluidBackground {
 public:
  FluidBackground(const ExperimentConfig& cfg, std::vector<workload::GeneratedFlow>& flows)
      : flows_{flows.size()},
        run_{run_spec(cfg), take_background(cfg.flow_background_fraction, flows)},
        // Reservation bin: a handful of RTTs smooths grant-clock ripple
        // without hiding shifts in the background load.
        bin_{std::max(cfg.sample_interval, run_.rtt() * 8)} {
    flows_ -= flows.size();  // the flows take_background moved to the fluid side
    run_.flowsim().record_link_usage(bin_);
    run_.run();
  }

  // The packet side keeps whatever wire share the fluid side left on each
  // switch port it occupied. (Host NIC uplinks have no switch port; their
  // contention is the documented approximation of this one-way coupling.)
  void reserve(PacketRun& run) const {
    const net::LeafSpine& topo = run.leaf_spine();
    const flowsim::Fabric& fabric = run_.fabric();
    sim::Scheduler& sched = run.sim().scheduler();
    const auto& usage = run_.flowsim().link_usage();
    const double payload_fraction = run_.flowsim().config().payload_fraction;
    auto emit = [&](flowsim::LinkId l, net::PortId port_id) {
      net::EgressPort* port = &run.network().port_at(port_id);
      const auto& lane = usage[l];
      double prev = 1.0;
      for (std::size_t b = 0; b <= lane.size(); ++b) {
        const double used = b < lane.size() ? lane[b] : 0.0;  // trailing restore
        double scale = 1.0 - used / payload_fraction * 8.0 / fabric.capacity_bps(l);
        scale = std::clamp(scale, 0.05, 1.0);
        if (std::abs(scale - prev) < 0.01) continue;
        sched.at(sim::TimePoint::zero() + bin_ * static_cast<std::int64_t>(b),
                 [port, scale] { port->set_rate_scale(scale); });
        prev = scale;
      }
    };
    for (int l = 0; l < fabric.leaves(); ++l) {
      const auto leaf = static_cast<std::size_t>(l);
      for (int h = 0; h < fabric.hosts_per_leaf(); ++h) {
        emit(fabric.host_down(leaf * fabric.hosts_per_leaf() + h),
             topo.leaf_down[leaf][static_cast<std::size_t>(h)]);
      }
      for (int s = 0; s < fabric.spines(); ++s) {
        const auto spine = static_cast<std::size_t>(s);
        emit(fabric.leaf_up(l, s), topo.leaf_up[leaf][spine]);
        emit(fabric.spine_down(s, l), topo.spine_down[spine][leaf]);
      }
    }
  }

  void merge_into(ExperimentResult& out) const {
    const auto& background = run_.recorder().completed();
    const stats::IdealFct ideal = run_.recorder().ideal();
    out.fct_foreground = out.fct_all;
    out.fct_background = stats::summarize(background, ideal);
    std::vector<stats::FlowRecord> merged = out.flow_records;
    merged.insert(merged.end(), background.begin(), background.end());
    std::sort(merged.begin(), merged.end(),
              [](const stats::FlowRecord& a, const stats::FlowRecord& b) {
                return a.start != b.start ? a.start < b.start : a.flow < b.flow;
              });
    out.fct_all = stats::summarize(merged, ideal);
    out.fct_small = stats::summarize(merged, ideal, 0, 100'000);
    out.fct_large = stats::summarize(merged, ideal, 1'000'000, UINT64_MAX);
    out.flow_records = std::move(merged);
    out.flows_started += flows_;
    out.flows_completed += background.size();
    out.bytes_delivered += run_.recorder().bytes_delivered();
    out.events += run_.result().events;
    out.sim_seconds = std::max(out.sim_seconds, run_.result().end_time.to_seconds());
  }

 private:
  // Moves the flows `fraction` tags background out of `flows`, both sides in
  // schedule order.
  static std::vector<workload::GeneratedFlow> take_background(
      double fraction, std::vector<workload::GeneratedFlow>& flows) {
    std::vector<workload::GeneratedFlow> background;
    std::vector<workload::GeneratedFlow> foreground;
    for (const auto& f : flows) {
      (is_background_flow(f.id, fraction) ? background : foreground).push_back(f);
    }
    flows = std::move(foreground);
    return background;
  }

  std::size_t flows_ = 0;
  FlowRun run_;
  sim::Duration bin_;
};

// The packet-level experiment in every execution mode: serial or sharded,
// with or without faults and DCTCP background, and the packet half of mixed
// fidelity. Serial runs monitor every receiver downlink (the typical
// bottleneck) and the fabric ports with PortSamplers and stop as soon as
// every flow has completed. Sharded runs have neither — periodic callbacks
// would keep every shard's window advancing forever — so they drain under
// the horizon, report no utilization and take the queue high-water from the
// queues' own counters.
ExperimentResult run_packet(const ExperimentConfig& cfg, std::vector<workload::GeneratedFlow> flows) {
  std::optional<FluidBackground> background;
  if (cfg.fidelity == Fidelity::kMixed) {
    background.emplace(cfg, flows);
    if (flows.empty()) {
      ExperimentResult out;
      background->merge_into(out);
      return out;
    }
  }

  PacketRun run{run_spec(cfg), flows};
  const auto injector = arm_faults(cfg, run);
  if (background) background->reserve(run);

  std::vector<std::unique_ptr<net::PortSampler>> downlinks;
  std::vector<std::unique_ptr<net::PortSampler>> fabric;
  std::function<void()> poll;
  if (!run.sharded()) {
    sim::Simulation& simu = run.sim();
    const net::LeafSpine& topo = run.leaf_spine();
    auto sample = [&](std::vector<std::unique_ptr<net::PortSampler>>& into, net::PortId port) {
      into.push_back(std::make_unique<net::PortSampler>(simu, run.network().port_at(port),
                                                        cfg.sample_interval));
      into.back()->start();
    };
    for (int l = 0; l < cfg.leaves; ++l) {
      for (int h = 0; h < cfg.hosts_per_leaf; ++h) sample(downlinks, topo.leaf_down[l][h]);
      for (int s = 0; s < cfg.spines; ++s) {
        sample(fabric, topo.leaf_up[l][s]);
        sample(fabric, topo.spine_down[s][l]);
      }
    }
    // Samplers and recovery timers would keep the loop alive forever.
    sim::Scheduler& sched = simu.scheduler();
    const std::size_t expected = flows.size();
    const sim::TimePoint last_start = flows.back().start;
    poll = [&run, &sched, &poll, expected, last_start] {
      if (run.recorder().completed().size() >= expected && sched.now() > last_start) {
        sched.stop();
        return;
      }
      sched.after(sim::Duration::milliseconds(1), poll);
    };
    sched.after(sim::Duration::milliseconds(1), poll);
  }

  run.run();

  ExperimentResult out;
  fill_records(run.recorder(), flows.size(), cfg.background_dctcp_fraction, out);
  out.events = run.events();
  out.sim_seconds = run.now().to_seconds();

  double util_sum = 0.0;
  double weight_sum = 0.0;
  out.downlink_utilization.reserve(downlinks.size());
  for (const auto& s : downlinks) {
    const auto u = active_window_utilization(*s);
    out.downlink_utilization.push_back(u.utilization < 0.0 ? 0.0 : u.utilization);
    if (u.utilization >= 0.0) {
      util_sum += u.utilization * u.weight_bytes;
      weight_sum += u.weight_bytes;
    }
    out.max_queue_pkts = std::max(out.max_queue_pkts, s->max_queue_pkts());
  }
  for (const auto& s : fabric) {
    out.max_queue_pkts = std::max(out.max_queue_pkts, s->max_queue_pkts());
  }
  out.mean_utilization = weight_sum == 0.0 ? 0.0 : util_sum / weight_sum;

  for (const auto& sw : run.network().switches()) {
    for (int p = 0; p < sw.port_count(); ++p) {
      const auto& st = sw.port(p).queue().stats();
      out.drops += st.dropped;
      out.trims += st.trimmed;
      if (run.sharded()) out.max_queue_pkts = std::max(out.max_queue_pkts, st.max_data_pkts);
    }
  }
  out.faulted = run.network().packets_faulted();

  if (out.flows_completed < out.flows_started) {
    const std::string shards = cfg.shards > 1 ? ", " + std::to_string(cfg.shards) + " shards" : "";
    run.sim().trace().warn("run_leaf_spine[%s/%s%s]: %zu of %zu flows incomplete at t=%s",
                           transport::to_string(cfg.proto), workload::abbrev(cfg.workload),
                           shards.c_str(), out.flows_started - out.flows_completed,
                           out.flows_started, run.now().str().c_str());
  }
  if (background) background->merge_into(out);
  return out;
}

// Receiver-downlink utilization from the fluid per-link counters, mirroring
// the packet path's active-window semantics: a link is judged over
// [first_busy, last_busy] only, and the fleet mean is byte-weighted.
void fill_downlink_utilization(const FlowRun& run, ExperimentResult& out) {
  const flowsim::Fabric& fabric = run.fabric();
  const flowsim::FlowSim& fsim = run.flowsim();
  double util_sum = 0.0;
  double weight_sum = 0.0;
  out.downlink_utilization.reserve(fabric.n_hosts());
  for (std::size_t h = 0; h < fabric.n_hosts(); ++h) {
    const flowsim::LinkId l = fabric.host_down(h);
    const double bytes = fsim.link_bytes(l);
    double util = 0.0;
    if (bytes > 0.0) {
      const double window = (fsim.link_last_busy(l) - fsim.link_first_busy(l)).to_seconds();
      if (window > 0.0) {
        // Wire occupancy: payload bytes re-inflated by the header share.
        util = std::min(1.0, bytes / fsim.config().payload_fraction * 8.0 /
                                 (fabric.capacity_bps(l) * window));
        util_sum += util * bytes;
        weight_sum += bytes;
      }
    }
    out.downlink_utilization.push_back(util);
  }
  out.mean_utilization = weight_sum == 0.0 ? 0.0 : util_sum / weight_sum;
}

// The flow-level experiment: one FlowRun over the experiment's spec.
ExperimentResult run_flow(const ExperimentConfig& cfg,
                          const std::vector<workload::GeneratedFlow>& flows) {
  FlowRun run{run_spec(cfg), flows};
  run.run();
  ExperimentResult out;
  fill_records(run.recorder(), flows.size(), cfg.background_dctcp_fraction, out);
  out.events = run.result().events;
  out.sim_seconds = run.result().end_time.to_seconds();
  fill_downlink_utilization(run, out);
  return out;
}

}  // namespace

void validate(const ExperimentConfig& cfg) {
  auto reject = [](const std::string& why) {
    throw std::invalid_argument("run_leaf_spine: " + why);
  };
  const bool coexist = cfg.background_dctcp_fraction > 0.0;
  const std::string fidelity = std::string{to_string(cfg.fidelity)} + " fidelity";
  if (cfg.engine.engine == workload::Engine::kTrace && cfg.engine.trace_path.empty()) {
    reject("the trace engine needs engine.trace_path");
  }
  if (coexist && cfg.proto != transport::Protocol::kAmrt) {
    reject("background_dctcp_fraction pairs DCTCP background with AMRT foreground; "
           "set proto = kAmrt");
  }
  if (cfg.shards > 1 && cfg.fault_incidents > 0) {
    reject("fault injection and sharded execution are mutually exclusive "
           "(the injector mutates link state from a serial-only control path)");
  }
  if (cfg.shards > 1 && coexist) {
    reject("mixed transports are serial-only (the coexistence metrics need the serial "
           "utilization samplers)");
  }
  if (cfg.fidelity == Fidelity::kPacket) return;
  if (cfg.shards > 1) reject(fidelity + " is serial-only (shards must be 1)");
  if (cfg.fault_incidents > 0) reject(fidelity + " does not compose with fault injection");
  if (cfg.fidelity == Fidelity::kMixed) {
    if (coexist) {
      reject("mixed fidelity and mixed transports are exclusive (the fluid side is the "
             "background class; use flow_background_fraction)");
    }
    if (cfg.flow_background_fraction <= 0.0 || cfg.flow_background_fraction >= 1.0) {
      reject("mixed fidelity needs flow_background_fraction in (0, 1)");
    }
  }
}

ExperimentResult run_leaf_spine(const ExperimentConfig& cfg) {
  validate(cfg);
  const auto wall_start = std::chrono::steady_clock::now();
  stats::GroupBook book;
  auto flows = draw_schedule(cfg, book);
  if (flows.empty()) return {};
  ExperimentResult out = cfg.fidelity == Fidelity::kFlow ? run_flow(cfg, flows)
                                                         : run_packet(cfg, std::move(flows));
  finish_group_stats(book, out);
  out.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_start).count();
  return out;
}

}  // namespace amrt::harness

#include "harness/fidelity.hpp"

#include <algorithm>
#include <cmath>

#include "harness/run.hpp"
#include "net/packet.hpp"
#include "net/topology.hpp"
#include "workload/workloads.hpp"

namespace amrt::harness {

flowsim::RateModel rate_model_for(transport::Protocol proto) {
  switch (proto) {
    case transport::Protocol::kAmrt: return flowsim::RateModel::kAmrtGrantClock;
    case transport::Protocol::kDctcp: return flowsim::RateModel::kDctcpThreshold;
    case transport::Protocol::kPhost:
    case transport::Protocol::kHoma:
    case transport::Protocol::kNdp:
      // Grant-per-packet schedulers re-pace within an RTT of any share
      // change; the fluid analogue is the ideal max-min rate.
      return flowsim::RateModel::kInstant;
  }
  return flowsim::RateModel::kInstant;
}

namespace {

// The packet path's timing constants, translated for the fluid engine:
// same base RTT over `hops` links (grant-clock cadence), payload-fraction
// goodput derate, and the store-and-forward pipeline of the last packet as
// the completion latency.
flowsim::FlowSimConfig flow_config(int hops, sim::Bandwidth rate, sim::Duration delay,
                                   sim::Duration max_sim_time) {
  flowsim::FlowSimConfig fs;
  fs.rtt = net::path_base_rtt(hops, rate, delay);
  fs.payload_fraction =
      static_cast<double>(net::kMssBytes) / static_cast<double>(net::kMtuBytes);
  fs.prop_delay = delay;
  fs.mtu_tx = rate.tx_time(net::kMtuBytes);
  fs.mtu_bytes = net::kMtuBytes;
  fs.mss_bytes = net::kMssBytes;
  fs.max_time = sim::TimePoint::zero() + max_sim_time;
  return fs;
}

// Receiver-downlink utilization from the fluid per-link counters, mirroring
// the packet path's active-window semantics: a link is judged over
// [first_busy, last_busy] only, and the fleet mean is byte-weighted.
void fill_downlink_utilization(const flowsim::Fabric& fabric, const flowsim::FlowSim& fsim,
                               double payload_fraction, ExperimentResult& out) {
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
        util = std::min(1.0, bytes / payload_fraction * 8.0 /
                                 (fabric.capacity_bps(l) * window));
        util_sum += util * bytes;
        weight_sum += bytes;
      }
    }
    out.downlink_utilization.push_back(util);
  }
  out.mean_utilization = weight_sum == 0.0 ? 0.0 : util_sum / weight_sum;
}

}  // namespace

FlowFatTreeResult run_fat_tree_flow(int k, flowsim::RateModel model, std::size_t n_flows,
                                    double load, std::uint64_t seed) {
  const net::FatTreeConfig defaults;  // rate/delay shared with the packet bench
  const flowsim::Fabric fabric = flowsim::Fabric::fat_tree(k, defaults.link_rate);
  const flowsim::FlowSimConfig fscfg =
      flow_config(6, defaults.link_rate, defaults.link_delay, kDefaultMaxSimTime);

  // The schedule bench_scale's packet rows draw for the same seed.
  workload::TrafficConfig traffic;
  traffic.load = load;
  traffic.n_flows = n_flows;
  traffic.n_hosts = fabric.n_hosts();
  traffic.host_rate = defaults.link_rate;
  sim::Rng rng{seed};
  const auto flows = workload::generate_traffic(
      {}, &workload::cdf(workload::Kind::kWebSearch), traffic, rng);

  flowsim::FlowSim fsim{fabric, fscfg};
  for (const auto& f : flows) {
    fsim.add_flow(f.id, f.src_host, f.dst_host, f.bytes, f.start, model);
  }
  stats::FctRecorder recorder{defaults.link_rate, fscfg.rtt};
  const flowsim::FlowSimResult run = fsim.run(&recorder);

  FlowFatTreeResult r;
  r.events = run.events;
  r.recomputes = run.recomputes;
  r.flows_refilled = run.flows_refilled;
  r.delivered_bytes = recorder.bytes_delivered();
  r.flows = flows.size();
  r.completed = recorder.completed().size();
  r.sim_seconds = run.end_time.to_seconds();
  r.records = recorder.completed();
  return r;
}

namespace detail {

ExperimentResult run_leaf_spine_flow(const ExperimentConfig& cfg,
                                     const std::vector<workload::GeneratedFlow>& flows) {
  const flowsim::Fabric fabric =
      flowsim::Fabric::leaf_spine(cfg.leaves, cfg.spines, cfg.hosts_per_leaf, cfg.link_rate);
  const flowsim::FlowSimConfig fscfg =
      flow_config(4, cfg.link_rate, cfg.link_delay, cfg.max_sim_time);
  flowsim::FlowSim fsim{fabric, fscfg};

  const flowsim::RateModel fg_model = rate_model_for(cfg.proto);
  for (const auto& f : flows) {
    const flowsim::RateModel model = is_background_flow(f.id, cfg.background_dctcp_fraction)
                                         ? flowsim::RateModel::kDctcpThreshold
                                         : fg_model;
    fsim.add_flow(f.id, f.src_host, f.dst_host, f.bytes, f.start, model);
  }

  stats::FctRecorder recorder{cfg.link_rate, fscfg.rtt};
  const flowsim::FlowSimResult run = fsim.run(&recorder);

  ExperimentResult out;
  fill_records(recorder, flows.size(), cfg.background_dctcp_fraction, out);
  out.events = run.events;
  out.sim_seconds = run.end_time.to_seconds();
  fill_downlink_utilization(fabric, fsim, fscfg.payload_fraction, out);
  return out;
}

FluidBackground::FluidBackground(const ExperimentConfig& cfg,
                                 std::vector<workload::GeneratedFlow>& flows)
    : cfg_{cfg},
      fabric_{flowsim::Fabric::leaf_spine(cfg.leaves, cfg.spines, cfg.hosts_per_leaf,
                                          cfg.link_rate)},
      fscfg_{flow_config(4, cfg.link_rate, cfg.link_delay, cfg.max_sim_time)},
      // Reservation bin: a handful of RTTs smooths grant-clock ripple
      // without hiding shifts in the background load.
      bin_{std::max(cfg.sample_interval, fscfg_.rtt * 8)},
      fsim_{fabric_, fscfg_},
      recorder_{cfg.link_rate, fscfg_.rtt} {
  fsim_.record_link_usage(bin_);
  const flowsim::RateModel model = rate_model_for(cfg.proto);
  std::vector<workload::GeneratedFlow> foreground;
  for (const auto& f : flows) {
    if (is_background_flow(f.id, cfg.flow_background_fraction)) {
      fsim_.add_flow(f.id, f.src_host, f.dst_host, f.bytes, f.start, model);
      ++flows_;
    } else {
      foreground.push_back(f);
    }
  }
  flows = std::move(foreground);
  result_ = fsim_.run(&recorder_);
}

// The packet side keeps whatever wire share the fluid side left on each
// switch port it occupied. (Host NIC uplinks have no switch port; their
// contention is the documented approximation of this one-way coupling.)
void FluidBackground::reserve(PacketRun& run) const {
  const net::LeafSpine& topo = run.leaf_spine();
  sim::Scheduler& sched = run.sim().scheduler();
  const auto& usage = fsim_.link_usage();
  auto emit = [&](flowsim::LinkId l, net::PortId port_id) {
    net::EgressPort* port = &run.network().port_at(port_id);
    const auto& lane = usage[l];
    double prev = 1.0;
    for (std::size_t b = 0; b <= lane.size(); ++b) {
      const double used = b < lane.size() ? lane[b] : 0.0;  // trailing restore
      double scale = 1.0 - used / fscfg_.payload_fraction * 8.0 / fabric_.capacity_bps(l);
      scale = std::clamp(scale, 0.05, 1.0);
      if (std::abs(scale - prev) < 0.01) continue;
      sched.at(sim::TimePoint::zero() + bin_ * static_cast<std::int64_t>(b),
               [port, scale] { port->set_rate_scale(scale); });
      prev = scale;
    }
  };
  for (int l = 0; l < cfg_.leaves; ++l) {
    const auto leaf = static_cast<std::size_t>(l);
    for (int h = 0; h < cfg_.hosts_per_leaf; ++h) {
      emit(fabric_.host_down(leaf * cfg_.hosts_per_leaf + h),
           topo.leaf_down[leaf][static_cast<std::size_t>(h)]);
    }
    for (int s = 0; s < cfg_.spines; ++s) {
      const auto spine = static_cast<std::size_t>(s);
      emit(fabric_.leaf_up(l, s), topo.leaf_up[leaf][spine]);
      emit(fabric_.spine_down(s, l), topo.spine_down[spine][leaf]);
    }
  }
}

void FluidBackground::merge_into(ExperimentResult& out) const {
  const auto& background = recorder_.completed();
  out.fct_foreground = out.fct_all;
  out.fct_background = summarize_records(background);
  std::vector<stats::FlowRecord> merged = out.flow_records;
  merged.insert(merged.end(), background.begin(), background.end());
  std::sort(merged.begin(), merged.end(), [](const stats::FlowRecord& a, const stats::FlowRecord& b) {
    return a.start != b.start ? a.start < b.start : a.flow < b.flow;
  });
  out.fct_all = summarize_records(merged);
  auto summarize_band = [&](std::uint64_t lo, std::uint64_t hi) {
    std::vector<stats::FlowRecord> band;
    for (const auto& r : merged) {
      if (r.bytes >= lo && r.bytes < hi) band.push_back(r);
    }
    return summarize_records(band);
  };
  out.fct_small = summarize_band(0, 100'000);
  out.fct_large = summarize_band(1'000'000, UINT64_MAX);
  out.flow_records = std::move(merged);
  out.flows_started += flows_;
  out.flows_completed += background.size();
  out.bytes_delivered += recorder_.bytes_delivered();
  out.events += result_.events;
  out.sim_seconds = std::max(out.sim_seconds, result_.end_time.to_seconds());
}

}  // namespace detail

}  // namespace amrt::harness

#include "harness/fidelity.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <stdexcept>
#include <string>

#include "net/packet.hpp"
#include "workload/generator.hpp"
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

void check_serial_only(const ExperimentConfig& cfg, const char* what) {
  if (cfg.shards > 1) {
    throw std::invalid_argument(std::string("run_leaf_spine: ") + what +
                                " is serial-only (shards must be 1)");
  }
  if (cfg.fault_incidents > 0) {
    throw std::invalid_argument(std::string("run_leaf_spine: ") + what +
                                " does not compose with fault injection");
  }
}

// The packet path's timing constants, translated for the fluid engine:
// same base RTT (grant-clock cadence), payload-fraction goodput derate,
// and the store-and-forward pipeline of the last packet as the completion
// latency.
flowsim::FlowSimConfig flow_config(const ExperimentConfig& cfg, int hops) {
  flowsim::FlowSimConfig fs;
  fs.rtt = net::path_base_rtt(hops, cfg.link_rate, cfg.link_delay);
  fs.payload_fraction =
      static_cast<double>(net::kMssBytes) / static_cast<double>(net::kMtuBytes);
  fs.prop_delay = cfg.link_delay;
  fs.mtu_tx = cfg.link_rate.tx_time(net::kMtuBytes);
  fs.mtu_bytes = net::kMtuBytes;
  fs.mss_bytes = net::kMssBytes;
  fs.max_time = sim::TimePoint::zero() + cfg.max_sim_time;
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

void fill_fct_results(const stats::FctRecorder& recorder, const stats::GroupBook& book,
                      ExperimentResult& out) {
  out.fct_all = recorder.summarize();
  out.fct_small = recorder.summarize(0, 100'000);
  out.fct_large = recorder.summarize(1'000'000, UINT64_MAX);
  out.flows_started = recorder.started_count();
  out.flows_completed = recorder.completed().size();
  out.flow_records = recorder.completed();
  if (!book.empty()) {
    book.annotate(out.flow_records);
    out.group_stats = book.group_stats(out.flow_records);
    out.request_stats = book.request_stats(out.flow_records);
  }
  out.bytes_delivered = recorder.bytes_delivered();
}

}  // namespace

ExperimentResult run_leaf_spine_flow(const ExperimentConfig& cfg) {
  const auto wall_start = std::chrono::steady_clock::now();
  check_serial_only(cfg, "flow fidelity");
  const bool mixed_transport = cfg.background_dctcp_fraction > 0.0;
  if (mixed_transport && cfg.proto != transport::Protocol::kAmrt) {
    throw std::invalid_argument(
        "run_leaf_spine: background_dctcp_fraction pairs DCTCP background with AMRT "
        "foreground; set proto = kAmrt");
  }

  const flowsim::Fabric fabric =
      flowsim::Fabric::leaf_spine(cfg.leaves, cfg.spines, cfg.hosts_per_leaf, cfg.link_rate);
  const flowsim::FlowSimConfig fscfg = flow_config(cfg, 4);
  flowsim::FlowSim fsim{fabric, fscfg};

  // Same stream Simulation{seed} hands the packet path: identical schedule.
  sim::Rng rng{cfg.seed};
  stats::GroupBook book;
  const auto flows = detail::generate_flows(cfg, fabric.n_hosts(), rng, book);
  if (flows.empty()) return {};

  const flowsim::RateModel fg_model = rate_model_for(cfg.proto);
  for (const auto& f : flows) {
    const flowsim::RateModel model =
        mixed_transport && is_background_flow(f.id, cfg.background_dctcp_fraction)
            ? flowsim::RateModel::kDctcpThreshold
            : fg_model;
    fsim.add_flow(f.id, f.src_host, f.dst_host, f.bytes, f.start, model);
  }

  stats::FctRecorder recorder{cfg.link_rate, fscfg.rtt};
  const flowsim::FlowSimResult run = fsim.run(&recorder);

  ExperimentResult out;
  fill_fct_results(recorder, book, out);
  out.events = run.events;
  out.sim_seconds = run.end_time.to_seconds();

  if (mixed_transport) {
    std::vector<stats::FlowRecord> fg;
    std::vector<stats::FlowRecord> bg;
    for (const auto& r : out.flow_records) {
      (is_background_flow(r.flow, cfg.background_dctcp_fraction) ? bg : fg).push_back(r);
    }
    out.fct_foreground = summarize_records(fg);
    out.fct_background = summarize_records(bg);
  } else {
    out.fct_foreground = out.fct_all;
  }

  fill_downlink_utilization(fabric, fsim, fscfg.payload_fraction, out);

  out.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_start).count();
  return out;
}

ExperimentResult run_leaf_spine_mixed(const ExperimentConfig& cfg) {
  const auto wall_start = std::chrono::steady_clock::now();
  check_serial_only(cfg, "mixed fidelity");
  if (cfg.background_dctcp_fraction > 0.0) {
    throw std::invalid_argument(
        "run_leaf_spine: mixed fidelity and mixed transports are exclusive "
        "(the fluid side is the background class; use flow_background_fraction)");
  }
  const double frac = cfg.flow_background_fraction;
  if (frac <= 0.0 || frac >= 1.0) {
    throw std::invalid_argument(
        "run_leaf_spine: mixed fidelity needs flow_background_fraction in (0, 1)");
  }

  // The full schedule, drawn exactly as the pure-packet run would draw it.
  const flowsim::Fabric fabric =
      flowsim::Fabric::leaf_spine(cfg.leaves, cfg.spines, cfg.hosts_per_leaf, cfg.link_rate);
  sim::Rng rng{cfg.seed};
  stats::GroupBook book;
  const auto all = detail::generate_flows(cfg, fabric.n_hosts(), rng, book);
  if (all.empty()) return {};

  std::vector<workload::GeneratedFlow> foreground;
  std::vector<workload::GeneratedFlow> background;
  for (const auto& f : all) {
    (is_background_flow(f.id, frac) ? background : foreground).push_back(f);
  }

  // Pass 1: the background class at flow level, recording per-link usage.
  const flowsim::FlowSimConfig fscfg = flow_config(cfg, 4);
  flowsim::FlowSim fsim{fabric, fscfg};
  // Reservation bin: a handful of RTTs smooths grant-clock ripple without
  // hiding shifts in the background load.
  const sim::Duration bin = std::max(cfg.sample_interval, fscfg.rtt * 8);
  fsim.record_link_usage(bin);
  const flowsim::RateModel model = rate_model_for(cfg.proto);
  for (const auto& f : background) {
    fsim.add_flow(f.id, f.src_host, f.dst_host, f.bytes, f.start, model);
  }
  stats::FctRecorder bg_recorder{cfg.link_rate, fscfg.rtt};
  const flowsim::FlowSimResult bg_run = fsim.run(&bg_recorder);

  // Pass 2: the foreground class at packet level, against scheduled
  // capacity reservations on the switch ports the fluid side occupied.
  // (Host NIC uplinks have no switch port; their contention is the
  // documented approximation of this one-way coupling.)
  detail::SerialOverrides ov;
  ov.flows = &foreground;
  ov.rate_scale = [&](const net::LeafSpine& topo) {
    std::vector<detail::RateScaleEvent> evs;
    const auto& usage = fsim.link_usage();
    auto emit = [&](flowsim::LinkId l, net::PortId port) {
      const auto& lane = usage[l];
      double prev = 1.0;
      for (std::size_t b = 0; b <= lane.size(); ++b) {
        const double used = b < lane.size() ? lane[b] : 0.0;  // trailing restore
        // The packet side keeps whatever wire share the fluid side left.
        double scale =
            1.0 - used / fscfg.payload_fraction * 8.0 / fabric.capacity_bps(l);
        scale = std::clamp(scale, 0.05, 1.0);
        if (std::abs(scale - prev) < 0.01) continue;
        evs.push_back({sim::TimePoint::zero() + bin * static_cast<std::int64_t>(b), port,
                       scale});
        prev = scale;
      }
    };
    for (int l = 0; l < cfg.leaves; ++l) {
      for (int h = 0; h < cfg.hosts_per_leaf; ++h) {
        emit(fabric.host_down(static_cast<std::size_t>(l) * cfg.hosts_per_leaf + h),
             topo.leaf_down[static_cast<std::size_t>(l)][static_cast<std::size_t>(h)]);
      }
      for (int s = 0; s < cfg.spines; ++s) {
        emit(fabric.leaf_up(l, s),
             topo.leaf_up[static_cast<std::size_t>(l)][static_cast<std::size_t>(s)]);
        emit(fabric.spine_down(s, l),
             topo.spine_down[static_cast<std::size_t>(s)][static_cast<std::size_t>(l)]);
      }
    }
    return evs;
  };

  ExperimentResult out = detail::run_leaf_spine_serial(cfg, &ov);

  // Merge: foreground (packet) + background (fluid) records.
  out.fct_foreground = out.fct_all;
  out.fct_background = summarize_records(bg_recorder.completed());
  std::vector<stats::FlowRecord> merged = out.flow_records;
  merged.insert(merged.end(), bg_recorder.completed().begin(), bg_recorder.completed().end());
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
  if (!book.empty()) {
    book.annotate(out.flow_records);
    out.group_stats = book.group_stats(out.flow_records);
    out.request_stats = book.request_stats(out.flow_records);
  }
  out.flows_started += bg_run.started;
  out.flows_completed += bg_recorder.completed().size();
  out.bytes_delivered += bg_recorder.bytes_delivered();
  out.events += bg_run.events;
  out.sim_seconds = std::max(out.sim_seconds, bg_run.end_time.to_seconds());
  out.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_start).count();
  return out;
}

FlowFatTreeResult run_fat_tree_flow(int k, flowsim::RateModel model, std::size_t n_flows,
                                    double load, std::uint64_t seed) {
  const net::FatTreeConfig defaults;  // rate/delay shared with the packet bench
  const flowsim::Fabric fabric = flowsim::Fabric::fat_tree(k, defaults.link_rate);

  flowsim::FlowSimConfig fscfg;
  fscfg.rtt = net::path_base_rtt(6, defaults.link_rate, defaults.link_delay);
  fscfg.payload_fraction =
      static_cast<double>(net::kMssBytes) / static_cast<double>(net::kMtuBytes);
  fscfg.prop_delay = defaults.link_delay;
  fscfg.mtu_tx = defaults.link_rate.tx_time(net::kMtuBytes);
  fscfg.mtu_bytes = net::kMtuBytes;
  fscfg.mss_bytes = net::kMssBytes;

  // Same draws as bench_scale's packet run_one (Simulation{seed}'s stream).
  sim::Rng rng{seed};
  workload::FlowGenerator gen{workload::cdf(workload::Kind::kWebSearch), rng};
  workload::TrafficConfig traffic;
  traffic.load = load;
  traffic.n_flows = n_flows;
  traffic.n_hosts = fabric.n_hosts();
  traffic.host_rate = defaults.link_rate;
  const auto flows = gen.generate(traffic);

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

}  // namespace amrt::harness

#include "harness/scenarios.hpp"

#include <algorithm>
#include <functional>
#include <memory>

#include "harness/run.hpp"
#include "net/monitor.hpp"
#include "sim/rng.hpp"

namespace amrt::harness {

namespace {

RunSpec base_spec(transport::Protocol proto, sim::Bandwidth rate, sim::Duration delay,
                  const core::QueueConfig& queues, std::uint64_t seed, sim::Duration horizon) {
  RunSpec spec;
  spec.fabric.link_rate = rate;
  spec.fabric.link_delay = delay;
  spec.fabric.queues = queues;
  spec.proto = proto;
  spec.seed = seed;
  spec.horizon = sim::TimePoint::zero() + horizon;
  return spec;
}

workload::GeneratedFlow flow(std::size_t index, std::size_t src, std::size_t dst,
                             std::uint64_t bytes, sim::Duration start) {
  workload::GeneratedFlow f;
  f.id = index + 1;
  f.src_host = src;
  f.dst_host = dst;
  f.bytes = bytes;
  f.start = sim::TimePoint::zero() + start;
  return f;
}

std::vector<double> util_series(const net::PortSampler& s) {
  std::vector<double> out;
  out.reserve(s.samples().size());
  for (const auto& sample : s.samples()) out.push_back(sample.utilization);
  return out;
}

// One flow on its own sender/receiver host pair, from switch `src` to `dst`
// of a line.
struct PairFlow {
  int src = 0, dst = 1;
  std::uint64_t bytes = 0;
  sim::Duration start = sim::Duration::zero();
};

// Chain and dynamic: a line of `spec.fabric.switches` with one host pair per
// flow (hosts 2i and 2i+1), each start jittered from the run's stream in flow
// order. Samples per-flow throughput and the first `bottlenecks` rightward
// links every `bin`.
TimelineResult run_pairs(RunSpec spec, const std::vector<PairFlow>& pairs, sim::Duration jitter,
                         sim::Duration bin, std::size_t bottlenecks) {
  spec.fabric.topology = Topology::kLine;
  sim::Rng rng{spec.seed};
  std::vector<workload::GeneratedFlow> flows;
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    spec.fabric.host_switch.push_back(pairs[i].src);
    spec.fabric.host_switch.push_back(pairs[i].dst);
    sim::Duration start = pairs[i].start;
    if (jitter > sim::Duration::zero()) {
      start += sim::Duration::nanoseconds(rng.uniform_int(0, jitter.ns()));
    }
    flows.push_back(flow(i, 2 * i, 2 * i + 1, pairs[i].bytes, start));
  }

  PacketRun run{spec, flows};
  stats::FlowThroughputTracker throughput{bin};
  run.serial_recorder().set_progress_hook(
      [&throughput](std::uint64_t id, std::uint64_t delta, sim::TimePoint at) {
        throughput.record(id, delta, at);
      });
  std::vector<std::unique_ptr<net::PortSampler>> samplers;
  for (std::size_t b = 0; b < bottlenecks; ++b) {
    samplers.push_back(std::make_unique<net::PortSampler>(
        run.sim(), run.network().port_at(run.line().right[b]), bin));
    samplers.back()->start();
  }
  run.run();

  TimelineResult out;
  out.bin = bin;
  for (const auto& f : flows) {
    out.flow_gbps.push_back(throughput.gbps(f.id));
    const auto& done = run.recorder().completed();
    const auto rec = std::find_if(done.begin(), done.end(),
                                  [&f](const stats::FlowRecord& r) { return r.flow == f.id; });
    out.flow_fct_ms.push_back(rec == done.end() ? -1.0 : rec->fct().to_millis());
  }
  out.bottleneck1_util = util_series(*samplers[0]);
  out.mean_util_b1 = samplers[0]->mean_utilization();
  if (bottlenecks > 1) {
    out.bottleneck2_util = util_series(*samplers[1]);
    out.mean_util_b2 = samplers[1]->mean_utilization();
  }
  for (const auto& s : samplers) {
    out.max_queue_pkts = std::max(out.max_queue_pkts, s->max_queue_pkts());
  }
  return out;
}

}  // namespace

// ---------------------------------------------------------------------------
// Chain (Figs. 1, 10/11): S0 -> S1 -> S2, bottlenecks S0->S1 and S1->S2
// ---------------------------------------------------------------------------

TimelineResult run_chain(const ChainConfig& cfg) {
  RunSpec spec = base_spec(cfg.proto, cfg.link_rate, cfg.link_delay, cfg.queues, cfg.seed,
                           cfg.duration);
  spec.fabric.switches = 3;
  spec.transport.homa_overcommit = cfg.homa_overcommit;
  std::vector<PairFlow> pairs;
  for (const auto& f : cfg.flows) {
    pairs.push_back({f.path == ChainPath::kSecond ? 1 : 0, f.path == ChainPath::kFirst ? 1 : 2,
                     f.bytes, f.start});
  }
  return run_pairs(spec, pairs, cfg.start_jitter, cfg.bin, 2);
}

// ---------------------------------------------------------------------------
// Dynamic traffic, single bottleneck S0 -> S1 (Figs. 2, 8/9)
// ---------------------------------------------------------------------------

TimelineResult run_dynamic(const DynamicConfig& cfg) {
  RunSpec spec = base_spec(cfg.proto, cfg.link_rate, cfg.link_delay, cfg.queues, cfg.seed,
                           cfg.duration);
  spec.fabric.switches = 2;
  spec.transport.homa_overcommit = cfg.homa_overcommit;
  spec.transport.amrt_marked_allowance = cfg.amrt_marked_allowance;
  std::vector<PairFlow> pairs;
  for (const auto& f : cfg.flows) pairs.push_back({0, 1, f.bytes, f.start});
  return run_pairs(spec, pairs, cfg.start_jitter, cfg.bin, 1);
}

// ---------------------------------------------------------------------------
// Many-to-many with unresponsive senders (Fig. 14)
// ---------------------------------------------------------------------------

ManyToManyResult run_many_to_many(const ManyToManyConfig& cfg) {
  RunSpec spec = base_spec(cfg.proto, cfg.link_rate, cfg.link_delay, cfg.queues, cfg.seed,
                           cfg.duration);
  spec.fabric.leaves = 3;
  spec.fabric.spines = cfg.spines;
  spec.fabric.hosts_per_leaf = cfg.senders_per_leaf;
  spec.transport.homa_overcommit = cfg.homa_overcommit;
  // Connections are long-established: the experiment isolates grant-driven
  // behaviour, so the blind first-BDP burst is disabled on every endpoint.
  spec.transport.unscheduled_start = false;

  // Senders live under leaves 0 and 1; the two receivers under leaf 2.
  const std::size_t senders = 2 * static_cast<std::size_t>(cfg.senders_per_leaf);
  ManyToManyResult out;
  sim::Rng rng{cfg.seed};
  spec.responsive.assign(spec.fabric.host_count(), true);
  for (std::size_t s = 0; s < senders; ++s) {
    spec.responsive[s] = rng.bernoulli(cfg.responsive_ratio);
    if (spec.responsive[s]) ++out.responsive_senders;
  }
  std::vector<workload::GeneratedFlow> flows;
  for (std::size_t s = 0; s < senders; ++s) {
    for (const std::size_t recv : {senders, senders + 1}) {
      // Slightly distinct sizes so SRPT ordering is meaningful (equal sizes
      // would make the overcommitment set a pure id tie-break).
      flows.push_back(flow(flows.size(), s, recv, cfg.flow_bytes + s * net::kMssBytes,
                           sim::Duration::zero()));
    }
  }

  PacketRun run{spec, flows};
  const auto& leaf2 = run.leaf_spine().leaf_down[2];
  net::PortSampler down0{run.sim(), run.network().port_at(leaf2[0]),
                         sim::Duration::microseconds(100)};
  net::PortSampler down1{run.sim(), run.network().port_at(leaf2[1]),
                         sim::Duration::microseconds(100)};
  down0.start();
  down1.start();
  run.run();

  out.mean_downlink_util = 0.5 * (down0.mean_utilization() + down1.mean_utilization());
  out.max_queue_pkts = std::max(down0.max_queue_pkts(), down1.max_queue_pkts());
  double queue_sum = 0.0;
  std::size_t queue_n = 0;
  for (const auto* s : {&down0, &down1}) {
    for (const auto& sample : s->samples()) {
      queue_sum += static_cast<double>(sample.queue_pkts);
      ++queue_n;
    }
  }
  out.mean_queue_pkts = queue_n == 0 ? 0.0 : queue_sum / static_cast<double>(queue_n);
  return out;
}

// ---------------------------------------------------------------------------
// Incast (Section 8.2): host 0 receives, hosts 1..N send, all on one switch
// ---------------------------------------------------------------------------

IncastResult run_incast(const IncastConfig& cfg) {
  RunSpec spec = base_spec(cfg.proto, cfg.link_rate, cfg.link_delay, cfg.queues, cfg.seed,
                           cfg.max_time);
  const auto senders = static_cast<std::size_t>(cfg.senders);
  spec.fabric.topology = Topology::kLine;
  spec.fabric.switches = 1;
  spec.fabric.host_switch.assign(senders + 1, 0);
  std::vector<workload::GeneratedFlow> flows;
  for (std::size_t i = 0; i < senders; ++i) {
    flows.push_back(flow(i, i + 1, 0, cfg.bytes_per_sender, sim::Duration::zero()));
  }

  PacketRun run{spec, flows};
  net::PortSampler down{run.sim(), run.network().port_at(run.line().host_down[0]),
                        sim::Duration::microseconds(10)};
  down.start();
  // Stop at the last completion rather than idling to the horizon.
  sim::Scheduler& sched = run.sim().scheduler();
  std::function<void()> poll = [&run, &sched, &poll, senders] {
    if (run.recorder().completed().size() >= senders) {
      sched.stop();
      return;
    }
    sched.after(sim::Duration::microseconds(100), poll);
  };
  sched.after(sim::Duration::microseconds(100), poll);
  run.run();

  IncastResult out;
  out.fct = run.recorder().summarize();
  out.max_queue_pkts = down.max_queue_pkts();
  const net::Switch& tor = run.network().switches().front();
  for (int p = 0; p < tor.port_count(); ++p) {
    out.drops += tor.port(p).queue().stats().dropped;
    out.trims += tor.port(p).queue().stats().trimmed;
  }
  const double total_bytes =
      static_cast<double>(cfg.bytes_per_sender) * static_cast<double>(cfg.senders);
  const double makespan_s = out.fct.max_fct_us * 1e-6;
  out.goodput_gbps = makespan_s > 0 ? total_bytes * 8.0 / makespan_s * 1e-9 : 0.0;
  return out;
}

}  // namespace amrt::harness

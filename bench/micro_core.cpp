// Micro-benchmarks of the simulation substrate itself (google-benchmark):
// event-queue throughput (sparse and at fabric density), queue disciplines,
// the anti-ECN marker, routing, fat-tree construction, workload sampling,
// the flow-level fast path alone, and a small end-to-end simulation as a
// packets/second figure.
#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "core/anti_ecn.hpp"
#include "core/factory.hpp"
#include "harness/experiment.hpp"
#include "harness/run.hpp"
#include "net/port.hpp"
#include "net/topology.hpp"
#include "net/routing.hpp"
#include "sim/event_queue.hpp"
#include "util/flat_map.hpp"
#include "workload/workloads.hpp"

using namespace amrt;

namespace {

void BM_EventQueuePushPop(benchmark::State& state) {
  sim::EventQueue q;
  std::int64_t t = 0;
  int sink = 0;
  for (auto _ : state) {
    for (int i = 0; i < 64; ++i) {
      (void)q.push(sim::TimePoint::from_ns(t + (i * 37) % 1000), [&sink] { ++sink; });
    }
    while (auto e = q.pop()) e->cb();
    t += 1000;
  }
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_EventQueuePushPop);

// The wheel at fabric density: ~30k pending events within ~100us of the
// clock, as on the serial k=16 fat-tree (BM_EventQueuePushPop never holds
// more than 64). Each item fires the head and schedules a replacement up to
// 100us past it, so the pending set and its span stay put.
void BM_EventQueueDenseWindow(benchmark::State& state) {
  constexpr int kPending = 30'000;
  constexpr std::uint64_t kSpanNs = 100'000;
  sim::EventQueue q;
  std::uint64_t x = 0x9E3779B97F4A7C15ULL;  // xorshift64: no Rng draw cost in the loop
  auto offset = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return static_cast<std::int64_t>(x % kSpanNs);
  };
  int sink = 0;
  for (int i = 0; i < kPending; ++i) {
    (void)q.push(sim::TimePoint::from_ns(offset()), [&sink] { ++sink; });
  }
  std::int64_t now = 0;
  auto step = [&] {
    q.fire_next(sim::TimePoint::max(), [&now](sim::TimePoint t) { now = t.ns(); });
    (void)q.push(sim::TimePoint::from_ns(now + offset()), [&sink] { ++sink; });
  };
  // Untimed: ~1.7ms of simulated time, so the timing covers the steady state
  // rather than the first few hundred thousand events a queue needs to
  // settle its bucket width.
  for (int i = 0; i < 1'000'000; ++i) step();
  for (auto _ : state) {
    for (int i = 0; i < 1024; ++i) step();
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_EventQueueDenseWindow);

void BM_SchedulerTimerChurn(benchmark::State& state) {
  for (auto _ : state) {
    sim::Scheduler sched;
    int fired = 0;
    for (int i = 0; i < 1000; ++i) {
      auto h = sched.after(sim::Duration::nanoseconds(i), [&fired] { ++fired; });
      if (i % 2 == 0) h.cancel();  // half the timers are cancelled, as in transport RTO churn
    }
    sched.run();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_SchedulerTimerChurn);

net::Packet make_pkt(std::uint32_t seq) {
  net::Packet p;
  p.flow = 7;
  p.seq = seq;
  p.wire_bytes = net::kMtuBytes;
  p.payload_bytes = net::kMssBytes;
  p.ecn_capable = true;
  p.ce = true;
  return p;
}

void BM_DropTailQueue(benchmark::State& state) {
  auto q = net::EgressQueue::drop_tail(128);
  std::uint32_t seq = 0;
  for (auto _ : state) {
    q.enqueue(make_pkt(seq++));
    benchmark::DoNotOptimize(q.dequeue());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DropTailQueue);

void BM_StrictPriorityQueue(benchmark::State& state) {
  auto q = net::EgressQueue::strict_priority(8, 128);
  std::uint32_t seq = 0;
  for (auto _ : state) {
    auto p = make_pkt(seq++);
    p.priority = static_cast<std::uint8_t>(seq % 8);
    q.enqueue(std::move(p));
    benchmark::DoNotOptimize(q.dequeue());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_StrictPriorityQueue);

// One port hop: an arrival at a 10G port with a 1 us link, through to its
// delivery event at a sink node. The idle case finds the port idle and its
// queue empty, as 87% of arrivals do on the k=16 web-search fabric; the
// queued case arrives behind a packet still serializing, so it waits in the
// queue for the port's wakeup. Each item delivers one packet.
class SinkNode final : public net::Node {
 public:
  SinkNode() : Node{net::NodeId{1}} {}
  void handle_packet(net::Packet&& pkt, int) override { seq_sum += pkt.seq; }
  std::uint64_t seq_sum = 0;
};

struct HopRig {
  sim::Scheduler sched;
  SinkNode sink;
  net::EgressQueue queue = net::EgressQueue::drop_tail(64);
  net::EgressPort port{sched, {sim::Bandwidth::gbps(10), sim::Duration::microseconds(1)}, queue};
  HopRig() { port.connect(sink, 0); }
};

void BM_EgressPortIdleHop(benchmark::State& state) {
  HopRig rig;
  std::uint32_t seq = 0;
  for (auto _ : state) {
    rig.port.enqueue(make_pkt(seq++));
    rig.sched.run();  // the delivery; the port is idle again after it
  }
  benchmark::DoNotOptimize(rig.sink.seq_sum);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EgressPortIdleHop);

void BM_EgressPortQueuedHop(benchmark::State& state) {
  HopRig rig;
  const sim::Duration tx = sim::Bandwidth::gbps(10).tx_time(net::kMtuBytes);
  std::uint32_t seq = 0;
  rig.port.enqueue(make_pkt(seq++));  // keeps the port busy from here on
  for (auto _ : state) {
    rig.port.enqueue(make_pkt(seq++));  // queued behind the one serializing
    // The wakeup at the end of that transmission starts this packet's, and
    // the delivery one link delay later fires in a later step.
    rig.sched.run_until(rig.sched.now() + tx);
  }
  benchmark::DoNotOptimize(rig.sink.seq_sum);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EgressPortQueuedHop);

void BM_AntiEcnMarker(benchmark::State& state) {
  core::AntiEcnMarker marker;
  auto pkt = make_pkt(1);
  std::int64_t t = 0;
  for (auto _ : state) {
    pkt.ce = true;
    marker.on_dequeue(pkt, sim::TimePoint::from_ns(t), sim::TimePoint::from_ns(t - 600),
                      sim::Bandwidth::gbps(10));
    benchmark::DoNotOptimize(pkt.ce);
    t += 1200;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AntiEcnMarker);

// One routed hop: RoutingTable::select over a 16-destination, 4-way ECMP
// table with 64 concurrent flows: one 4-byte entry load, the flow hash and
// the modulo per packet. The table stays in L1 here, unlike a k=16 fabric's
// 320 tables, so this bounds the per-forward compute, not the memory cost.
void BM_SwitchForward(benchmark::State& state) {
  net::RoutingTable table;
  constexpr std::uint32_t kDsts = 16;
  const std::vector<net::PortId> ports{0, 1, 2, 3};
  for (std::uint32_t d = 0; d < kDsts; ++d) table.set_routes(net::NodeId{d}, ports);
  net::Packet pkt = make_pkt(0);
  std::uint64_t flow = 0;
  int sink = 0;
  for (auto _ : state) {
    pkt.flow = 1 + (flow % 64);
    pkt.dst = net::NodeId{static_cast<std::uint32_t>(flow % kDsts)};
    sink += table.select(pkt);
    ++flow;
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SwitchForward);

// Fabric construction alone (the net.build layer): build_fat_tree at k=16 —
// 1024 hosts, 320 switches, 6144 ports and every switch's ECMP table — with
// AMRT's queues and markers. The Simulation and Network are made and torn
// down outside the timed region.
void BM_BuildFatTree(benchmark::State& state) {
  net::FatTreeConfig cfg;
  cfg.k = static_cast<int>(state.range(0));
  cfg.queue_factory = core::make_queue_factory(transport::Protocol::kAmrt);
  cfg.marker_factory = core::make_marker_factory(transport::Protocol::kAmrt);
  for (auto _ : state) {
    state.PauseTiming();
    auto simulation = std::make_unique<sim::Simulation>();
    auto network = std::make_unique<net::Network>(*simulation);
    state.ResumeTiming();
    const net::FatTree topo = net::build_fat_tree(*network, cfg);
    benchmark::DoNotOptimize(topo.hosts.data());
    state.PauseTiming();
    network.reset();
    simulation.reset();
    state.ResumeTiming();
  }
}
BENCHMARK(BM_BuildFatTree)->Arg(16)->Unit(benchmark::kMillisecond);

// Flow-table probe: hit-rate lookups over a 256-flow FlatMap — the shape of
// the per-arrival snd_/rcv_ probe in the transport layer.
void BM_FlatMapLookup(benchmark::State& state) {
  util::FlatMap<net::FlowId, std::uint64_t> map;
  constexpr std::uint64_t kFlows = 256;
  for (std::uint64_t i = 0; i < kFlows; ++i) map[i * 7 + 1] = i;
  std::uint64_t key = 0;
  std::uint64_t sink = 0;
  for (auto _ : state) {
    const std::uint64_t* v = map.find((key % kFlows) * 7 + 1);
    sink += *v;
    ++key;
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FlatMapLookup);

// Endpoint arrival path in situ: one AMRT pair moving 1MB across a single
// uncontended switch, so per-packet cost is dominated by the receiver's
// on_data chain (flow-table probe, SeqBitmap mark, grant clock). items/s is
// delivered data packets per wall second.
void BM_ReceiverArrival(benchmark::State& state) {
  double total_pkts = 0;
  for (auto _ : state) {
    sim::Simulation sim;
    net::Network network{sim};
    const auto rate = sim::Bandwidth::gbps(10);
    const auto delay = sim::Duration::microseconds(5);
    const auto base_rtt = net::path_base_rtt(2, rate, delay);

    auto qf = core::make_queue_factory(transport::Protocol::kAmrt);
    auto mf = core::make_marker_factory(transport::Protocol::kAmrt);
    const net::SwitchId sw = network.add_switch();
    const net::HostId src_id = network.add_host(rate, delay, qf(true));
    const net::HostId dst_id = network.add_host(rate, delay, qf(true));
    const net::PortId src_down = network.attach_host(src_id, sw, qf(false), mf ? mf() : nullptr);
    const net::PortId dst_down = network.attach_host(dst_id, sw, qf(false), mf ? mf() : nullptr);
    network.switch_at(sw).routes().set_routes(network.id_of(src_id), {&src_down, 1});
    network.switch_at(sw).routes().set_routes(network.id_of(dst_id), {&dst_down, 1});
    net::Host& src = network.host(src_id);
    net::Host& dst = network.host(dst_id);

    transport::TransportConfig tcfg;
    tcfg.host_rate = rate;
    tcfg.base_rtt = base_rtt;
    stats::FctRecorder recorder{rate, base_rtt};
    auto sep = core::make_endpoint(transport::Protocol::kAmrt, sim, src, tcfg, &recorder);
    auto* sender = sep.get();
    src.attach(std::move(sep));
    dst.attach(core::make_endpoint(transport::Protocol::kAmrt, sim, dst, tcfg, &recorder));

    sender->start_flow({1, src.id(), dst.id(), 1'000'000, sim::TimePoint::zero()});
    sim.run_until(sim::TimePoint::zero() + sim::Duration::milliseconds(10));
    benchmark::DoNotOptimize(recorder.completed().size());
    total_pkts +=
        static_cast<double>(recorder.bytes_delivered()) / static_cast<double>(net::kMssBytes);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(total_pkts));
}
BENCHMARK(BM_ReceiverArrival)->Unit(benchmark::kMillisecond);

void BM_WorkloadSampling(benchmark::State& state) {
  sim::Rng rng{1};
  const auto& cdf = workload::cdf(workload::Kind::kDataMining);
  for (auto _ : state) benchmark::DoNotOptimize(cdf.sample(rng));
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_WorkloadSampling);

// The flow-level fast path (src/flowsim) alone: 1000 web-search flows at
// load 0.5 on a k=16 fat-tree under the AMRT grant-clock model, through
// harness::FlowRun (fabric, path resolution, water-filling, recorder). The
// schedule is drawn once, outside the timing; items/s is fluid events per
// wall second.
void BM_FlowSimFatTree(benchmark::State& state) {
  harness::ExperimentConfig cfg;
  cfg.run.fabric.topology = harness::Topology::kFatTree;
  cfg.run.fabric.fat_k = 16;
  cfg.run.fabric.link_delay = net::FatTreeConfig{}.link_delay;
  cfg.n_flows = 1'000;
  const auto flows = harness::draw_schedule(cfg);
  double total_events = 0;
  double total_recomputes = 0;
  for (auto _ : state) {
    harness::FlowRun run{cfg.run, flows};
    run.run();
    benchmark::DoNotOptimize(run.recorder().completed().size());
    total_events += static_cast<double>(run.result().events);
    total_recomputes += static_cast<double>(run.result().recomputes);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(total_events));
  state.counters["events"] = total_events / static_cast<double>(state.iterations());
  state.counters["recomputes"] = total_recomputes / static_cast<double>(state.iterations());
}
BENCHMARK(BM_FlowSimFatTree)->Unit(benchmark::kMillisecond);

// End-to-end: a 2x2x4 AMRT fabric moving 20 x 100KB flows; items/s is the
// simulator's packet throughput (delivered data packets per wall second) and
// events/s its raw event throughput.
void BM_EndToEndSmallFabric(benchmark::State& state) {
  double total_events = 0;
  double total_pkts = 0;
  for (auto _ : state) {
    sim::Simulation sim;
    net::Network network{sim};
    net::LeafSpineConfig topo_cfg;
    topo_cfg.leaves = 2;
    topo_cfg.spines = 2;
    topo_cfg.hosts_per_leaf = 4;
    topo_cfg.link_delay = sim::Duration::microseconds(5);
    topo_cfg.queue_factory = core::make_queue_factory(transport::Protocol::kAmrt);
    topo_cfg.marker_factory = core::make_marker_factory(transport::Protocol::kAmrt);
    auto topo = net::build_leaf_spine(network, topo_cfg);

    transport::TransportConfig tcfg;
    tcfg.base_rtt = topo.base_rtt;
    stats::FctRecorder recorder{topo_cfg.link_rate, topo.base_rtt};
    std::vector<transport::TransportEndpoint*> eps;
    for (auto* h : topo.hosts) {
      auto ep = core::make_endpoint(transport::Protocol::kAmrt, sim, *h, tcfg, &recorder);
      eps.push_back(ep.get());
      h->attach(std::move(ep));
    }
    for (net::FlowId i = 0; i < 20; ++i) {
      const std::size_t src = i % topo.hosts.size();
      const std::size_t dst = (i + 5) % topo.hosts.size();
      eps[src]->start_flow({i + 1, topo.hosts[src]->id(), topo.hosts[dst]->id(), 100'000,
                            sim::TimePoint::zero()});
    }
    sim.run_until(sim::TimePoint::zero() + sim::Duration::milliseconds(50));
    benchmark::DoNotOptimize(recorder.completed().size());
    total_events += static_cast<double>(sim.events_processed());
    total_pkts +=
        static_cast<double>(recorder.bytes_delivered()) / static_cast<double>(net::kMssBytes);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(total_pkts));
  state.counters["events"] = total_events / static_cast<double>(state.iterations());
  state.counters["events_per_s"] = benchmark::Counter(total_events, benchmark::Counter::kIsRate);
}
BENCHMARK(BM_EndToEndSmallFabric)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();

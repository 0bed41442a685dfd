// Unit tests for port telemetry (src/net/monitor.hpp): the PortSampler time
// series and the counter-based active_utilization.
#include <gtest/gtest.h>

#include "net/monitor.hpp"
#include "net/topology.hpp"

using namespace amrt::net;
using namespace amrt::sim;
using namespace amrt::sim::literals;

namespace {
struct Rig {
  Simulation sim;
  Scheduler& sched = sim.scheduler();
  Network net{sim};
  Host* a = nullptr;
  Host* b = nullptr;
  Switch* sw = nullptr;

  Rig() {
    const SwitchId s = net.add_switch();
    const HostId ha = net.add_host(Bandwidth::gbps(10), 1_us, EgressQueue::drop_tail(4096));
    const HostId hb = net.add_host(Bandwidth::gbps(10), 1_us, EgressQueue::drop_tail(4096));
    const PortId a_down = net.attach_host(ha, s, EgressQueue::drop_tail(256));
    const PortId b_down = net.attach_host(hb, s, EgressQueue::drop_tail(256));
    net.switch_at(s).routes().add_route(net.id_of(ha), a_down);
    net.switch_at(s).routes().add_route(net.id_of(hb), b_down);
    sw = &net.switch_at(s);
    a = &net.host(ha);
    b = &net.host(hb);
  }

  // Queues `packets` full-size data packets for host b onto `port`.
  void fill(EgressPort& port, int packets) {
    for (int i = 0; i < packets; ++i) {
      Packet p;
      p.flow = 1;
      p.seq = static_cast<std::uint32_t>(i);
      p.dst = b->id();
      p.type = PacketType::kData;
      p.wire_bytes = kMtuBytes;
      port.enqueue(std::move(p));
    }
  }
  // From host a, through its jittered NIC.
  void blast(int packets) { fill(a->nic(), packets); }
  // Straight onto b's downlink, so it transmits back to back.
  void burst(int packets) { fill(sw->port(1), packets); }
};
}  // namespace

TEST(PortSampler, SaturatedLinkReadsNearFullUtilization) {
  Rig rig;
  rig.blast(2000);  // 2.4ms of traffic at 10G
  PortSampler sampler{rig.sim, rig.sw->port(1), 100_us};
  sampler.start();
  rig.sched.run_until(TimePoint::zero() + 2_ms);
  ASSERT_GE(sampler.samples().size(), 10u);
  // Host NIC jitter (~1/8 of a packet time) caps the offered rate at ~94%.
  EXPECT_GT(sampler.mean_utilization(), 0.90);
}

TEST(PortSampler, IdleLinkReadsZero) {
  Rig rig;
  PortSampler sampler{rig.sim, rig.sw->port(1), 100_us};
  sampler.start();
  rig.sched.run_until(TimePoint::zero() + 1_ms);
  EXPECT_DOUBLE_EQ(sampler.mean_utilization(), 0.0);
}

TEST(PortSampler, StopHaltsSampling) {
  Rig rig;
  PortSampler sampler{rig.sim, rig.sw->port(1), 100_us};
  sampler.start();
  rig.sched.run_until(TimePoint::zero() + 500_us);
  const auto n = sampler.samples().size();
  sampler.stop();
  rig.sched.run_until(TimePoint::zero() + 1_ms);
  EXPECT_EQ(sampler.samples().size(), n);
}

TEST(PortSampler, WindowedMeanSelectsInterval) {
  Rig rig;
  PortSampler sampler{rig.sim, rig.sw->port(1), 100_us};
  sampler.start();
  // Idle first ms, then traffic.
  rig.sched.at(TimePoint::zero() + 1_ms, [&] { rig.blast(2000); });
  rig.sched.run_until(TimePoint::zero() + 3_ms);
  EXPECT_LT(sampler.mean_utilization(TimePoint::zero(), TimePoint::zero() + 900_us), 0.01);
  EXPECT_GT(sampler.mean_utilization(TimePoint::zero() + 1200_us, TimePoint::zero() + 3_ms), 0.9);
}

TEST(PortSampler, TracksQueueHighWater) {
  Rig rig;
  rig.blast(200);  // NIC serializes at the same rate as the downlink: queue ~1
  PortSampler sampler{rig.sim, rig.sw->port(1), 10_us};
  sampler.start();
  rig.sched.run_until(TimePoint::zero() + 1_ms);
  EXPECT_LE(sampler.max_queue_pkts(), 2u);
}

TEST(ActiveUtilization, SaturatedPortReadsOne) {
  Rig rig;
  EgressPort& port = rig.sw->port(1);
  rig.burst(200);  // fits the 256-packet queue: no drops, no gaps
  rig.sched.run_until(TimePoint::zero() + 1_ms);
  ASSERT_EQ(port.packets_sent(), 200u);
  EXPECT_DOUBLE_EQ(active_utilization(port), 1.0);
  // Through the jittered NIC the downlink is busy ~94% of its window.
  Rig nic;
  nic.blast(1000);
  nic.sched.run_until(TimePoint::zero() + 2_ms);
  EXPECT_GT(active_utilization(nic.sw->port(1)), 0.85);
  EXPECT_LE(active_utilization(nic.sw->port(1)), 1.0);
}

TEST(ActiveUtilization, IdlePortReadsZero) {
  Rig rig;
  rig.sched.run_until(TimePoint::zero() + 1_ms);
  EXPECT_DOUBLE_EQ(active_utilization(rig.sw->port(1)), 0.0);
  EXPECT_EQ(rig.sw->port(1).first_tx_start(), TimePoint::zero());
}

TEST(ActiveUtilization, PortIsJudgedOnItsOwnWindow) {
  Rig rig;
  EgressPort& port = rig.sw->port(1);
  // Idle for the first ms of a 5 ms run, then one back-to-back burst: the
  // idle time outside the burst does not count.
  rig.sched.at(TimePoint::zero() + 1_ms, [&] { rig.burst(100); });
  rig.sched.run_until(TimePoint::zero() + 5_ms);
  EXPECT_EQ(port.first_tx_start(), TimePoint::zero() + 1_ms);
  EXPECT_DOUBLE_EQ(active_utilization(port), 1.0);
  // A second burst at 6 ms: the gap between the bursts lies inside the
  // window and counts, so the port reads busy time over the whole window.
  rig.sched.at(TimePoint::zero() + 6_ms, [&] { rig.burst(100); });
  rig.sched.run_until(TimePoint::zero() + 10_ms);
  const Duration tx = Bandwidth::gbps(10).tx_time(kMtuBytes);
  EXPECT_EQ(port.busy_time(), tx * 200);
  EXPECT_EQ(port.last_tx_end(), TimePoint::zero() + 6_ms + tx * 100);
  EXPECT_DOUBLE_EQ(active_utilization(port), (tx * 200) / (5_ms + tx * 100));
}

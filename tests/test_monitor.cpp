// Unit tests for port telemetry (src/net/monitor.hpp).
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

  void blast(int packets) {
    for (int i = 0; i < packets; ++i) {
      Packet p;
      p.flow = 1;
      p.seq = static_cast<std::uint32_t>(i);
      p.dst = b->id();
      p.type = PacketType::kData;
      p.wire_bytes = kMtuBytes;
      a->nic().enqueue(std::move(p));
    }
  }
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

TEST(WindowUtilization, ComputesFromByteCounters) {
  Rig rig;
  const auto& port = rig.sw->port(1);
  const auto before = port.bytes_sent();
  const auto t0 = rig.sched.now();
  rig.blast(1000);
  rig.sched.run_until(TimePoint::zero() + 1_ms);
  const double u = window_utilization(port, before, t0, rig.sched.now());
  EXPECT_GT(u, 0.9);
  EXPECT_LE(u, 1.0);
}

TEST(WindowUtilization, EmptyWindowIsZero) {
  Rig rig;
  const auto& port = rig.sw->port(1);
  EXPECT_DOUBLE_EQ(window_utilization(port, 0, TimePoint::zero(), TimePoint::zero()), 0.0);
}

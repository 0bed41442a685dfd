// Unit tests for the Network container and the leaf-spine and line builders.
#include <gtest/gtest.h>

#include "core/factory.hpp"
#include "net/topology.hpp"

using namespace amrt;
using namespace amrt::net;
using namespace amrt::sim;
using namespace amrt::sim::literals;

namespace {
LeafSpineConfig small_cfg() {
  LeafSpineConfig cfg;
  cfg.leaves = 3;
  cfg.spines = 2;
  cfg.hosts_per_leaf = 4;
  cfg.link_delay = 5_us;
  cfg.queue_factory = core::make_queue_factory(transport::Protocol::kAmrt);
  return cfg;
}
}  // namespace

TEST(LeafSpine, NodeAndPortCounts) {
  Simulation sim;
  Network net{sim};
  const auto topo = build_leaf_spine(net, small_cfg());
  EXPECT_EQ(topo.hosts.size(), 12u);
  EXPECT_EQ(topo.leaves.size(), 3u);
  EXPECT_EQ(topo.spines.size(), 2u);
  // Each leaf: 4 host downlinks + 2 spine uplinks.
  for (auto* leaf : topo.leaves) EXPECT_EQ(leaf->port_count(), 6);
  // Each spine: 3 leaf downlinks.
  for (auto* spine : topo.spines) EXPECT_EQ(spine->port_count(), 3);
}

TEST(LeafSpine, EveryPairRoutable) {
  Simulation sim;
  Network net{sim};
  const auto topo = build_leaf_spine(net, small_cfg());
  for (auto* src : topo.hosts) {
    for (auto* dst : topo.hosts) {
      if (src == dst) continue;
      Packet p;
      p.flow = src->id().value * 100 + dst->id().value;
      p.dst = dst->id();
      // Routing at the source's leaf must resolve.
      for (auto* leaf : topo.leaves) {
        // Only the owning leaf necessarily has the downlink; every leaf must
        // at least resolve remote hosts via spines.
        EXPECT_NO_THROW((void)leaf->routes().select(p));
      }
      for (auto* spine : topo.spines) {
        EXPECT_NO_THROW((void)spine->routes().select(p));
      }
    }
  }
}

TEST(LeafSpine, CrossRackDeliveryWorks) {
  Simulation sim;
  Network net{sim};
  const auto topo = build_leaf_spine(net, small_cfg());
  Packet p;
  p.flow = 7;
  p.src = topo.hosts[0]->id();
  p.dst = topo.hosts[11]->id();  // other rack
  p.type = PacketType::kData;
  p.wire_bytes = kMtuBytes;
  topo.hosts[0]->nic().enqueue(std::move(p));
  sim.run();
  EXPECT_EQ(topo.hosts[11]->bytes_received(), kMtuBytes);
}

TEST(LeafSpine, SameRackStaysLocal) {
  Simulation sim;
  Network net{sim};
  const auto topo = build_leaf_spine(net, small_cfg());
  Packet p;
  p.flow = 9;
  p.dst = topo.hosts[1]->id();  // same leaf as hosts[0]
  p.type = PacketType::kData;
  p.wire_bytes = kMtuBytes;
  topo.hosts[0]->nic().enqueue(std::move(p));
  sim.run();
  EXPECT_EQ(topo.hosts[1]->bytes_received(), kMtuBytes);
  for (auto* spine : topo.spines) {
    for (int i = 0; i < spine->port_count(); ++i) {
      EXPECT_EQ(spine->port(i).packets_sent(), 0u) << "intra-rack traffic must not touch spines";
    }
  }
}

TEST(LeafSpine, BaseRttMatchesPathFormula) {
  Simulation sim;
  Network net{sim};
  const auto cfg = small_cfg();
  const auto topo = build_leaf_spine(net, cfg);
  EXPECT_EQ(topo.base_rtt, path_base_rtt(4, cfg.link_rate, cfg.link_delay));
  EXPECT_GT(topo.base_rtt, Duration::zero());
}

TEST(LeafSpine, RequiresQueueFactory) {
  Simulation sim;
  Network net{sim};
  LeafSpineConfig cfg = small_cfg();
  cfg.queue_factory = nullptr;
  EXPECT_THROW((void)build_leaf_spine(net, cfg), std::invalid_argument);
}

TEST(LeafSpine, MarkerFactoryAppliedToSwitchPorts) {
  Simulation sim;
  Network net{sim};
  auto cfg = small_cfg();
  int markers_made = 0;
  cfg.marker_factory = [&markers_made]() -> std::unique_ptr<DequeueMarker> {
    ++markers_made;
    return core::make_marker_factory(transport::Protocol::kAmrt)();
  };
  (void)build_leaf_spine(net, cfg);
  // 12 host downlinks + 3*2 leaf uplinks + 2*3 spine downlinks.
  EXPECT_EQ(markers_made, 24);
}

TEST(Line, HostsFollowTheLayoutAndRouteAlongTheLine) {
  Simulation sim;
  Network net{sim};
  LineConfig cfg;
  cfg.switches = 3;
  cfg.host_switch = {2, 0, 1};  // not grouped by switch
  cfg.queue_factory = core::make_queue_factory(transport::Protocol::kAmrt);
  const Line line = build_line(net, cfg);
  ASSERT_EQ(line.hosts.size(), 3u);
  ASSERT_EQ(line.right.size(), 2u);
  EXPECT_EQ(line.base_rtt, path_base_rtt(4, cfg.link_rate, cfg.link_delay));
  // NodeIds follow the list, and host 0 (under S2) is reached from S0 and
  // S1 over the rightward ports and from S2 over its downlink.
  EXPECT_LT(line.hosts[0]->id().value, line.hosts[1]->id().value);
  EXPECT_LT(line.hosts[1]->id().value, line.hosts[2]->id().value);
  Packet p;
  p.dst = line.hosts[0]->id();
  auto& switches = net.switches();
  EXPECT_EQ(switches[0].routes().select(p), line.right[0]);
  EXPECT_EQ(switches[1].routes().select(p), line.right[1]);
  EXPECT_EQ(switches[2].routes().select(p), line.host_down[0]);
  cfg.host_switch = {3};
  EXPECT_THROW((void)build_line(net, cfg), std::invalid_argument);
}

TEST(PathBaseRtt, ScalesWithHopsAndDelay) {
  const auto rtt2 = path_base_rtt(2, Bandwidth::gbps(10), 10_us);
  const auto rtt4 = path_base_rtt(4, Bandwidth::gbps(10), 10_us);
  EXPECT_EQ(rtt4, rtt2 * 2);
  // 4 hops at 10G/10us: data way 4*(1.2+10), ctrl way 4*(0.052->52ns + 10us).
  EXPECT_EQ(rtt4, Duration::nanoseconds(4 * (1200 + 10'000) + 4 * (52 + 10'000)));
}

TEST(Network, HostIdsAreUnique) {
  Simulation sim;
  Network net{sim};
  const auto topo = build_leaf_spine(net, small_cfg());
  std::set<std::uint32_t> ids;
  for (auto* h : topo.hosts) ids.insert(h->id().value);
  EXPECT_EQ(ids.size(), topo.hosts.size());
}

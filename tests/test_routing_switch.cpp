// Unit tests for routing tables, ECMP and switch forwarding.
#include <gtest/gtest.h>

#include <map>
#include <random>
#include <set>
#include <vector>

#include "net/switch.hpp"
#include "net/topology.hpp"

using namespace amrt::net;
using namespace amrt::sim;
using namespace amrt::sim::literals;

namespace {
Packet to_dst(NodeId dst, FlowId flow = 1) {
  Packet p;
  p.flow = flow;
  p.dst = dst;
  p.type = PacketType::kData;
  p.wire_bytes = kMtuBytes;
  return p;
}
}  // namespace

TEST(RoutingTable, SinglePathSelected) {
  RoutingTable rt;
  rt.add_route(NodeId{5}, 2);
  EXPECT_EQ(rt.select(to_dst(NodeId{5})), 2);
}

TEST(RoutingTableDeathTest, UnknownDestinationAborts) {
  // An unroutable packet mid-run is a wiring bug, not a recoverable error:
  // the hot path aborts with a diagnostic instead of carrying throw
  // machinery (misconfiguration is meant to be caught at build time by
  // require_route).
  RoutingTable rt;
  rt.add_route(NodeId{1}, 0);
  EXPECT_DEATH((void)rt.select(to_dst(NodeId{9})), "unknown destination");
}

TEST(RoutingTable, RequireRouteValidatesAtWiringTime) {
  RoutingTable rt;
  rt.add_route(NodeId{3}, 1);
  EXPECT_NO_THROW(rt.require_route(NodeId{3}));
  EXPECT_THROW(rt.require_route(NodeId{9}), std::logic_error);
}

TEST(RoutingTable, EcmpIsPerFlowDeterministic) {
  RoutingTable rt;
  for (int p = 0; p < 4; ++p) rt.add_route(NodeId{1}, p);
  for (FlowId f = 1; f < 50; ++f) {
    const int first = rt.select(to_dst(NodeId{1}, f));
    for (int rep = 0; rep < 5; ++rep) {
      EXPECT_EQ(rt.select(to_dst(NodeId{1}, f)), first) << "flow must stay on one path";
    }
  }
}

TEST(RoutingTable, EcmpSpreadsFlows) {
  RoutingTable rt;
  for (int p = 0; p < 4; ++p) rt.add_route(NodeId{1}, p);
  std::set<int> used;
  for (FlowId f = 1; f < 100; ++f) used.insert(rt.select(to_dst(NodeId{1}, f)));
  EXPECT_EQ(used.size(), 4u);
}

TEST(RoutingTable, PortsForExposesEcmpSet) {
  RoutingTable rt;
  rt.add_route(NodeId{1}, 0);
  rt.add_route(NodeId{1}, 3);
  EXPECT_EQ(rt.ports_for(NodeId{1}).size(), 2u);
  EXPECT_EQ(rt.destinations(), 1u);
}

TEST(RoutingTable, RouteCacheSurvivesChurnAndInvalidation) {
  // The per-flow route cache must never change an answer: repeated lookups
  // across many interleaved flows (direct-mapped slots will collide and
  // evict) always reproduce the first pick, and adding a route afterwards
  // rebuilds the table without stale cached ports escaping.
  RoutingTable rt;
  for (int p = 0; p < 3; ++p) rt.add_route(NodeId{1}, p);
  std::map<FlowId, int> first_pick;
  for (FlowId f = 1; f <= 2000; ++f) first_pick[f] = rt.select(to_dst(NodeId{1}, f));
  for (int round = 0; round < 3; ++round) {
    for (FlowId f = 1; f <= 2000; ++f) {
      ASSERT_EQ(rt.select(to_dst(NodeId{1}, f)), first_pick[f]) << "flow " << f;
    }
  }
  // Table mutation invalidates the compiled form and the cache wholesale;
  // every answer must still be a member of the (new) ECMP set.
  rt.add_route(NodeId{1}, 7);
  std::set<int> used;
  for (FlowId f = 1; f <= 2000; ++f) used.insert(rt.select(to_dst(NodeId{1}, f)));
  for (int p : used) EXPECT_TRUE((p >= 0 && p < 3) || p == 7);
  EXPECT_TRUE(used.count(7) > 0) << "new route never selected after invalidation";
}

TEST(RoutingTable, SprayCountersArePerDestination) {
  // Two spray destinations on one switch must round-robin independently:
  // with a shared counter, alternating traffic would visit only half of
  // each destination's ports (correlated lockstep).
  RoutingTable rt;
  rt.set_mode(MultipathMode::kPacketSpray);
  for (int p = 0; p < 2; ++p) rt.add_route(NodeId{1}, p);
  for (int p = 2; p < 4; ++p) rt.add_route(NodeId{2}, p);
  std::set<int> used1, used2;
  for (int i = 0; i < 4; ++i) {
    used1.insert(rt.select(to_dst(NodeId{1})));
    used2.insert(rt.select(to_dst(NodeId{2})));
  }
  EXPECT_EQ(used1, (std::set<int>{0, 1}));
  EXPECT_EQ(used2, (std::set<int>{2, 3}));
}

TEST(RoutingTable, SpraySkipsControlPackets) {
  RoutingTable rt;
  rt.set_mode(MultipathMode::kPacketSpray);
  for (int p = 0; p < 4; ++p) rt.add_route(NodeId{1}, p);
  Packet ctrl = to_dst(NodeId{1});
  ctrl.type = PacketType::kGrant;
  const int first = rt.select(ctrl);
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(rt.select(ctrl), first) << "control packets must stay on the hashed path";
  }
}

TEST(RoutingTable, SharedEcmpSetIsStoredOnce) {
  // 1000 destinations over the same 8 ports intern to one 8-port run,
  // whether the wiring is destination-major (the builders) or port-major.
  for (const bool port_major : {false, true}) {
    RoutingTable rt;
    constexpr std::uint32_t kDsts = 1000;
    if (port_major) {
      for (int p = 0; p < 8; ++p) {
        for (std::uint32_t d = 0; d < kDsts; ++d) rt.add_route(NodeId{d}, p);
      }
    } else {
      for (std::uint32_t d = 0; d < kDsts; ++d) {
        for (int p = 0; p < 8; ++p) rt.add_route(NodeId{d}, p);
      }
    }
    EXPECT_EQ(rt.pool_size(), 8u) << (port_major ? "port-major" : "destination-major");
    EXPECT_EQ(rt.destinations(), kDsts);
    const std::vector<int> want{0, 1, 2, 3, 4, 5, 6, 7};
    for (std::uint32_t d = 0; d < kDsts; ++d) {
      const auto got = rt.ports_for(NodeId{d});
      ASSERT_EQ(std::vector<int>(got.begin(), got.end()), want) << "dst " << d;
    }
  }
}

TEST(RoutingTable, InternedSetsMatchPerDestinationLists) {
  // Random interleaved wiring (repeated ports, shared and diverging
  // prefixes, sparse destinations) against a plain per-destination list:
  // every ECMP set keeps its ports in the order they were added.
  std::mt19937 gen{17};
  for (int trial = 0; trial < 20; ++trial) {
    RoutingTable rt;
    std::map<std::uint32_t, std::vector<int>> want;
    for (int i = 0; i < 400; ++i) {
      const auto dst = static_cast<std::uint32_t>(gen() % 40) * 3;
      const int port = static_cast<int>(gen() % 5);
      rt.add_route(NodeId{dst}, port);
      want[dst].push_back(port);
      if (i % 50 == 0) (void)rt.select(to_dst(NodeId{dst}));  // lookups mid-wiring
    }
    EXPECT_EQ(rt.destinations(), want.size());
    for (const auto& [dst, ports] : want) {
      const auto got = rt.ports_for(NodeId{dst});
      ASSERT_EQ(std::vector<int>(got.begin(), got.end()), ports) << "dst " << dst;
    }
    EXPECT_TRUE(rt.ports_for(NodeId{1}).empty());
  }
}

TEST(RoutingTable, MutationRestartsSprayCursors) {
  // A route added anywhere on the switch restarts every destination's spray
  // cursor at the front of its set on the next lookup.
  RoutingTable rt;
  rt.set_mode(MultipathMode::kPacketSpray);
  for (int p = 0; p < 3; ++p) rt.add_route(NodeId{1}, p);
  EXPECT_EQ(rt.select(to_dst(NodeId{1})), 0);
  EXPECT_EQ(rt.select(to_dst(NodeId{1})), 1);
  rt.add_route(NodeId{2}, 5);
  EXPECT_EQ(rt.select(to_dst(NodeId{1})), 0);
  EXPECT_EQ(rt.select(to_dst(NodeId{1})), 1);
  EXPECT_EQ(rt.select(to_dst(NodeId{1})), 2);
  EXPECT_EQ(rt.select(to_dst(NodeId{2})), 5);
}

TEST(EcmpHash, DistinctForConsecutiveFlows) {
  std::set<std::uint64_t> hashes;
  for (FlowId f = 0; f < 1000; ++f) hashes.insert(ecmp_hash(f));
  EXPECT_EQ(hashes.size(), 1000u);  // no collisions on a small range
}

TEST(Switch, ForwardsToRoutedPort) {
  Simulation sim;
  Scheduler& sched = sim.scheduler();
  Network net{sim};
  const SwitchId sw = net.add_switch();
  const HostId h0 = net.add_host(Bandwidth::gbps(10), 1_us, EgressQueue::drop_tail(64));
  const HostId h1 = net.add_host(Bandwidth::gbps(10), 1_us, EgressQueue::drop_tail(64));
  const PortId h0_down = net.attach_host(h0, sw, EgressQueue::drop_tail(64));
  const PortId h1_down = net.attach_host(h1, sw, EgressQueue::drop_tail(64));
  net.switch_at(sw).routes().add_route(net.id_of(h0), h0_down);
  net.switch_at(sw).routes().add_route(net.id_of(h1), h1_down);

  net.switch_at(sw).handle_packet(to_dst(net.id_of(h1)), 0);
  sched.run();
  EXPECT_EQ(net.host(h0).bytes_received(), 0u);
  EXPECT_EQ(net.host(h1).bytes_received(), kMtuBytes);
}

TEST(Switch, PortAccessorsAndCount) {
  Simulation sim;
  Network net{sim};
  const SwitchId sw = net.add_switch();
  EXPECT_EQ(net.switch_at(sw).port_count(), 0);
  const SwitchId a = net.add_switch();
  net.add_switch_port(sw, net.id_of(a), Bandwidth::gbps(10), 1_us, EgressQueue::drop_tail(8));
  EXPECT_EQ(net.switch_at(sw).port_count(), 1);
  EXPECT_EQ(net.switch_at(sw).port(0).config().rate, Bandwidth::gbps(10));
}

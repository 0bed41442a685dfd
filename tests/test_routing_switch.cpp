// Unit tests for routing tables, ECMP and switch forwarding.
#include <gtest/gtest.h>

#include <map>
#include <random>
#include <set>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "net/switch.hpp"
#include "net/topology.hpp"
#include "util/hash.hpp"

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

QueueFactory drop_tail_factory() {
  return [](bool) { return EgressQueue::drop_tail(64); };
}

// Rewires every switch of `net` port by port with add_route, destinations
// in NodeId order and at the builder's ECMP tier, and checks the copy
// against the builder's set_routes wiring: the same ECMP sets, the same
// interned pool and the same picks.
void expect_set_routes_match_add_route(Network& net, const std::vector<Host*>& hosts) {
  const std::size_t n_nodes = net.host_count() + net.switch_count();
  for (std::size_t s = 0; s < net.switch_count(); ++s) {
    RoutingTable& built = net.switch_at(SwitchId{static_cast<std::uint32_t>(s)}).routes();
    RoutingTable ref;
    ref.set_ecmp_tier(built.ecmp_tier());
    for (std::uint32_t d = 0; d < n_nodes; ++d) {
      for (const PortId p : built.ports_for(NodeId{d})) ref.add_route(NodeId{d}, p);
    }
    ASSERT_EQ(ref.destinations(), built.destinations()) << "switch " << s;
    ASSERT_EQ(ref.pool_size(), built.pool_size()) << "switch " << s;
    for (std::uint32_t d = 0; d < n_nodes; ++d) {
      const auto a = ref.ports_for(NodeId{d});
      const auto b = built.ports_for(NodeId{d});
      ASSERT_EQ(std::vector<PortId>(a.begin(), a.end()), std::vector<PortId>(b.begin(), b.end()))
          << "switch " << s << " dst " << d;
    }
    for (FlowId f = 1; f <= 2000; ++f) {
      const Packet pkt = to_dst(hosts[f % hosts.size()]->id(), f);
      ASSERT_EQ(ref.select(pkt), built.select(pkt)) << "switch " << s << " flow " << f;
    }
  }
}
}  // namespace

// A forward reads one 4-byte entry; a switch carries no per-flow state.
static_assert(sizeof(RoutingTable::Entry) == 4, "routing entries must stay 4 bytes");
static_assert(sizeof(Switch) < 1024, "a switch's inline state must stay under 1 KB");

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

TEST(RoutingTable, EcmpPickIsStableAcrossChurnAndMutation) {
  // A flow's pick is a pure function of its id and the ECMP set: repeated
  // lookups across many interleaved flows always reproduce the first pick,
  // and after a route is added every answer comes from the grown set.
  RoutingTable rt;
  for (int p = 0; p < 3; ++p) rt.add_route(NodeId{1}, p);
  std::map<FlowId, int> first_pick;
  for (FlowId f = 1; f <= 2000; ++f) first_pick[f] = rt.select(to_dst(NodeId{1}, f));
  for (int round = 0; round < 3; ++round) {
    for (FlowId f = 1; f <= 2000; ++f) {
      ASSERT_EQ(rt.select(to_dst(NodeId{1}, f)), first_pick[f]) << "flow " << f;
    }
  }
  // Every answer after the mutation is a member of the (new) ECMP set.
  rt.add_route(NodeId{1}, 7);
  std::set<int> used;
  for (FlowId f = 1; f <= 2000; ++f) used.insert(rt.select(to_dst(NodeId{1}, f)));
  for (int p : used) EXPECT_TRUE((p >= 0 && p < 3) || p == 7);
  EXPECT_TRUE(used.count(7) > 0) << "new route never selected after the mutation";
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

TEST(RoutingTable, SprayCursorsAcrossLinkDownThenUp) {
  // Pins the exact spray sequence of two destinations through a link
  // failure and its repair. While a port is down the table sprays over the
  // live ports with cursors that start at 0; after recovery the full sets
  // resume from the cursors they had before the failure.
  LinkState ls;
  ls.up.assign(8, 1);
  RoutingTable rt;
  rt.bind_link_state(&ls);
  rt.set_mode(MultipathMode::kPacketSpray);
  for (int p = 0; p < 3; ++p) rt.add_route(NodeId{1}, p);
  for (int p = 3; p < 5; ++p) rt.add_route(NodeId{2}, p);

  std::vector<int> seq;
  auto spray = [&](std::uint32_t dst, int n) {
    for (int i = 0; i < n; ++i) seq.push_back(rt.select(to_dst(NodeId{dst})));
  };
  spray(1, 2);
  spray(2, 1);
  ls.up[1] = 0;
  ls.epoch.fetch_add(1);
  spray(1, 3);
  spray(2, 3);
  ls.up[1] = 1;
  ls.epoch.fetch_add(1);
  spray(1, 3);
  spray(2, 2);
  EXPECT_EQ(seq, (std::vector<int>{0, 1, 3,         // healthy
                                   0, 2, 0, 3, 4, 3,  // port 1 down
                                   2, 0, 1, 4, 3}));  // port 1 back up
}

TEST(RoutingTable, SetRoutesEqualsAddRoutePerPort) {
  // Random sets with shared and diverging prefixes and repeated ports,
  // wired whole on one table and port by port on another.
  std::mt19937 gen{23};
  RoutingTable whole, per_port;
  std::map<std::uint32_t, std::vector<PortId>> want;
  for (std::uint32_t dst = 0; dst < 200; ++dst) {
    std::vector<PortId> ports(1 + gen() % 6);
    for (PortId& p : ports) p = static_cast<PortId>(gen() % 4);
    whole.set_routes(NodeId{dst}, ports);
    for (const PortId p : ports) per_port.add_route(NodeId{dst}, p);
    want[dst] = ports;
  }
  EXPECT_EQ(whole.pool_size(), per_port.pool_size());
  for (const auto& [dst, ports] : want) {
    const auto got = whole.ports_for(NodeId{dst});
    ASSERT_EQ(std::vector<PortId>(got.begin(), got.end()), ports) << "dst " << dst;
    for (FlowId f = 1; f <= 20; ++f) {
      ASSERT_EQ(whole.select(to_dst(NodeId{dst}, f)), per_port.select(to_dst(NodeId{dst}, f)));
    }
  }
}

TEST(RoutingTable, SprayAliveCursorsRestartOnEveryTransition) {
  // Each rebuild of the live-port view starts its spray cursors at 0, also
  // when a second port fails while the first is still down.
  LinkState ls;
  ls.up.assign(8, 1);
  RoutingTable rt;
  rt.bind_link_state(&ls);
  rt.set_mode(MultipathMode::kPacketSpray);
  for (int p = 0; p < 4; ++p) rt.add_route(NodeId{1}, p);
  std::vector<int> seq;
  auto spray = [&](int n) {
    for (int i = 0; i < n; ++i) seq.push_back(rt.select(to_dst(NodeId{1})));
  };
  ls.up[1] = 0;
  ls.epoch.fetch_add(1);
  spray(1);
  ls.up[3] = 0;
  ls.epoch.fetch_add(1);
  spray(3);
  EXPECT_EQ(seq, (std::vector<int>{0, 0, 2, 0}));
}

TEST(RoutingTable, SetRoutesMatchesAddRouteOnFatTrees) {
  for (const int k : {4, 16}) {
    Simulation sim;
    Network net{sim};
    FatTreeConfig cfg;
    cfg.k = k;
    cfg.queue_factory = drop_tail_factory();
    const FatTree topo = build_fat_tree(net, cfg);
    SCOPED_TRACE("k=" + std::to_string(k));
    expect_set_routes_match_add_route(net, topo.hosts);
  }
}

TEST(RoutingTable, SetRoutesMatchesAddRouteOnLeafSpine) {
  Simulation sim;
  Network net{sim};
  LeafSpineConfig cfg;
  cfg.queue_factory = drop_tail_factory();
  const LeafSpine topo = build_leaf_spine(net, cfg);
  expect_set_routes_match_add_route(net, topo.hosts);
}

TEST(RoutingTable, OversizedEcmpSetThrowsAtWiringTime) {
  // An entry counts its set in 8 bits: a 256th port is a wiring error.
  std::vector<PortId> ports(RoutingTable::kMaxSetPorts + 1);
  for (std::size_t i = 0; i < ports.size(); ++i) ports[i] = static_cast<PortId>(i);
  RoutingTable rt;
  EXPECT_THROW(rt.set_routes(NodeId{1}, ports), std::length_error);
  EXPECT_FALSE(rt.knows(NodeId{1}));
  rt.set_routes(NodeId{1}, std::span<const PortId>{ports}.first(RoutingTable::kMaxSetPorts));
  EXPECT_EQ(rt.ports_for(NodeId{1}).size(), RoutingTable::kMaxSetPorts);
  EXPECT_THROW(rt.add_route(NodeId{1}, ports.back()), std::length_error);
  EXPECT_EQ(rt.ports_for(NodeId{1}).size(), RoutingTable::kMaxSetPorts);
  EXPECT_THROW(rt.set_routes(NodeId{2}, {}), std::invalid_argument);
}

TEST(EcmpHash, DistinctForConsecutiveFlows) {
  std::set<std::uint64_t> hashes;
  for (FlowId f = 0; f < 1000; ++f) hashes.insert(amrt::util::mix64(f));
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

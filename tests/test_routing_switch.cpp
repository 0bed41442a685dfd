// Unit tests for routing tables, ECMP and switch forwarding.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
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

using Ports = std::vector<PortId>;

QueueFactory drop_tail_factory() {
  return [](bool) { return EgressQueue::drop_tail(64); };
}

// FNV-1a over what forwarding reads on every switch of `net`: the wired
// ECMP set toward every node, then select() for flows 1..2000, each toward
// host f % hosts. Pins every pick bit for bit.
std::uint64_t routing_digest(Network& net, const std::vector<Host*>& hosts) {
  std::uint64_t h = 1469598103934665603ULL;
  auto add = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (i * 8)) & 0xFFu;
      h *= 1099511628211ULL;
    }
  };
  const std::size_t n_nodes = net.host_count() + net.switch_count();
  for (std::size_t s = 0; s < net.switch_count(); ++s) {
    RoutingTable& rt = net.switch_at(SwitchId{static_cast<std::uint32_t>(s)}).routes();
    for (std::uint32_t d = 0; d < n_nodes; ++d) {
      const auto ports = rt.ports_for(NodeId{d});
      add(ports.size());
      for (const PortId p : ports) add(static_cast<std::uint64_t>(p));
    }
    for (FlowId f = 1; f <= 2000; ++f) {
      add(static_cast<std::uint64_t>(rt.select(to_dst(hosts[f % hosts.size()]->id(), f))));
    }
  }
  return h;
}

// The digest of a healthy fabric, then with `port`'s link down (the alive
// view).
void expect_routing_digests(Network& net, const std::vector<Host*>& hosts, PortId port,
                            std::uint64_t healthy, std::uint64_t one_down) {
  const std::uint64_t got_healthy = routing_digest(net, hosts);
  EXPECT_EQ(got_healthy, healthy) << std::hex << got_healthy;
  net.set_link_up(port, false);
  const std::uint64_t got_one_down = routing_digest(net, hosts);
  EXPECT_EQ(got_one_down, one_down) << std::hex << got_one_down;
}
}  // namespace

// A forward reads one 4-byte entry; a switch carries no per-flow state and
// no wiring-time index (216 and 264 B in every preset's build).
static_assert(sizeof(RoutingTable::Entry) == 4, "routing entries must stay 4 bytes");
static_assert(sizeof(RoutingTable) <= 216, "a routing table keeps only what forwarding reads");
static_assert(sizeof(Switch) <= 264, "a switch's inline state must not grow");

TEST(RoutingTable, SinglePathSelected) {
  RoutingTable rt;
  rt.set_routes(NodeId{5}, Ports{2});
  EXPECT_EQ(rt.select(to_dst(NodeId{5})), 2);
}

TEST(RoutingTableDeathTest, UnknownDestinationAborts) {
  // An unroutable packet mid-run is a wiring bug, not a recoverable error:
  // the hot path aborts with a diagnostic instead of carrying throw
  // machinery (misconfiguration is meant to be caught at build time by
  // require_route).
  RoutingTable rt;
  rt.set_routes(NodeId{1}, Ports{0});
  EXPECT_DEATH((void)rt.select(to_dst(NodeId{9})), "unknown destination");
}

TEST(RoutingTable, RequireRouteValidatesAtWiringTime) {
  RoutingTable rt;
  rt.set_routes(NodeId{3}, Ports{1});
  EXPECT_NO_THROW(rt.require_route(NodeId{3}));
  EXPECT_THROW(rt.require_route(NodeId{9}), std::logic_error);
}

TEST(RoutingTable, EcmpIsPerFlowDeterministic) {
  RoutingTable rt;
  rt.set_routes(NodeId{1}, Ports{0, 1, 2, 3});
  for (FlowId f = 1; f < 50; ++f) {
    const int first = rt.select(to_dst(NodeId{1}, f));
    for (int rep = 0; rep < 5; ++rep) {
      EXPECT_EQ(rt.select(to_dst(NodeId{1}, f)), first) << "flow must stay on one path";
    }
  }
}

TEST(RoutingTable, EcmpSpreadsFlows) {
  RoutingTable rt;
  rt.set_routes(NodeId{1}, Ports{0, 1, 2, 3});
  std::set<int> used;
  for (FlowId f = 1; f < 100; ++f) used.insert(rt.select(to_dst(NodeId{1}, f)));
  EXPECT_EQ(used.size(), 4u);
}

TEST(RoutingTable, PortsForExposesEcmpSet) {
  RoutingTable rt;
  rt.set_routes(NodeId{1}, Ports{0, 3});
  EXPECT_EQ(rt.ports_for(NodeId{1}).size(), 2u);
  EXPECT_EQ(rt.destinations(), 1u);
}

TEST(RoutingTable, EcmpPickIsStableAcrossChurnAndMutation) {
  // A flow's pick is a pure function of its id and the ECMP set: repeated
  // lookups across many interleaved flows always reproduce the first pick,
  // and after the set grows every answer comes from the grown set.
  RoutingTable rt;
  rt.set_routes(NodeId{1}, Ports{0, 1, 2});
  std::map<FlowId, int> first_pick;
  for (FlowId f = 1; f <= 2000; ++f) first_pick[f] = rt.select(to_dst(NodeId{1}, f));
  for (int round = 0; round < 3; ++round) {
    for (FlowId f = 1; f <= 2000; ++f) {
      ASSERT_EQ(rt.select(to_dst(NodeId{1}, f)), first_pick[f]) << "flow " << f;
    }
  }
  // Every answer after the mutation is a member of the (new) ECMP set.
  rt.set_routes(NodeId{1}, Ports{0, 1, 2, 7});
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
  rt.set_routes(NodeId{1}, Ports{0, 1});
  rt.set_routes(NodeId{2}, Ports{2, 3});
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
  rt.set_routes(NodeId{1}, Ports{0, 1, 2, 3});
  Packet ctrl = to_dst(NodeId{1});
  ctrl.type = PacketType::kGrant;
  const int first = rt.select(ctrl);
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(rt.select(ctrl), first) << "control packets must stay on the hashed path";
  }
}

TEST(RoutingTable, SharedEcmpSetIsStoredOnce) {
  // 1000 destinations wired back to back with the same 8 ports store one
  // 8-port run, and a set equal to the pool's last ports points at them.
  RoutingTable rt;
  constexpr std::uint32_t kDsts = 1000;
  const Ports want{0, 1, 2, 3, 4, 5, 6, 7};
  for (std::uint32_t d = 0; d < kDsts; ++d) rt.set_routes(NodeId{d}, want);
  rt.set_routes(NodeId{kDsts}, Ports{6, 7});
  EXPECT_EQ(rt.pool_size(), 8u);
  EXPECT_EQ(rt.destinations(), kDsts + 1);
  for (std::uint32_t d = 0; d < kDsts; ++d) {
    const auto got = rt.ports_for(NodeId{d});
    ASSERT_EQ(Ports(got.begin(), got.end()), want) << "dst " << d;
  }
  const auto tail = rt.ports_for(NodeId{kDsts});
  EXPECT_EQ(Ports(tail.begin(), tail.end()), (Ports{6, 7}));
}

TEST(RoutingTable, InternedSetsMatchPerDestinationLists) {
  // Random wiring that replaces sets (repeated ports, shared and diverging
  // prefixes, sparse destinations) against a std::map of the last set per
  // destination: every ECMP set keeps its ports in order, and every pick
  // is util::ecmp_pick over that set.
  std::mt19937 gen{17};
  for (int trial = 0; trial < 20; ++trial) {
    RoutingTable rt;
    std::map<std::uint32_t, Ports> want;
    for (int i = 0; i < 400; ++i) {
      const auto dst = static_cast<std::uint32_t>(gen() % 40) * 3;
      Ports ports(1 + gen() % 5);
      for (PortId& p : ports) p = static_cast<PortId>(gen() % 5);
      rt.set_routes(NodeId{dst}, ports);
      want[dst] = ports;
      if (i % 50 == 0) (void)rt.select(to_dst(NodeId{dst}));  // lookups mid-wiring
    }
    EXPECT_EQ(rt.destinations(), want.size());
    for (const auto& [dst, ports] : want) {
      const auto got = rt.ports_for(NodeId{dst});
      ASSERT_EQ(Ports(got.begin(), got.end()), ports) << "dst " << dst;
      for (FlowId f = 1; f <= 20; ++f) {
        ASSERT_EQ(rt.select(to_dst(NodeId{dst}, f)),
                  ports[amrt::util::ecmp_pick(f, 0, ports.size())])
            << "dst " << dst << " flow " << f;
      }
    }
    EXPECT_TRUE(rt.ports_for(NodeId{1}).empty());
  }
}

TEST(RoutingTable, MutationRestartsSprayCursors) {
  // A set stored anywhere on the switch restarts every destination's spray
  // cursor at the front of its set on the next lookup.
  RoutingTable rt;
  rt.set_mode(MultipathMode::kPacketSpray);
  rt.set_routes(NodeId{1}, Ports{0, 1, 2});
  EXPECT_EQ(rt.select(to_dst(NodeId{1})), 0);
  EXPECT_EQ(rt.select(to_dst(NodeId{1})), 1);
  rt.set_routes(NodeId{2}, Ports{5});
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
  rt.set_routes(NodeId{1}, Ports{0, 1, 2});
  rt.set_routes(NodeId{2}, Ports{3, 4});

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
  // wired whole on one table and port by port (each longer prefix replacing
  // the last) on another: both end with the same sets and the same picks,
  // and the whole wiring's pool is what the store-by-one-rule model holds.
  std::mt19937 gen{23};
  RoutingTable whole, per_port;
  std::map<std::uint32_t, Ports> want;
  Ports model_pool;
  for (std::uint32_t dst = 0; dst < 200; ++dst) {
    Ports ports(1 + gen() % 6);
    for (PortId& p : ports) p = static_cast<PortId>(gen() % 4);
    whole.set_routes(NodeId{dst}, ports);
    for (std::size_t n = 1; n <= ports.size(); ++n) {
      per_port.set_routes(NodeId{dst}, std::span<const PortId>(ports.data(), n));
    }
    want[dst] = ports;
    const auto n = static_cast<std::ptrdiff_t>(ports.size());
    if (std::ssize(model_pool) < n ||
        !std::equal(ports.begin(), ports.end(), model_pool.end() - n)) {
      model_pool.insert(model_pool.end(), ports.begin(), ports.end());
    }
  }
  EXPECT_EQ(whole.pool_size(), model_pool.size());
  EXPECT_EQ(whole.destinations(), per_port.destinations());
  for (const auto& [dst, ports] : want) {
    const auto got = whole.ports_for(NodeId{dst});
    ASSERT_EQ(Ports(got.begin(), got.end()), ports) << "dst " << dst;
    const auto ref = per_port.ports_for(NodeId{dst});
    ASSERT_EQ(Ports(ref.begin(), ref.end()), ports) << "dst " << dst;
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
  rt.set_routes(NodeId{1}, Ports{0, 1, 2, 3});
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

TEST(RoutingTable, DigestIsPinnedOnFatTrees) {
  struct Case {
    int k;
    std::uint64_t healthy, one_down;
  };
  for (const Case c : {Case{4, 0xf9986c23ad0a3803ULL, 0x79e912556ce33581ULL},
                      Case{16, 0x8b55f618b93ebe37ULL, 0xbf80fde62e17633dULL}}) {
    Simulation sim;
    Network net{sim};
    FatTreeConfig cfg;
    cfg.k = c.k;
    cfg.queue_factory = drop_tail_factory();
    const FatTree topo = build_fat_tree(net, cfg);
    SCOPED_TRACE("k=" + std::to_string(c.k));
    expect_routing_digests(net, topo.hosts, topo.agg_up[1][0], c.healthy, c.one_down);
  }
}

TEST(RoutingTable, DigestIsPinnedOnLeafSpine) {
  Simulation sim;
  Network net{sim};
  LeafSpineConfig cfg;
  cfg.queue_factory = drop_tail_factory();
  const LeafSpine topo = build_leaf_spine(net, cfg);
  expect_routing_digests(net, topo.hosts, topo.leaf_up[0][1], 0xfdc64fbc9cf88ff3ULL,
                         0x726a2b857f87f979ULL);
}

TEST(RoutingTable, DigestIsPinnedOnLine) {
  Simulation sim;
  Network net{sim};
  LineConfig cfg;
  cfg.switches = 3;
  cfg.host_switch = {2, 0, 1, 0, 2};
  cfg.queue_factory = drop_tail_factory();
  const Line line = build_line(net, cfg);
  expect_routing_digests(net, line.hosts, line.right[0], 0xb5485910776dacULL, 0xb5485910776dacULL);
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
  EXPECT_THROW(rt.set_routes(NodeId{1}, ports), std::length_error);
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
  net.switch_at(sw).routes().set_routes(net.id_of(h0), {&h0_down, 1});
  net.switch_at(sw).routes().set_routes(net.id_of(h1), {&h1_down, 1});

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

// Tests for the partition map and sharded-execution plumbing
// (net/partition.hpp, sim/shard.hpp): every node and port lands in exactly
// one shard, pod co-location and core round-robin hold on the fat-tree,
// cross flags sit only on inter-shard links, the lookahead matches the
// hand-computed cross-link latency floor, mailbox injection order is
// deterministic and rejects a delivery into the receiver's past, the
// runner refuses a one-shard partition, and the per-shard seed derivation
// is pinned.
#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "core/factory.hpp"
#include "net/partition.hpp"
#include "net/topology.hpp"
#include "sim/shard.hpp"

using namespace amrt;

namespace {

constexpr auto kDelay = sim::Duration::microseconds(5);
const auto kRate = sim::Bandwidth::gbps(10);

net::FatTree make_fabric(net::Network& network, int k) {
  net::FatTreeConfig cfg;
  cfg.k = k;
  cfg.link_rate = kRate;
  cfg.link_delay = kDelay;
  cfg.queue_factory = core::make_queue_factory(transport::Protocol::kAmrt);
  cfg.marker_factory = core::make_marker_factory(transport::Protocol::kAmrt);
  return net::build_fat_tree(network, cfg);
}

}  // namespace

TEST(Partition, CoversEveryNodeAndPortExactlyOnce) {
  for (const unsigned n : {2u, 3u, 4u}) {
    sim::Simulation sim;
    net::Network network{sim};
    const auto topo = make_fabric(network, 4);
    const auto part = net::partition_fat_tree(network, topo, n);

    ASSERT_EQ(part.n_shards, n);
    // One shard per node, all in range. make_partition itself throws on a
    // port claimed twice or claimed never, so a successful build plus a full
    // in-range map is the exactly-once property.
    ASSERT_EQ(part.node_shard.size(), network.host_count() + network.switch_count());
    for (const auto s : part.node_shard) EXPECT_LT(s, n);
    ASSERT_EQ(part.port_shard.size(), network.port_count());
    ASSERT_EQ(part.port_cross.size(), network.port_count());
    for (const auto s : part.port_shard) EXPECT_LT(s, n);

    // Each port's shard is its owning node's shard.
    for (const net::Host& h : network.hosts()) {
      EXPECT_EQ(part.port_shard[static_cast<std::size_t>(h.nic_id())], part.shard_of(h.id()));
    }
    for (const net::Switch& sw : network.switches()) {
      for (int i = 0; i < sw.port_count(); ++i) {
        EXPECT_EQ(part.port_shard[static_cast<std::size_t>(sw.port_id(i))],
                  part.shard_of(sw.id()));
      }
    }
  }
}

TEST(Partition, FatTreePinsPodsTogetherAndRoundRobinsCores) {
  const int k = 4;
  const int half = k / 2;
  const unsigned n = 3;  // does not divide the pod count: exercises the wrap
  sim::Simulation sim;
  net::Network network{sim};
  const auto topo = make_fabric(network, k);
  const auto part = net::partition_fat_tree(network, topo, n);

  for (std::size_t i = 0; i < topo.hosts.size(); ++i) {
    const auto pod = i / static_cast<std::size_t>(half * half);
    EXPECT_EQ(part.shard_of(topo.hosts[i]->id()), pod % n);
  }
  for (std::size_t i = 0; i < topo.edges.size(); ++i) {
    const auto pod = i / static_cast<std::size_t>(half);
    EXPECT_EQ(part.shard_of(topo.edges[i]->id()), pod % n);
    EXPECT_EQ(part.shard_of(topo.aggs[i]->id()), pod % n);
  }
  for (std::size_t i = 0; i < topo.cores.size(); ++i) {
    EXPECT_EQ(part.shard_of(topo.cores[i]->id()), i % n);
  }
}

TEST(Partition, CrossFlagsOnlyOnInterShardLinks) {
  sim::Simulation sim;
  net::Network network{sim};
  const auto topo = make_fabric(network, 4);
  const auto part = net::partition_fat_tree(network, topo, 2);

  // With pods pinned whole, every host<->edge and edge<->agg link is
  // intra-shard; only agg<->core links can cross, and only when the pod's
  // shard differs from the core's.
  std::size_t cross_seen = 0;
  for (std::size_t p = 0; p < network.port_count(); ++p) {
    const net::EgressPort& port = network.port_at(static_cast<net::PortId>(p));
    const bool crosses = part.shard_of(port.peer()) != part.port_shard[p];
    EXPECT_EQ(part.port_cross[p] != 0, crosses);
    cross_seen += part.port_cross[p];
  }
  EXPECT_EQ(cross_seen, part.cross_ports);
  // k=4, n=2: pods 0,2 -> shard 0, pods 1,3 -> shard 1; cores 0,2 -> shard
  // 0, cores 1,3 -> shard 1. Every pod has 4 agg-up links, half of them
  // cross, in both directions: 4 pods * 2 * 2 = 16 cross ports.
  EXPECT_EQ(part.cross_ports, 16u);
}

TEST(Partition, LookaheadIsMinCrossLinkLatency) {
  sim::Simulation sim;
  net::Network network{sim};
  const auto topo = make_fabric(network, 4);
  const auto part = net::partition_fat_tree(network, topo, 2);

  // Uniform links: lookahead = propagation + serialization of the smallest
  // frame (a 40-byte header) at line rate. 5us + 40B@10Gbps(32ns) = 5032ns.
  const auto expected = kDelay + kRate.tx_time(net::kHeaderBytes);
  EXPECT_EQ(part.lookahead, expected);
  EXPECT_EQ(part.lookahead.ns(), 5032);
}

TEST(Partition, SingleShardHasNoCrossPortsAndInfiniteLookahead) {
  sim::Simulation sim;
  net::Network network{sim};
  const auto topo = make_fabric(network, 4);
  const auto part = net::partition_fat_tree(network, topo, 1);
  EXPECT_EQ(part.cross_ports, 0u);
  EXPECT_EQ(part.lookahead, sim::Duration::max());
}

TEST(ShardedRunner, RejectsFewerThanTwoShards) {
  // Serial runs go through the plain scheduler; a one-shard partition is a
  // caller bug, refused at construction like a shard-count mismatch.
  sim::ShardGroup group{1, 1};
  net::Network network{group.master()};
  const auto topo = make_fabric(network, 4);
  EXPECT_THROW((net::ShardedRunner{network, net::partition_fat_tree(network, topo, 1), group}),
               std::logic_error);
}

TEST(ShardMailbox, InjectionOrderIsByTimestampThenPushOrder) {
  net::ShardMailbox box;
  auto push = [&box](std::int64_t t, net::FlowId tag) {
    net::Packet p;
    p.flow = tag;
    box.push(t, nullptr, std::move(p));
  };
  // Out of order, with a three-way tie at t=50.
  push(200, 1);
  push(50, 2);
  push(50, 3);
  push(100, 4);
  push(50, 5);
  push(10, 6);

  box.sort_for_injection();
  const auto& msgs = box.msgs();
  ASSERT_EQ(msgs.size(), 6u);
  const std::vector<std::int64_t> want_t = {10, 50, 50, 50, 100, 200};
  const std::vector<net::FlowId> want_tag = {6, 2, 3, 5, 4, 1};  // ties keep push order
  for (std::size_t i = 0; i < msgs.size(); ++i) {
    EXPECT_EQ(msgs[i].deliver_ns, want_t[i]) << "slot " << i;
    EXPECT_EQ(msgs[i].pkt.flow, want_tag[i]) << "slot " << i;
  }
}

TEST(ShardMailbox, InjectionRejectsADeliveryBeforeTheSendingWindowsEnd) {
  // A message sent in the window ending at t=100 that claims delivery at
  // t=99 would land in the receiving shard's past: a lookahead bug, which
  // must fail loudly rather than fire out of order.
  sim::Simulation sim;
  net::ShardMailbox box;
  box.push(150, nullptr, net::Packet{});
  box.push(99, nullptr, net::Packet{});
  EXPECT_THROW(box.inject(sim.scheduler(), 100), std::logic_error);
  EXPECT_EQ(sim.scheduler().pending_events(), 0u);
}

TEST(ShardMailbox, InjectionDeliversAtTheWindowEdgeThroughTheSendingPort) {
  // A delivery exactly at the window's end is on time. It reaches the
  // sending port's peer like a same-shard delivery, and the box empties.
  sim::Simulation sim;
  net::Network network{sim};
  const auto topo = make_fabric(network, 4);
  const net::Host& dst = *topo.hosts[0];
  const net::Switch& edge = *topo.edges[0];
  net::EgressPort* down = nullptr;
  for (int i = 0; i < edge.port_count(); ++i) {
    net::EgressPort& port = network.port_at(edge.port_id(i));
    if (port.peer() == dst.id()) down = &port;
  }
  ASSERT_NE(down, nullptr);
  net::ShardMailbox box;
  net::Packet p;
  p.type = net::PacketType::kDone;
  p.wire_bytes = net::kCtrlBytes;
  p.dst = dst.id();
  box.push(100, down, std::move(p));
  box.inject(sim.scheduler(), 100);
  EXPECT_TRUE(box.empty());
  EXPECT_EQ(sim.scheduler().pending_events(), 1u);
  sim.scheduler().run();
  EXPECT_EQ(sim.scheduler().now().ns(), 100);
  EXPECT_EQ(dst.bytes_received(), net::kCtrlBytes);
}

TEST(ShardGroup, MasterCarriesTheSeedAndDerivationIsPinned) {
  // Shard 0 must replay exactly like a serial Simulation with the same
  // seed: the master's RNG stream is the serial stream. Every other shard
  // is built from the run seed too.
  sim::ShardGroup group{42, 4};
  for (unsigned s = 0; s < group.size(); ++s) {
    sim::Simulation serial{42};
    for (int i = 0; i < 16; ++i) {
      EXPECT_EQ(group.shard(s).rng().uniform_int(0, 1'000'000),
                serial.rng().uniform_int(0, 1'000'000))
          << "shard " << s;
    }
  }
}

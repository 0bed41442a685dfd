// Tests for the three-tier fat-tree builder (net/topology.hpp): Al-Fares
// counts and cabling symmetry, ECMP route completeness at every tier, and
// end-to-end payload conservation on a small fabric under every transport.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "core/factory.hpp"
#include "net/topology.hpp"
#include "stats/fct.hpp"
#include "test_rig.hpp"
#include "transport/endpoint.hpp"

using namespace amrt;
using namespace amrt::sim::literals;
using transport::Protocol;

namespace {

net::FatTree make_fabric(net::Network& network, int k,
                         Protocol proto = Protocol::kAmrt) {
  net::FatTreeConfig cfg;
  cfg.k = k;
  cfg.link_delay = sim::Duration::microseconds(5);
  cfg.queue_factory = core::make_queue_factory(proto);
  cfg.marker_factory = core::make_marker_factory(proto);
  return net::build_fat_tree(network, cfg);
}

}  // namespace

TEST(FatTree, CountsMatchAlFares) {
  sim::Simulation sim;
  net::Network network{sim};
  const auto topo = make_fabric(network, 4);
  // k=4: k^3/4 = 16 hosts, k/2 edge + k/2 agg per pod over k pods, (k/2)^2
  // cores; every switch has exactly k ports.
  EXPECT_EQ(topo.host_count(), 16u);
  EXPECT_EQ(topo.edges.size(), 8u);
  EXPECT_EQ(topo.aggs.size(), 8u);
  EXPECT_EQ(topo.cores.size(), 4u);
  EXPECT_EQ(network.host_count(), 16u);
  EXPECT_EQ(network.switch_count(), 20u);
  for (const auto* sw : topo.edges) EXPECT_EQ(sw->port_count(), 4);
  for (const auto* sw : topo.aggs) EXPECT_EQ(sw->port_count(), 4);
  for (const auto* sw : topo.cores) EXPECT_EQ(sw->port_count(), 4);
  EXPECT_EQ(topo.base_rtt,
            net::path_base_rtt(6, sim::Bandwidth::gbps(10), sim::Duration::microseconds(5)));
}

TEST(FatTree, WiringIsSymmetric) {
  sim::Simulation sim;
  net::Network network{sim};
  const int k = 4;
  const int half = k / 2;
  const auto topo = make_fabric(network, k);

  // Hosts and edges point at each other.
  for (std::size_t e = 0; e < topo.edges.size(); ++e) {
    for (int h = 0; h < half; ++h) {
      net::Host* host = topo.hosts[e * static_cast<std::size_t>(half) + static_cast<std::size_t>(h)];
      EXPECT_EQ(network.port_at(topo.edge_down[e][static_cast<std::size_t>(h)]).peer(), host->id());
      EXPECT_EQ(host->nic().peer(), topo.edges[e]->id());
    }
  }
  // Edge <-> agg cabling inside each pod, both directions.
  for (int p = 0; p < k; ++p) {
    for (int e = 0; e < half; ++e) {
      for (int a = 0; a < half; ++a) {
        const auto ei = static_cast<std::size_t>(p * half + e);
        const auto ai = static_cast<std::size_t>(p * half + a);
        EXPECT_EQ(network.port_at(topo.edge_up[ei][static_cast<std::size_t>(a)]).peer(),
                  topo.aggs[ai]->id());
        EXPECT_EQ(network.port_at(topo.agg_down[ai][static_cast<std::size_t>(e)]).peer(),
                  topo.edges[ei]->id());
      }
    }
  }
  // Agg `a` of every pod serves core group [a*half, (a+1)*half), and each
  // core has exactly one downlink per pod.
  for (int p = 0; p < k; ++p) {
    for (int a = 0; a < half; ++a) {
      const auto ai = static_cast<std::size_t>(p * half + a);
      for (int j = 0; j < half; ++j) {
        const auto ci = static_cast<std::size_t>(a * half + j);
        EXPECT_EQ(network.port_at(topo.agg_up[ai][static_cast<std::size_t>(j)]).peer(),
                  topo.cores[ci]->id());
        EXPECT_EQ(network.port_at(topo.core_down[ci][static_cast<std::size_t>(p)]).peer(),
                  topo.aggs[ai]->id());
      }
    }
  }
}

TEST(FatTree, EcmpRoutesAreCompleteAtEveryTier) {
  sim::Simulation sim;
  net::Network network{sim};
  const int k = 4;
  const int half = k / 2;
  const auto topo = make_fabric(network, k);

  const auto hosts_per_pod = static_cast<std::size_t>(half * half);
  for (std::size_t hi = 0; hi < topo.host_count(); ++hi) {
    const net::NodeId dst = topo.hosts[hi]->id();
    const std::size_t dst_pod = hi / hosts_per_pod;
    const std::size_t dst_edge = hi / static_cast<std::size_t>(half);

    // Edges: one port to a local host, the full uplink fan elsewhere.
    for (std::size_t e = 0; e < topo.edges.size(); ++e) {
      ASSERT_NO_THROW(topo.edges[e]->routes().require_route(dst));
      const auto fan = topo.edges[e]->routes().ports_for(dst).size();
      EXPECT_EQ(fan, e == dst_edge ? 1u : static_cast<std::size_t>(half));
    }
    // Aggs: one downlink within the pod, all core uplinks across pods.
    for (std::size_t a = 0; a < topo.aggs.size(); ++a) {
      ASSERT_NO_THROW(topo.aggs[a]->routes().require_route(dst));
      const auto fan = topo.aggs[a]->routes().ports_for(dst).size();
      const std::size_t agg_pod = a / static_cast<std::size_t>(half);
      EXPECT_EQ(fan, agg_pod == dst_pod ? 1u : static_cast<std::size_t>(half));
    }
    // Cores: exactly one pod downlink each.
    for (const auto* core : topo.cores) {
      ASSERT_NO_THROW(core->routes().require_route(dst));
      EXPECT_EQ(core->routes().ports_for(dst).size(), 1u);
    }
  }
}

TEST(FatTree, K16RoutesAreInternedInWiringOrder) {
  // The builder wires destinations that share a set back to back, so a
  // switch stores each run of them once (an edge has its k/2 host ports and
  // one uplink fan) and its pool stays a few dozen ports instead of ~k/2
  // per destination. Each set lists its ports in wiring order: uplinks in
  // the order the builder cabled them.
  sim::Simulation sim;
  net::Network network{sim};
  const int k = 16;
  const auto half = static_cast<std::size_t>(k / 2);
  const auto topo = make_fabric(network, k);
  ASSERT_EQ(topo.host_count(), 1024u);

  auto ports_of = [](const net::Switch* sw, net::NodeId dst) {
    const auto span = sw->routes().ports_for(dst);
    return std::vector<net::PortId>(span.begin(), span.end());
  };
  for (const auto* tier : {&topo.edges, &topo.aggs, &topo.cores}) {
    for (const auto* sw : *tier) {
      EXPECT_LE(sw->routes().pool_size(), static_cast<std::size_t>(2 * k));
    }
  }
  for (std::size_t hi = 0; hi < topo.host_count(); ++hi) {
    const net::NodeId dst = topo.hosts[hi]->id();
    const std::size_t dst_pod = hi / (half * half);
    const std::size_t dst_edge = hi / half;
    for (std::size_t e = 0; e < topo.edges.size(); ++e) {
      const auto want = e == dst_edge ? std::vector<net::PortId>{topo.edge_down[e][hi % half]}
                                      : topo.edge_up[e];
      ASSERT_EQ(ports_of(topo.edges[e], dst), want) << "edge " << e << " host " << hi;
    }
    for (std::size_t a = 0; a < topo.aggs.size(); ++a) {
      const auto want = a / half == dst_pod
                            ? std::vector<net::PortId>{topo.agg_down[a][dst_edge % half]}
                            : topo.agg_up[a];
      ASSERT_EQ(ports_of(topo.aggs[a], dst), want) << "agg " << a << " host " << hi;
    }
    for (std::size_t c = 0; c < topo.cores.size(); ++c) {
      ASSERT_EQ(ports_of(topo.cores[c], dst), std::vector<net::PortId>{topo.core_down[c][dst_pod]})
          << "core " << c << " host " << hi;
    }
  }
}

TEST(FatTree, InterPodFlowsUseEveryAggCorePair) {
  // The agg tier picks its core from other bits of the flow hash than the
  // edge tier used for the agg (util::ecmp_pick), so flows leaving one
  // edge switch for another pod cross every (agg, core) pair, not k/2 of
  // the (k/2)^2.
  for (const int k : {4, 8}) {
    sim::Simulation sim;
    net::Network network{sim};
    const auto half = static_cast<std::size_t>(k / 2);
    const auto topo = make_fabric(network, k);
    net::Packet pkt;
    pkt.dst = topo.hosts.back()->id();  // the last pod; edge 0 is in pod 0
    std::set<std::pair<std::size_t, std::size_t>> pairs;
    for (net::FlowId f = 0; f < 20000; ++f) {
      pkt.flow = f;
      const net::PortId up = topo.edges[0]->routes().select(pkt);
      const auto& edge_up = topo.edge_up[0];
      const auto a = static_cast<std::size_t>(
          std::find(edge_up.begin(), edge_up.end(), up) - edge_up.begin());
      ASSERT_LT(a, half);
      const net::PortId core_up = topo.aggs[a]->routes().select(pkt);
      const auto& agg_up = topo.agg_up[a];
      const auto j = static_cast<std::size_t>(
          std::find(agg_up.begin(), agg_up.end(), core_up) - agg_up.begin());
      ASSERT_LT(j, half);
      pairs.emplace(a, j);
    }
    EXPECT_EQ(pairs.size(), half * half) << "k=" << k;
  }
}

TEST(FatTree, RejectsOddOrTinyK) {
  sim::Simulation sim;
  net::Network network{sim};
  net::FatTreeConfig cfg;
  cfg.queue_factory = core::make_queue_factory(Protocol::kAmrt);
  cfg.k = 3;
  EXPECT_THROW((void)net::build_fat_tree(network, cfg), std::invalid_argument);
  cfg.k = 0;
  EXPECT_THROW((void)net::build_fat_tree(network, cfg), std::invalid_argument);
}

// Real traffic across pods: delivered payload equals injected payload, all
// flows finish, and after drain every switch queue satisfies the packet
// conservation identity enqueued == dequeued + dropped with nothing left.
class FatTreeConservation : public ::testing::TestWithParam<Protocol> {};

TEST_P(FatTreeConservation, CrossPodTrafficDeliveredExactlyOnce) {
  const Protocol proto = GetParam();
  sim::Simulation sim{7};
  sim::Scheduler& sched = sim.scheduler();
  net::Network network{sim};
  const auto topo = make_fabric(network, 4, proto);

  transport::TransportConfig tcfg;
  tcfg.host_rate = sim::Bandwidth::gbps(10);
  tcfg.base_rtt = topo.base_rtt;
  stats::FctRecorder recorder{tcfg.host_rate, topo.base_rtt};

  std::vector<transport::TransportEndpoint*> eps;
  for (net::Host* host : topo.hosts) {
    auto ep = core::make_endpoint(proto, sim, *host, tcfg, &recorder);
    eps.push_back(ep.get());
    host->attach(std::move(ep));
  }

  // Intra-edge, intra-pod and cross-pod flows, staggered starts.
  struct Spec {
    std::size_t src, dst;
    std::uint64_t bytes;
  };
  const std::vector<Spec> specs = {
      {0, 1, 40'000},   // same edge
      {0, 3, 120'000},  // same pod, other edge
      {2, 13, 250'000}, {5, 8, 90'000}, {15, 0, 180'000},  // cross-pod
      {7, 12, 60'000},  {9, 2, 30'000},
  };
  std::uint64_t total = 0;
  net::FlowId id = 1;
  for (const auto& s : specs) {
    transport::FlowSpec spec{id, topo.hosts[s.src]->id(), topo.hosts[s.dst]->id(), s.bytes,
                             sim::TimePoint::zero() + sim::Duration::microseconds(10) * id};
    transport::TransportEndpoint* src_ep = eps[s.src];
    sched.at(spec.start, [src_ep, spec] { src_ep->start_flow(spec); });
    total += s.bytes;
    ++id;
  }

  sched.run();  // natural drain: no samplers keep the loop alive
  EXPECT_EQ(recorder.completed().size(), specs.size());
  EXPECT_EQ(recorder.bytes_delivered(), total);

  for (const auto& sw : network.switches()) {
    for (int p = 0; p < sw.port_count(); ++p) {
      const auto& st = sw.port(p).queue().stats();
      EXPECT_TRUE(sw.port(p).queue().empty());
      EXPECT_EQ(st.enqueued, st.dequeued + st.dropped);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllTransports, FatTreeConservation,
                         ::testing::ValuesIn(testutil::kAllProtocols),
                         [](const ::testing::TestParamInfo<Protocol>& p) {
                           return std::string(transport::to_string(p.param));
                         });

// DCTCP sender-driven wing unit tests (DESIGN.md §13): the DctcpCc window
// state machine against hand-computed sequences, PIAS demotion-threshold
// crossings, the threshold-ECN dequeue marker, ECN-Echo fidelity under
// reordering, and end-to-end completion for pure-DCTCP and mixed fabrics.
#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "core/factory.hpp"
#include "core/threshold_ecn.hpp"
#include "net/queue.hpp"
#include "net/topology.hpp"
#include "stats/fct.hpp"
#include "transport/dctcp.hpp"

using namespace amrt;
using transport::DctcpCc;
using transport::pias_priority;

namespace {

// Feeds one full observation window of ACKs, `marked` of them with ECN-Echo
// (spread from the front); returns when the window closes.
void feed_window(DctcpCc& cc, std::uint32_t marked) {
  std::uint32_t fed = 0;
  for (;;) {
    const bool closed = cc.on_ack(fed < marked);
    ++fed;
    if (closed) return;
    ASSERT_LT(fed, 1'000'000u) << "window never closed";
  }
}

}  // namespace

// --- DctcpCc: alpha EWMA -----------------------------------------------------

TEST(DctcpCcAlpha, MatchesHandComputedSequence) {
  // g = 1/16, alpha starts at 1. A fully marked window keeps alpha at 1
  // (F = 1); each unmarked window then decays it by exactly 15/16.
  DctcpCc cc{1.0 / 16.0, 4, 1024};
  EXPECT_DOUBLE_EQ(cc.alpha(), 1.0);

  feed_window(cc, 4);  // every ACK marked: alpha <- (15/16)*1 + (1/16)*1 = 1
  EXPECT_DOUBLE_EQ(cc.alpha(), 1.0);

  // Hand-computed decay: 0.9375, 0.87890625, 0.823974609375.
  std::uint32_t w = cc.cwnd_pkts();
  (void)w;
  feed_window(cc, 0);
  EXPECT_DOUBLE_EQ(cc.alpha(), 0.9375);
  feed_window(cc, 0);
  EXPECT_DOUBLE_EQ(cc.alpha(), 0.87890625);
  feed_window(cc, 0);
  EXPECT_DOUBLE_EQ(cc.alpha(), 0.823974609375);
}

TEST(DctcpCcAlpha, TracksMarkedFractionNotJustPresence) {
  // A window with half its ACKs marked moves alpha toward 0.5, not 1:
  // alpha' = (15/16) alpha + (1/16) F with F = marks/acks.
  DctcpCc cc{1.0 / 16.0, 8, 1024};
  const std::uint32_t w = cc.cwnd_pkts();
  ASSERT_EQ(w, 8u);
  feed_window(cc, 4);  // F = 0.5
  EXPECT_DOUBLE_EQ(cc.alpha(), (15.0 / 16.0) * 1.0 + (1.0 / 16.0) * 0.5);
}

TEST(DctcpCcAlpha, ConvergesToZeroWhenUnmarkedAndOneWhenSaturated) {
  DctcpCc clean{1.0 / 16.0, 4, 64};
  for (int i = 0; i < 200; ++i) feed_window(clean, 0);
  EXPECT_LT(clean.alpha(), 1e-3);
  EXPECT_GE(clean.alpha(), 0.0);

  DctcpCc hot{1.0 / 16.0, 4, 64};
  for (int i = 0; i < 200; ++i) feed_window(hot, hot.cwnd_pkts());
  EXPECT_DOUBLE_EQ(hot.alpha(), 1.0);
}

// --- DctcpCc: window cut bounds ---------------------------------------------

TEST(DctcpCcCut, NeverCutsBelowOnePacket) {
  // alpha = 1 means every marked window halves cwnd; from 10 packets the
  // floor must stop the collapse at exactly 1 MSS, and cwnd_pkts() must
  // never report 0.
  DctcpCc cc{1.0 / 16.0, 10, 1024};
  for (int i = 0; i < 50; ++i) {
    feed_window(cc, cc.cwnd_pkts());
    EXPECT_GE(cc.cwnd(), 1.0);
    EXPECT_GE(cc.cwnd_pkts(), 1u);
  }
  EXPECT_GE(cc.cuts(), 1u);
}

TEST(DctcpCcCut, UnmarkedWindowDoesNotCut) {
  DctcpCc cc{1.0 / 16.0, 10, 1024};
  const double before = cc.cwnd();
  feed_window(cc, 0);
  EXPECT_GT(cc.cwnd(), before);  // pure growth
  EXPECT_EQ(cc.cuts(), 0u);
}

TEST(DctcpCcCut, CwndRespectsCap) {
  DctcpCc cc{1.0 / 16.0, 10, 16};
  for (int i = 0; i < 100; ++i) feed_window(cc, 0);
  EXPECT_LE(cc.cwnd(), 16.0);
  EXPECT_LE(cc.cwnd_pkts(), 16u);
}

// --- DctcpCc: slow start -> congestion avoidance -----------------------------

TEST(DctcpCcPhases, SlowStartDoublesThenFirstCutEntersCongestionAvoidance) {
  DctcpCc cc{1.0 / 16.0, 4, 4096};
  ASSERT_TRUE(cc.in_slow_start());

  // Slow start: +1 per ACK, so one full window doubles cwnd (4 -> 8 -> 16).
  feed_window(cc, 0);
  EXPECT_DOUBLE_EQ(cc.cwnd(), 8.0);
  feed_window(cc, 0);
  EXPECT_DOUBLE_EQ(cc.cwnd(), 16.0);
  EXPECT_TRUE(cc.in_slow_start());

  // First marked window: the cut sets ssthresh = cwnd, ending slow start.
  feed_window(cc, cc.cwnd_pkts());
  EXPECT_FALSE(cc.in_slow_start());

  // Congestion avoidance: one unmarked window adds ~1 packet, not 2x.
  const double before = cc.cwnd();
  feed_window(cc, 0);
  EXPECT_GT(cc.cwnd(), before);
  EXPECT_LT(cc.cwnd() - before, 1.5);
}

TEST(DctcpCcPhases, TimeoutCollapsesToOneAndReentersSlowStart) {
  DctcpCc cc{1.0 / 16.0, 4, 4096};
  feed_window(cc, 0);  // grow a little first
  const double before = cc.cwnd();
  cc.on_timeout();
  EXPECT_DOUBLE_EQ(cc.cwnd(), 1.0);
  EXPECT_EQ(cc.timeouts(), 1u);
  EXPECT_TRUE(cc.in_slow_start());  // 1 < ssthresh = max(before/2, 2)
  (void)before;
  // Recovery grows exponentially again until ssthresh.
  feed_window(cc, 0);
  EXPECT_DOUBLE_EQ(cc.cwnd(), 2.0);
}

// --- PIAS demotion ----------------------------------------------------------

TEST(PiasPriority, GeometricThresholdCrossings) {
  // T_l = 1000 << l: bands are [0,1000), [1000,2000), [2000,4000), [4000,inf).
  const std::uint64_t base = 1'000;
  const std::uint8_t levels = 4;
  EXPECT_EQ(pias_priority(0, base, levels), 0);
  EXPECT_EQ(pias_priority(999, base, levels), 0);
  EXPECT_EQ(pias_priority(1'000, base, levels), 1);  // first crossing, exact
  EXPECT_EQ(pias_priority(1'999, base, levels), 1);
  EXPECT_EQ(pias_priority(2'000, base, levels), 2);
  EXPECT_EQ(pias_priority(3'999, base, levels), 2);
  EXPECT_EQ(pias_priority(4'000, base, levels), 3);
  EXPECT_EQ(pias_priority(~std::uint64_t{0}, base, levels), 3);  // capped
}

TEST(PiasPriority, DegenerateConfigsPinToTopBand) {
  EXPECT_EQ(pias_priority(123'456, 1'000, 1), 0);  // one band: nothing to demote
  EXPECT_EQ(pias_priority(123'456, 0, 8), 0);      // zero base disables demotion
}

TEST(PiasPriority, HugeBaseThresholdDoesNotOverflow) {
  // Crossings at 2^62 and 2^63 are representable; the next doubling would
  // overflow, so the overflow guard pins everything past 2^63 at level 2
  // instead of wrapping around to band 0.
  const std::uint64_t base = 1ULL << 62;
  EXPECT_EQ(pias_priority(0, base, 8), 0);
  EXPECT_EQ(pias_priority(1ULL << 62, base, 8), 1);
  EXPECT_EQ(pias_priority(~std::uint64_t{0}, base, 8), 2);
}

// --- Threshold-ECN marker ----------------------------------------------------

namespace {

net::Packet dctcp_data(std::uint32_t seq) {
  net::Packet p;
  p.flow = 1;
  p.seq = seq;
  p.type = net::PacketType::kData;
  p.payload_bytes = 1'000;
  p.wire_bytes = 1'000 + net::kHeaderBytes;
  p.ecn_capable = true;
  p.ce = false;
  p.threshold_ecn = true;
  return p;
}

}  // namespace

TEST(ThresholdEcnMarker, MarksWhenResidualBacklogAtLeastK) {
  core::ThresholdEcnMarker m{2};
  auto q = net::EgressQueue::strict_priority(8, 64);
  m.bind_queue(q);
  for (std::uint32_t i = 0; i < 4; ++i) q.enqueue(dctcp_data(i));

  const auto t0 = sim::TimePoint::zero();
  const auto rate = sim::Bandwidth::gbps(10);
  // Backlog behind each departure: 3, 2, 1, 0 -> marked, marked, clear, clear.
  const bool expect_mark[] = {true, true, false, false};
  for (const bool expected : expect_mark) {
    auto pkt = q.dequeue();
    ASSERT_TRUE(pkt.has_value());
    m.on_dequeue(*pkt, t0, t0, rate);
    EXPECT_EQ(pkt->ce, expected) << "backlog " << q.data_pkts();
  }
  EXPECT_EQ(m.observed(), 4u);
  EXPECT_EQ(m.marked(), 2u);
}

TEST(ThresholdEcnMarker, IgnoresAntiEcnPopulation) {
  // An AMRT data packet (threshold_ecn = false, CE starts set) passing a deep
  // queue must be left alone: the anti-ECN marker owns that population.
  core::ThresholdEcnMarker m{1};
  auto q = net::EgressQueue::strict_priority(8, 64);
  m.bind_queue(q);
  net::Packet amrt = dctcp_data(0);
  amrt.threshold_ecn = false;
  amrt.ce = true;
  net::Packet follower = dctcp_data(1);
  q.enqueue(std::move(follower));  // keeps the backlog >= K during on_dequeue

  m.on_dequeue(amrt, sim::TimePoint::zero(), sim::TimePoint::zero(), sim::Bandwidth::gbps(10));
  EXPECT_TRUE(amrt.ce);  // unchanged, not ORed
  EXPECT_EQ(m.observed(), 0u);
}

// --- Endpoint: ECN-Echo fidelity under reordering ----------------------------

namespace {

// Captures ACKs (kGrant) arriving back at the sender host.
class AckTrap final : public transport::TransportEndpoint {
 public:
  using TransportEndpoint::TransportEndpoint;
  void start_flow(const transport::FlowSpec&) override {}
  std::vector<std::pair<std::uint32_t, bool>> acks;  // (seq, ECN-Echo)

 protected:
  void on_data(net::Packet&&) override {}
  void on_rts(net::Packet&&) override {}
  void on_grant(net::Packet&& p) override { acks.emplace_back(p.seq, p.marked_grant); }
  void on_done(net::Packet&&) override {}
};

// One switch, two hosts, symmetric routes — just enough fabric for ACKs to
// travel from the receiver endpoint back to the trap.
struct MiniFabric {
  sim::Simulation sim{1};
  net::Network network{sim};
  net::Host* a = nullptr;
  net::Host* b = nullptr;
  transport::TransportConfig tcfg;

  MiniFabric() {
    const auto rate = sim::Bandwidth::gbps(10);
    const auto delay = sim::Duration::microseconds(5);
    const net::SwitchId sw = network.add_switch();
    const net::HostId ha = network.add_host(rate, delay, net::EgressQueue::drop_tail(64));
    const net::HostId hb = network.add_host(rate, delay, net::EgressQueue::drop_tail(64));
    const net::PortId down_a = network.attach_host(ha, sw, net::EgressQueue::drop_tail(64));
    const net::PortId down_b = network.attach_host(hb, sw, net::EgressQueue::drop_tail(64));
    network.switch_at(sw).routes().set_routes(network.id_of(ha), {&down_a, 1});
    network.switch_at(sw).routes().set_routes(network.id_of(hb), {&down_b, 1});
    a = &network.host(ha);
    b = &network.host(hb);
    tcfg.host_rate = rate;
    tcfg.base_rtt = net::path_base_rtt(2, rate, delay);
  }
};

}  // namespace

TEST(DctcpEndpoint, EcnEchoFollowsPerPacketCeUnderReordering) {
  MiniFabric f;
  auto trap = std::make_unique<AckTrap>(f.sim, *f.a, f.tcfg, nullptr);
  AckTrap* trap_p = trap.get();
  f.a->attach(std::move(trap));
  auto rcv = std::make_unique<transport::DctcpEndpoint>(f.sim, *f.b, f.tcfg, nullptr);
  transport::DctcpEndpoint* rcv_p = rcv.get();
  f.b->attach(std::move(rcv));

  // Three-packet flow delivered out of order with a CE pattern; the echo
  // must be per packet (seq-matched), not cumulative.
  const std::uint64_t bytes = 3ull * net::kMssBytes;
  struct Arrival {
    std::uint32_t seq;
    bool ce;
  };
  const Arrival arrivals[] = {{2, true}, {0, false}, {1, true}};
  for (const auto& ar : arrivals) {
    net::Packet p;
    p.flow = 7;
    p.seq = ar.seq;
    p.type = net::PacketType::kData;
    p.payload_bytes = net::payload_of_seq(bytes, ar.seq);
    p.wire_bytes = p.payload_bytes + net::kHeaderBytes;
    p.src = f.a->id();
    p.dst = f.b->id();
    p.ecn_capable = true;
    p.threshold_ecn = true;
    p.ce = ar.ce;
    p.flow_bytes = bytes;
    rcv_p->deliver(std::move(p));
  }
  f.sim.scheduler().run();

  ASSERT_EQ(trap_p->acks.size(), 3u);
  EXPECT_EQ(trap_p->acks[0], (std::pair<std::uint32_t, bool>{2, true}));
  EXPECT_EQ(trap_p->acks[1], (std::pair<std::uint32_t, bool>{0, false}));
  EXPECT_EQ(trap_p->acks[2], (std::pair<std::uint32_t, bool>{1, true}));
  EXPECT_EQ(rcv_p->open_receiver_flows(), 0u);  // flow completed and torn down
}

TEST(DctcpEndpoint, DuplicateDataIsReAckedWithoutDoubleCounting) {
  MiniFabric f;
  auto trap = std::make_unique<AckTrap>(f.sim, *f.a, f.tcfg, nullptr);
  AckTrap* trap_p = trap.get();
  f.a->attach(std::move(trap));
  auto rcv = std::make_unique<transport::DctcpEndpoint>(f.sim, *f.b, f.tcfg, nullptr);
  transport::DctcpEndpoint* rcv_p = rcv.get();
  f.b->attach(std::move(rcv));

  stats::FctRecorder recorder{f.tcfg.host_rate, f.tcfg.base_rtt};
  auto one_pkt = [&](std::uint32_t seq) {
    net::Packet p;
    p.flow = 9;
    p.seq = seq;
    p.type = net::PacketType::kData;
    p.payload_bytes = 500;
    p.wire_bytes = 500 + net::kHeaderBytes;
    p.src = f.a->id();
    p.dst = f.b->id();
    p.ecn_capable = true;
    p.threshold_ecn = true;
    p.flow_bytes = 500;
    return p;
  };
  rcv_p->deliver(one_pkt(0));  // completes the single-packet flow
  rcv_p->deliver(one_pkt(0));  // stale retransmission: re-ACK from tombstone
  f.sim.scheduler().run();
  EXPECT_EQ(trap_p->acks.size(), 2u);
  EXPECT_EQ(rcv_p->open_receiver_flows(), 0u);
  (void)recorder;
}

// --- End-to-end: pure DCTCP and mixed fabrics --------------------------------

TEST(DctcpEndToEnd, SingleFlowCompletesOnDctcpFabric) {
  MiniFabric f;
  stats::FctRecorder recorder{f.tcfg.host_rate, f.tcfg.base_rtt};
  auto snd = std::make_unique<transport::DctcpEndpoint>(f.sim, *f.a, f.tcfg, &recorder);
  transport::DctcpEndpoint* snd_p = snd.get();
  f.a->attach(std::move(snd));
  auto rcv = std::make_unique<transport::DctcpEndpoint>(f.sim, *f.b, f.tcfg, &recorder);
  f.b->attach(std::move(rcv));

  snd_p->start_flow({1, f.a->id(), f.b->id(), 200'000, sim::TimePoint::zero()});
  f.sim.scheduler().run();

  ASSERT_EQ(recorder.completed().size(), 1u);
  EXPECT_EQ(recorder.completed().front().bytes, 200'000u);
  EXPECT_EQ(snd_p->open_sender_flows(), 0u);
  EXPECT_EQ(snd_p->timeouts(), 0u);  // clean fabric: the RTO never fires
}

TEST(DctcpEndToEnd, MixedEndpointRoutesFlowsByPopulation) {
  // One mixed endpoint per host: even flow ids ride AMRT, odd ids ride
  // DCTCP; both must complete over the shared strict-priority fabric.
  sim::Simulation sim{1};
  net::Network network{sim};
  const auto rate = sim::Bandwidth::gbps(10);
  const auto delay = sim::Duration::microseconds(5);
  auto qf = core::make_mixed_queue_factory({});
  auto mf = core::make_mixed_marker_factory({});
  const net::SwitchId sw = network.add_switch();
  const net::HostId ha = network.add_host(rate, delay, qf(true));
  const net::HostId hb = network.add_host(rate, delay, qf(true));
  const net::PortId down_a = network.attach_host(ha, sw, qf(false), mf());
  const net::PortId down_b = network.attach_host(hb, sw, qf(false), mf());
  network.switch_at(sw).routes().set_routes(network.id_of(ha), {&down_a, 1});
  network.switch_at(sw).routes().set_routes(network.id_of(hb), {&down_b, 1});
  net::Host& a = network.host(ha);
  net::Host& b = network.host(hb);

  transport::TransportConfig tcfg;
  tcfg.host_rate = rate;
  tcfg.base_rtt = net::path_base_rtt(2, rate, delay);
  stats::FctRecorder recorder{rate, tcfg.base_rtt};
  const auto is_bg = [](net::FlowId id) { return id % 2 == 1; };
  auto ea = core::make_mixed_endpoint(sim, a, tcfg, &recorder, is_bg);
  transport::TransportEndpoint* ea_p = ea.get();
  a.attach(std::move(ea));
  auto eb = core::make_mixed_endpoint(sim, b, tcfg, &recorder, is_bg);
  b.attach(std::move(eb));

  ea_p->start_flow({2, a.id(), b.id(), 100'000, sim::TimePoint::zero()});  // AMRT
  ea_p->start_flow({3, a.id(), b.id(), 100'000, sim::TimePoint::zero()});  // DCTCP
  sim.scheduler().run();

  ASSERT_EQ(recorder.completed().size(), 2u);
  EXPECT_EQ(recorder.bytes_delivered(), 200'000u);
}

// --- PIAS on the wire ---------------------------------------------------------

namespace {

// Observes data packets at the receiver host, recording PIAS priorities.
class DataTrap final : public transport::TransportEndpoint {
 public:
  using TransportEndpoint::TransportEndpoint;
  void start_flow(const transport::FlowSpec&) override {}
  std::vector<std::pair<std::uint32_t, std::uint8_t>> seen;  // (seq, priority)

 protected:
  void on_data(net::Packet&& p) override { seen.emplace_back(p.seq, p.priority); }
  void on_rts(net::Packet&&) override {}
  void on_grant(net::Packet&&) override {}
  void on_done(net::Packet&&) override {}
};

}  // namespace

TEST(DctcpEndpoint, PiasDemotesWirePrioritiesAsBytesAccumulate) {
  MiniFabric f;
  f.tcfg.pias_base_threshold_bytes = 2 * net::kMssBytes;  // demote every 2 MSS
  f.tcfg.pias_levels = 3;
  f.tcfg.dctcp_init_cwnd_pkts = 16;  // whole flow fits the initial window
  auto snd = std::make_unique<transport::DctcpEndpoint>(f.sim, *f.a, f.tcfg, nullptr);
  transport::DctcpEndpoint* snd_p = snd.get();
  f.a->attach(std::move(snd));
  auto trap = std::make_unique<DataTrap>(f.sim, *f.b, f.tcfg, nullptr);
  DataTrap* trap_p = trap.get();
  f.b->attach(std::move(trap));

  // 8 full packets; thresholds at 2 and 4 MSS, then capped at band 2. The
  // trap never ACKs, so the RTO eventually retransmits — only the initial
  // window (the first 8 arrivals, in sequence order) pins the demotions.
  snd_p->start_flow({5, f.a->id(), f.b->id(), 8ull * net::kMssBytes,
                     sim::TimePoint::zero()});
  f.sim.scheduler().run_until(sim::TimePoint::zero() + sim::Duration::milliseconds(2));

  ASSERT_GE(trap_p->seen.size(), 8u);
  const std::uint8_t expect[] = {0, 0, 1, 1, 2, 2, 2, 2};
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(trap_p->seen[i].first, i) << "initial window must arrive in order";
    EXPECT_EQ(trap_p->seen[i].second, expect[i]) << "packet " << i;
  }
}

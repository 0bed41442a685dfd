// Tests for the extension features: Aeolus-style selective dropping, the
// unscheduled packet tag, and the Jain fairness metric.
#include <gtest/gtest.h>

#include "net/queue.hpp"
#include "stats/summary.hpp"
#include "test_rig.hpp"

using namespace amrt;
using namespace amrt::sim::literals;
using amrt::testutil::DumbbellRig;
using amrt::testutil::RigOptions;

namespace {
net::Packet mk(std::uint32_t seq, bool unscheduled) {
  net::Packet p;
  p.flow = 1;
  p.seq = seq;
  p.type = net::PacketType::kData;
  p.wire_bytes = net::kMtuBytes;
  p.payload_bytes = net::kMssBytes;
  p.unscheduled = unscheduled;
  return p;
}
}  // namespace

TEST(SelectiveDrop, UnscheduledDroppedFirstWhenFull) {
  auto q = net::EgressQueue::selective_drop(2);
  q.enqueue(mk(0, true));
  q.enqueue(mk(1, true));
  q.enqueue(mk(2, true));  // full of blind packets: incoming blind drops
  EXPECT_EQ(q.stats().dropped, 1u);
  EXPECT_EQ(q.data_pkts(), 2u);
}

TEST(SelectiveDrop, ScheduledEvictsYoungestUnscheduled) {
  auto q = net::EgressQueue::selective_drop(2);
  q.enqueue(mk(0, true));
  q.enqueue(mk(1, true));
  q.enqueue(mk(2, false));  // scheduled arrival evicts blind seq 1
  EXPECT_EQ(q.stats().dropped, 1u);
  auto a = q.dequeue();
  auto b = q.dequeue();
  ASSERT_TRUE(a && b);
  EXPECT_EQ(a->seq, 0u);
  EXPECT_EQ(b->seq, 2u);
  EXPECT_FALSE(b->unscheduled);
}

TEST(SelectiveDrop, AllScheduledFallsBackToTailDrop) {
  auto q = net::EgressQueue::selective_drop(2);
  q.enqueue(mk(0, false));
  q.enqueue(mk(1, false));
  q.enqueue(mk(2, false));
  EXPECT_EQ(q.stats().dropped, 1u);
  EXPECT_EQ(q.dequeue()->seq, 0u);  // FIFO preserved
}

TEST(SelectiveDrop, ControlBandUnaffected) {
  auto q = net::EgressQueue::selective_drop(1);
  q.enqueue(mk(0, false));
  net::Packet grant;
  grant.type = net::PacketType::kGrant;
  grant.wire_bytes = net::kCtrlBytes;
  q.enqueue(std::move(grant));
  EXPECT_EQ(q.dequeue()->type, net::PacketType::kGrant);
}

TEST(UnscheduledTag, FirstBdpTaggedRestNot) {
  RigOptions opt;
  opt.proto = transport::Protocol::kAmrt;
  DumbbellRig rig{opt};
  const auto bdp = rig.tcfg().bdp_packets();
  // A flow of 2 BDP: the first window is blind, the second grant-driven.
  rig.start_flow(1, 0, static_cast<std::uint64_t>(bdp) * 2 * net::kMssBytes);
  ASSERT_TRUE(rig.run_to_completion(1, 100_ms));
  // Indirect check: with a selective-drop queue full of this flow's blind
  // burst, scheduled retransmissions would evict them — covered above; here
  // we assert completion still holds with selective drop enabled end-to-end.
  RigOptions sel;
  sel.proto = transport::Protocol::kAmrt;
  sel.queues.selective_drop = true;
  sel.queues.buffer_pkts = 8;
  sel.pairs = 3;
  DumbbellRig rig2{sel};
  for (int i = 0; i < 3; ++i) rig2.start_flow(static_cast<net::FlowId>(i + 1), i, 200'000);
  EXPECT_TRUE(rig2.run_to_completion(3, 1_s));
}

TEST(SelectiveDropEndToEnd, ProtectsScheduledTraffic) {
  // Under the same colliding load, selective drop must not lose *granted*
  // packets: drops concentrate on the blind first windows.
  auto run = [](bool selective) {
    RigOptions opt;
    opt.proto = transport::Protocol::kAmrt;
    opt.queues.selective_drop = selective;
    opt.queues.buffer_pkts = 8;
    opt.pairs = 4;
    DumbbellRig rig{opt};
    for (int i = 0; i < 4; ++i) rig.start_flow(static_cast<net::FlowId>(i + 1), i, 400'000);
    EXPECT_TRUE(rig.run_to_completion(4, 2_s));
    double worst = 0;
    for (const auto& r : rig.recorder().completed()) worst = std::max(worst, r.fct().to_millis());
    return worst;
  };
  const double droptail_worst = run(false);
  const double selective_worst = run(true);
  // Selective dropping should not make the tail worse; typically it helps
  // because granted retransmissions are never re-lost.
  EXPECT_LE(selective_worst, droptail_worst * 1.2);
}

TEST(JainFairness, PerfectlyFair) {
  EXPECT_DOUBLE_EQ(stats::jain_fairness({5, 5, 5, 5}), 1.0);
}

TEST(JainFairness, SingleHog) {
  EXPECT_NEAR(stats::jain_fairness({10, 0, 0, 0}), 0.25, 1e-12);
}

TEST(JainFairness, EdgeCases) {
  EXPECT_DOUBLE_EQ(stats::jain_fairness({}), 0.0);
  EXPECT_DOUBLE_EQ(stats::jain_fairness({0, 0}), 0.0);
  EXPECT_DOUBLE_EQ(stats::jain_fairness({7}), 1.0);
}

TEST(JainFairness, MonotoneInImbalance) {
  EXPECT_GT(stats::jain_fairness({4, 6}), stats::jain_fairness({1, 9}));
}

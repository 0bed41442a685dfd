// Unit tests for egress queue disciplines (src/net/queue.hpp).
#include <gtest/gtest.h>

#include <type_traits>
#include <vector>

#include "net/queue.hpp"

using namespace amrt::net;

// The discipline set is closed: one concrete type, no vtable.
static_assert(!std::is_polymorphic_v<EgressQueue>);

namespace {
Packet data_pkt(std::uint32_t seq, std::uint8_t prio = 0) {
  Packet p;
  p.flow = 1;
  p.seq = seq;
  p.type = PacketType::kData;
  p.payload_bytes = kMssBytes;
  p.wire_bytes = kMtuBytes;
  p.priority = prio;
  return p;
}

Packet grant_pkt(std::uint32_t seq) {
  Packet p;
  p.flow = 1;
  p.seq = seq;
  p.type = PacketType::kGrant;
  p.wire_bytes = kCtrlBytes;
  return p;
}
}  // namespace

TEST(DropTail, FifoOrder) {
  auto q = EgressQueue::drop_tail(8);
  for (std::uint32_t i = 0; i < 4; ++i) q.enqueue(data_pkt(i));
  for (std::uint32_t i = 0; i < 4; ++i) {
    auto p = q.dequeue();
    ASSERT_TRUE(p.has_value());
    EXPECT_EQ(p->seq, i);
  }
  EXPECT_FALSE(q.dequeue().has_value());
}

TEST(DropTail, DropsBeyondCapacity) {
  auto q = EgressQueue::drop_tail(2);
  for (std::uint32_t i = 0; i < 5; ++i) q.enqueue(data_pkt(i));
  EXPECT_EQ(q.data_pkts(), 2u);
  EXPECT_EQ(q.stats().dropped, 3u);
  EXPECT_EQ(q.stats().enqueued, 5u);
}

TEST(DropTail, ControlBandBypassesCapacity) {
  auto q = EgressQueue::drop_tail(1);
  q.enqueue(data_pkt(0));
  q.enqueue(data_pkt(1));  // dropped
  for (std::uint32_t i = 0; i < 10; ++i) q.enqueue(grant_pkt(i));
  EXPECT_EQ(q.control_pkts(), 10u);
  EXPECT_EQ(q.stats().dropped, 1u);  // only the data packet
}

TEST(DropTail, ControlDequeuedBeforeData) {
  auto q = EgressQueue::drop_tail(8);
  q.enqueue(data_pkt(0));
  q.enqueue(grant_pkt(100));
  auto first = q.dequeue();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->type, PacketType::kGrant);
  auto second = q.dequeue();
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->type, PacketType::kData);
}

TEST(DropTail, HighWaterMarkTracksPeak) {
  auto q = EgressQueue::drop_tail(8);
  for (std::uint32_t i = 0; i < 5; ++i) q.enqueue(data_pkt(i));
  (void)q.dequeue();
  (void)q.dequeue();
  q.enqueue(data_pkt(9));
  EXPECT_EQ(q.stats().max_data_pkts, 5u);
}

TEST(DropTail, ByteAccounting) {
  auto q = EgressQueue::drop_tail(8);
  q.enqueue(data_pkt(0));
  q.enqueue(data_pkt(1));
  EXPECT_EQ(q.stats().data_bytes_in, 2ull * kMtuBytes);
}

TEST(Trimming, TrimsBeyondThreshold) {
  auto q = EgressQueue::trimming(2);
  for (std::uint32_t i = 0; i < 5; ++i) q.enqueue(data_pkt(i));
  EXPECT_EQ(q.data_pkts(), 2u);
  EXPECT_EQ(q.stats().trimmed, 3u);
  EXPECT_EQ(q.stats().dropped, 0u);  // NDP never drops data, it trims
  EXPECT_EQ(q.control_pkts(), 3u);
}

TEST(Trimming, TrimmedHeaderKeepsIdentityLosesPayload) {
  auto q = EgressQueue::trimming(0);  // everything trims
  q.enqueue(data_pkt(7));
  auto p = q.dequeue();
  ASSERT_TRUE(p.has_value());
  EXPECT_TRUE(p->trimmed);
  EXPECT_EQ(p->seq, 7u);
  EXPECT_EQ(p->payload_bytes, 0u);
  EXPECT_EQ(p->wire_bytes, kCtrlBytes);
  EXPECT_EQ(p->type, PacketType::kData);
}

TEST(Trimming, TrimmedHeadersJumpTheDataQueue) {
  auto q = EgressQueue::trimming(1);
  q.enqueue(data_pkt(0));
  q.enqueue(data_pkt(1));  // trimmed
  auto first = q.dequeue();
  ASSERT_TRUE(first.has_value());
  EXPECT_TRUE(first->trimmed);
  EXPECT_EQ(first->seq, 1u);
}

TEST(Priority, StrictOrderingAcrossBands) {
  auto q = EgressQueue::strict_priority(8, 64);
  q.enqueue(data_pkt(0, 5));
  q.enqueue(data_pkt(1, 1));
  q.enqueue(data_pkt(2, 3));
  EXPECT_EQ(q.dequeue()->priority, 1);
  EXPECT_EQ(q.dequeue()->priority, 3);
  EXPECT_EQ(q.dequeue()->priority, 5);
}

TEST(Priority, FifoWithinBand) {
  auto q = EgressQueue::strict_priority(8, 64);
  q.enqueue(data_pkt(0, 2));
  q.enqueue(data_pkt(1, 2));
  EXPECT_EQ(q.dequeue()->seq, 0u);
  EXPECT_EQ(q.dequeue()->seq, 1u);
}

TEST(Priority, SharedCapacityAcrossBands) {
  auto q = EgressQueue::strict_priority(8, 3);
  q.enqueue(data_pkt(0, 0));
  q.enqueue(data_pkt(1, 7));
  q.enqueue(data_pkt(2, 3));
  q.enqueue(data_pkt(3, 0));  // over capacity
  EXPECT_EQ(q.stats().dropped, 1u);
  EXPECT_EQ(q.data_pkts(), 3u);
}

TEST(Priority, OutOfRangePriorityClampsToLastBand) {
  auto q = EgressQueue::strict_priority(4, 64);
  q.enqueue(data_pkt(0, 200));
  auto p = q.dequeue();
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->seq, 0u);
}

TEST(Priority, ControlStillBeatsPriorityZero) {
  auto q = EgressQueue::strict_priority(8, 64);
  q.enqueue(data_pkt(0, 0));
  q.enqueue(grant_pkt(9));
  EXPECT_EQ(q.dequeue()->type, PacketType::kGrant);
}

TEST(Queues, DequeueCountsInStats) {
  auto q = EgressQueue::drop_tail(8);
  q.enqueue(data_pkt(0));
  q.enqueue(grant_pkt(1));
  (void)q.dequeue();
  (void)q.dequeue();
  EXPECT_EQ(q.stats().dequeued, 2u);
  EXPECT_TRUE(q.empty());
}

// ---------------------------------------------------------------------------
// Drop/trim path regressions. Every disposition now routes through one
// instrumented helper each (drop_data / drop_admitted / trim_to_control);
// these lock the accounting those helpers guarantee: the stats identity
// enqueued == dequeued + dropped + depth at every step, and a packet is
// trimmed or dropped, never both.
// ---------------------------------------------------------------------------

namespace {
void expect_stats_identity(const EgressQueue& q) {
  EXPECT_EQ(q.stats().enqueued, q.stats().dequeued + q.stats().dropped + q.total_pkts());
}
}  // namespace

TEST(Trimming, TrimThenDrainNeverDrops) {
  // The NDP regression: heavy congestion interleaved with service. Trimmed
  // packets convert to control headers in place — they must count as
  // enqueued (they are still in the queue) and never as dropped, or the
  // identity (and the fabric-wide conservation audit) breaks.
  auto q = EgressQueue::trimming(2);
  std::size_t trimmed_out = 0;
  const auto drain_n = [&](std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      auto p = q.dequeue();
      ASSERT_TRUE(p.has_value());
      if (p->trimmed) ++trimmed_out;
    }
  };
  for (std::uint32_t i = 0; i < 4; ++i) q.enqueue(data_pkt(i));
  expect_stats_identity(q);
  drain_n(2);  // trimmed headers first (control jumps the data band)
  expect_stats_identity(q);
  for (std::uint32_t i = 4; i < 8; ++i) q.enqueue(data_pkt(i));
  expect_stats_identity(q);
  while (auto p = q.dequeue()) {
    if (p->trimmed) ++trimmed_out;
  }
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.stats().dropped, 0u);
  EXPECT_GT(q.stats().trimmed, 0u);
  EXPECT_EQ(trimmed_out, q.stats().trimmed);  // every trim was delivered as a header
  EXPECT_EQ(q.stats().enqueued, q.stats().dequeued);
  expect_stats_identity(q);
}

TEST(SelectiveDrop, UnscheduledSacrificeKeepsIdentity) {
  auto q = EgressQueue::selective_drop(2);
  Packet blind = data_pkt(0);
  blind.unscheduled = true;
  q.enqueue(std::move(blind));
  q.enqueue(data_pkt(1));
  Packet refused = data_pkt(2);
  refused.unscheduled = true;  // blind arrival at a full band is sacrificed
  q.enqueue(std::move(refused));
  EXPECT_EQ(q.stats().dropped, 1u);
  EXPECT_EQ(q.data_pkts(), 2u);
  expect_stats_identity(q);
}

TEST(SelectiveDrop, EvictionCountsExactlyOnce) {
  // Scheduled traffic evicts an already-admitted blind packet: the eviction
  // must surface as exactly one drop (not zero — the packet vanished; not
  // two — it was only one packet) and the survivor set must stay full.
  auto q = EgressQueue::selective_drop(2);
  Packet blind = data_pkt(0);
  blind.unscheduled = true;
  q.enqueue(std::move(blind));
  q.enqueue(data_pkt(1));
  q.enqueue(data_pkt(2));  // evicts seq 0
  EXPECT_EQ(q.stats().dropped, 1u);
  EXPECT_EQ(q.data_pkts(), 2u);
  expect_stats_identity(q);
  // Drain: the blind packet is gone; both scheduled packets survive.
  auto a = q.dequeue();
  auto b = q.dequeue();
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(a->seq, 1u);
  EXPECT_EQ(b->seq, 2u);
  EXPECT_TRUE(q.empty());
  expect_stats_identity(q);
}

// ---------------------------------------------------------------------------
// Link-down flush: every discipline discards each queued packet exactly once
// through the admitted-drop accounting, control band included.
// ---------------------------------------------------------------------------

TEST(Queues, LinkDownFlushDrainsEveryDiscipline) {
  struct Case {
    const char* name;
    EgressQueue queue;
    std::vector<Packet> arrivals;
    std::size_t control;  // queued control packets before the flush
    std::size_t data;     // queued data packets before the flush
  };
  const auto blind = [](std::uint32_t seq) {
    Packet p = data_pkt(seq);
    p.unscheduled = true;
    return p;
  };
  std::vector<Case> cases;
  // Three data (one over the cap) and two grants.
  cases.push_back({"drop_tail", EgressQueue::drop_tail(2),
                   {data_pkt(0), grant_pkt(1), data_pkt(2), data_pkt(3), grant_pkt(4)}, 2, 2});
  // Two data held, three trimmed headers waiting in the control band.
  cases.push_back({"trimming", EgressQueue::trimming(2),
                   {data_pkt(0), data_pkt(1), data_pkt(2), data_pkt(3), data_pkt(4), grant_pkt(5)},
                   4, 2});
  // A scheduled arrival evicts a blind packet before the flush.
  cases.push_back({"selective_drop", EgressQueue::selective_drop(2),
                   {blind(0), data_pkt(1), data_pkt(2), grant_pkt(3)}, 1, 2});
  // Packets in three of the bands.
  cases.push_back({"strict_priority", EgressQueue::strict_priority(8, 64),
                   {data_pkt(0, 7), data_pkt(1, 0), data_pkt(2, 3), data_pkt(3, 3), grant_pkt(4)},
                   1, 4});
  for (Case& c : cases) {
    SCOPED_TRACE(c.name);
    EgressQueue& q = c.queue;
    for (Packet& p : c.arrivals) q.enqueue(std::move(p));
    ASSERT_EQ(q.control_pkts(), c.control);
    ASSERT_EQ(q.data_pkts(), c.data);
    const std::uint64_t dropped_before = q.stats().dropped;
    EXPECT_EQ(q.flush_faulted(), c.control + c.data);
    EXPECT_EQ(q.stats().dropped - dropped_before, c.control + c.data);
    EXPECT_EQ(q.total_pkts(), 0u);
    expect_stats_identity(q);
    EXPECT_FALSE(q.dequeue().has_value());
    EXPECT_EQ(q.flush_faulted(), 0u);
  }
}

// Unit tests for EgressPort serialization/propagation (src/net/port.hpp).
#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "net/port.hpp"
#include "sim/rng.hpp"

using namespace amrt::net;
using namespace amrt::sim;
using namespace amrt::sim::literals;

namespace {

// Records every delivered packet with its arrival time.
class SinkNode final : public Node {
 public:
  SinkNode() : Node{NodeId{99}} {}
  void handle_packet(Packet&& pkt, int port) override {
    arrivals.push_back({pkt, port});
    times.push_back(now_fn ? now_fn() : TimePoint::zero());
  }
  std::vector<std::pair<Packet, int>> arrivals;
  std::vector<TimePoint> times;
  std::function<TimePoint()> now_fn;
};

Packet data_pkt(std::uint32_t seq, std::uint32_t wire = kMtuBytes) {
  Packet p;
  p.seq = seq;
  p.type = PacketType::kData;
  p.wire_bytes = wire;
  p.payload_bytes = wire - kHeaderBytes;
  return p;
}

struct PortRig {
  Scheduler sched;
  SinkNode sink;
  EgressQueue queue;  // the port's queue is non-owning
  EgressPort port;

  explicit PortRig(EgressPort::Config cfg, EgressQueue q = EgressQueue::drop_tail(64))
      : queue{std::move(q)}, port{sched, cfg, queue} {
    sink.now_fn = [this] { return sched.now(); };
    port.connect(sink, 3);
  }
};

// Ports sit in one pool walked per packet: cold state, such as the 2.5 KB
// random engines, stays out of line.
static_assert(sizeof(EgressPort) <= 256, "EgressPort grew: keep cold state out of line");

}  // namespace

TEST(EgressPort, DeliversAfterSerializationPlusPropagation) {
  PortRig rig{{Bandwidth::gbps(10), 5_us}};
  rig.port.enqueue(data_pkt(0));
  rig.sched.run();
  ASSERT_EQ(rig.sink.arrivals.size(), 1u);
  // 1500B at 10G = 1.2us serialize + 5us propagate.
  EXPECT_EQ(rig.sink.times[0], TimePoint::zero() + 1200_ns + 5_us);
  EXPECT_EQ(rig.sink.arrivals[0].second, 3);  // ingress port number preserved
}

TEST(EgressPort, SerializesBackToBack) {
  PortRig rig{{Bandwidth::gbps(10), Duration::zero()}};
  rig.port.enqueue(data_pkt(0));
  rig.port.enqueue(data_pkt(1));
  rig.sched.run();
  ASSERT_EQ(rig.sink.times.size(), 2u);
  EXPECT_EQ(rig.sink.times[1] - rig.sink.times[0], 1200_ns);
}

TEST(EgressPort, PreservesFifoOrderAcrossLink) {
  PortRig rig{{Bandwidth::gbps(10), 2_us}};
  for (std::uint32_t i = 0; i < 10; ++i) rig.port.enqueue(data_pkt(i));
  rig.sched.run();
  ASSERT_EQ(rig.sink.arrivals.size(), 10u);
  for (std::uint32_t i = 0; i < 10; ++i) EXPECT_EQ(rig.sink.arrivals[i].first.seq, i);
}

TEST(EgressPort, CountsBytesAndPackets) {
  PortRig rig{{Bandwidth::gbps(10), Duration::zero()}};
  rig.port.enqueue(data_pkt(0));
  rig.port.enqueue(data_pkt(1, 500));
  rig.sched.run();
  EXPECT_EQ(rig.port.packets_sent(), 2u);
  EXPECT_EQ(rig.port.bytes_sent(), 2000u);
}

TEST(EgressPort, BusyTimeAccumulatesSerialization) {
  PortRig rig{{Bandwidth::gbps(10), 10_us}};
  rig.port.enqueue(data_pkt(0));
  rig.port.enqueue(data_pkt(1));
  rig.sched.run();
  EXPECT_EQ(rig.port.busy_time(), 2400_ns);  // propagation is not busy time
}

TEST(EgressPort, DropsSurfaceInQueueStats) {
  PortRig rig{{Bandwidth::gbps(10), Duration::zero()}, EgressQueue::drop_tail(1)};
  // While the first packet serializes, the 2nd occupies the single slot and
  // the rest drop.
  for (std::uint32_t i = 0; i < 5; ++i) rig.port.enqueue(data_pkt(i));
  rig.sched.run();
  EXPECT_GE(rig.port.queue().stats().dropped, 3u);
  EXPECT_LE(rig.sink.arrivals.size(), 2u);
}

TEST(EgressPort, MarkerSeesIdleGapState) {
  struct Probe final : DequeueMarker {
    std::vector<Duration> gaps;
    void on_dequeue(Packet&, TimePoint tx_start, TimePoint last_tx_end, Bandwidth) override {
      gaps.push_back(tx_start - last_tx_end);
    }
  };
  PortRig rig{{Bandwidth::gbps(10), Duration::zero()}};
  auto probe = std::make_unique<Probe>();
  auto* probe_ptr = probe.get();
  rig.port.add_marker(std::move(probe));

  rig.port.enqueue(data_pkt(0));
  rig.sched.run();  // first tx ends at 1.2us; the clock now reads 1.2us
  rig.sched.after(10_us, [&] { rig.port.enqueue(data_pkt(1)); });
  rig.sched.run();
  ASSERT_EQ(probe_ptr->gaps.size(), 2u);
  EXPECT_EQ(probe_ptr->gaps[0], Duration::zero());  // first packet, t=0
  // Second packet starts at 11.2us; previous tx ended at 1.2us: 10us idle.
  EXPECT_EQ(probe_ptr->gaps[1], 10_us);
}

TEST(EgressPort, JitterBoundsInterPacketSpacing) {
  EgressPort::Config cfg{Bandwidth::gbps(10), Duration::zero()};
  cfg.tx_jitter = 150_ns;
  cfg.jitter_seed = 7;
  PortRig rig{cfg};
  for (std::uint32_t i = 0; i < 50; ++i) rig.port.enqueue(data_pkt(i));
  rig.sched.run();
  ASSERT_EQ(rig.sink.times.size(), 50u);
  bool saw_jitter = false;
  for (std::size_t i = 1; i < rig.sink.times.size(); ++i) {
    const auto gap = rig.sink.times[i] - rig.sink.times[i - 1];
    EXPECT_GE(gap, 1200_ns);
    EXPECT_LE(gap, 1200_ns + 150_ns);
    saw_jitter = saw_jitter || gap > 1200_ns;
  }
  EXPECT_TRUE(saw_jitter);
}

TEST(EgressPort, InvalidConfigRejected) {
  Scheduler sched;
  auto q = EgressQueue::drop_tail(4);
  EXPECT_THROW(EgressPort(sched, {Bandwidth::bps(0), Duration::zero()}, q),
               std::invalid_argument);
}

TEST(EgressPort, ControlPreemptsQueuedData) {
  PortRig rig{{Bandwidth::gbps(10), Duration::zero()}};
  rig.port.enqueue(data_pkt(0));  // starts transmitting immediately
  rig.port.enqueue(data_pkt(1));
  Packet g;
  g.type = PacketType::kGrant;
  g.wire_bytes = kCtrlBytes;
  g.seq = 42;
  rig.port.enqueue(std::move(g));
  rig.sched.run();
  ASSERT_EQ(rig.sink.arrivals.size(), 3u);
  EXPECT_EQ(rig.sink.arrivals[0].first.seq, 0u);  // already on the wire
  EXPECT_EQ(rig.sink.arrivals[1].first.seq, 42u); // grant jumps queued data
  EXPECT_EQ(rig.sink.arrivals[2].first.seq, 1u);
}

TEST(EgressPort, RearmedBlackholeReplaysTheSeededStream) {
  // Blackholing draws one Bernoulli per enqueue from a stream seeded by
  // set_drop_prob. Every arming, including one after a disarm, restarts
  // that stream: the eaten packets are exactly the ones a fresh Rng{seed}
  // predicts, and a disarmed port eats nothing.
  constexpr double kProb = 0.3;
  constexpr std::uint64_t kSeed = 1234;
  constexpr std::uint32_t kBatch = 200;
  PortRig rig{{Bandwidth::gbps(10), Duration::zero()}, EgressQueue::drop_tail(1024)};
  std::uint32_t seq = 0;
  std::set<std::uint32_t> expected_lost;
  auto send_batch = [&](bool armed) {
    Rng predict{kSeed};
    for (std::uint32_t i = 0; i < kBatch; ++i, ++seq) {
      if (armed && predict.bernoulli(kProb)) expected_lost.insert(seq);
      rig.port.enqueue(data_pkt(seq));
    }
    rig.sched.run();
  };

  rig.port.set_drop_prob(kProb, kSeed);
  send_batch(true);
  rig.port.set_drop_prob(0.0, kSeed);
  send_batch(false);
  rig.port.set_drop_prob(kProb, kSeed);
  send_batch(true);

  std::set<std::uint32_t> delivered;
  for (const auto& [pkt, port] : rig.sink.arrivals) delivered.insert(pkt.seq);
  std::set<std::uint32_t> lost;
  for (std::uint32_t s = 0; s < seq; ++s) {
    if (delivered.count(s) == 0) lost.insert(s);
  }
  EXPECT_EQ(lost, expected_lost);
  EXPECT_EQ(rig.port.packets_faulted(), expected_lost.size());
  EXPECT_FALSE(expected_lost.empty());
  EXPECT_EQ(rig.queue.stats().dropped, 0u);
}

// Unit tests for EgressPort serialization/propagation (src/net/port.hpp).
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
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

TEST(EgressPort, LateFirstTransmissionDrawsTheSeededJitterStream) {
  // The jitter engine is made on the first transmission; a NIC that first
  // sends at 1 ms draws exactly the delays of an engine seeded up front.
  EgressPort::Config cfg{Bandwidth::gbps(10), 5_us};
  cfg.tx_jitter = 150_ns;
  cfg.jitter_seed = 7;
  PortRig rig{cfg};
  constexpr std::uint32_t kPackets = 20;
  rig.sched.after(1_ms, [&] {
    for (std::uint32_t i = 0; i < kPackets; ++i) rig.port.enqueue(data_pkt(i));
  });
  rig.sched.run();
  Rng eager{cfg.jitter_seed};
  std::vector<TimePoint> want;
  TimePoint start = TimePoint::zero() + 1_ms;
  for (std::uint32_t i = 0; i < kPackets; ++i) {
    const auto tx = 1200_ns + Duration::nanoseconds(eager.uniform_int(0, cfg.tx_jitter.ns()));
    want.push_back(start + tx + cfg.delay);
    start += tx;
  }
  EXPECT_EQ(rig.sink.times, want);
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

namespace {

// Drives one port through the three kinds of arrival and renders what came
// out: the queue's counters, the port's counters and every delivered packet
// as "flow.seq[T][C]@ns" (T: trimmed, C: CE). A probe marker sets CE on a
// packet iff its queue still holds packets when the packet starts
// transmitting, so the pins also cover what a marker sees.
//
//   t = 0       a data packet at an idle port with an empty queue, then a
//               burst of 11 data packets (flow 2 unscheduled; priority
//               seq % 3) and 2 control packets (flow 3) while it is busy;
//   t = 50 us   a data packet at an idle port, a second one at exactly its
//               busy_until_ (the queue empty, so the port idle again) and a
//               control packet at exactly the second's busy_until_;
//   t = 100 us  two data packets, so the port wakes at 101.2 us with one
//               queued, and one arrival at 101.2 us before that wakeup fires
//               and one after it.
std::string drive_arrivals(EgressQueue q) {
  struct CeIfBacklogged final : DequeueMarker {
    const EgressQueue* queue = nullptr;
    void bind_queue(const EgressQueue& bound) override { queue = &bound; }
    void on_dequeue(Packet& pkt, TimePoint, TimePoint, Bandwidth) override {
      pkt.ce = !queue->empty();
    }
  };
  PortRig rig{{Bandwidth::gbps(10), 1_us}, std::move(q)};
  rig.port.add_marker(std::make_unique<CeIfBacklogged>());
  auto data = [](FlowId flow, std::uint32_t seq) {
    Packet p = data_pkt(seq);
    p.flow = flow;
    p.unscheduled = flow == 2;
    p.priority = static_cast<std::uint8_t>(seq % 3);
    return p;
  };
  auto ctrl = [](std::uint32_t seq) {
    Packet p;
    p.flow = 3;
    p.seq = seq;
    p.type = PacketType::kGrant;
    p.wire_bytes = kCtrlBytes;
    return p;
  };
  auto arrive_at = [&rig](TimePoint t, Packet p) {
    rig.sched.at(t, [&rig, p]() mutable { rig.port.enqueue(std::move(p)); });
  };

  const TimePoint t0 = TimePoint::zero();
  arrive_at(t0, data(1, 0));
  for (Packet p : {data(1, 1), data(2, 0), ctrl(0), data(2, 1), data(1, 2), data(1, 3),
                   data(2, 2), data(1, 4), data(1, 5), data(1, 6), data(1, 7), ctrl(1),
                   data(1, 8)}) {
    arrive_at(t0, p);
  }
  const TimePoint t1 = t0 + 50_us;
  arrive_at(t1, data(4, 0));
  arrive_at(t1 + 1200_ns, data(4, 1));
  arrive_at(t1 + 2400_ns, ctrl(2));
  const TimePoint t2 = t0 + 100_us;
  arrive_at(t2 + 1200_ns, data(5, 2));  // queued before the wakeup: fires first
  rig.sched.at(t2, [&] {
    rig.port.enqueue(data(5, 0));
    rig.port.enqueue(data(5, 1));       // arms the wakeup at t2 + 1200 ns
    arrive_at(t2 + 1200_ns, data(5, 3));  // queued after the wakeup: fires after it
  });
  rig.sched.run();

  const QueueStats& s = rig.queue.stats();
  std::string out = "enq=" + std::to_string(s.enqueued) + " deq=" + std::to_string(s.dequeued) +
                    " drop=" + std::to_string(s.dropped) + " trim=" + std::to_string(s.trimmed) +
                    " max=" + std::to_string(s.max_data_pkts) +
                    " in=" + std::to_string(s.data_bytes_in) +
                    " sent=" + std::to_string(rig.port.packets_sent()) + "/" +
                    std::to_string(rig.port.bytes_sent()) + " |";
  for (std::size_t i = 0; i < rig.sink.arrivals.size(); ++i) {
    const Packet& p = rig.sink.arrivals[i].first;
    out += " " + std::to_string(p.flow) + "." + std::to_string(p.seq) + (p.trimmed ? "T" : "") +
           (p.ce ? "C" : "") + "@" + std::to_string(rig.sink.times[i].ns());
  }
  return out;
}

}  // namespace

// Pins every discipline's counters and delivered sequence, at an idle port,
// at a busy port and at exactly busy_until_. Zero limits are pinned too:
// drop_tail(0) drops every data packet and trimming(0) trims every one, at
// an idle port as at a busy one.
TEST(EgressPort, ArrivalKindsPinnedPerDiscipline) {
  struct Case {
    const char* name;
    EgressQueue queue;
    const char* want;
  };
  const Case cases[] = {
      {"drop_tail(4)", EgressQueue::drop_tail(4),
       "enq=21 deq=14 drop=7 trim=0 max=4 in=16500 sent=14/16692 |"
       " 1.0@2200 3.0C@2252 3.1C@2304 1.1C@3504 2.0C@4704 2.1C@5904 1.2@7104"
       " 4.0@52200 4.1@53400 3.2@53452 5.0@102200 5.1C@103400 5.2C@104600"
       " 5.3@105800"},
      {"drop_tail(0)", EgressQueue::drop_tail(0),
       "enq=21 deq=3 drop=18 trim=0 max=0 in=0 sent=3/192 |"
       " 3.0@1052 3.1@1104 3.2@53452"},
      {"trimming(8)", EgressQueue::trimming(8),
       "enq=21 deq=21 drop=0 trim=3 max=8 in=22500 sent=21/22884 |"
       " 1.0@2200 3.0C@2252 1.6TC@2304 1.7TC@2356 3.1C@2408 1.8TC@2460"
       " 1.1C@3660 2.0C@4860 2.1C@6060 1.2C@7260 1.3C@8460 2.2C@9660"
       " 1.4C@10860 1.5@12060 4.0@52200 4.1@53400 3.2@53452 5.0@102200"
       " 5.1C@103400 5.2C@104600 5.3@105800"},
      {"trimming(0)", EgressQueue::trimming(0),
       "enq=21 deq=21 drop=0 trim=18 max=0 in=0 sent=21/1344 |"
       " 1.0T@1052 1.1TC@1104 2.0TC@1156 3.0C@1208 2.1TC@1260 1.2TC@1312"
       " 1.3TC@1364 2.2TC@1416 1.4TC@1468 1.5TC@1520 1.6TC@1572 1.7TC@1624"
       " 3.1C@1676 1.8T@1728 4.0T@51052 4.1T@52252 3.2@53452 5.0T@101052"
       " 5.1T@101104 5.2T@102252 5.3T@102304"},
      {"selective_drop(4)", EgressQueue::selective_drop(4),
       "enq=21 deq=14 drop=7 trim=0 max=4 in=19500 sent=14/16692 |"
       " 1.0@2200 3.0C@2252 3.1C@2304 1.1C@3504 1.2C@4704 1.3C@5904 1.4@7104"
       " 4.0@52200 4.1@53400 3.2@53452 5.0@102200 5.1C@103400 5.2C@104600"
       " 5.3@105800"},
      {"strict_priority(3, 4)", EgressQueue::strict_priority(3, 4),
       "enq=21 deq=14 drop=7 trim=0 max=4 in=16500 sent=14/16692 |"
       " 1.0@2200 3.0C@2252 3.1C@2304 2.0C@3504 1.1C@4704 2.1C@5904 1.2@7104"
       " 4.0@52200 4.1@53400 3.2@53452 5.0@102200 5.1C@103400 5.3C@104600"
       " 5.2@105800"},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    EXPECT_EQ(drive_arrivals(c.queue), c.want);
  }
}

// QueueStats::passed counts exactly the arrivals that went straight to an
// idle port's serializer: not one queued behind a busy port, not a data
// packet that a zero limit drops or trims, but a control packet at the
// same zero-limit port. Each case sends a full-size data packet to an idle
// port, then a small data packet and a grant back to back, then a grant to
// the idle port again.
TEST(EgressPort, PassedCountsOnlyArrivalsThatSkipTheQueue) {
  Packet grant;
  grant.type = PacketType::kGrant;
  grant.wire_bytes = kCtrlBytes;
  struct Case {
    const char* name;
    EgressQueue queue;
    std::uint64_t passed_first;  // after the first data packet
    std::uint64_t passed_all;
  };
  const Case cases[] = {
      // Data, data and the last grant pass; the first grant waits.
      {"drop_tail(4)", EgressQueue::drop_tail(4), 1, 3},
      // Both data packets drop, so the port stays idle for both grants.
      {"drop_tail(0)", EgressQueue::drop_tail(0), 0, 2},
      // Both data packets are trimmed through the queue; the first grant
      // waits behind the second header.
      {"trimming(0)", EgressQueue::trimming(0), 0, 1},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    PortRig rig{{Bandwidth::gbps(10), Duration::zero()}, c.queue};
    rig.port.enqueue(data_pkt(0));
    EXPECT_EQ(rig.queue.stats().passed, c.passed_first);
    // A passed data packet is counted in and out as a depth-1 admission.
    EXPECT_EQ(rig.queue.stats().max_data_pkts, c.passed_first);
    EXPECT_EQ(rig.queue.stats().data_bytes_in, c.passed_first * kMtuBytes);
    EXPECT_EQ(rig.queue.stats().dequeued, rig.port.packets_sent());
    rig.sched.run();
    rig.port.enqueue(data_pkt(1, kCtrlBytes + kHeaderBytes));
    rig.port.enqueue(Packet{grant});
    rig.sched.run();
    rig.port.enqueue(Packet{grant});
    EXPECT_EQ(rig.queue.stats().passed, c.passed_all);
    EXPECT_EQ(rig.queue.stats().enqueued, 4u);
  }
}

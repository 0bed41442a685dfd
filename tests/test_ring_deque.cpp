// Tests for the packet-path ring buffer (src/net/ring_deque.hpp): seeded
// operation sequences match std::deque element for element while the ring
// wraps and doubles from its first capacity, and a drop-tail EgressQueue
// built on it keeps FIFO order across that growth.
#include <gtest/gtest.h>

#include <cstdint>
#include <deque>
#include <random>
#include <string>
#include <vector>

#include "net/queue.hpp"
#include "net/ring_deque.hpp"

using amrt::net::RingDeque;

namespace {

// Element type with real ownership, so a move that leaves a stale slot
// behind (or reads a moved-from one) shows up as a wrong value.
using Item = std::string;
using Ring = RingDeque<Item>;

Item item(std::uint64_t v) { return "item-" + std::to_string(v); }

void expect_same(const Ring& ring, const std::deque<Item>& ref, std::size_t step) {
  ASSERT_EQ(ring.size(), ref.size()) << "step " << step;
  ASSERT_EQ(ring.empty(), ref.empty()) << "step " << step;
  for (std::size_t i = 0; i < ref.size(); ++i) {
    ASSERT_EQ(ring[i], ref[i]) << "step " << step << " index " << i;
  }
  if (!ref.empty()) {
    ASSERT_EQ(ring.front(), ref.front()) << "step " << step;
  }
}

}  // namespace

TEST(RingDeque, GrowsWhileWrappedThroughFourDoublings) {
  // At every capacity the ring is filled with its head moved off slot 0, so
  // the buffer is wrapped when the next push_back (and, alternately,
  // push_front) forces the doubling that unrolls it.
  Ring ring;
  EXPECT_EQ(ring.capacity(), 0u);
  std::deque<Item> ref;
  std::uint64_t next = 0;
  std::size_t step = 0;
  std::vector<std::size_t> capacities;
  while (capacities.size() < 5) {
    // Fill to the current capacity (the first push allocates it).
    do {
      ring.push_back(item(next));
      ref.push_back(item(next));
      ++next;
      expect_same(ring, ref, ++step);
    } while (ring.size() < ring.capacity());
    const std::size_t cap = ring.capacity();
    if (capacities.empty()) {
      EXPECT_EQ(cap, Ring::kFirstCapacity);
    }
    // Rotate by three: the head leaves slot 0 and the tail wraps over it.
    for (int i = 0; i < 3; ++i) {
      ASSERT_EQ(ring.pop_front(), ref.front());
      ref.pop_front();
      ring.push_back(item(next));
      ref.push_back(item(next));
      ++next;
      expect_same(ring, ref, ++step);
    }
    ASSERT_EQ(ring.capacity(), cap);
    ASSERT_EQ(ring.size(), cap);
    // One more element forces growth out of the wrapped state.
    if (capacities.size() % 2 == 0) {
      ring.push_back(item(next));
      ref.push_back(item(next));
    } else {
      ring.push_front(item(next));
      ref.push_front(item(next));
    }
    ++next;
    expect_same(ring, ref, ++step);
    ASSERT_EQ(ring.capacity(), 2 * cap);
    capacities.push_back(ring.capacity());
  }
  const std::vector<std::size_t> want = {
      2 * Ring::kFirstCapacity, 4 * Ring::kFirstCapacity, 8 * Ring::kFirstCapacity,
      16 * Ring::kFirstCapacity, 32 * Ring::kFirstCapacity};
  EXPECT_EQ(capacities, want);
}

TEST(RingDeque, SeededOperationsMatchStdDeque) {
  // Random push_back / push_front / pop_front / erase mixes, biased toward
  // growth so each run wraps and doubles at least four times past the first
  // capacity, with a drain phase so the grown buffer wraps again.
  for (const std::uint64_t seed : {1u, 7u, 42u, 2024u}) {
    std::mt19937_64 rng{seed};
    Ring ring;
    std::deque<Item> ref;
    std::uint64_t next = 0;
    for (std::size_t step = 0; step < 6000; ++step) {
      const bool draining = (step / 1500) % 2 == 1;
      const auto roll = static_cast<int>(rng() % 100);
      if (ref.empty() || roll < (draining ? 20 : 45)) {
        ring.push_back(item(next));
        ref.push_back(item(next));
        ++next;
      } else if (roll < (draining ? 30 : 65)) {
        ring.push_front(item(next));
        ref.push_front(item(next));
        ++next;
      } else if (roll < 85) {
        ASSERT_EQ(ring.pop_front(), ref.front()) << "seed " << seed << " step " << step;
        ref.pop_front();
      } else {
        const std::size_t i = rng() % ref.size();
        ring.erase(i);
        ref.erase(ref.begin() + static_cast<std::ptrdiff_t>(i));
      }
      expect_same(ring, ref, step);
    }
    EXPECT_GE(ring.capacity(), 16 * Ring::kFirstCapacity) << "seed " << seed;
  }
}

TEST(RingDeque, DropTailQueueKeepsFifoOrderAcrossGrowth) {
  // A drop-tail queue at cap 128 grows its data band from the ring's first
  // capacity to 128 while dequeues keep the head moving, so every doubling
  // copies a wrapped ring. Departures must follow arrivals exactly, and
  // the packet past the cap is the one dropped.
  constexpr std::size_t kCap = 128;
  auto q = amrt::net::EgressQueue::drop_tail(kCap);
  std::uint32_t sent = 0;
  std::uint32_t expect = 0;
  auto send = [&] {
    amrt::net::Packet p;
    p.seq = sent++;
    p.wire_bytes = amrt::net::kMtuBytes;
    q.enqueue(std::move(p));
  };
  auto take = [&] {
    const auto p = q.dequeue();
    ASSERT_TRUE(p.has_value());
    EXPECT_EQ(p->seq, expect++);
  };
  // Net growth of one packet per round: two in, one out.
  while (q.data_pkts() + 2 <= kCap) {
    send();
    send();
    take();
  }
  send();
  EXPECT_EQ(q.data_pkts(), kCap);
  EXPECT_EQ(q.stats().dropped, 0u);
  send();  // over the cap: dropped, and not seen again below
  EXPECT_EQ(q.stats().dropped, 1u);
  while (!q.empty()) take();
  EXPECT_EQ(expect, sent - 1);
}

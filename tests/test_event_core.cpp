// Unit tests for the slab/arena event core (src/sim/event_queue.hpp and
// src/sim/callback.hpp): small-buffer callable storage (a port's delivery
// shape stays inline, one pointer more does not), generation-checked
// weak handles across slot recycling, and FIFO tie-breaks that survive
// freelist reuse.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "net/packet.hpp"
#include "sim/event_queue.hpp"
#include "sim/scheduler.hpp"

using namespace amrt::sim;

namespace {
TimePoint at_ns(std::int64_t ns) { return TimePoint::from_ns(ns); }
}  // namespace

// ---------------------------------------------------------------------------
// InplaceCallback
// ---------------------------------------------------------------------------

TEST(InplaceCallback, SmallLambdaStoredInline) {
  int hits = 0;
  InplaceCallback cb{[&hits] { ++hits; }};
  ASSERT_TRUE(static_cast<bool>(cb));
  EXPECT_TRUE(cb.stores_inline());
  cb();
  EXPECT_EQ(hits, 1);
}

TEST(InplaceCallback, StdFunctionFitsInline) {
  // The self-recursive polling pattern used all over the harness stores a
  // std::function<void()> by copy; it must stay on the inline path.
  static_assert(sizeof(std::function<void()>) <= InplaceCallback::kInlineBytes);
  int hits = 0;
  std::function<void()> fn = [&hits] { ++hits; };
  InplaceCallback cb{fn};
  EXPECT_TRUE(cb.stores_inline());
  cb();
  EXPECT_EQ(hits, 1);
}

TEST(InplaceCallback, PortDeliveryShapeFitsInline) {
  // A port's delivery event and a cross-shard injection capture one pointer
  // and a packet by value. The buffer is sized to exactly that shape.
  static_assert(sizeof(void*) + sizeof(amrt::net::Packet) <= InplaceCallback::kInlineBytes);
  std::uint64_t seen = 0;
  void* target = &seen;
  amrt::net::Packet pkt;
  pkt.flow = 42;
  InplaceCallback cb{[target, p = pkt]() { *static_cast<std::uint64_t*>(target) = p.flow; }};
  EXPECT_TRUE(cb.stores_inline());
  cb();
  EXPECT_EQ(seen, 42u);
}

TEST(InplaceCallback, OneWordPastTheDeliveryShapeFallsBackToHeap) {
  // The boundary: a second pointer next to the packet no longer fits.
  std::uint64_t seen = 0;
  void* target = &seen;
  void* extra = nullptr;
  amrt::net::Packet pkt;
  pkt.flow = 7;
  InplaceCallback cb{[target, extra, p = pkt]() {
    *static_cast<std::uint64_t*>(target) = p.flow + (extra == nullptr ? 0 : 1);
  }};
  EXPECT_FALSE(cb.stores_inline());
  cb();
  EXPECT_EQ(seen, 7u);
}

TEST(InplaceCallback, LargeCaptureFallsBackToHeap) {
  std::array<char, 128> big{};
  big[0] = 42;
  int out = 0;
  InplaceCallback cb{[big, &out] { out = big[0]; }};
  ASSERT_TRUE(static_cast<bool>(cb));
  EXPECT_FALSE(cb.stores_inline());
  cb();
  EXPECT_EQ(out, 42);
}

TEST(InplaceCallback, MoveTransfersOwnershipInline) {
  int hits = 0;
  InplaceCallback a{[&hits] { ++hits; }};
  InplaceCallback b{std::move(a)};
  EXPECT_FALSE(static_cast<bool>(a));  // NOLINT(bugprone-use-after-move)
  ASSERT_TRUE(static_cast<bool>(b));
  b();
  EXPECT_EQ(hits, 1);
}

TEST(InplaceCallback, MoveTransfersOwnershipHeap) {
  std::array<char, 128> big{};
  int hits = 0;
  InplaceCallback a{[big, &hits] { ++hits; }};
  InplaceCallback b;
  b = std::move(a);
  EXPECT_FALSE(static_cast<bool>(a));  // NOLINT(bugprone-use-after-move)
  ASSERT_FALSE(b.stores_inline());
  b();
  EXPECT_EQ(hits, 1);
}

TEST(InplaceCallback, ResetReleasesCapturedState) {
  auto token = std::make_shared<int>(7);
  InplaceCallback cb{[token] { (void)*token; }};
  EXPECT_EQ(token.use_count(), 2);
  cb.reset();
  EXPECT_EQ(token.use_count(), 1);
  EXPECT_FALSE(static_cast<bool>(cb));
}

TEST(InplaceCallback, DestructorReleasesHeapCallable) {
  auto token = std::make_shared<int>(7);
  std::array<char, 128> big{};
  {
    InplaceCallback cb{[token, big] { (void)*token; }};
    EXPECT_FALSE(cb.stores_inline());
    EXPECT_EQ(token.use_count(), 2);
  }
  EXPECT_EQ(token.use_count(), 1);
}

// ---------------------------------------------------------------------------
// Generation-checked handles across slot recycling
// ---------------------------------------------------------------------------

TEST(EventCore, StaleHandleDoesNotCancelSlotReuser) {
  EventQueue q;
  int a_fired = 0;
  int b_fired = 0;

  // A occupies the first slot; popping it recycles that slot.
  auto ha = q.push(at_ns(10), [&a_fired] { ++a_fired; });
  {
    auto e = q.pop();
    ASSERT_TRUE(e.has_value());
    e->cb();
  }
  EXPECT_EQ(a_fired, 1);
  EXPECT_FALSE(ha.pending());

  // B reuses A's slot (fresh queue: the freelist has exactly that slot).
  auto hb = q.push(at_ns(20), [&b_fired] { ++b_fired; });
  EXPECT_TRUE(hb.pending());

  // The stale handle must be inert: its generation no longer matches.
  ha.cancel();
  EXPECT_TRUE(hb.pending());
  auto e = q.pop();
  ASSERT_TRUE(e.has_value());
  e->cb();
  EXPECT_EQ(b_fired, 1);
}

TEST(EventCore, StaleHandleAfterCancelledSlotRecycled) {
  EventQueue q;
  int fired = 0;

  auto ha = q.push(at_ns(10), [&fired] { ++fired; });
  ha.cancel();
  EXPECT_FALSE(ha.pending());
  // The cancelled record still holds its heap entry; popping the queue (which
  // finds it dead, recycles it, and returns empty) frees the slot.
  EXPECT_FALSE(q.pop().has_value());

  auto hb = q.push(at_ns(20), [&fired] { ++fired; });
  ha.cancel();  // stale again: must not touch B
  EXPECT_TRUE(hb.pending());
  auto e = q.pop();
  ASSERT_TRUE(e.has_value());
  e->cb();
  EXPECT_EQ(fired, 1);
}

TEST(EventCore, TieBreakOrderSurvivesFreelistRecycling) {
  EventQueue q;
  std::vector<int> order;

  // Interleave pops (which recycle low-numbered slots) with same-time pushes,
  // so later insertions land on lower slot numbers than earlier ones. FIFO
  // order among equal timestamps must follow insertion, not slot index.
  auto warmup = q.push(at_ns(1), [] {});
  (void)warmup;
  (void)q.push(at_ns(100), [&order] { order.push_back(1); });
  {
    auto e = q.pop();  // pops the t=1 warmup, recycling its slot
    ASSERT_TRUE(e.has_value());
  }
  (void)q.push(at_ns(100), [&order] { order.push_back(2); });  // reuses warmup's slot
  (void)q.push(at_ns(100), [&order] { order.push_back(3); });
  while (auto e = q.pop()) e->cb();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventCore, InsertionOrderAcrossManySlabsWithChurn) {
  EventQueue q;
  std::vector<int> order;
  std::vector<EventQueue::Handle> handles;
  // Four slabs' worth of same-time events, cancelling every third.
  constexpr int kEvents = 1024;
  for (int i = 0; i < kEvents; ++i) {
    handles.push_back(q.push(at_ns(50), [&order, i] { order.push_back(i); }));
  }
  for (int i = 0; i < kEvents; i += 3) handles[static_cast<std::size_t>(i)].cancel();
  while (auto e = q.pop()) e->cb();

  std::vector<int> expect;
  for (int i = 0; i < kEvents; ++i) {
    if (i % 3 != 0) expect.push_back(i);
  }
  EXPECT_EQ(order, expect);
}

TEST(EventCore, HandleIsInertInsideItsOwnCallback) {
  // fire_next runs a callback in place in its slab record. While it runs,
  // the event's own handle is already inert: pending() is false and
  // cancel() is a no-op, so the running callable and its captures survive
  // and the live count is not decremented twice. Events it pushes at its
  // own timestamp fire after those already queued there.
  struct Seen {
    EventQueue* q = nullptr;
    const std::shared_ptr<int>* token = nullptr;
    EventQueue::Handle self;
    bool pending = true;
    long uses = 0;
    std::size_t live = 0;
    int read = 0;
    std::vector<int> order;
  };
  EventQueue q;
  auto token = std::make_shared<int>(5);
  Seen seen;
  seen.q = &q;
  seen.token = &token;
  auto body = [&seen, held = token] {
    seen.pending = seen.self.pending();
    seen.self.cancel();
    seen.uses = seen.token->use_count();
    seen.live = seen.q->live_size();
    seen.read = *held;
    seen.order.push_back(1);
    (void)seen.q->push(at_ns(10), [&seen] { seen.order.push_back(3); });
    (void)seen.q->push(at_ns(10), [&seen] { seen.order.push_back(4); });
  };
  static_assert(InplaceCallback::fits_inline<decltype(body)>());  // the record path
  seen.self = q.push(at_ns(10), std::move(body));
  (void)q.push(at_ns(10), [&seen] { seen.order.push_back(2); });
  EXPECT_TRUE(seen.self.pending());
  while (q.fire_next(at_ns(100), [](TimePoint) {})) {
  }
  EXPECT_FALSE(seen.pending);
  EXPECT_EQ(seen.uses, 2);
  EXPECT_EQ(seen.live, 1u);
  EXPECT_EQ(seen.read, 5);
  EXPECT_EQ(seen.order, (std::vector<int>{1, 2, 3, 4}));
  EXPECT_FALSE(seen.self.pending());
  EXPECT_EQ(token.use_count(), 1);  // released once the event fired
  EXPECT_TRUE(q.empty());
}

// ---------------------------------------------------------------------------
// size() vs live_size() accounting
// ---------------------------------------------------------------------------

TEST(EventCore, SizeCountsHeapEntriesLiveSizeCountsFirable) {
  EventQueue q;
  auto h1 = q.push(at_ns(10), [] {});
  auto h2 = q.push(at_ns(20), [] {});
  auto h3 = q.push(at_ns(30), [] {});
  (void)h1;
  (void)h3;
  EXPECT_EQ(q.size(), 3u);
  EXPECT_EQ(q.live_size(), 3u);

  h2.cancel();
  EXPECT_EQ(q.size(), 3u);  // lazy cancellation keeps the heap entry
  EXPECT_EQ(q.live_size(), 2u);
  EXPECT_FALSE(q.empty());

  ASSERT_TRUE(q.pop().has_value());  // h1
  ASSERT_TRUE(q.pop().has_value());  // h3 (h2 skipped and reclaimed)
  EXPECT_FALSE(q.pop().has_value());
  EXPECT_EQ(q.size(), 0u);
  EXPECT_EQ(q.live_size(), 0u);
  EXPECT_TRUE(q.empty());
}

TEST(EventCore, NextTimeSkipsCancelledHead) {
  EventQueue q;
  auto ha = q.push(at_ns(5), [] {});
  (void)q.push(at_ns(10), [] {});
  ha.cancel();
  auto t = q.next_time();
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(t->ns(), 10);
}

TEST(EventCore, CallbackStateReleasedOnCancel) {
  // Cancelling must destroy the callable immediately (it may pin buffers),
  // not when the dead heap entry is eventually skimmed.
  EventQueue q;
  auto token = std::make_shared<int>(1);
  auto h = q.push(at_ns(10), [token] { (void)*token; });
  EXPECT_EQ(token.use_count(), 2);
  h.cancel();
  EXPECT_EQ(token.use_count(), 1);
}

// ---------------------------------------------------------------------------
// Scheduler-level churn on the slab core
// ---------------------------------------------------------------------------

TEST(EventCore, SchedulerChurnRetainsSemantics) {
  Scheduler sched;
  int fired = 0;
  std::vector<Scheduler::Handle> handles;
  for (int round = 0; round < 4; ++round) {
    handles.clear();
    for (int i = 0; i < 500; ++i) {
      handles.push_back(
          sched.after(Duration::nanoseconds(i + 1), [&fired] { ++fired; }));
    }
    for (int i = 0; i < 500; i += 2) handles[static_cast<std::size_t>(i)].cancel();
    sched.run();
  }
  EXPECT_EQ(fired, 4 * 250);
}

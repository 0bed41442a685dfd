// Unit tests for the cancellable event set (src/sim/event_queue.hpp).
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <map>
#include <optional>
#include <random>
#include <utility>
#include <vector>

#include "sim/event_queue.hpp"

using namespace amrt::sim;

namespace {
TimePoint at_ns(std::int64_t ns) { return TimePoint::from_ns(ns); }
}  // namespace

TEST(EventQueue, PopsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  (void)q.push(at_ns(30), [&] { order.push_back(3); });
  (void)q.push(at_ns(10), [&] { order.push_back(1); });
  (void)q.push(at_ns(20), [&] { order.push_back(2); });
  while (auto e = q.pop()) e->cb();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, EqualTimesFireInInsertionOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    (void)q.push(at_ns(100), [&order, i] { order.push_back(i); });
  }
  while (auto e = q.pop()) e->cb();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, PopReturnsTimestamp) {
  EventQueue q;
  (void)q.push(at_ns(42), [] {});
  auto e = q.pop();
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(e->when.ns(), 42);
}

TEST(EventQueue, EmptyPopReturnsNullopt) {
  EventQueue q;
  EXPECT_FALSE(q.pop().has_value());
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, CancelPreventsExecution) {
  EventQueue q;
  int fired = 0;
  auto h = q.push(at_ns(10), [&] { ++fired; });
  h.cancel();
  while (auto e = q.pop()) e->cb();
  EXPECT_EQ(fired, 0);
}

TEST(EventQueue, CancelledEventSkippedButOthersFire) {
  EventQueue q;
  std::vector<int> order;
  auto h1 = q.push(at_ns(10), [&] { order.push_back(1); });
  (void)q.push(at_ns(20), [&] { order.push_back(2); });
  h1.cancel();
  while (auto e = q.pop()) e->cb();
  EXPECT_EQ(order, (std::vector<int>{2}));
}

TEST(EventQueue, CancelIsIdempotent) {
  EventQueue q;
  auto h = q.push(at_ns(10), [] {});
  h.cancel();
  h.cancel();  // no crash, no effect
  EXPECT_FALSE(h.pending());
}

TEST(EventQueue, PendingReflectsLifecycle) {
  EventQueue q;
  auto h = q.push(at_ns(10), [] {});
  EXPECT_TRUE(h.pending());
  (void)q.pop();
  EXPECT_FALSE(h.pending());
}

TEST(EventQueue, DefaultHandleIsNotPending) {
  EventQueue::Handle h;
  EXPECT_FALSE(h.pending());
  h.cancel();  // no crash
}

TEST(EventQueue, NextTimeSkipsCancelled) {
  EventQueue q;
  auto h = q.push(at_ns(10), [] {});
  (void)q.push(at_ns(20), [] {});
  h.cancel();
  ASSERT_TRUE(q.next_time().has_value());
  EXPECT_EQ(q.next_time()->ns(), 20);
}

TEST(EventQueue, EmptyAccountsForCancellations) {
  EventQueue q;
  auto h = q.push(at_ns(10), [] {});
  EXPECT_FALSE(q.empty());
  h.cancel();
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, ManyInterleavedPushesAndPops) {
  EventQueue q;
  std::int64_t last = -1;
  bool monotonic = true;
  for (int round = 0; round < 100; ++round) {
    for (int i = 0; i < 10; ++i) {
      (void)q.push(at_ns(round * 10 + (i * 7) % 10), [] {});
    }
    // Drain half each round; order must stay globally monotonic.
    for (int i = 0; i < 5; ++i) {
      auto e = q.pop();
      ASSERT_TRUE(e.has_value());
      monotonic = monotonic && e->when.ns() >= last;
      last = e->when.ns();
    }
  }
  EXPECT_TRUE(monotonic);
}

// The drain cursor steps over cancelled entries while it looks for the next
// live one, so it can stand past an entry that lies ahead of the clock. An
// event pushed before that entry must land at the cursor and fire at its own
// time, not slip behind the cursor while the stale entry fires in its place.
TEST(EventQueue, PushBeforeSkippedCancelledEntryFiresInOrder) {
  EventQueue q;
  std::vector<std::pair<std::int64_t, int>> fired;
  auto h = q.push(at_ns(20), [] {});
  (void)q.push(at_ns(30), [] {});
  h.cancel();
  ASSERT_EQ(q.next_time()->ns(), 30);  // skips (and recycles) the cancelled entry
  (void)q.push(at_ns(10), [] {});
  while (auto e = q.pop()) fired.emplace_back(e->when.ns(), 0);
  ASSERT_EQ(fired.size(), 2U);
  EXPECT_EQ(fired[0].first, 10);
  EXPECT_EQ(fired[1].first, 30);
}

namespace {

// Drives an EventQueue and a (time, seq)-keyed std::map side by side. Every
// push goes to both; every fire takes the map's first key and must fire
// exactly that event in the queue.
class WheelOracle {
 public:
  static constexpr std::int64_t kFarNs = 1'000'000;  // past the wheel's ~1ms window

  explicit WheelOracle(std::uint64_t seed) : rng_{seed} {}

  EventQueue& queue() { return q_; }
  std::mt19937_64& rng() { return rng_; }
  [[nodiscard]] std::size_t pending() const { return ref_.size(); }
  // Pending events that were pushed less than kFarNs ahead of the clock.
  [[nodiscard]] std::size_t near_pending() const { return ref_.size() - far_pending_; }
  [[nodiscard]] std::int64_t now() const { return now_; }

  // A quarter of the events take the raw lane; the rest keep a Handle.
  void push(std::int64_t when) {
    const int id = next_id_++;
    const Key key{when, seq_++};
    const bool far = when - now_ >= kFarNs;
    ref_.emplace(key, Ref{id, far});
    if (far) ++far_pending_;
    if (rng_() % 4 == 0) {
      raw_.push_back(RawCtx{&fired_, id});
      q_.push_raw(at_ns(when),
                  [](void* c) {
                    auto* r = static_cast<RawCtx*>(c);
                    r->out->push_back(r->id);
                  },
                  &raw_.back());
    } else {
      tracked_.push_back(Tracked{q_.push(at_ns(when), [this, id] { fired_.push_back(id); }), key});
    }
  }

  // Fires the earliest event through pop() or fire_next() and checks it is
  // the reference's head. Returns false on the first divergence.
  bool fire() {
    if (ref_.empty()) {
      EXPECT_TRUE(q_.empty());
      return !q_.pop().has_value();
    }
    const Key key = ref_.begin()->first;
    const int id = ref_.begin()->second.id;
    const std::size_t before = fired_.size();
    if (key.first > now_ && rng_() % 8 == 0 &&
        q_.fire_next(at_ns(key.first - 1), [](TimePoint) {})) {
      ADD_FAILURE() << "fire_next fired before its horizon at " << key.first;
      return false;
    }
    std::int64_t when = -1;
    if (rng_() % 2 == 0) {
      auto e = q_.pop();
      if (!e) {
        ADD_FAILURE() << "pop() empty with " << ref_.size() << " pending";
        return false;
      }
      when = e->when.ns();
      e->cb();
    } else {
      const auto horizon = at_ns(key.first + static_cast<std::int64_t>(rng_() % 3));
      if (!q_.fire_next(horizon, [&when](TimePoint t) { when = t.ns(); })) {
        ADD_FAILURE() << "fire_next() fired nothing with " << ref_.size() << " pending";
        return false;
      }
    }
    if (when != key.first || fired_.size() != before + 1 || fired_.back() != id) {
      ADD_FAILURE() << "fire " << before << ": expected event " << id << " at " << key.first
                    << ", got " << (fired_.size() > before ? fired_.back() : -1) << " at "
                    << when;
      return false;
    }
    erase(ref_.begin());
    now_ = key.first;
    return true;
  }

  // next_time() must name the reference's head. Peeking moves the drain
  // cursor onto the next non-empty bucket, ahead of the clock, so the wheel
  // retires buckets (and re-gears) here rather than in fire().
  bool peek() {
    const std::optional<TimePoint> t = q_.next_time();
    if (ref_.empty() ? t.has_value() : !t || t->ns() != ref_.begin()->first.first) {
      ADD_FAILURE() << "next_time() disagrees with the reference head";
      return false;
    }
    return true;
  }

  // Cancels a random handle-backed event that is still pending.
  void cancel_one() {
    if (tracked_.empty()) return;
    const std::size_t i = rng_() % tracked_.size();
    Tracked& t = tracked_[i];
    if (const auto it = ref_.find(t.key); it != ref_.end()) {
      erase(it);
      EXPECT_TRUE(t.h.pending());
      t.h.cancel();
      EXPECT_FALSE(t.h.pending());
    }
    tracked_[i] = tracked_.back();
    tracked_.pop_back();
  }

  // Every handle reports pending() exactly while its event is in the
  // reference; handles of fired or cancelled events are dropped.
  bool check_handles() {
    bool ok = true;
    std::erase_if(tracked_, [&](const Tracked& t) {
      const bool want = ref_.contains(t.key);
      if (t.h.pending() != want) ok = false;
      return !want;
    });
    EXPECT_EQ(q_.live_size(), ref_.size());
    return ok;
  }

 private:
  using Key = std::pair<std::int64_t, std::uint64_t>;
  struct Ref {
    int id;
    bool far;
  };
  struct RawCtx {
    std::vector<int>* out;
    int id;
  };
  struct Tracked {
    EventQueue::Handle h;
    Key key;
  };

  EventQueue q_;
  std::mt19937_64 rng_;
  void erase(std::map<Key, Ref>::iterator it) {
    if (it->second.far) --far_pending_;
    ref_.erase(it);
  }

  std::map<Key, Ref> ref_;
  std::size_t far_pending_ = 0;
  std::vector<int> fired_;
  std::deque<RawCtx> raw_;  // stable addresses for the raw-lane contexts
  std::vector<Tracked> tracked_;
  std::uint64_t seq_ = 0;
  std::int64_t now_ = 0;
  int next_id_ = 0;
};

}  // namespace

// The adaptive wheel re-buckets its pending set whenever it changes width;
// the firing order must stay the exact (time, seq) order throughout. Seeded
// traffic first keeps ~2000 events within 20us of the clock, so ~400 fire
// per us and the 2us start width is far too coarse: the wheel refines to
// 256ns. Then it thins to ~20 events spread over 200us, so the wheel
// coarsens to its widest, and finally drains. Along the way: far-list
// events 1-4ms out, raw-lane events, cancellations, handles taken before a
// re-gear checked after it, and events at the clock itself pushed after a
// peek has moved the cursor past the clock's bucket (the fold case), in
// particular right after each re-gear, which re-anchors the window at the
// next event rather than at the clock.
TEST(EventQueue, AdaptiveWheelMatchesReferenceOrder) {
  WheelOracle o{0xADA971};
  EventQueue& q = o.queue();
  const std::int64_t start_ns = q.wheel_stats().bucket_ns;
  std::int64_t finest_ns = start_ns;
  std::uint64_t regears = 0;

  auto run_phase = [&](int fires, std::size_t target, std::int64_t horizon_ns) {
    for (int i = 0; i < fires; ++i) {
      while (o.near_pending() < target) {
        const std::uint64_t r = o.rng()();
        if (r % 2000 == 0) {
          o.push(o.now() + WheelOracle::kFarNs + static_cast<std::int64_t>(r % 3'000'000));
        } else if (r % 100 == 1) {
          o.push(o.now());
        } else {
          o.push(o.now() + static_cast<std::int64_t>(r % static_cast<std::uint64_t>(horizon_ns)));
        }
      }
      if (o.rng()() % 64 == 0) o.cancel_one();
      ASSERT_TRUE(o.fire());
      ASSERT_TRUE(o.peek());
      const EventQueue::WheelStats st = q.wheel_stats();
      if (st.regears != regears) {
        regears = st.regears;
        finest_ns = std::min(finest_ns, st.bucket_ns);
        ASSERT_TRUE(o.check_handles()) << "after re-gear " << regears;
        o.push(o.now());  // before the re-anchored window: folds into the cursor bucket
        o.push(o.now() + 1);
        o.cancel_one();
      }
    }
  };

  run_phase(200'000, 2000, 20'000);
  run_phase(20'000, 20, 200'000);
  const EventQueue::WheelStats thinned = q.wheel_stats();
  while (o.pending() > 0) ASSERT_TRUE(o.fire());
  EXPECT_TRUE(o.fire());  // both empty
  EXPECT_TRUE(o.check_handles());

  EXPECT_LT(finest_ns, start_ns) << "dense traffic never refined the wheel";
  EXPECT_GT(thinned.bucket_ns, finest_ns) << "sparse traffic never coarsened the wheel";
  EXPECT_GT(thinned.far_spills, 0U);
  EXPECT_GT(thinned.mean_bucket(), 0.0);
}

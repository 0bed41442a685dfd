// Cancellable future-event set for the discrete-event engine.
//
// Events at equal timestamps fire in insertion order (a monotonically
// increasing sequence number breaks ties), which makes every simulation in
// this repository deterministic for a fixed seed.
//
// Layout: event records live in fixed slabs that never move, recycled
// through a freelist. The priority structure is a two-level timing wheel
// rather than a heap: a near window of 2^20 ns (~1 ms) split into buckets
// (each a small vector kept (time, seq)-sorted by insertion from the back)
// plus an unsorted far list for events beyond the window, re-bucketed when
// the window advances past them. A push is a short back-scan of one bucket
// and a pop is a pointer bump, while the global (time, seq) firing order is
// exactly a heap's: buckets partition time, and each bucket is totally
// ordered.
//
// The bucket width adapts to the load (Brown's calendar-queue resize rule,
// CACM 1988). The cost of a push is the bucket's size, and how many events
// a fixed width puts in a bucket swings by two orders of magnitude: a 2 us
// bucket held a mean of 48 entries per insert on a k=4 fat-tree and 651 at
// k=16, where the sorted insert memmoved ~3 KB per event. So the drain
// cursor measures the mean size of the non-empty buckets it retires, and
// every 256 of them halves the width while that mean is above 128 or
// doubles it while it is below 16, within 64 ns .. 16 us (16384 .. 64
// buckets). The band sits that high because moving the cursor to a new
// bucket costs a cold miss on that bucket's buffer: on the k=16 web-search
// workload a [8, 64] band lost to this one in 7 of 8 interleaved pairs. A
// re-gear re-buckets every pending entry under the new width and re-anchors
// the window at the earliest one. It cannot change the firing order, which
// is the exact (time, seq) order under any width. On the serial k=16
// fat-tree the width falls to 64-256 ns while the fabric is busy and
// coarsens as it drains, for a run mean of 35-41 entries per bucket.
// Together with the small-buffer `InplaceCallback` this keeps steady-state
// push/pop allocation-free between re-gears: slabs are retained, and a
// retired bucket's buffer goes to a spare pool for the next bucket to fill.
//
// Handles are weak references carrying a generation counter: destroying a
// Handle does not cancel the event, and a Handle whose event has fired, been
// popped or been cancelled is inert (cancel is a no-op, pending() is false).
// A Handle must not outlive its EventQueue. Cancellation is O(1) and lazy: a
// cancelled record keeps its bucket entry until the drain cursor reaches it
// and it is skipped, so `size()` over-counts — use `live_size()` for the
// number of events that will actually fire. Handles name a record slot, not
// a bucket position, so they survive re-gears.
#pragma once

#include <bit>
#include <cassert>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "sim/callback.hpp"
#include "sim/time.hpp"

namespace amrt::sim {

class EventQueue {
 public:
  using Callback = InplaceCallback;

  class Handle {
   public:
    Handle() = default;
    // Cancels the event if it has not fired yet. Safe to call repeatedly.
    void cancel();
    [[nodiscard]] bool pending() const;

   private:
    friend class EventQueue;
    Handle(EventQueue* q, std::uint32_t slot, std::uint32_t gen)
        : q_{q}, slot_{slot}, gen_{gen} {}
    EventQueue* q_ = nullptr;
    std::uint32_t slot_ = 0;
    std::uint32_t gen_ = 0;
  };

  EventQueue() : buckets_(bucket_count(kInitShift)), occupied_(word_count(kInitShift)) {}
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  Handle push(TimePoint when, Callback cb);

  // Raw lane for fire-and-forget events: a bare function pointer plus
  // context, stored in a 16-byte side record instead of a full callback
  // slab record. No Handle, no cancellation, no generation counter — made
  // for the port-wakeup event, which is 40% of all events in a congested
  // run and is never cancelled. Raw events share the wheel and the sequence
  // counter, so they interleave with regular events in exact FIFO order.
  using RawFn = void (*)(void*);
  void push_raw(TimePoint when, RawFn fn, void* ctx);

  // Fast path: constructs the callable directly in the slab record, with no
  // intermediate InplaceCallback move. Lambdas land here; a pre-built
  // Callback takes the overload above.
  template <typename F,
            typename = std::enable_if_t<!std::is_same_v<std::decay_t<F>, Callback> &&
                                        std::is_invocable_r_v<void, std::decay_t<F>&>>>
  Handle push(TimePoint when, F&& f) {
    const std::uint32_t slot = alloc_slot();
    record(slot).cb.assign(std::forward<F>(f));
    insert_entry(when.ns(), slot);
    ++live_;
    return Handle{this, slot, slots_[slot].gen};
  }

  [[nodiscard]] bool empty() const { return live_ == 0; }
  // Scheduled entries, including cancelled-but-unskipped records.
  [[nodiscard]] std::size_t size() const { return entry_count_; }
  // Events that will actually fire.
  [[nodiscard]] std::size_t live_size() const { return live_; }
  // Timestamp of the earliest live event, if any.
  [[nodiscard]] std::optional<TimePoint> next_time();

  // Wheel telemetry, counted on the cold paths only (bucket retirement,
  // far-list pushes, re-gears).
  struct WheelStats {
    std::int64_t bucket_ns = 0;         // current bucket width
    std::uint64_t regears = 0;          // width changes so far
    std::uint64_t far_spills = 0;       // pushes that landed past the near window
    std::uint64_t drained_buckets = 0;  // non-empty buckets the cursor retired
    std::uint64_t drained_entries = 0;  // entries those buckets held
    [[nodiscard]] double mean_bucket() const {
      return drained_buckets == 0 ? 0.0
                                  : static_cast<double>(drained_entries) /
                                        static_cast<double>(drained_buckets);
    }
  };
  [[nodiscard]] WheelStats wheel_stats() const {
    return {std::int64_t{1} << shift_, regears_, far_spills_, drained_buckets_, drained_entries_};
  }

  struct Ready {
    TimePoint when;
    Callback cb;
  };
  // Removes and returns the earliest live event.
  [[nodiscard]] std::optional<Ready> pop();

  // Fires the earliest live event if its timestamp is <= `horizon`: calls
  // `pre(when)` (the scheduler advances its clock here), then invokes the
  // callback *in place* in its slab record — no callback move — and recycles
  // the slot. Returns false if the queue is empty or the head is past the
  // horizon. This is the dispatch fast path; `pop()` stays for callers that
  // need to take ownership of the callback.
  template <typename PreFire>
  bool fire_next(TimePoint horizon, PreFire&& pre) {
    const Entry* head = peek_live();
    if (head == nullptr || head->when_ns > horizon.ns()) return false;
    // Copy before firing: the callback may push into (and reallocate) the
    // bucket the entry lives in.
    const Entry top = *head;
    consume_head();
    const std::uint32_t slot = entry_slot(top);
    --live_;
    if ((slot & kRawFlag) != 0) {
      // Raw record recycled before the call: the callee may push_raw again.
      const RawRec r = raw_recs_[slot & ~kRawFlag];
      recycle_raw(slot & ~kRawFlag);
      pre(TimePoint::from_ns(top.when_ns));
      r.fn(r.ctx);
      return true;
    }
    Record& rec = record(slot);
    // Handles go inert before the callback runs, matching pop(): an event
    // that cancels its own handle mid-flight is a no-op. The record itself
    // stays put even if the callback pushes new events (slabs never move).
    ++slots_[slot].gen;
    pre(TimePoint::from_ns(top.when_ns));
    try {
      rec.cb();
    } catch (...) {
      recycle_slot(slot);
      throw;
    }
    recycle_slot(slot);
    return true;
  }

 private:
  static constexpr std::uint32_t kSlabSize = 256;  // records per slab
  static constexpr std::uint32_t kNoSlot = UINT32_MAX;

  // One record per pending event, and most pending events are packets on
  // the wire, so a record is the callback alone: the 56 B inline buffer and
  // its ops pointer, one cache line (DESIGN.md §7). A pending record is live
  // iff its callback is non-empty; cancel() empties it.
  struct alignas(64) Record {
    Callback cb;
  };
  static_assert(sizeof(Record) == 64 && alignof(Record) == 64,
                "an event record is one cache line");
  // Per-slot words beside the records, grown with the slabs. The generation
  // moves whenever an event stops being pending (fired, popped, cancelled),
  // which is what makes every older Handle to the slot inert.
  struct SlotWord {
    std::uint32_t gen = 0;        // pairs with Handle
    std::uint32_t next_free = 0;  // freelist link while the slot is free
  };

  // 16-byte wheel entry: the insertion sequence number (upper 40 bits, ~10^12
  // events) and the slot index (lower 24 bits, ~16M concurrent events) share
  // one word. Since sequence numbers are unique, comparing the packed word
  // for equal timestamps is exactly the FIFO tie-break — the slot bits never
  // decide an ordering.
  struct Entry {
    std::int64_t when_ns;
    std::uint64_t seq_slot;
  };
  static constexpr std::uint32_t kSlotBits = 24;
  static constexpr std::uint64_t kSlotMask = (std::uint64_t{1} << kSlotBits) - 1;
  // Top bit of the slot field marks a raw-lane event; the remaining 23 bits
  // index `raw_recs_` instead of the callback slabs.
  static constexpr std::uint32_t kRawFlag = std::uint32_t{1} << (kSlotBits - 1);
  [[nodiscard]] static std::uint32_t entry_slot(const Entry& e) {
    return static_cast<std::uint32_t>(e.seq_slot & kSlotMask);
  }
  [[nodiscard]] static std::uint64_t pack_seq_slot(std::uint64_t seq, std::uint32_t slot) {
    assert(slot <= kSlotMask && seq < (std::uint64_t{1} << (64 - kSlotBits)));
    return (seq << kSlotBits) | slot;
  }
  // True when `a` fires after `b` (later time, or same time but inserted
  // later — FIFO among equal timestamps).
  static bool after(const Entry& a, const Entry& b) {
    if (a.when_ns != b.when_ns) return a.when_ns > b.when_ns;
    return a.seq_slot > b.seq_slot;
  }

  // Wheel geometry. The near window is fixed at 2^20 ns (~1 ms), wider than
  // any link tx time, propagation delay or RTT in the experiments, so only
  // long recovery backoffs take the far path. The bucket width 2^shift_
  // moves between kMinShift and kMaxShift; the bucket count is the window
  // over the width. Every kRegearPeriod non-empty buckets the cursor
  // retires, a mean size above kDenseBucket halves the width and one below
  // kSparseBucket doubles it.
  static constexpr int kWindowShift = 20;
  static constexpr std::int64_t kWindowNs = std::int64_t{1} << kWindowShift;
  static constexpr int kMinShift = 6;    // 64 ns, 16384 buckets
  static constexpr int kMaxShift = 14;   // 16 us, 64 buckets
  static constexpr int kInitShift = 11;  // 2 us, 512 buckets
  static constexpr std::uint64_t kRegearPeriod = 256;
  static constexpr std::uint64_t kDenseBucket = 128;
  static constexpr std::uint64_t kSparseBucket = 16;
  [[nodiscard]] static std::size_t bucket_count(int shift) {
    return std::size_t{1} << (kWindowShift - shift);
  }
  [[nodiscard]] static std::size_t word_count(int shift) { return bucket_count(shift) / 64; }
  [[nodiscard]] std::int64_t bucket_start(std::int64_t ns) const {
    return ns & ~((std::int64_t{1} << shift_) - 1);
  }

  // Positions the drain cursor on the earliest live entry, reclaiming
  // cancelled entries it passes; returns nullptr when no events remain. The
  // hot case — cursor already on a live entry — stays inline.
  [[nodiscard]] const Entry* peek_live() {
    for (;;) {
      std::vector<Entry>& b = buckets_[cur_];
      if (drain_idx_ < b.size()) {
        const Entry& e = b[drain_idx_];
        // Raw events cannot be cancelled, so they are live by construction.
        const std::uint32_t slot = entry_slot(e);
        if ((slot & kRawFlag) != 0 || record(slot).cb) return &e;
        recycle_slot(slot);  // cancelled: reclaim lazily
        ++drain_idx_;
        --entry_count_;
        continue;
      }
      if (!advance_bucket()) return nullptr;
    }
  }
  void consume_head() {
    ++drain_idx_;
    --entry_count_;
  }

  // Keeps the bucket (when, seq)-sorted. Pushes mostly carry later
  // timestamps and always carry later sequence numbers than what a bucket
  // already holds, so the back-to-front scan usually stops immediately. The
  // scan stops at the drain cursor. Fired entries there are (time, seq)-
  // before any new event, but the cursor also steps over cancelled entries
  // while it looks for the next live one, and those may lie ahead of the
  // clock: an event pushed before such an entry must still land at the
  // cursor, not behind it, where it would never fire.
  void insort(std::size_t idx, const Entry& e) {
    std::vector<Entry>& b = buckets_[idx];
    if (b.capacity() == 0 && !spare_.empty()) [[unlikely]] {
      b = std::move(spare_.back());
      spare_.pop_back();
    }
    const std::size_t lo = idx == cur_ ? drain_idx_ : 0;
    std::size_t pos = b.size();
    b.push_back(e);
    while (pos > lo && after(b[pos - 1], e)) {
      b[pos] = b[pos - 1];
      --pos;
    }
    b[pos] = e;
    occupied_[idx >> 6] |= std::uint64_t{1} << (idx & 63);
  }

  void insert_entry(std::int64_t when_ns, std::uint32_t slot) {
    const Entry e{when_ns, pack_seq_slot(next_seq_++, slot)};
    ++entry_count_;
    if (entry_count_ == 1) [[unlikely]] {
      rebase_empty(when_ns);
    }
    if (when_ns - base_ns_ >= kWindowNs) [[unlikely]] {
      ++far_spills_;
      push_far(e);
      return;
    }
    place_near(e);
  }
  // Puts an entry that falls before the window's end into its bucket. An
  // event earlier than the cursor's bucket (possible when the window was
  // anchored ahead of the clock, after a far re-anchor or a re-gear) still
  // fires in order: fold it into the current bucket, where the sorted insert
  // puts it ahead of every later-timestamped entry.
  void place_near(const Entry& e) {
    std::int64_t idx = (e.when_ns - base_ns_) >> shift_;
    if (idx < static_cast<std::int64_t>(cur_)) idx = static_cast<std::int64_t>(cur_);
    insort(static_cast<std::size_t>(idx), e);
  }
  void push_far(const Entry& e) {
    if (far_.empty() || e.when_ns < far_min_ns_) far_min_ns_ = e.when_ns;
    far_.push_back(e);
  }

  void rebase_empty(std::int64_t when_ns);
  bool advance_bucket();
  void pull_far();
  void regear(int shift);

  // Raw-lane side records. While free, `ctx` doubles as the freelist link
  // (stored as an index widened to a pointer-sized integer).
  struct RawRec {
    RawFn fn;
    void* ctx;
  };
  [[nodiscard]] std::uint32_t alloc_raw(RawFn fn, void* ctx) {
    std::uint32_t idx;
    if (raw_free_head_ != kNoSlot) {
      idx = raw_free_head_;
      raw_free_head_ =
          static_cast<std::uint32_t>(reinterpret_cast<std::uintptr_t>(raw_recs_[idx].ctx));
    } else {
      idx = static_cast<std::uint32_t>(raw_recs_.size());
      assert(idx < kRawFlag);
      raw_recs_.push_back(RawRec{});
    }
    raw_recs_[idx] = RawRec{fn, ctx};
    return idx;
  }
  void recycle_raw(std::uint32_t idx) {
    raw_recs_[idx].ctx = reinterpret_cast<void*>(static_cast<std::uintptr_t>(raw_free_head_));
    raw_free_head_ = idx;
  }

  [[nodiscard]] Record& record(std::uint32_t slot) {
    return slabs_[slot / kSlabSize][slot % kSlabSize];
  }
  [[nodiscard]] std::uint32_t alloc_slot();
  void recycle_slot(std::uint32_t slot);
  void cancel(std::uint32_t slot, std::uint32_t gen);
  [[nodiscard]] bool pending(std::uint32_t slot, std::uint32_t gen) const;

  std::vector<std::unique_ptr<Record[]>> slabs_;
  std::vector<SlotWord> slots_;
  std::uint32_t free_head_ = kNoSlot;
  std::uint32_t slot_count_ = 0;
  std::uint64_t next_seq_ = 0;
  std::size_t live_ = 0;

  // The wheel. `base_ns_` is bucket 0's window start (aligned to the bucket
  // width 2^shift_); `cur_`/`drain_idx_` are the drain cursor. Buckets behind
  // the cursor are empty; the bitmap tracks non-empty buckets at/ahead of it.
  // `far_` holds events past the window (unsorted; re-bucketed when the
  // window advances).
  int shift_ = kInitShift;
  std::vector<std::vector<Entry>> buckets_;
  std::vector<std::uint64_t> occupied_;
  // Storage of retired buckets, handed to the next bucket that receives its
  // first entry. Only the buckets that hold entries own a buffer, so the
  // retained capacity follows the pending set rather than the window times
  // its peak density.
  std::vector<std::vector<Entry>> spare_;
  std::int64_t base_ns_ = 0;
  std::size_t cur_ = 0;
  std::size_t drain_idx_ = 0;
  std::size_t entry_count_ = 0;
  std::vector<Entry> far_;
  std::int64_t far_min_ns_ = 0;

  // Cold-path counters behind wheel_stats() and the re-gear rule.
  std::uint64_t regears_ = 0;
  std::uint64_t far_spills_ = 0;
  std::uint64_t drained_buckets_ = 0;
  std::uint64_t drained_entries_ = 0;
  std::uint64_t entries_at_check_ = 0;  // drained_entries_ at the last re-gear check

  std::vector<RawRec> raw_recs_;
  std::uint32_t raw_free_head_ = kNoSlot;
};

inline void EventQueue::push_raw(TimePoint when, RawFn fn, void* ctx) {
  insert_entry(when.ns(), alloc_raw(fn, ctx) | kRawFlag);
  ++live_;
}

}  // namespace amrt::sim

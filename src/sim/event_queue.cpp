#include "sim/event_queue.hpp"

#include <limits>
#include <utility>

namespace amrt::sim {

void EventQueue::Handle::cancel() {
  if (q_ != nullptr) q_->cancel(slot_, gen_);
}

bool EventQueue::Handle::pending() const { return q_ != nullptr && q_->pending(slot_, gen_); }

std::uint32_t EventQueue::alloc_slot() {
  if (free_head_ != kNoSlot) {
    const std::uint32_t slot = free_head_;
    free_head_ = slots_[slot].next_free;
    return slot;
  }
  if (slot_count_ % kSlabSize == 0) {
    slabs_.push_back(std::make_unique<Record[]>(kSlabSize));
    slots_.resize(slots_.size() + kSlabSize);
  }
  assert(slot_count_ < kRawFlag);  // bit 23 is the raw-lane tag
  return slot_count_++;
}

// The slot's generation has already moved (its event fired, was popped or
// was cancelled), so no Handle reaches the slot any more.
void EventQueue::recycle_slot(std::uint32_t slot) {
  record(slot).cb.reset();
  slots_[slot].next_free = free_head_;
  free_head_ = slot;
}

// The set was empty: re-anchor the window at the incoming event. The
// current bucket may still hold a fully drained prefix (buckets are cleared
// lazily, on advance); drop it before reusing the wheel.
void EventQueue::rebase_empty(std::int64_t when_ns) {
  buckets_[cur_].clear();
  occupied_[cur_ >> 6] &= ~(std::uint64_t{1} << (cur_ & 63));
  base_ns_ = bucket_start(when_ns);
  cur_ = 0;
  drain_idx_ = 0;
}

// The drain cursor exhausted its bucket: retire it and move to the next
// non-empty one, re-anchoring the window over the far list when the near
// window is spent. Every kRegearPeriod retired buckets, the mean retired
// size may re-gear the wheel first. Returns false when no events remain
// anywhere.
bool EventQueue::advance_bucket() {
  std::vector<Entry>& done = buckets_[cur_];
  drain_idx_ = 0;
  occupied_[cur_ >> 6] &= ~(std::uint64_t{1} << (cur_ & 63));
  if (!done.empty()) {
    drained_entries_ += done.size();
    done.clear();
    spare_.push_back(std::move(done));  // leaves the bucket without a buffer
    if (++drained_buckets_ % kRegearPeriod == 0) {
      const std::uint64_t entries = drained_entries_ - entries_at_check_;
      entries_at_check_ = drained_entries_;
      if (entries > kDenseBucket * kRegearPeriod && shift_ > kMinShift) {
        regear(shift_ - 1);
      } else if (entries < kSparseBucket * kRegearPeriod && shift_ < kMaxShift) {
        regear(shift_ + 1);
      }
    }
  }

  const std::size_t words = occupied_.size();
  std::size_t w = cur_ >> 6;
  std::uint64_t word = occupied_[w];
  for (;;) {
    if (word != 0) {
      cur_ = (w << 6) + static_cast<std::size_t>(std::countr_zero(word));
      return true;
    }
    if (++w >= words) break;
    word = occupied_[w];
  }

  if (far_.empty()) {
    cur_ = 0;
    return false;
  }
  // Re-anchor the window at the earliest far event and re-bucket everything
  // that now falls inside it. Far events are rare (long timers), so the
  // linear partition is cheap and keeps pushes O(1).
  base_ns_ = bucket_start(far_min_ns_);
  cur_ = 0;
  pull_far();
  return true;  // the window now contains at least the old far minimum
}

// Moves every far entry that the window now covers into its bucket and
// recomputes the far minimum over the rest.
void EventQueue::pull_far() {
  std::int64_t next_min = std::numeric_limits<std::int64_t>::max();
  std::size_t keep = 0;
  for (const Entry& e : far_) {
    if (e.when_ns - base_ns_ < kWindowNs) {
      place_near(e);
    } else {
      far_[keep++] = e;
      if (e.when_ns < next_min) next_min = e.when_ns;
    }
  }
  far_.resize(keep);
  far_min_ns_ = next_min;
}

// Re-buckets every pending entry under the bucket width 2^shift. Runs only
// from advance_bucket() with the cursor's bucket already retired, so no
// drained prefix remains, and the near entries, read bucket by bucket, come
// out in (time, seq) order, all before any far entry. The window re-anchors
// at the earliest of them, and in that order every sorted insert is an
// append. The old buckets and spares are released as they are read: a
// re-gear leaves no bucket capacity behind from the previous geometry.
void EventQueue::regear(int shift) {
  std::vector<std::vector<Entry>>{}.swap(spare_);
  std::vector<std::vector<Entry>> old = std::move(buckets_);
  const std::vector<std::uint64_t> old_occupied = std::move(occupied_);
  shift_ = shift;
  ++regears_;
  buckets_ = std::vector<std::vector<Entry>>(bucket_count(shift));
  occupied_.assign(word_count(shift), 0);
  cur_ = 0;
  drain_idx_ = 0;

  std::int64_t earliest = far_.empty() ? base_ns_ : far_min_ns_;
  for (std::size_t w = 0; w < old_occupied.size(); ++w) {
    if (old_occupied[w] != 0) {
      earliest = old[(w << 6) + static_cast<std::size_t>(std::countr_zero(old_occupied[w]))]
                     .front()
                     .when_ns;
      break;
    }
  }
  base_ns_ = bucket_start(earliest);

  for (std::size_t w = 0; w < old_occupied.size(); ++w) {
    for (std::uint64_t word = old_occupied[w]; word != 0; word &= word - 1) {
      std::vector<Entry>& b = old[(w << 6) + static_cast<std::size_t>(std::countr_zero(word))];
      for (const Entry& e : b) {
        if (e.when_ns - base_ns_ < kWindowNs) {
          place_near(e);
        } else {
          push_far(e);
        }
      }
      std::vector<Entry>{}.swap(b);
    }
  }
  pull_far();  // far entries follow every near one, so they insort at the back
}

EventQueue::Handle EventQueue::push(TimePoint when, Callback cb) {
  assert(cb);  // an empty record reads as cancelled
  const std::uint32_t slot = alloc_slot();
  record(slot).cb = std::move(cb);
  insert_entry(when.ns(), slot);
  ++live_;
  return Handle{this, slot, slots_[slot].gen};
}

// A matching generation means the event is still pending: every way out of
// pending moves it. The emptied record stays in its bucket until the drain
// cursor reclaims it.
void EventQueue::cancel(std::uint32_t slot, std::uint32_t gen) {
  if (!pending(slot, gen)) return;
  ++slots_[slot].gen;
  record(slot).cb.reset();  // release captured state eagerly
  --live_;
}

bool EventQueue::pending(std::uint32_t slot, std::uint32_t gen) const {
  return slot < slot_count_ && slots_[slot].gen == gen;
}

std::optional<TimePoint> EventQueue::next_time() {
  const Entry* head = peek_live();
  if (head == nullptr) return std::nullopt;
  return TimePoint::from_ns(head->when_ns);
}

std::optional<EventQueue::Ready> EventQueue::pop() {
  const Entry* head = peek_live();
  if (head == nullptr) return std::nullopt;
  const Entry top = *head;
  consume_head();
  const std::uint32_t slot = entry_slot(top);
  --live_;
  if ((slot & kRawFlag) != 0) {
    // Slow path (tests/tools only): wrap the raw event in a callback so the
    // caller sees the uniform Ready shape.
    const RawRec r = raw_recs_[slot & ~kRawFlag];
    recycle_raw(slot & ~kRawFlag);
    return Ready{TimePoint::from_ns(top.when_ns), [r] { r.fn(r.ctx); }};
  }
  ++slots_[slot].gen;
  Ready out{TimePoint::from_ns(top.when_ns), std::move(record(slot).cb)};
  recycle_slot(slot);
  return out;
}

}  // namespace amrt::sim

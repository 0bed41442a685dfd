// An indexed binary min-heap: the water-filling's bottleneck heap and the
// fluid loop's completion heap (DESIGN.md §15).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace amrt::flowsim {

// A binary min-heap of entries that each carry a small dense id (their `Id`
// member), with every id's slot tracked so an entry is re-keyed, removed or
// relabelled in place: at most one entry per id, never a stale copy. The
// slot array grows to the largest id seen. `Entry` has a strict weak order
// `operator<`; when no two entries compare equal, the sequence of tops is
// fixed by the keys alone, whatever the layout.
template <class Entry, std::uint32_t Entry::*Id>
class IndexedHeap {
 public:
  static constexpr std::uint32_t kNil = 0xffffffffU;

  // Empties the heap, in the time of the entries it held.
  void clear() {
    for (const Entry& e : heap_) slot_[e.*Id] = kNil;
    heap_.clear();
  }
  [[nodiscard]] bool empty() const { return heap_.empty(); }
  [[nodiscard]] std::size_t size() const { return heap_.size(); }
  [[nodiscard]] const Entry& top() const { return heap_.front(); }
  [[nodiscard]] bool contains(std::uint32_t id) const {
    return id < slot_.size() && slot_[id] != kNil;
  }
  [[nodiscard]] const Entry& entry(std::uint32_t id) const { return heap_[slot_[id]]; }

  // Adds an entry out of order; heapify() then orders them all.
  void append(const Entry& e) {
    reach(e.*Id);
    slot_[e.*Id] = static_cast<std::uint32_t>(heap_.size());
    heap_.push_back(e);
  }
  void heapify() {
    for (std::size_t slot = heap_.size() / 2; slot-- > 0;) sift_down(slot);
  }
  // Inserts `e`, or replaces its id's entry and sifts the way its key moved.
  void set(const Entry& e) {
    if (!contains(e.*Id)) {
      append(e);
      sift_up(heap_.size() - 1);
      return;
    }
    const std::uint32_t at = slot_[e.*Id];
    const bool lowered = e < heap_[at];
    heap_[at] = e;
    if (lowered) {
      sift_up(at);
    } else {
      sift_down(at);
    }
  }
  // Bottom-up (Floyd): the hole at the root follows the lesser child down
  // to a leaf, and the last entry rises from there. The last entry belongs
  // near the bottom, so this costs about one compare per level, where a
  // sift-down from the root costs two.
  void pop() {
    slot_[heap_.front().*Id] = kNil;
    const Entry last = heap_.back();
    heap_.pop_back();
    const std::size_t n = heap_.size();
    if (n == 0) return;
    std::size_t hole = 0;
    std::size_t child = 1;
    for (; child + 1 < n; child = 2 * hole + 1) {
      child += heap_[child + 1] < heap_[child];
      place(hole, heap_[child]);
      hole = child;
    }
    if (child < n) {  // a last internal node with one child
      place(hole, heap_[child]);
      hole = child;
    }
    place(hole, last);
    sift_up(hole);
  }
  void erase(std::uint32_t id) {
    const std::size_t at = slot_[id];
    slot_[id] = kNil;
    const Entry last = heap_.back();
    heap_.pop_back();
    if (at == heap_.size()) return;
    const bool lowered = last < heap_[at];
    place(at, last);
    if (lowered) {
      sift_up(at);
    } else {
      sift_down(at);
    }
  }

  // Gives the entry of id `from`, if any, the id `to`, which has none.
  void relabel(std::uint32_t from, std::uint32_t to) {
    if (!contains(from)) return;
    reach(to);
    const std::uint32_t at = slot_[from];
    slot_[from] = kNil;
    slot_[to] = at;
    heap_[at].*Id = to;
  }

 private:
  void reach(std::uint32_t id) {
    if (id >= slot_.size()) slot_.resize(id + std::size_t{1}, kNil);
  }
  void place(std::size_t slot, const Entry& e) {
    heap_[slot] = e;
    slot_[e.*Id] = static_cast<std::uint32_t>(slot);
  }
  void sift_up(std::size_t slot) {
    const Entry e = heap_[slot];
    while (slot > 0) {
      const std::size_t parent = (slot - 1) / 2;
      if (!(e < heap_[parent])) break;
      place(slot, heap_[parent]);
      slot = parent;
    }
    place(slot, e);
  }
  void sift_down(std::size_t slot) {
    const Entry e = heap_[slot];
    const std::size_t n = heap_.size();
    for (;;) {
      std::size_t child = 2 * slot + 1;
      if (child >= n) break;
      if (child + 1 < n) child += heap_[child + 1] < heap_[child];
      if (!(heap_[child] < e)) break;
      place(slot, heap_[child]);
      slot = child;
    }
    place(slot, e);
  }

  std::vector<Entry> heap_;
  std::vector<std::uint32_t> slot_;  // id -> its index in heap_, or kNil
};

}  // namespace amrt::flowsim

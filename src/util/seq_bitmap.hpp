// Per-flow sequence-number state, two bits per packet in one allocation.
//
// A receiver flow tracks two facts per sequence number: "payload received"
// (was `std::vector<bool> got`) and "presumed lost, repair pending" (was a
// separate `std::unordered_set<uint32_t>`). The set cost a heap node and a
// hashed probe per loss event and a probe per credit; here both facts live
// as adjacent bits in the same word — checking or updating either is one
// shift-and-mask on a cache line the arrival path just touched anyway.
//
// Layout: sequence number s maps to word s/32, bits (s%32)*2 (received) and
// (s%32)*2+1 (repair-pending). A running count of repair bits keeps
// `pending_repairs()` O(1).
#pragma once

#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace amrt::util {

class SeqBitmap {
 public:
  // Sizes the bitmap for sequences [0, n). Clears all state.
  void resize(std::uint32_t n) {
    n_ = n;
    words_.assign((static_cast<std::size_t>(n) + 31) / 32, 0);
    repair_count_ = 0;
  }

  [[nodiscard]] std::uint32_t capacity() const { return n_; }

  [[nodiscard]] bool got(std::uint32_t seq) const {
    assert(seq < n_);
    return (words_[seq >> 5] >> shift_got(seq)) & 1u;
  }
  void set_got(std::uint32_t seq) {
    assert(seq < n_);
    words_[seq >> 5] |= std::uint64_t{1} << shift_got(seq);
  }

  // Marks `seq` repair-pending; returns true if it was newly marked.
  bool mark_repair(std::uint32_t seq) {
    assert(seq < n_);
    std::uint64_t& w = words_[seq >> 5];
    const std::uint64_t bit = std::uint64_t{1} << shift_rep(seq);
    if (w & bit) return false;
    w |= bit;
    ++repair_count_;
    return true;
  }
  // Clears the repair-pending bit; returns true if it was set.
  bool clear_repair(std::uint32_t seq) {
    assert(seq < n_);
    std::uint64_t& w = words_[seq >> 5];
    const std::uint64_t bit = std::uint64_t{1} << shift_rep(seq);
    if (!(w & bit)) return false;
    w &= ~bit;
    --repair_count_;
    return true;
  }

  // Number of sequences currently marked repair-pending.
  [[nodiscard]] std::size_t pending_repairs() const { return repair_count_; }

  // Number of received bits set, by popcount over the even (got) bit lanes.
  // O(words); used by consistency checks at flow completion, not per packet.
  [[nodiscard]] std::uint32_t count_got() const {
    constexpr std::uint64_t kGotLanes = 0x5555555555555555ULL;
    std::uint32_t n = 0;
    for (const std::uint64_t w : words_) {
      n += static_cast<std::uint32_t>(std::popcount(w & kGotLanes));
    }
    return n;
  }

 private:
  [[nodiscard]] static constexpr unsigned shift_got(std::uint32_t seq) {
    return (seq & 31u) * 2u;
  }
  [[nodiscard]] static constexpr unsigned shift_rep(std::uint32_t seq) {
    return (seq & 31u) * 2u + 1u;
  }

  std::vector<std::uint64_t> words_;
  std::uint32_t n_ = 0;
  std::size_t repair_count_ = 0;
};

}  // namespace amrt::util

// Open-addressing hash containers for the per-packet hot path.
//
// `std::unordered_map` pays a heap allocation per node and a pointer chase
// per probe; on the transport arrival path that is two-to-three dependent
// cache misses per packet. `FlatMap` stores `pair<K, V>` slots in one
// power-of-two array with linear probing, so a lookup is one hash, one
// indexed load and (almost always) zero extra cache lines. Erasure uses
// backward-shift deletion, so the table carries no tombstones and lookup
// cost never degrades with churn — important for flow tables where every
// completed flow is erased.
//
// Invariants and caveats:
//   * Deterministic: the same sequence of operations yields the same
//     iteration order (slot order), on every platform. Nothing here depends
//     on pointer values or global state.
//   * Pointers/references into the table are invalidated by insertion
//     (rehash) and by erase (backward shift). Callers must re-find after
//     mutating — the transport layer takes a single handle per event and
//     never inserts while holding one.
//   * Keys must be trivially hashable integers (FlowId, NodeId values); the
//     default hash is the SplitMix64 finalizer (util/hash.hpp), which is
//     enough to make sequential ids collide no worse than random ones.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "util/hash.hpp"

namespace amrt::util {

struct Mix64Hash {
  [[nodiscard]] constexpr std::uint64_t operator()(std::uint64_t key) const { return mix64(key); }
};

template <typename K, typename V, typename Hash = Mix64Hash>
class FlatMap {
 public:
  using value_type = std::pair<K, V>;

  FlatMap() = default;

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }

  void clear() {
    slots_.clear();
    full_.clear();
    size_ = 0;
  }

  void reserve(std::size_t n) {
    std::size_t cap = kMinCapacity;
    // Grow until `n` fits under the load-factor ceiling.
    while (cap * kMaxLoadNum < n * kMaxLoadDen) cap *= 2;
    if (cap > slots_.size()) rehash(cap);
  }

  [[nodiscard]] V* find(const K& key) {
    const std::size_t i = find_index(key);
    return i == kNotFound ? nullptr : &slots_[i].second;
  }
  [[nodiscard]] const V* find(const K& key) const {
    const std::size_t i = find_index(key);
    return i == kNotFound ? nullptr : &slots_[i].second;
  }
  [[nodiscard]] bool contains(const K& key) const { return find_index(key) != kNotFound; }

  // Inserts a default-constructed value for `key` if absent. Returns the
  // slot's value and whether it was inserted. The pointer is valid until the
  // next insert/erase.
  std::pair<V*, bool> try_emplace(const K& key) {
    if (slots_.empty() || (size_ + 1) * kMaxLoadDen > slots_.size() * kMaxLoadNum) {
      rehash(slots_.empty() ? kMinCapacity : slots_.size() * 2);
    }
    std::size_t i = home(key);
    while (full_[i]) {
      if (slots_[i].first == key) return {&slots_[i].second, false};
      i = next(i);
    }
    full_[i] = 1;
    slots_[i].first = key;
    slots_[i].second = V{};
    ++size_;
    return {&slots_[i].second, true};
  }

  V& operator[](const K& key) { return *try_emplace(key).first; }

  // Backward-shift deletion: the probe chain after the hole is compacted in
  // place, so no tombstones accumulate. Returns true if the key was present.
  bool erase(const K& key) {
    std::size_t hole = find_index(key);
    if (hole == kNotFound) return false;
    std::size_t i = hole;
    for (;;) {
      i = next(i);
      if (!full_[i]) break;
      // An element may fill the hole only if its home slot does not lie
      // (cyclically) strictly after the hole — otherwise moving it would
      // break its own probe chain.
      const std::size_t h = home(slots_[i].first);
      const bool movable = hole <= i ? (h <= hole || h > i) : (h <= hole && h > i);
      if (movable) {
        slots_[hole] = std::move(slots_[i]);
        hole = i;
      }
    }
    full_[hole] = 0;
    slots_[hole] = value_type{};  // release held resources promptly
    --size_;
    return true;
  }

  // Iteration in slot order: deterministic for a given operation history.
  template <bool Const>
  class Iter {
   public:
    using Owner = std::conditional_t<Const, const FlatMap, FlatMap>;
    using Ref = std::conditional_t<Const, const value_type&, value_type&>;
    Iter(Owner* owner, std::size_t i) : owner_{owner}, i_{i} { skip(); }
    Ref operator*() const { return owner_->slots_[i_]; }
    Iter& operator++() {
      ++i_;
      skip();
      return *this;
    }
    bool operator==(const Iter& o) const { return i_ == o.i_; }
    bool operator!=(const Iter& o) const { return i_ != o.i_; }

   private:
    void skip() {
      while (i_ < owner_->slots_.size() && !owner_->full_[i_]) ++i_;
    }
    Owner* owner_;
    std::size_t i_;
  };

  [[nodiscard]] auto begin() { return Iter<false>{this, 0}; }
  [[nodiscard]] auto end() { return Iter<false>{this, slots_.size()}; }
  [[nodiscard]] auto begin() const { return Iter<true>{this, 0}; }
  [[nodiscard]] auto end() const { return Iter<true>{this, slots_.size()}; }

 private:
  static constexpr std::size_t kMinCapacity = 16;
  static constexpr std::size_t kNotFound = static_cast<std::size_t>(-1);
  // Max load factor 7/8: linear probing stays short, memory stays ~2x data.
  static constexpr std::size_t kMaxLoadNum = 7;
  static constexpr std::size_t kMaxLoadDen = 8;

  [[nodiscard]] std::size_t home(const K& key) const {
    return static_cast<std::size_t>(Hash{}(static_cast<std::uint64_t>(key))) &
           (slots_.size() - 1);
  }
  [[nodiscard]] std::size_t next(std::size_t i) const { return (i + 1) & (slots_.size() - 1); }

  [[nodiscard]] std::size_t find_index(const K& key) const {
    if (slots_.empty()) return kNotFound;
    std::size_t i = home(key);
    while (full_[i]) {
      if (slots_[i].first == key) return i;
      i = next(i);
    }
    return kNotFound;
  }

  void rehash(std::size_t new_cap) {
    std::vector<value_type> old_slots = std::move(slots_);
    std::vector<std::uint8_t> old_full = std::move(full_);
    slots_.assign(new_cap, value_type{});
    full_.assign(new_cap, 0);
    size_ = 0;
    // Reinsert in slot order: deterministic, and preserves relative order of
    // elements whose new home slots collide.
    for (std::size_t i = 0; i < old_slots.size(); ++i) {
      if (!old_full[i]) continue;
      std::size_t j = home(old_slots[i].first);
      while (full_[j]) j = next(j);
      full_[j] = 1;
      slots_[j] = std::move(old_slots[i]);
      ++size_;
    }
  }

  std::vector<value_type> slots_;
  std::vector<std::uint8_t> full_;  // separate so probing scans bytes, not pairs
  std::size_t size_ = 0;
};

// A set is a map with no payload; FlowId membership checks (finished-flow
// filtering) want exactly the same probe behaviour.
template <typename K, typename Hash = Mix64Hash>
class FlatSet {
 public:
  [[nodiscard]] std::size_t size() const { return map_.size(); }
  [[nodiscard]] bool empty() const { return map_.empty(); }
  [[nodiscard]] bool contains(const K& key) const { return map_.contains(key); }
  bool insert(const K& key) { return map_.try_emplace(key).second; }
  bool erase(const K& key) { return map_.erase(key); }
  void clear() { map_.clear(); }
  void reserve(std::size_t n) { map_.reserve(n); }

 private:
  struct Empty {};
  FlatMap<K, Empty, Hash> map_;
};

}  // namespace amrt::util

// FlatMap/FlatSet: open-addressing invariants the data plane leans on —
// collision chains survive backward-shift erasure, rehash keeps every
// element, iteration order is a pure function of operation history, and a
// randomized differential test pins behaviour to std::unordered_map.
#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <unordered_map>
#include <vector>

#include "util/flat_map.hpp"

using amrt::util::FlatMap;
using amrt::util::FlatSet;

namespace {

// Degenerate hash: every key lands in one home slot, so the whole table is
// a single probe chain and erase exercises the worst-case backward shift.
struct CollideAll {
  [[nodiscard]] constexpr std::uint64_t operator()(std::uint64_t) const { return 0; }
};

// Identity hash gives precise control over home slots (table capacity is a
// power of two, so key % cap == key & (cap - 1)).
struct Identity {
  [[nodiscard]] constexpr std::uint64_t operator()(std::uint64_t k) const { return k; }
};

TEST(FlatMap, InsertFindErase) {
  FlatMap<std::uint64_t, int> m;
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.find(7), nullptr);

  m[7] = 70;
  m[9] = 90;
  ASSERT_NE(m.find(7), nullptr);
  EXPECT_EQ(*m.find(7), 70);
  EXPECT_EQ(*m.find(9), 90);
  EXPECT_EQ(m.size(), 2u);

  EXPECT_TRUE(m.erase(7));
  EXPECT_FALSE(m.erase(7));  // already gone
  EXPECT_EQ(m.find(7), nullptr);
  EXPECT_EQ(*m.find(9), 90);
  EXPECT_EQ(m.size(), 1u);
}

TEST(FlatMap, TryEmplaceReportsInsertion) {
  FlatMap<std::uint64_t, int> m;
  auto [v1, inserted1] = m.try_emplace(5);
  EXPECT_TRUE(inserted1);
  *v1 = 55;
  auto [v2, inserted2] = m.try_emplace(5);
  EXPECT_FALSE(inserted2);
  EXPECT_EQ(*v2, 55);
}

TEST(FlatMap, CollisionChainSurvivesMiddleErase) {
  FlatMap<std::uint64_t, int, CollideAll> m;
  for (std::uint64_t k = 1; k <= 8; ++k) m[k] = static_cast<int>(k * 10);
  // Erase from the middle of the single probe chain: backward-shift must
  // keep every survivor reachable.
  EXPECT_TRUE(m.erase(4));
  EXPECT_TRUE(m.erase(1));
  for (std::uint64_t k : {2u, 3u, 5u, 6u, 7u, 8u}) {
    ASSERT_NE(m.find(k), nullptr) << "lost key " << k << " after erase";
    EXPECT_EQ(*m.find(k), static_cast<int>(k * 10));
  }
  EXPECT_EQ(m.find(4), nullptr);
  EXPECT_EQ(m.find(1), nullptr);
  // Reinsert an erased key into the compacted chain.
  m[4] = 44;
  EXPECT_EQ(*m.find(4), 44);
  EXPECT_EQ(m.size(), 7u);
}

TEST(FlatMap, WrappedChainErase) {
  // Keys homed near the end of a 16-slot table so the probe chain wraps
  // around slot 0 — the cyclic-distance case in the backward-shift rule.
  FlatMap<std::uint64_t, int, Identity> m;
  m.reserve(10);  // capacity 16
  for (std::uint64_t k : {14u, 30u, 46u, 15u, 62u}) m[k] = static_cast<int>(k);
  EXPECT_TRUE(m.erase(30));
  for (std::uint64_t k : {14u, 46u, 15u, 62u}) {
    ASSERT_NE(m.find(k), nullptr) << "lost key " << k << " across the wrap";
    EXPECT_EQ(*m.find(k), static_cast<int>(k));
  }
}

TEST(FlatMap, RehashGrowthKeepsEverything) {
  FlatMap<std::uint64_t, std::uint64_t> m;
  constexpr std::uint64_t kN = 5000;  // forces many doublings from capacity 16
  for (std::uint64_t k = 0; k < kN; ++k) m[k * 2654435761u] = k;
  EXPECT_EQ(m.size(), kN);
  for (std::uint64_t k = 0; k < kN; ++k) {
    ASSERT_NE(m.find(k * 2654435761u), nullptr) << "lost key index " << k << " in rehash";
    EXPECT_EQ(*m.find(k * 2654435761u), k);
  }
}

TEST(FlatMap, DeterministicIterationOrder) {
  // Two tables fed the same operation history iterate identically; this is
  // what makes FlatMap-ordered loops safe in a bit-reproducible simulator.
  auto build = [] {
    FlatMap<std::uint64_t, int> m;
    for (std::uint64_t k = 0; k < 100; ++k) m[k * 3 + 1] = static_cast<int>(k);
    for (std::uint64_t k = 0; k < 100; k += 2) m.erase(k * 3 + 1);
    for (std::uint64_t k = 100; k < 130; ++k) m[k] = static_cast<int>(k);
    return m;
  };
  auto a = build();
  auto b = build();
  std::vector<std::uint64_t> ka, kb;
  for (const auto& [k, v] : a) ka.push_back(k);
  for (const auto& [k, v] : b) kb.push_back(k);
  EXPECT_EQ(ka, kb);
  EXPECT_EQ(ka.size(), a.size());
}

TEST(FlatMap, DifferentialFuzzAgainstUnorderedMap) {
  // Random insert/erase/lookup stream, cross-checked against the reference
  // container after every step and exhaustively at checkpoints.
  FlatMap<std::uint64_t, std::uint64_t> flat;
  std::unordered_map<std::uint64_t, std::uint64_t> ref;
  std::mt19937_64 rng{12345};
  const std::uint64_t key_space = 512;  // small space => heavy churn per key

  for (int step = 0; step < 100'000; ++step) {
    const std::uint64_t key = rng() % key_space;
    switch (rng() % 4) {
      case 0:
      case 1: {  // insert-or-assign
        const std::uint64_t val = rng();
        flat[key] = val;
        ref[key] = val;
        break;
      }
      case 2: {  // erase
        EXPECT_EQ(flat.erase(key), ref.erase(key) > 0);
        break;
      }
      default: {  // lookup
        const auto* fv = flat.find(key);
        const auto rv = ref.find(key);
        ASSERT_EQ(fv != nullptr, rv != ref.end()) << "membership diverged for " << key;
        if (fv != nullptr) {
          ASSERT_EQ(*fv, rv->second);
        }
        break;
      }
    }
    ASSERT_EQ(flat.size(), ref.size());
    if (step % 10'000 == 9'999) {
      std::size_t seen = 0;
      for (const auto& [k, v] : flat) {
        const auto it = ref.find(k);
        ASSERT_NE(it, ref.end()) << "phantom key " << k;
        ASSERT_EQ(v, it->second);
        ++seen;
      }
      ASSERT_EQ(seen, ref.size());
    }
  }
}

TEST(FlatSet, BasicMembershipAndChurn) {
  FlatSet<std::uint64_t> s;
  EXPECT_TRUE(s.insert(3));
  EXPECT_FALSE(s.insert(3));
  EXPECT_TRUE(s.contains(3));
  EXPECT_TRUE(s.erase(3));
  EXPECT_FALSE(s.erase(3));
  EXPECT_FALSE(s.contains(3));
  for (std::uint64_t k = 0; k < 1000; ++k) s.insert(k);
  EXPECT_EQ(s.size(), 1000u);
  for (std::uint64_t k = 0; k < 1000; k += 2) s.erase(k);
  EXPECT_EQ(s.size(), 500u);
  for (std::uint64_t k = 0; k < 1000; ++k) EXPECT_EQ(s.contains(k), k % 2 == 1);
}

}  // namespace

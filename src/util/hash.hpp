// The one integer mixer (SplitMix64's finalizer) and the per-flow ECMP pick
// made with it. RoutingTable::select and flowsim::Fabric::path both call
// ecmp_pick, so a flow takes the same links at both fidelities.
#pragma once

#include <cstdint>

namespace amrt::util {

// SplitMix64's Weyl increment: mix64(seed + k * kGamma) is stream k of seed.
inline constexpr std::uint64_t kGamma = 0x9e3779b97f4a7c15ULL;

// The cheapest hash with full avalanche: sequential keys (flow ids are
// sequential) spread uniformly.
[[nodiscard]] constexpr std::uint64_t mix64(std::uint64_t x) {
  x += kGamma;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// The index `flow` takes in a `count`-way ECMP set at multipath `tier`
// (0: leaf/edge uplink, 1: fat-tree agg uplink). Each tier reads the hash
// 16 bits higher, so a flow's core is independent of its agg.
[[nodiscard]] constexpr std::uint64_t ecmp_pick(std::uint64_t flow, unsigned tier,
                                                std::uint64_t count) {
  return (mix64(flow) >> (16 * tier)) % count;
}

}  // namespace amrt::util

// Deterministic scenario fuzzer.
//
// Every case is a pure function of (seed, topology family, protocol): the
// seed drives a private parameter stream (fabric shape, link speeds, queue
// depths, workload, load, flow count) and the simulation's own stream, so a
// failure reproduces bit-identically from its one-line repro. Cases build
// sampler-free scenarios — no periodic monitors keep the event loop alive —
// and run the scheduler to natural drain, then check oracles that hold for
// every protocol on every topology:
//
//   * completion — every generated flow finishes (under an event-limit
//     safety valve that converts livelock into a reported failure);
//   * physics — each FCT is at least the flow's serialization time at the
//     NIC plus one link propagation;
//   * queue accounting — after drain every queue is empty and satisfies
//     enqueued == dequeued + dropped;
//   * audit — in AMRT_AUDIT builds, the run's Auditor (packet conservation,
//     byte ledgers, marked-grant allowance, anti-ECN Eq. 3, ...) reports
//     zero violations and a drained ledger.
//
// `run_fuzz` sweeps a seed range across topologies and protocols on the
// SweepRunner pool; because each case owns its Simulation, parallel results
// are byte-identical to serial (checked by tests/test_scenario_fuzz.cpp).
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "harness/run.hpp"
#include "transport/config.hpp"

namespace amrt::harness::fuzz {

// The fuzzed fabric families. Dumbbell and chain are both PacketRun line
// fabrics (Topology::kLine); they keep their own names so repro lines and
// the per-family parameter streams stay stable.
enum class Topo : std::uint8_t { kLeafSpine, kDumbbell, kChain, kFatTree };

inline constexpr std::array<Topo, 4> kAllTopos = {Topo::kLeafSpine, Topo::kDumbbell, Topo::kChain,
                                                  Topo::kFatTree};

[[nodiscard]] const char* to_string(Topo t);
// Accepts "leafspine" / "leaf-spine" / "dumbbell" / "chain" / "fattree" /
// "fat-tree"; throws on junk.
[[nodiscard]] Topo topo_from_string(const std::string& s);

struct CaseConfig {
  std::uint64_t seed = 1;
  Topo topo = Topo::kLeafSpine;
  transport::Protocol proto = transport::Protocol::kAmrt;
  // Draw a fault schedule (link flaps, blackhole windows, rate dips against
  // switch egress ports) on top of the scenario. The fault draws extend the
  // parameter stream *after* every pre-existing draw, so cases with faults
  // off replay bit-identically to builds that predate fault injection.
  bool faults = false;
  // Partitioned execution: run the case on `shards` worker threads (fat-tree
  // and leaf-spine topologies only; the small dumbbell/chain fabrics have no
  // useful cut). Mutually exclusive with `faults` — the fault injector
  // mutates LinkState from a serial-only control path. The oracles are
  // unchanged: completion, physics, queue accounting and the (merged)
  // audit ledger must hold for every shard count.
  unsigned shards = 1;
  // Mixed transports (DESIGN.md §13): AMRT foreground plus a drawn fraction
  // of DCTCP background flows on a shared strict-priority fabric with both
  // ECN markers. Requires proto == kAmrt (the foreground transport); the
  // background fraction is drawn after every pre-existing draw, so non-mixed
  // cases replay bit-identically. Composes with shards > 1. The oracles are
  // unchanged — completion, physics, queue accounting and the audit ledger
  // hold for both populations.
  bool mixed = false;
  // Workload-engine cases (DESIGN.md §14): draw a non-legacy traffic engine
  // (skewed matrices with optional coflow groups, or front-end fan-out
  // requests) plus its knobs. All engine draws sit strictly after every
  // pre-existing draw — including the mixed draw — so cases with the flag
  // off replay bit-identically to builds that predate the engine layer. Adds
  // a fifth oracle: when every flow completes, every coflow group and every
  // fan-out request must be accounted complete by the GroupBook.
  bool engine = false;
};

struct CaseResult {
  bool ok = true;
  std::string failure;  // first violated oracle, "" when ok

  // Run fingerprint: FNV-1a over every completed flow record plus the
  // drop/trim/event counters. Two runs of one CaseConfig must agree bit for
  // bit (the replay-determinism oracle of the ctest smoke).
  std::uint64_t hash = 0;

  std::size_t flows = 0;
  std::size_t completed = 0;
  std::uint64_t events = 0;
  std::uint64_t drops = 0;
  std::uint64_t trims = 0;
  std::uint64_t faulted = 0;  // packets eaten by injected faults (0 without --faults)
  std::uint64_t audit_violations = 0;  // always 0 in non-audit builds
};

// The one-line reproduction command for a case.
[[nodiscard]] std::string repro_line(const CaseConfig& c);

// Builds, runs and checks one case. Sets the audit replay context to
// `repro_line(c)` so a fail-fast audit abort prints how to reproduce it.
[[nodiscard]] CaseResult run_case(const CaseConfig& c);

struct FuzzOptions {
  std::uint64_t first_seed = 1;
  std::uint64_t seeds = 25;  // per (topo, protocol) pair
  std::vector<Topo> topos{kAllTopos.begin(), kAllTopos.end()};
  std::vector<transport::Protocol> protocols{
      transport::Protocol::kAmrt, transport::Protocol::kPhost, transport::Protocol::kHoma,
      transport::Protocol::kNdp};
  bool faults = false;   // inject a drawn fault schedule into every case
  // Run every case partitioned across this many shards. Values > 1 restrict
  // the sweep to the partitionable topologies (fat-tree, leaf-spine).
  unsigned shards = 1;
  // Mixed-transport cases: AMRT foreground + DCTCP background. Restricts the
  // protocol axis to kAmrt (the foreground transport is fixed; the DCTCP
  // population rides inside the case). Composes with shards > 1.
  bool mixed = false;
  // Workload-engine cases: every case draws a non-legacy traffic engine and
  // its knobs (see CaseConfig::engine).
  bool engine = false;
  unsigned threads = 0;  // SweepRunner: 0 = one per hardware core
  // Called after each case (serialized), for progress/reporting.
  std::function<void(const CaseConfig&, const CaseResult&)> on_case;
};

struct FuzzReport {
  std::size_t cases = 0;
  std::size_t failures = 0;
  // One "<repro line>  # <failure>" entry per failing case, input order.
  std::vector<std::string> failure_lines;
};

[[nodiscard]] FuzzReport run_fuzz(const FuzzOptions& opts);

}  // namespace amrt::harness::fuzz

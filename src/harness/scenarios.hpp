// Fixed small-scale scenarios reproducing the paper's motivation and
// testbed figures. Each is a caller of harness::PacketRun (DESIGN.md §16):
// it fills a RunSpec (a line of switches, or a leaf-spine for Fig. 14) and
// a flow list, hooks its PortSamplers on run.sim() and runs, so the figures
// exercise the same build, endpoint and schedule path as the large-scale
// runs.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "core/factory.hpp"
#include "stats/fct.hpp"
#include "stats/timeseries.hpp"

namespace amrt::harness {

// --------------------------------------------------------------------------
// Two-bottleneck chain: S0 -> S1 -> S2 (Fig. 1 motivation and the Fig. 10/11
// testbed). A flow takes one of three paths over the chain.
// --------------------------------------------------------------------------

enum class ChainPath {
  kBoth,    // src under S0, dst under S2: crosses both bottlenecks
  kFirst,   // src under S0, dst under S1: crosses only S0->S1
  kSecond,  // src under S1, dst under S2: crosses only S1->S2
};

struct ChainFlow {
  ChainPath path = ChainPath::kBoth;
  std::uint64_t bytes = 0;
  sim::Duration start = sim::Duration::zero();
};

struct ChainConfig {
  transport::Protocol proto = transport::Protocol::kPhost;
  sim::Bandwidth link_rate = sim::Bandwidth::gbps(10);
  sim::Duration link_delay = sim::Duration::microseconds(12);  // ~100us RTT over 4 hops
  // Section 6's small-queue discipline: receiver-driven designs cap switch
  // queues at ~8 packets (NDP trims, the others drop). This is what keeps
  // the motivation scenarios at near-zero queueing; the large-scale runs
  // use Section 8.1's 128-packet buffers instead.
  core::QueueConfig queues{.buffer_pkts = 8, .trim_threshold = 8};
  int homa_overcommit = 2;
  std::vector<ChainFlow> flows;
  sim::Duration duration = sim::Duration::milliseconds(8);
  sim::Duration bin = sim::Duration::microseconds(100);
  // Seeded per-flow start jitter. Perfectly synchronized starts phase-lock
  // a deterministic simulator (one flow wins every drop-tail race); real
  // stacks and NS2 both carry natural jitter.
  sim::Duration start_jitter = sim::Duration::microseconds(20);
  std::uint64_t seed = 1;
};

struct TimelineResult {
  sim::Duration bin = sim::Duration::zero();
  // Per-flow receive throughput (Gbps) per bin; index matches config order.
  std::vector<std::vector<double>> flow_gbps;
  // Bottleneck utilization per sample (same cadence as `bin`).
  std::vector<double> bottleneck1_util;
  std::vector<double> bottleneck2_util;  // empty for single-bottleneck runs
  // Completion time per flow in ms (-1 if still running at the end).
  std::vector<double> flow_fct_ms;
  std::size_t max_queue_pkts = 0;
  double mean_util_b1 = 0;
  double mean_util_b2 = 0;
};

[[nodiscard]] TimelineResult run_chain(const ChainConfig& cfg);

// --------------------------------------------------------------------------
// Dynamic traffic on one shared bottleneck (Fig. 2 motivation, Fig. 8/9
// testbed): N flows with distinct sender/receiver pairs all cross S0 -> S1;
// staggered sizes make them finish one by one.
// --------------------------------------------------------------------------

struct DynamicFlow {
  std::uint64_t bytes = 0;
  sim::Duration start = sim::Duration::zero();
};

struct DynamicConfig {
  transport::Protocol proto = transport::Protocol::kPhost;
  sim::Bandwidth link_rate = sim::Bandwidth::gbps(10);
  sim::Duration link_delay = sim::Duration::microseconds(12);
  // See ChainConfig; queues.marker_probe_bytes is an AMRT ablation knob.
  core::QueueConfig queues{.buffer_pkts = 8, .trim_threshold = 8};
  int homa_overcommit = 2;
  std::vector<DynamicFlow> flows;
  sim::Duration duration = sim::Duration::milliseconds(8);
  sim::Duration bin = sim::Duration::microseconds(100);
  sim::Duration start_jitter = sim::Duration::microseconds(20);  // see ChainConfig
  std::uint64_t seed = 1;
  // Ablation knob for the AMRT mechanism (default = the paper's design).
  std::uint16_t amrt_marked_allowance = 2;
};

[[nodiscard]] TimelineResult run_dynamic(const DynamicConfig& cfg);

// --------------------------------------------------------------------------
// Many-to-many with unresponsive senders (Fig. 14): 40 senders under two
// leaves each open one connection to each of two receivers under a third
// leaf; only a fraction of senders answer grants. Compares AMRT's marking
// against Homa's fixed overcommitment.
// --------------------------------------------------------------------------

struct ManyToManyConfig {
  transport::Protocol proto = transport::Protocol::kHoma;
  int senders_per_leaf = 20;
  int spines = 2;
  double responsive_ratio = 0.5;
  int homa_overcommit = 2;
  std::uint64_t flow_bytes = 10'000'000;
  sim::Bandwidth link_rate = sim::Bandwidth::gbps(10);
  sim::Duration link_delay = sim::Duration::microseconds(10);
  core::QueueConfig queues{};
  sim::Duration duration = sim::Duration::milliseconds(20);
  std::uint64_t seed = 1;
};

struct ManyToManyResult {
  double mean_downlink_util = 0;  // over the two receiver downlinks
  std::size_t max_queue_pkts = 0; // at the receiver downlinks
  double mean_queue_pkts = 0;
  std::size_t responsive_senders = 0;
};

[[nodiscard]] ManyToManyResult run_many_to_many(const ManyToManyConfig& cfg);

// --------------------------------------------------------------------------
// Incast (Section 8.2 / Section 6): N synchronized senders, one receiver,
// small switch buffers — the stress test for the 8-packet drop threshold.
// --------------------------------------------------------------------------

struct IncastConfig {
  transport::Protocol proto = transport::Protocol::kAmrt;
  int senders = 32;
  std::uint64_t bytes_per_sender = 64'000;
  sim::Bandwidth link_rate = sim::Bandwidth::gbps(10);
  sim::Duration link_delay = sim::Duration::microseconds(5);
  core::QueueConfig queues{};
  sim::Duration max_time = sim::Duration::milliseconds(200);
  std::uint64_t seed = 1;
};

struct IncastResult {
  stats::FctSummary fct;
  std::size_t max_queue_pkts = 0;
  std::uint64_t drops = 0;
  std::uint64_t trims = 0;
  double goodput_gbps = 0;  // aggregate payload rate until the last completion
};

[[nodiscard]] IncastResult run_incast(const IncastConfig& cfg);

}  // namespace amrt::harness

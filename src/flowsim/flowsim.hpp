// Flow-level fast path (DESIGN.md §15, ROADMAP item 4).
//
// Replaces per-packet events with fluid flows: each active flow streams
// payload at a rate set by progressive max-min sharing over the Fabric's
// link capacities. Events happen only when the rate vector can change —
// a flow arrives, a flow drains, or a grant-clock tick advances a ramp —
// so a run costs thousands of events where the packet simulator costs
// millions. The price is per-packet effects (queueing jitter, loss,
// trimming); the flowsim_validation ctest bounds that error against the
// packet-level truth (avg FCT ±10%, p99 ±25% on small fabrics).
//
// Rate models (the AMRT-aware part):
//   kInstant        — ideal max-min: rates jump to the fair share.
//   kAmrtGrantClock — anti-ECN refill: a rate *increase* ramps additively
//                     at the pre-drop rate per RTT (Eq. 4/7's earliest
//                     bound) or spread across the vacated packet slots
//                     (Eq. 5/8's latest bound); decreases are immediate
//                     (the receiver's grant clock cuts within one RTT).
//   kDctcpThreshold — threshold-ECN background flows: additive increase of
//                     one MSS per RTT toward the share, immediate decrease.
//   kTraditional    — Section 5's TRP: the rate never recovers after a
//                     reduction (Eq. 6's pessimistic completion).
//
// All sharing happens on *payload* capacity (link rate scaled by MSS/MTU),
// matching what FctRecorder counts at the packet level.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "flowsim/fabric.hpp"
#include "sim/time.hpp"
#include "stats/fct.hpp"

namespace amrt::flowsim {

enum class RateModel : std::uint8_t { kInstant, kAmrtGrantClock, kDctcpThreshold, kTraditional };

[[nodiscard]] const char* to_string(RateModel m);

struct FlowSimConfig {
  // Grant-clock tick: ramps advance once per RTT.
  sim::Duration rtt = sim::Duration::microseconds(100);
  // Payload fraction of raw link capacity (MSS/MTU at the packet level).
  double payload_fraction = 1460.0 / 1500.0;
  // Per-link propagation delay and MTU serialization time: each completion
  // is reported `links*prop + (links-1)*mtu_tx + fixed_latency` after the
  // last payload byte is scheduled, mirroring the packet path's pipeline.
  sim::Duration prop_delay = sim::Duration::microseconds(10);
  sim::Duration mtu_tx = sim::Duration::nanoseconds(1200);
  sim::Duration fixed_latency = sim::Duration::zero();
  // Use Eq. 5/8's latest-convergence ramp instead of Eq. 4/7's earliest.
  bool amrt_ramp_latest = false;
  // MTU bytes (slot size for the Eq. 5 vacancy count) and MSS for DCTCP's
  // additive step.
  double mtu_bytes = 1500.0;
  double mss_bytes = 1460.0;
  // Hard stop; flows still active at the horizon stay incomplete.
  sim::TimePoint max_time = sim::TimePoint::zero() + sim::Duration::seconds(30);
};

struct FlowSimResult {
  std::uint64_t events = 0;          // processed event boundaries
  std::uint64_t recomputes = 0;      // max-min water-fillings
  std::uint64_t flows_refilled = 0;  // flows water-filled, summed over recomputes
  std::size_t started = 0;
  std::size_t completed = 0;
  sim::TimePoint end_time{};
};

class FlowSim {
 public:
  FlowSim(const Fabric& fabric, FlowSimConfig cfg);

  [[nodiscard]] const FlowSimConfig& config() const { return cfg_; }

  // Register a flow before run(). Flows may be added in any order.
  void add_flow(std::uint64_t id, std::size_t src, std::size_t dst, std::uint64_t bytes,
                sim::TimePoint start, RateModel model);

  // Mixed fidelity: accumulate the mean used bandwidth (payload bytes/sec)
  // of every link into fixed `bin` windows starting at t=0. Call before
  // run(); read back with link_usage()/usage_bins().
  void record_link_usage(sim::Duration bin);
  [[nodiscard]] const std::vector<std::vector<double>>& link_usage() const { return usage_; }
  [[nodiscard]] sim::Duration usage_bin() const { return usage_bin_; }

  // Per-link lifetime counters (for utilization summaries), complete once
  // run() returns.
  [[nodiscard]] double link_bytes(LinkId l) const { return link_bytes_[l]; }
  [[nodiscard]] sim::TimePoint link_first_busy(LinkId l) const { return link_first_[l]; }
  [[nodiscard]] sim::TimePoint link_last_busy(LinkId l) const { return link_last_[l]; }

  // Runs to completion (or cfg.max_time). `observer` may be null; when set
  // it receives the same started/progress/completed callbacks the packet
  // transports emit, so a stats::FctRecorder plugs in unchanged.
  FlowSimResult run(stats::FlowObserver* observer);

 private:
  struct Active {
    std::uint64_t id = 0;
    std::uint64_t total_bytes = 0;
    double delivered = 0.0;        // fluid payload bytes
    std::uint64_t reported = 0;    // integer bytes already sent to the observer
    double rate = 0.0;             // current payload bytes/sec
    double target = 0.0;           // max-min share
    double ramp_step = 0.0;        // bytes/sec added per RTT tick while rate < target
    sim::TimePoint last_adv{};     // end of its latest advanced segment
    std::uint32_t path_off = 0;
    std::uint32_t path_len = 0;
    std::uint32_t input = 0;  // its index in inputs_
    RateModel model = RateModel::kInstant;
    bool fresh = true;      // not yet given an initial rate
    bool advanced = false;  // has streamed a segment: its links' first-busy is folded
  };

  void collect_touched();
  void recompute_targets();
  // Streams every flow to `t`; true if an advanced flow drained to kDoneEps.
  bool advance_to(sim::TimePoint t, stats::FlowObserver* observer);
  void spread_usage(const Active& f, sim::TimePoint t);
  void fold_last_busy(const Active& f);
  void apply_ramp_tick();
  [[nodiscard]] sim::Duration completion_latency(const Active& f) const;

  const Fabric& fabric_;
  FlowSimConfig cfg_;

  struct Input {
    std::uint64_t id;
    std::uint64_t bytes;
    sim::TimePoint start;
    RateModel model;
    std::uint32_t path_off;
    std::uint32_t path_len;
  };
  std::vector<Input> inputs_;
  std::vector<LinkId> path_arena_;

  std::vector<Active> active_;
  sim::TimePoint now_{};

  // Link membership, kept between events (DESIGN.md §15 "Sharing"): each
  // link threads its active flows' path hops (path_arena_ positions) on a
  // singly linked list. Sized once in run(); an arrival links its hops in
  // O(path_len), and a completed flow's hops are unlinked by the traversal
  // that its links seed.
  static constexpr std::uint32_t kNil = 0xffffffffU;
  std::vector<std::uint32_t> link_head_;  // link -> first hop, or kNil
  std::vector<std::uint32_t> hop_next_;
  std::vector<std::uint32_t> hop_owner_;  // hop -> inputs_ index
  std::vector<std::uint32_t> act_pos_;    // inputs_ index -> active_ position, kNil once done

  // The touched set: the flows sharing a link, transitively, with a flow that
  // arrived or completed in this event. Epoch stamps mark what a traversal
  // has reached, so nothing is cleared per event.
  std::vector<LinkId> seeds_;  // links whose membership changed this event
  std::uint32_t epoch_ = 0;
  std::vector<std::uint32_t> link_seen_;
  std::vector<std::uint32_t> flow_seen_;  // by inputs_ index
  std::vector<std::uint32_t> touched_;    // active_ positions, ascending

  // Scratch for the water-filling over touched_: link-indexed vectors are
  // sized to link_count, the rest grow to their peak once and are reused.
  std::vector<double> cap_rem_;
  std::vector<std::uint32_t> link_cnt_;
  std::vector<LinkId> used_links_;         // first-use order: the tie-break order
  std::vector<std::uint32_t> link_pos_;    // link -> its position in used_links_
  std::vector<std::uint32_t> link_flows_;  // per used link, its touched_ slots in order
  std::vector<std::uint32_t> flows_off_;   // position -> start of its run in link_flows_
  std::vector<char> frozen_;               // by touched_ slot

  // Min-heap of used-link positions keyed on (share, position), indexed so
  // a position's key is lowered in place. Keys lag: a link that still has
  // flows is keyed at or below its current share (DESIGN.md §15
  // "Tie-break invariant").
  struct Bottleneck {
    double share;
    std::uint32_t pos;
    bool operator<(const Bottleneck& o) const {
      return share != o.share ? share < o.share : pos < o.pos;
    }
  };
  std::vector<Bottleneck> heap_;
  std::vector<std::uint32_t> heap_slot_;  // position -> its index in heap_
  void heap_place(std::size_t slot, Bottleneck b);
  void heap_sift_up(std::size_t slot);
  void heap_sift_down(std::size_t slot);
  void heap_pop();

  // Usage recording. link_last_ lags while a flow is active: its busy
  // windows fold once per flow (DESIGN.md §15 "Sharing").
  sim::Duration usage_bin_ = sim::Duration::zero();
  std::vector<std::vector<double>> usage_;  // usage_[link][bin] = mean bytes/sec
  std::vector<double> link_bytes_;
  std::vector<sim::TimePoint> link_first_;
  std::vector<sim::TimePoint> link_last_;

  std::uint64_t events_ = 0;
  std::uint64_t recomputes_ = 0;
  std::uint64_t flows_refilled_ = 0;
};

}  // namespace amrt::flowsim

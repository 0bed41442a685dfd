// Flow-level fast path (DESIGN.md §15, ROADMAP item 4).
//
// Replaces per-packet events with fluid flows: each active flow streams
// payload at a rate set by progressive max-min sharing over the Fabric's
// link capacities. Events happen only when the rate vector can change —
// a flow arrives, a flow drains, or a grant-clock tick advances a ramp —
// so a run costs thousands of events where the packet simulator costs
// millions. An event streams only the flows whose rate it changes or that
// complete, and finds the next completion at the top of a heap, so it
// costs work in the flows it touches, not in every active flow. The
// price is per-packet effects (queueing jitter, loss, trimming); the
// flowsim_validation ctest bounds that error against the packet-level
// truth (avg FCT ±10%, p99 ±25% on small fabrics).
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
#include <span>
#include <string>
#include <vector>

#include "flowsim/fabric.hpp"
#include "flowsim/indexed_heap.hpp"
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
  // The bottleneck heap's work, summed over recomputes: links heapified,
  // pops of its top and lagging tops re-keyed to their current share.
  std::uint64_t heap_entries = 0;
  std::uint64_t heap_pops = 0;
  std::uint64_t catch_ups = 0;
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
  // run(); read back with link_usage().
  void record_link_usage(sim::Duration bin);
  [[nodiscard]] const std::vector<std::vector<double>>& link_usage() const { return usage_; }

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
  static constexpr std::uint32_t kNil = 0xffffffffU;

  struct Input {
    std::uint64_t id;
    std::uint64_t bytes;
    sim::TimePoint start;
    RateModel model;
    std::uint32_t path_off;
    std::uint32_t path_len;
  };

  // An active flow's changing state; what never changes stays in its Input.
  // The state is exact only as of settled_at: delivered is the bytes
  // streamed up to that instant, and rate has held since. A flow is settled
  // (streamed to now) only when its rate is about to change, when it
  // completes and at the horizon (DESIGN.md §15 "Lazy settling").
  struct Active {
    // Fluid payload bytes as of settled_at; the observer has been sent its
    // whole part.
    double delivered = 0.0;
    double rate = 0.0;               // payload bytes/sec, held since settled_at
    double target = 0.0;             // max-min share
    double ramp_step = 0.0;          // bytes/sec added per RTT tick while rate < target
    sim::TimePoint settled_at{};     // the instant delivered is exact at
    std::uint32_t input = 0;         // its index in inputs_
    std::uint32_t ramp_slot = kNil;  // its index in ramping_, kNil when not ramping
    std::uint32_t seen = 0;          // collect_touched's epoch stamp
    bool fresh = true;               // not yet given an initial rate
  };

  [[nodiscard]] Active& flow(std::uint32_t input) { return active_[act_pos_[input]]; }
  [[nodiscard]] std::span<const LinkId> path_of(std::uint32_t input) const {
    const Input& in = inputs_[input];
    return {path_arena_.data() + in.path_off, in.path_len};
  }
  void collect_touched();
  void recompute_targets();
  // Streams `f` over [settled_at, t) at its held rate.
  void settle(Active& f, sim::TimePoint t);
  // Settles `f` at now_ and gives it `rate` from now on, if that is new.
  void set_rate(Active& f, double rate);
  void schedule_drain(const Active& f);
  void track_ramp(Active& f);
  void retire(std::uint32_t input);
  void spread_usage(const Active& f, sim::TimePoint t);
  void apply_ramp_tick();
  [[nodiscard]] sim::Duration completion_latency(const Input& in) const;

  const Fabric& fabric_;
  FlowSimConfig cfg_;

  std::vector<Input> inputs_;
  std::vector<LinkId> path_arena_;

  std::vector<Active> active_;
  sim::TimePoint now_{};

  // Link membership, kept between events (DESIGN.md §15 "Sharing"): each
  // link threads its active flows' path hops (path_arena_ positions) on a
  // singly linked list. Sized once in run(); an arrival links its hops in
  // O(path_len), and a completed flow's hops are unlinked by the traversal
  // that its links seed.
  std::vector<std::uint32_t> link_head_;  // link -> first hop, or kNil
  std::vector<std::uint32_t> hop_next_;
  std::vector<std::uint32_t> hop_owner_;  // hop -> inputs_ index
  std::vector<std::uint32_t> act_pos_;    // inputs_ index -> active_ position, kNil once done
  stats::FlowObserver* observer_ = nullptr;  // run()'s, for the settles

  // The touched set: the flows sharing a link, transitively, with a flow that
  // arrived or completed in this event. Epoch stamps mark what a traversal
  // has reached, so nothing is cleared per event.
  std::vector<LinkId> seeds_;  // links whose membership changed this event
  std::uint32_t epoch_ = 0;
  std::vector<std::uint32_t> link_seen_;
  std::vector<std::uint64_t> touched_bits_;  // by input index; zero between walks
  std::vector<std::uint32_t> touched_;       // inputs_ indices, ascending

  // Scratch for the water-filling over touched_: link-indexed vectors are
  // sized to link_count, the rest grow to their peak once and are reused.
  std::vector<double> cap_rem_;
  std::vector<std::uint32_t> link_cnt_;
  std::vector<LinkId> used_links_;         // first-use order: the tie-break order
  std::vector<std::uint32_t> link_pos_;    // link -> its position in used_links_
  std::vector<std::uint32_t> link_flows_;  // per used link, its touched_ slots in order
  std::vector<std::uint32_t> flows_off_;   // position -> start of its run in link_flows_
  std::vector<std::uint32_t> frozen_;      // by touched_ slot, sized in run(): epoch_ once frozen

  // Min-heap of the shared links' positions keyed on (share, position), so
  // a position's key is lowered in place. Keys lag: a link that still has
  // flows is keyed at or below its current share. A link one touched flow
  // crosses is that flow's fixed cap instead: caps_ holds each flow's least
  // (share, position) over such links, sorted only once the heap's top is
  // not below the least of them (DESIGN.md §15 "Tie-break invariant").
  struct Bottleneck {
    double share;
    std::uint32_t pos;
    // Without branches: a heap's sift compares keys in no predictable way.
    bool operator<(const Bottleneck& o) const {
      return (share < o.share) | ((share == o.share) & (pos < o.pos));
    }
  };
  IndexedHeap<Bottleneck, &Bottleneck::pos> bottlenecks_;
  std::vector<Bottleneck> caps_;

  // Completion heap over active_ positions: every active flow with a
  // positive rate, keyed on the first whole nanosecond at which it has
  // drained, ties in input order. A flow is re-keyed only when its rate
  // changes (DESIGN.md §15 "Completion heap").
  struct Drain {
    sim::TimePoint at;
    std::uint32_t input;
    std::uint32_t pos;  // its active_ position, the heap id
    bool operator<(const Drain& o) const { return at != o.at ? at < o.at : input < o.input; }
  };
  IndexedHeap<Drain, &Drain::pos> drains_;

  // The flows whose rate is still ramping toward its target (ramp_step > 0),
  // as inputs_ indices in no particular order: what a grant-clock tick walks.
  std::vector<std::uint32_t> ramping_;

  // Usage recording. Every link counter lags while its flows are
  // unsettled: each settled segment adds to them (DESIGN.md §15 "Busy
  // windows").
  sim::Duration usage_bin_ = sim::Duration::zero();
  std::vector<std::vector<double>> usage_;  // usage_[link][bin] = mean bytes/sec
  std::vector<double> link_bytes_;
  std::vector<sim::TimePoint> link_first_;
  std::vector<sim::TimePoint> link_last_;

  std::uint64_t events_ = 0;
  std::uint64_t recomputes_ = 0;
  std::uint64_t flows_refilled_ = 0;
  std::uint64_t heap_entries_ = 0;
  std::uint64_t heap_pops_ = 0;
  std::uint64_t catch_ups_ = 0;
};

}  // namespace amrt::flowsim

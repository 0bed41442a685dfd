// Flow-completion-time accounting.
//
// Transports report through the FlowObserver interface; FctRecorder is the
// standard implementation and produces the AFCT / 99th-percentile / slowdown
// summaries that Fig. 12 plots.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "sim/time.hpp"
#include "util/flat_map.hpp"

namespace amrt::stats {

struct FlowRecord {
  std::uint64_t flow = 0;
  std::uint64_t bytes = 0;
  sim::TimePoint start{};
  sim::TimePoint end{};
  // Structure membership (stats/group.hpp). Transports don't know about
  // groups, so the recorder leaves these 0; GroupBook::annotate fills them
  // in from the workload schedule after the run.
  std::uint64_t group = 0;
  std::uint64_t request = 0;
  [[nodiscard]] sim::Duration fct() const { return end - start; }
};

// Implemented by metric sinks; every callback carries the virtual time.
class FlowObserver {
 public:
  virtual ~FlowObserver() = default;
  virtual void on_flow_started(std::uint64_t flow, std::uint64_t bytes, sim::TimePoint at) = 0;
  // `delta_bytes` of new payload accepted at the receiver.
  virtual void on_flow_progress(std::uint64_t flow, std::uint64_t delta_bytes, sim::TimePoint at) = 0;
  virtual void on_flow_completed(std::uint64_t flow, sim::TimePoint at) = 0;
};

struct FctSummary {
  std::size_t completed = 0;
  std::size_t started = 0;
  double afct_us = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  double mean_slowdown = 0.0;  // FCT / ideal FCT at `reference_rate`
  double max_fct_us = 0.0;
};

// The slowdown metric's denominator: a flow's wire bytes serialized at
// `rate`, plus one `base_rtt` of signalling.
struct IdealFct {
  sim::Bandwidth rate;
  sim::Duration base_rtt;
};

// Summary over the records with size in [min_bytes, max_bytes): FCT mean,
// percentiles and max, and the mean FCT/ideal slowdown. `started` is the
// number of records counted.
[[nodiscard]] FctSummary summarize(const std::vector<FlowRecord>& records, IdealFct ideal,
                                   std::uint64_t min_bytes = 0,
                                   std::uint64_t max_bytes = UINT64_MAX);

class FctRecorder final : public FlowObserver {
 public:
  // `reference_rate`: line rate used for the ideal-FCT denominator of the
  // slowdown metric; `base_rtt`: added to the ideal transfer time.
  FctRecorder(sim::Bandwidth reference_rate, sim::Duration base_rtt)
      : ideal_{reference_rate, base_rtt} {}

  void on_flow_started(std::uint64_t flow, std::uint64_t bytes, sim::TimePoint at) override;
  void on_flow_progress(std::uint64_t flow, std::uint64_t delta_bytes, sim::TimePoint at) override;
  void on_flow_completed(std::uint64_t flow, sim::TimePoint at) override;

  [[nodiscard]] const std::vector<FlowRecord>& completed() const { return completed_; }
  [[nodiscard]] std::size_t started_count() const { return started_; }
  [[nodiscard]] std::size_t incomplete_count() const { return open_.size(); }
  [[nodiscard]] std::optional<FlowRecord> record_of(std::uint64_t flow) const;

  // Summary over all completed flows, or only those with size in
  // [min_bytes, max_bytes); `started` counts every flow this recorder saw
  // start. Other record lists (a merge, a split) summarize under ideal().
  [[nodiscard]] FctSummary summarize(std::uint64_t min_bytes = 0,
                                     std::uint64_t max_bytes = UINT64_MAX) const;
  [[nodiscard]] IdealFct ideal() const { return ideal_; }

  // Total payload bytes delivered (progress callbacks), for goodput checks.
  [[nodiscard]] std::uint64_t bytes_delivered() const { return bytes_delivered_; }

  // Folds another recorder's state into this one (sharded runs keep one
  // recorder per shard; the harness merges them in shard order, which keeps
  // the combined record list deterministic for a fixed shard count).
  void merge_from(const FctRecorder& other);

  // Sharded runs: a flow starts at the sender (its shard's recorder) but
  // completes at the receiver, which may live on another shard. In
  // cross-shard mode a completion for a flow this recorder never saw is held
  // aside instead of warned about; merge_from pairs held completions with
  // starts from the other shards' recorders.
  void set_cross_shard(bool on) { cross_shard_ = on; }

  // Optional per-progress hook for time-series consumers.
  using ProgressHook = std::function<void(std::uint64_t flow, std::uint64_t delta, sim::TimePoint at)>;
  void set_progress_hook(ProgressHook hook) { progress_hook_ = std::move(hook); }

 private:
  IdealFct ideal_;
  util::FlatMap<std::uint64_t, FlowRecord> open_;
  util::FlatMap<std::uint64_t, sim::TimePoint> pending_end_;  // cross-shard only
  std::vector<FlowRecord> completed_;
  std::size_t started_ = 0;
  std::uint64_t bytes_delivered_ = 0;
  bool cross_shard_ = false;
  ProgressHook progress_hook_;
};

}  // namespace amrt::stats

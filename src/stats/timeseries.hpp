// Fixed-bin time series, used for per-flow throughput timelines
// (Figs. 1, 2, 9, 11).
#pragma once

#include <cstdint>
#include <vector>

#include "sim/time.hpp"
#include "util/flat_map.hpp"

namespace amrt::stats {

// Accumulates values into equal-width time bins starting at t=0.
class BinnedSeries {
 public:
  // Default-constructible so it can live in a FlatMap slot; a real bin
  // width is assigned before the first add().
  BinnedSeries() = default;
  explicit BinnedSeries(sim::Duration bin_width) : width_{bin_width} {}

  void add(sim::TimePoint at, double value);

  [[nodiscard]] std::size_t bins() const { return sums_.size(); }
  [[nodiscard]] double sum_at(std::size_t bin) const { return bin < sums_.size() ? sums_[bin] : 0.0; }
  [[nodiscard]] sim::TimePoint bin_start(std::size_t bin) const {
    return sim::TimePoint::zero() + width_ * static_cast<std::int64_t>(bin);
  }
  // Sum per bin divided by bin width in seconds (value/sec).
  [[nodiscard]] std::vector<double> rates() const;

 private:
  sim::Duration width_ = sim::Duration::zero();
  std::vector<double> sums_;
};

// Per-flow byte-arrival series; plug into FctRecorder::set_progress_hook.
// Rates come out in Gbps for direct comparison with link capacity.
class FlowThroughputTracker {
 public:
  explicit FlowThroughputTracker(sim::Duration bin_width) : width_{bin_width} {}

  void record(std::uint64_t flow, std::uint64_t delta_bytes, sim::TimePoint at);

  // Gbps per bin for one flow (empty if never seen).
  [[nodiscard]] std::vector<double> gbps(std::uint64_t flow) const;
  // Aggregate Gbps per bin across all flows.
  [[nodiscard]] std::vector<double> total_gbps() const;

 private:
  sim::Duration width_;
  util::FlatMap<std::uint64_t, BinnedSeries> series_;
};

}  // namespace amrt::stats

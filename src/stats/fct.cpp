#include "stats/fct.hpp"

#include <algorithm>

#include "net/packet.hpp"
#include "sim/trace.hpp"
#include "stats/summary.hpp"

namespace amrt::stats {

void FctRecorder::on_flow_started(std::uint64_t flow, std::uint64_t bytes, sim::TimePoint at) {
  ++started_;
  open_[flow] = FlowRecord{flow, bytes, at, at};
}

void FctRecorder::on_flow_progress(std::uint64_t flow, std::uint64_t delta_bytes, sim::TimePoint at) {
  bytes_delivered_ += delta_bytes;
  if (progress_hook_) progress_hook_(flow, delta_bytes, at);
}

void FctRecorder::on_flow_completed(std::uint64_t flow, sim::TimePoint at) {
  FlowRecord* rec = open_.find(flow);
  if (rec == nullptr) {
    if (cross_shard_) {
      // The start was booked on the sender's shard; hold the end time until
      // merge_from pairs the two halves.
      pending_end_[flow] = at;
    } else {
      AMRT_WARN("FctRecorder: completion for unknown flow %llu",
                static_cast<unsigned long long>(flow));
    }
    return;
  }
  rec->end = at;
  completed_.push_back(*rec);
  open_.erase(flow);
}

void FctRecorder::merge_from(const FctRecorder& other) {
  started_ += other.started_;
  bytes_delivered_ += other.bytes_delivered_;
  completed_.insert(completed_.end(), other.completed_.begin(), other.completed_.end());
  for (const auto& [flow, rec] : other.open_) open_[flow] = rec;
  for (const auto& [flow, end] : other.pending_end_) pending_end_[flow] = end;

  // Pair starts with completions recorded on different shards. Resolved
  // records are appended in flow-id order so the merged list is identical
  // for any merge order of the same per-shard recorders.
  std::vector<std::uint64_t> resolved;
  for (const auto& [flow, end] : pending_end_) {
    if (open_.find(flow) != nullptr) resolved.push_back(flow);
  }
  std::sort(resolved.begin(), resolved.end());
  for (const std::uint64_t flow : resolved) {
    FlowRecord rec = *open_.find(flow);
    rec.end = *pending_end_.find(flow);
    completed_.push_back(rec);
    open_.erase(flow);
    pending_end_.erase(flow);
  }
}

std::optional<FlowRecord> FctRecorder::record_of(std::uint64_t flow) const {
  for (const auto& r : completed_) {
    if (r.flow == flow) return r;
  }
  if (const FlowRecord* rec = open_.find(flow)) return *rec;
  return std::nullopt;
}

FctSummary FctRecorder::summarize(std::uint64_t min_bytes, std::uint64_t max_bytes) const {
  FctSummary out = stats::summarize(completed_, ideal_, min_bytes, max_bytes);
  out.started = started_;
  return out;
}

FctSummary summarize(const std::vector<FlowRecord>& records, IdealFct ideal,
                     std::uint64_t min_bytes, std::uint64_t max_bytes) {
  FctSummary out;
  std::vector<double> fcts;
  double slowdown_sum = 0.0;
  for (const auto& r : records) {
    if (r.bytes < min_bytes || r.bytes >= max_bytes) continue;
    const double fct_us = r.fct().to_micros();
    fcts.push_back(fct_us);
    const std::uint64_t pkts = net::packets_for_bytes(r.bytes);
    const auto wire_bytes =
        static_cast<std::int64_t>(r.bytes) + static_cast<std::int64_t>(pkts) * net::kHeaderBytes;
    const double ideal_us = ideal.rate.tx_time(wire_bytes).to_micros() + ideal.base_rtt.to_micros();
    slowdown_sum += fct_us / ideal_us;
    out.max_fct_us = std::max(out.max_fct_us, fct_us);
  }
  out.started = fcts.size();
  out.completed = fcts.size();
  if (!fcts.empty()) {
    double sum = 0.0;
    for (double v : fcts) sum += v;
    out.afct_us = sum / static_cast<double>(fcts.size());
    out.p50_us = percentile(fcts, 0.50);
    out.p99_us = percentile(fcts, 0.99);
    out.mean_slowdown = slowdown_sum / static_cast<double>(fcts.size());
  }
  return out;
}

}  // namespace amrt::stats

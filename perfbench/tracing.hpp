// Tracing for the benchmark's traced run: span aggregates plus wrappers that
// sit on the simulator's own extension points (PacketSink, DequeueMarker,
// FlowObserver) and time every call that crosses a layer boundary.
//
// The wrappers only forward and time; they never touch the simulation's
// state, draw randomness or schedule events, so a traced run produces the
// same flow records as an untraced one (run.py checks the digests agree).
// Per-packet spans are far too many to keep one by one, so each wrapper
// folds them into a SpanStats (count, total, log2 histogram). Every wrapper
// object keeps its own counters: a wrapper is owned by one host or port,
// which belongs to exactly one shard, so sharded runs stay race-free and
// the totals are summed after the worker threads have joined.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <chrono>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "net/marker.hpp"
#include "net/node.hpp"
#include "stats/fct.hpp"
#include "transport/endpoint.hpp"
#include "transport/flow.hpp"

namespace perfbench {

using namespace amrt;

[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// One kind of span, aggregated: hist[b] counts spans whose length in ns has
// bit width b, i.e. lies in [2^(b-1), 2^b).
struct SpanStats {
  static constexpr std::size_t kBuckets = 40;
  std::uint64_t count = 0;
  std::uint64_t total_ns = 0;
  std::array<std::uint64_t, kBuckets> hist{};

  void add(std::int64_t ns) {
    const auto v = static_cast<std::uint64_t>(std::max<std::int64_t>(ns, 0));
    ++count;
    total_ns += v;
    ++hist[std::min<std::size_t>(std::bit_width(v), kBuckets - 1)];
  }
  void merge(const SpanStats& o) {
    count += o.count;
    total_ns += o.total_ns;
    for (std::size_t b = 0; b < kBuckets; ++b) hist[b] += o.hist[b];
  }
  [[nodiscard]] double mean_ns() const {
    return count == 0 ? 0.0 : static_cast<double>(total_ns) / static_cast<double>(count);
  }
};

// > 0 while this thread is inside a transport span. Observer callbacks made
// from inside one are already part of that span's time, so the event loop's
// self time must not subtract them a second time.
inline thread_local int t_transport_depth = 0;

// --- core: the dequeue marker ------------------------------------------------

struct MarkerCounts {
  SpanStats span;
  std::uint64_t ctrl_pkts = 0;    // control frames (and trimmed headers) transmitted
  std::uint64_t anti_seen = 0;    // anti-ECN data packets arriving with CE=1
  std::uint64_t anti_kept = 0;    //   ... and leaving with CE still 1
  std::uint64_t thresh_seen = 0;  // threshold-ECN data packets arriving with CE=0
  std::uint64_t thresh_marked = 0;  // ... and leaving with CE=1

  void merge(const MarkerCounts& o) {
    span.merge(o.span);
    ctrl_pkts += o.ctrl_pkts;
    anti_seen += o.anti_seen;
    anti_kept += o.anti_kept;
    thresh_seen += o.thresh_seen;
    thresh_marked += o.thresh_marked;
  }
};

// Forwards to the real marker (including bind_queue: threshold ECN reads its
// queue's depth) and classifies the CE outcome from pkt.ce before and after.
class TracingMarker final : public net::DequeueMarker {
 public:
  explicit TracingMarker(std::unique_ptr<net::DequeueMarker> inner) : inner_{std::move(inner)} {}

  void bind_queue(const net::EgressQueue& queue) override { inner_->bind_queue(queue); }

  void on_dequeue(net::Packet& pkt, sim::TimePoint tx_start, sim::TimePoint last_tx_end,
                  sim::Bandwidth rate) override {
    const bool before = pkt.ce;
    const std::int64_t t0 = now_ns();
    inner_->on_dequeue(pkt, tx_start, last_tx_end, rate);
    counts_.span.add(now_ns() - t0);
    if (pkt.is_control()) {
      ++counts_.ctrl_pkts;
    } else if (pkt.ecn_capable && pkt.threshold_ecn) {
      if (!before) {
        ++counts_.thresh_seen;
        counts_.thresh_marked += pkt.ce ? 1 : 0;
      }
    } else if (pkt.ecn_capable && before) {
      ++counts_.anti_seen;
      counts_.anti_kept += pkt.ce ? 1 : 0;
    }
  }

  [[nodiscard]] const MarkerCounts& counts() const { return counts_; }

 private:
  std::unique_ptr<net::DequeueMarker> inner_;
  MarkerCounts counts_;
};

// --- transport: the host's packet sink and start_flow -----------------------

struct EndpointCounts {
  SpanStats deliver;  // includes the NIC enqueue (and observer calls) it triggers
  SpanStats start_flow;
  std::uint64_t rx_data = 0;
  std::uint64_t rx_ctrl = 0;

  void merge(const EndpointCounts& o) {
    deliver.merge(o.deliver);
    start_flow.merge(o.start_flow);
    rx_data += o.rx_data;
    rx_ctrl += o.rx_ctrl;
  }
};

// Owns the host's transport endpoint and stands in for it as the host's
// PacketSink; the benchmark's scheduled flow starts call start_flow here.
class TracingEndpoint final : public net::PacketSink {
 public:
  explicit TracingEndpoint(std::unique_ptr<transport::TransportEndpoint> inner)
      : inner_{std::move(inner)} {}

  void deliver(net::Packet&& pkt) override {
    ++(pkt.is_control() ? counts_.rx_ctrl : counts_.rx_data);
    ++t_transport_depth;
    const std::int64_t t0 = now_ns();
    inner_->deliver(std::move(pkt));
    counts_.deliver.add(now_ns() - t0);
    --t_transport_depth;
  }

  void start_flow(const transport::FlowSpec& spec) {
    ++t_transport_depth;
    const std::int64_t t0 = now_ns();
    inner_->start_flow(spec);
    counts_.start_flow.add(now_ns() - t0);
    --t_transport_depth;
  }

  [[nodiscard]] const EndpointCounts& counts() const { return counts_; }

 private:
  std::unique_ptr<transport::TransportEndpoint> inner_;
  EndpointCounts counts_;
};

// --- stats: the flow observer -----------------------------------------------

class TracingObserver final : public stats::FlowObserver {
 public:
  explicit TracingObserver(stats::FlowObserver& inner) : inner_{inner} {}

  void on_flow_started(std::uint64_t flow, std::uint64_t bytes, sim::TimePoint at) override {
    const std::int64_t t0 = now_ns();
    inner_.on_flow_started(flow, bytes, at);
    record(now_ns() - t0);
  }
  void on_flow_progress(std::uint64_t flow, std::uint64_t delta_bytes,
                        sim::TimePoint at) override {
    const std::int64_t t0 = now_ns();
    inner_.on_flow_progress(flow, delta_bytes, at);
    record(now_ns() - t0);
  }
  void on_flow_completed(std::uint64_t flow, sim::TimePoint at) override {
    const std::int64_t t0 = now_ns();
    inner_.on_flow_completed(flow, at);
    record(now_ns() - t0);
  }

  [[nodiscard]] const SpanStats& all() const { return all_; }
  // Calls made outside any transport span (directly from the event loop).
  [[nodiscard]] const SpanStats& top_level() const { return top_; }

 private:
  void record(std::int64_t ns) {
    all_.add(ns);
    if (t_transport_depth == 0) top_.add(ns);
  }

  stats::FlowObserver& inner_;
  SpanStats all_;
  SpanStats top_;
};

// Cost of one empty span on this machine: the floor under every per-call
// figure above. Median of several batches, so one preemption cannot skew it.
[[nodiscard]] inline double calibrate_span_ns() {
  constexpr int kBatch = 20'000;
  std::vector<double> per;
  for (int b = 0; b < 7; ++b) {
    SpanStats s;
    for (int i = 0; i < kBatch; ++i) {
      const std::int64_t t0 = now_ns();
      s.add(now_ns() - t0);
    }
    per.push_back(s.mean_ns());
  }
  std::sort(per.begin(), per.end());
  return per[per.size() / 2];
}

}  // namespace perfbench

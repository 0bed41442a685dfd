// Shared test fixture: a tiny dumbbell network (N sender hosts and N
// receiver hosts around one switch pair, built by net::build_line) with
// per-protocol endpoints, so transport tests can push real flows end-to-end
// in a few lines.
#pragma once

#include <memory>
#include <vector>

#include "core/factory.hpp"
#include "net/monitor.hpp"
#include "net/topology.hpp"
#include "stats/fct.hpp"

namespace amrt::testutil {

struct RigOptions {
  transport::Protocol proto = transport::Protocol::kAmrt;
  std::uint64_t seed = 1;
  int pairs = 1;  // sender/receiver host pairs
  sim::Bandwidth rate = sim::Bandwidth::gbps(10);
  sim::Duration delay = sim::Duration::microseconds(5);
  core::QueueConfig queues{};
  bool unscheduled = true;
  bool responsive = true;
  sim::Duration loss_timeout = sim::Duration::zero();
  int homa_overcommit = 2;
};

// senders[i] -> S0 -> S1 -> receivers[i]; the S0->S1 link is the bottleneck.
class DumbbellRig {
 public:
  explicit DumbbellRig(const RigOptions& opt) : opt_{opt}, sim_{opt.seed}, network_{sim_} {
    // Pairs are interleaved, sender under S0 then receiver under S1, so host
    // NodeIds (and NIC jitter seeds) follow pair order.
    net::LineConfig line;
    line.switches = 2;
    for (int i = 0; i < opt.pairs; ++i) line.host_switch.insert(line.host_switch.end(), {0, 1});
    line.link_rate = opt.rate;
    line.link_delay = opt.delay;
    line.queue_factory = core::make_queue_factory(opt.proto, opt.queues);
    line.marker_factory = core::make_marker_factory(opt.proto);
    const net::Line built = net::build_line(network_, line);
    bottleneck_id_ = built.right[0];
    recorder_ = std::make_unique<stats::FctRecorder>(opt.rate, built.base_rtt);

    tcfg_.host_rate = opt.rate;
    tcfg_.base_rtt = built.base_rtt;
    tcfg_.unscheduled_start = opt.unscheduled;
    tcfg_.responsive = opt.responsive;
    tcfg_.loss_timeout = opt.loss_timeout;
    tcfg_.homa_overcommit = opt.homa_overcommit;

    s0_ = &network_.switches()[0];
    s1_ = &network_.switches()[1];
    for (int i = 0; i < opt.pairs; ++i) {
      net::Host& src = *built.hosts[2 * static_cast<std::size_t>(i)];
      net::Host& dst = *built.hosts[2 * static_cast<std::size_t>(i) + 1];
      senders_.push_back(&src);
      receivers_.push_back(&dst);

      auto sep = core::make_endpoint(opt.proto, sim_, src, tcfg_, recorder_.get());
      sender_eps_.push_back(static_cast<transport::ReceiverDrivenEndpoint*>(sep.get()));
      src.attach(std::move(sep));
      auto rep = core::make_endpoint(opt.proto, sim_, dst, tcfg_, recorder_.get());
      receiver_eps_.push_back(static_cast<transport::ReceiverDrivenEndpoint*>(rep.get()));
      dst.attach(std::move(rep));
    }
  }

  // Starts `bytes` from pair i's sender to pair i's receiver at `at`.
  void start_flow(net::FlowId id, int pair, std::uint64_t bytes,
                  sim::TimePoint at = sim::TimePoint::zero()) {
    transport::FlowSpec spec{id, senders_[pair]->id(), receivers_[pair]->id(), bytes, at};
    auto* ep = sender_eps_[pair];
    sched_.at(at, [ep, spec] { ep->start_flow(spec); });
  }

  // Runs until all of `expected` flows complete or `deadline` passes;
  // returns true if everything completed.
  bool run_to_completion(std::size_t expected, sim::Duration deadline) {
    poll_ = [this, expected] {
      if (recorder_->completed().size() >= expected) {
        sched_.stop();
        return;
      }
      sched_.after(sim::Duration::microseconds(50), poll_);
    };
    sched_.after(sim::Duration::microseconds(50), poll_);
    sched_.run_until(sim::TimePoint::zero() + deadline);
    return recorder_->completed().size() >= expected;
  }

  sim::Simulation& sim() { return sim_; }
  sim::Scheduler& sched() { return sim_.scheduler(); }
  net::Network& network() { return network_; }
  stats::FctRecorder& recorder() { return *recorder_; }
  net::EgressPort& bottleneck() { return network_.port_at(bottleneck_id_); }
  net::Switch& s0() { return *s0_; }
  net::Switch& s1() { return *s1_; }
  net::Host& sender(int i) { return *senders_[i]; }
  net::Host& receiver(int i) { return *receivers_[i]; }
  transport::ReceiverDrivenEndpoint& sender_ep(int i) { return *sender_eps_[i]; }
  transport::ReceiverDrivenEndpoint& receiver_ep(int i) { return *receiver_eps_[i]; }
  const transport::TransportConfig& tcfg() const { return tcfg_; }

 private:
  RigOptions opt_;
  sim::Simulation sim_;
  sim::Scheduler& sched_ = sim_.scheduler();
  net::Network network_;
  std::unique_ptr<stats::FctRecorder> recorder_;
  net::Switch* s0_ = nullptr;
  net::Switch* s1_ = nullptr;
  net::PortId bottleneck_id_ = -1;
  std::vector<net::Host*> senders_;
  std::vector<net::Host*> receivers_;
  std::vector<transport::ReceiverDrivenEndpoint*> sender_eps_;
  std::vector<transport::ReceiverDrivenEndpoint*> receiver_eps_;
  transport::TransportConfig tcfg_;
  std::function<void()> poll_;
};

inline constexpr transport::Protocol kAllProtocols[] = {
    transport::Protocol::kAmrt, transport::Protocol::kPhost, transport::Protocol::kHoma,
    transport::Protocol::kNdp};

}  // namespace amrt::testutil

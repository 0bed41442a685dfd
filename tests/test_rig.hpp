// Shared test fixture: a tiny dumbbell network (N sender hosts and N
// receiver hosts around one switch pair) with per-protocol endpoints, so
// transport tests can push real flows end-to-end in a few lines.
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
    const auto base_rtt = net::path_base_rtt(3, opt.rate, opt.delay);
    recorder_ = std::make_unique<stats::FctRecorder>(opt.rate, base_rtt);

    auto qf = core::make_queue_factory(opt.proto, opt.queues);
    auto mf = core::make_marker_factory(opt.proto);
    auto marker = [&]() -> std::unique_ptr<net::DequeueMarker> { return mf ? mf() : nullptr; };

    const net::SwitchId s0 = network_.add_switch();
    const net::SwitchId s1 = network_.add_switch();
    bottleneck_id_ =
        network_.add_switch_port(s0, network_.id_of(s1), opt.rate, opt.delay, qf(false), marker());
    network_.add_switch_port(s1, network_.id_of(s0), opt.rate, opt.delay, qf(false), marker());

    transport::TransportConfig tcfg;
    tcfg.host_rate = opt.rate;
    tcfg.base_rtt = base_rtt;
    tcfg.unscheduled_start = opt.unscheduled;
    tcfg.responsive = opt.responsive;
    tcfg.loss_timeout = opt.loss_timeout;
    tcfg.homa_overcommit = opt.homa_overcommit;
    tcfg_ = tcfg;

    // Wire everything first — pool references are stable only once the
    // topology stops growing.
    std::vector<net::HostId> src_ids;
    std::vector<net::HostId> dst_ids;
    for (int i = 0; i < opt.pairs; ++i) {
      const net::HostId src = network_.add_host(opt.rate, opt.delay, qf(true));
      const net::HostId dst = network_.add_host(opt.rate, opt.delay, qf(true));
      const net::PortId src_down = network_.attach_host(src, s0, qf(false), marker());
      const net::PortId dst_down = network_.attach_host(dst, s1, qf(false), marker());
      network_.switch_at(s0).routes().add_route(network_.id_of(src), src_down);
      network_.switch_at(s1).routes().add_route(network_.id_of(dst), dst_down);
      // via bottleneck / reverse path
      network_.switch_at(s0).routes().add_route(network_.id_of(dst), bottleneck_id_);
      network_.switch_at(s1).routes().add_route(network_.id_of(src),
                                                network_.switch_at(s1).port_id(0));
      src_ids.push_back(src);
      dst_ids.push_back(dst);
    }
    s0_ = &network_.switch_at(s0);
    s1_ = &network_.switch_at(s1);
    for (int i = 0; i < opt.pairs; ++i) {
      net::Host& src = network_.host(src_ids[i]);
      net::Host& dst = network_.host(dst_ids[i]);
      senders_.push_back(&src);
      receivers_.push_back(&dst);

      auto sep = core::make_endpoint(opt.proto, sim_, src, tcfg, recorder_.get());
      sender_eps_.push_back(static_cast<transport::ReceiverDrivenEndpoint*>(sep.get()));
      src.attach(std::move(sep));
      auto rep = core::make_endpoint(opt.proto, sim_, dst, tcfg, recorder_.get());
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

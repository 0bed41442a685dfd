#include "fault/fault.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <unordered_map>

#include "net/network.hpp"
#include "sim/scheduler.hpp"

namespace amrt::fault {

const char* to_string(FaultKind k) {
  switch (k) {
    case FaultKind::kLinkDown: return "link-down";
    case FaultKind::kLinkUp: return "link-up";
    case FaultKind::kRateScale: return "rate-scale";
    case FaultKind::kDropProb: return "drop-prob";
  }
  return "?";
}

void FaultPlan::flap(std::int32_t port, sim::TimePoint at, sim::Duration outage) {
  add(FaultEvent{at, port, FaultKind::kLinkDown, 0.0});
  add(FaultEvent{at + outage, port, FaultKind::kLinkUp, 0.0});
}

void FaultPlan::rate_dip(std::int32_t port, sim::TimePoint at, double scale,
                         sim::Duration window) {
  add(FaultEvent{at, port, FaultKind::kRateScale, scale});
  add(FaultEvent{at + window, port, FaultKind::kRateScale, 1.0});
}

void FaultPlan::blackhole(std::int32_t port, sim::TimePoint at, double prob,
                          sim::Duration window) {
  add(FaultEvent{at, port, FaultKind::kDropProb, prob});
  add(FaultEvent{at + window, port, FaultKind::kDropProb, 0.0});
}

void FaultPlan::draw(sim::Rng& rng, const std::vector<std::int32_t>& ports,
                     sim::Duration base_rtt, std::uint64_t incidents) {
  if (ports.empty()) return;
  for (std::uint64_t i = 0; i < incidents; ++i) {
    const std::int32_t port = ports[rng.index(ports.size())];
    const auto start =
        sim::TimePoint::zero() + base_rtt * static_cast<std::uint32_t>(rng.uniform_int(0, 200));
    const auto window = base_rtt * static_cast<std::uint32_t>(rng.uniform_int(2, 16));
    const double roll = rng.uniform(0.0, 1.0);
    if (roll < 0.45) {
      flap(port, start, window);
    } else if (roll < 0.80) {
      blackhole(port, start, rng.uniform(0.2, 0.9), window);
    } else {
      rate_dip(port, start, rng.uniform(0.1, 0.5), window);
    }
  }
}

std::vector<std::int32_t> switch_ports(const net::Network& net) {
  std::vector<std::int32_t> ports;
  for (const auto& sw : net.switches()) {
    for (int i = 0; i < sw.port_count(); ++i) ports.push_back(sw.port_id(i));
  }
  return ports;
}

namespace {

[[noreturn]] void bad_plan(const FaultEvent& e, const char* why) {
  throw std::invalid_argument(std::string{"FaultPlan: "} + why + " (event " + to_string(e.kind) +
                              " port " + std::to_string(e.port) + " at " + e.at.str() + ")");
}

}  // namespace

void FaultPlan::validate(std::size_t port_count) const {
  // Terminal state per port, in time order (stable across equal timestamps:
  // a down and its up may share an instant, the up wins by plan order).
  std::vector<const FaultEvent*> ordered;
  ordered.reserve(events_.size());
  for (const FaultEvent& e : events_) ordered.push_back(&e);
  std::stable_sort(ordered.begin(), ordered.end(),
                   [](const FaultEvent* a, const FaultEvent* b) { return a->at < b->at; });

  struct PortEnd {
    bool down = false;
    double rate = 1.0;
    double prob = 0.0;
  };
  std::unordered_map<std::int32_t, PortEnd> end_state;
  for (const FaultEvent* e : ordered) {
    if (e->port < 0 || static_cast<std::size_t>(e->port) >= port_count) {
      bad_plan(*e, "port outside the network's port pool");
    }
    if (e->at < sim::TimePoint::zero()) bad_plan(*e, "event before t=0");
    PortEnd& s = end_state[e->port];
    switch (e->kind) {
      case FaultKind::kLinkDown:
        s.down = true;
        break;
      case FaultKind::kLinkUp:
        s.down = false;
        break;
      case FaultKind::kRateScale:
        if (e->value <= 0.0 || e->value > 1.0) bad_plan(*e, "rate scale outside (0, 1]");
        s.rate = e->value;
        break;
      case FaultKind::kDropProb:
        if (e->value < 0.0 || e->value > 1.0) bad_plan(*e, "drop probability outside [0, 1]");
        s.prob = e->value;
        break;
    }
  }
  for (const auto& [port, s] : end_state) {
    const FaultEvent probe{sim::TimePoint::zero(), port, FaultKind::kLinkDown, 0.0};
    if (s.down) bad_plan(probe, "unbounded outage: link left down at the end of the plan");
    if (s.rate != 1.0) bad_plan(probe, "unbounded degradation: rate never restored to 1.0");
    if (s.prob != 0.0) bad_plan(probe, "unbounded blackhole: drop probability never cleared");
  }
}

FaultInjector::FaultInjector(net::Network& net, FaultPlan plan)
    : net_{net}, plan_{std::move(plan)} {
  plan_.validate(net_.port_count());
}

void FaultInjector::arm() {
  if (armed_ || plan_.empty()) return;
  armed_ = true;
  sim::Scheduler& sched = net_.scheduler();
  for (const FaultEvent& e : plan_.events()) {
    sched.at(e.at, [this, &e] { apply(e); });
  }
}

void FaultInjector::apply(const FaultEvent& e) {
  switch (e.kind) {
    case FaultKind::kLinkDown:
      net_.set_link_up(e.port, false);
      ++stats_.link_transitions;
      break;
    case FaultKind::kLinkUp:
      net_.set_link_up(e.port, true);
      ++stats_.link_transitions;
      break;
    case FaultKind::kRateScale:
      net_.set_port_rate_scale(e.port, e.value);
      ++stats_.rate_changes;
      break;
    case FaultKind::kDropProb:
      // Mix the plan seed with the port so concurrent blackholes draw
      // independent, reproducible streams.
      net_.set_port_drop_prob(e.port, e.value,
                              plan_.seed ^ (0x9E3779B97F4A7C15ULL * (static_cast<std::uint64_t>(e.port) + 1)));
      ++stats_.prob_changes;
      break;
  }
}

}  // namespace amrt::fault

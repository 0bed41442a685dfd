// Fault-injection subsystem: deterministic, seeded failure schedules for
// the simulated fabric.
//
// A `FaultPlan` is data — an ordered list of timed events against egress
// ports (link down/up, rate degradation, probabilistic blackholing) plus a
// seed for the per-port blackhole streams. Plans are built by hand (unit
// tests), drawn from a seeded stream (harness::fuzz), or parsed from CLI
// knobs (tools), then validated: every perturbation must be restored, so a
// plan describes a *bounded* outage the transports are expected to survive.
//
// A `FaultInjector` arms a plan against a `net::Network`: each event becomes
// one scheduler event that flips the port's state through Network's fault
// API (which also bumps the link-state epoch so ECMP reroutes; see
// RoutingTable::bind_link_state). Everything is driven off the simulation
// clock and the plan's own seed, so runs replay bit-identically and an
// empty plan leaves the simulation byte-for-byte unchanged.
//
// Loss accounting: packets consumed by faults are charged to the owning
// port's `packets_faulted()` counter and, in audit builds, to the ledger's
// `faulted` debit (DropReason::kLinkDown / kBlackhole) — packet and byte
// conservation still close under injected failures. See DESIGN.md §11.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/rng.hpp"
#include "sim/time.hpp"

namespace amrt::net {
class Network;
}

namespace amrt::fault {

enum class FaultKind : std::uint8_t {
  kLinkDown,   // take the port's link down (flushes its queue)
  kLinkUp,     // bring it back
  kRateScale,  // scale the port's line rate by `value` (1.0 restores)
  kDropProb,   // blackhole each enqueued packet with probability `value`
};

[[nodiscard]] const char* to_string(FaultKind k);

struct FaultEvent {
  sim::TimePoint at{};
  std::int32_t port = -1;  // net::PortId (global pool slot)
  FaultKind kind = FaultKind::kLinkDown;
  double value = 0.0;  // kRateScale: factor in (0,1]; kDropProb: prob in [0,1]
};

class FaultPlan {
 public:
  // Seed for the per-port blackhole RNG streams (mixed with the port id, so
  // two blackholed ports drop independently but reproducibly).
  std::uint64_t seed = 1;

  void add(const FaultEvent& e) { events_.push_back(e); }

  // --- convenience builders (each schedules the matching restore) ---------
  // Hard failure: down at `at`, up again after `outage`.
  void flap(std::int32_t port, sim::TimePoint at, sim::Duration outage);
  // Degraded link: rate scaled to `scale` at `at`, restored after `window`.
  void rate_dip(std::int32_t port, sim::TimePoint at, double scale, sim::Duration window);
  // Lossy window: packets blackholed with `prob` during [at, at + window).
  void blackhole(std::int32_t port, sim::TimePoint at, double prob, sim::Duration window);

  [[nodiscard]] const std::vector<FaultEvent>& events() const { return events_; }
  [[nodiscard]] bool empty() const { return events_.empty(); }
  [[nodiscard]] std::size_t size() const { return events_.size(); }

  // Draws `incidents` random bounded incidents against `ports` into this
  // plan: a link flap (45%), a blackhole window (35%) or a rate dip (20%),
  // each starting within [0, 200] x base_rtt and lasting 2..16 x base_rtt.
  // Consumes a fixed number of draws per incident from `rng`, so callers
  // embedding this in a larger parameter stream keep replay stability.
  void draw(sim::Rng& rng, const std::vector<std::int32_t>& ports, sim::Duration base_rtt,
            std::uint64_t incidents);

  // Structural validation: ports within [0, port_count), values in range,
  // and the plan bounded — every down is eventually matched by an up, every
  // degradation and blackhole window is eventually restored. Throws
  // std::invalid_argument with the offending event's description.
  void validate(std::size_t port_count) const;

 private:
  std::vector<FaultEvent> events_;
};

// Every switch egress port of `net`, in network.switches() order and port
// order within a switch: the pool random fault plans draw against. Host NICs
// never fault: they are the measurement reference point (a sender
// serializes at its configured rate at least once).
[[nodiscard]] std::vector<std::int32_t> switch_ports(const net::Network& net);

// Applies a plan to a network: validates it, then schedules one simulation
// event per FaultEvent. The injector must outlive the run (it owns the plan
// the scheduled callbacks read).
class FaultInjector {
 public:
  struct Stats {
    std::uint64_t link_transitions = 0;  // downs + ups actually applied
    std::uint64_t rate_changes = 0;
    std::uint64_t prob_changes = 0;
  };

  FaultInjector(net::Network& net, FaultPlan plan);

  // Schedules every event of the plan. Call once, before the run starts
  // (events in the simulated past would violate clock monotonicity).
  void arm();

  [[nodiscard]] const FaultPlan& plan() const { return plan_; }
  [[nodiscard]] const Stats& stats() const { return stats_; }

 private:
  void apply(const FaultEvent& e);

  net::Network& net_;
  FaultPlan plan_;
  Stats stats_;
  bool armed_ = false;
};

}  // namespace amrt::fault

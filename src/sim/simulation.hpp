// The owning context of one simulation run.
//
// `Simulation` bundles the per-run mutable state — the event loop
// (`Scheduler`), the seeded random stream (`Rng`) and the audit ledger —
// behind a single object that is threaded through every constructor in
// `net::`, `transport::` and `harness::`.
// Nothing a simulation touches lives outside its Simulation, which is what
// lets `harness::SweepRunner` run many of them on concurrent threads with
// bit-identical results to serial execution.
#pragma once

#include <cstdint>
#include <utility>

#include "sim/rng.hpp"
#include "sim/scheduler.hpp"

namespace amrt::sim {

class Simulation {
 public:
  explicit Simulation(std::uint64_t seed = 1) : rng_{seed} {
    // The auditor lives and dies with the run (per-Simulation state, so
    // parallel sweeps never share a check path). In builds without
    // AMRT_AUDIT this binds a stateless stub and compiles to nothing.
    sched_.set_auditor(&auditor_);
  }
  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  [[nodiscard]] Scheduler& scheduler() { return sched_; }
  [[nodiscard]] const Scheduler& scheduler() const { return sched_; }
  [[nodiscard]] Rng& rng() { return rng_; }
  [[nodiscard]] audit::Auditor& auditor() { return auditor_; }
  [[nodiscard]] const audit::Auditor& auditor() const { return auditor_; }

  // Clock and event-loop conveniences, so most callers never name the
  // scheduler explicitly.
  [[nodiscard]] TimePoint now() const { return sched_.now(); }
  template <typename F>
  Scheduler::Handle at(TimePoint when, F&& cb) {
    return sched_.at(when, std::forward<F>(cb));
  }
  template <typename F>
  Scheduler::Handle after(Duration delay, F&& cb) {
    return sched_.after(delay, std::forward<F>(cb));
  }
  void run() { sched_.run(); }
  void run_until(TimePoint until) { sched_.run_until(until); }
  void stop() { sched_.stop(); }
  [[nodiscard]] std::uint64_t events_processed() const { return sched_.events_processed(); }

 private:
  Scheduler sched_;
  Rng rng_;
  audit::Auditor auditor_;
};

}  // namespace amrt::sim

// The discrete-event scheduler: virtual clock plus the event loop.
//
// Every component in the simulator holds a `Scheduler&` and expresses all
// timing through `at`/`after`. Time only advances inside `run*`; callbacks
// always observe `now()` equal to their own firing time.
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <stdexcept>

#include "audit/auditor.hpp"
#include "sim/event_queue.hpp"
#include "sim/time.hpp"

namespace amrt::sim {

class Scheduler {
 public:
  using Callback = EventQueue::Callback;
  using Handle = EventQueue::Handle;

  Scheduler() = default;
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  [[nodiscard]] TimePoint now() const { return now_; }

  // Schedule `cb` at an absolute instant; `when` must not be in the past.
  // Templated so lambdas are constructed directly in the event record.
  template <typename F>
  Handle at(TimePoint when, F&& cb) {
    if (when < now_) throw std::logic_error("Scheduler::at: scheduling into the past");
    return queue_.push(when, std::forward<F>(cb));
  }
  // Schedule `cb` after a non-negative delay from now.
  template <typename F>
  Handle after(Duration delay, F&& cb) {
    if (delay < Duration::zero()) throw std::logic_error("Scheduler::after: negative delay");
    return queue_.push(now_ + delay, std::forward<F>(cb));
  }

  // Fire-and-forget lane: no Handle, no cancellation, half the per-event
  // bookkeeping. Use for events that are never cancelled and capture only a
  // context pointer (the port serializer wakeup is the canonical case).
  void at_raw(TimePoint when, EventQueue::RawFn fn, void* ctx) {
    if (when < now_) throw std::logic_error("Scheduler::at_raw: scheduling into the past");
    queue_.push_raw(when, fn, ctx);
  }

  // Runs until the event set is exhausted (or stop()/limits hit).
  void run();
  // Runs events with timestamp <= `until`, then sets the clock to `until`.
  void run_until(TimePoint until);
  // Runs events with timestamp strictly < `end` (or until stop()/limits) and
  // leaves the clock at the last fired event. The sharded driver
  // (net/partition.hpp) executes one conservative time window per call;
  // windows are half-open so a message produced at t and delivered at
  // exactly t + lookahead lands in the *next* window, never this one. A
  // serial harness run is one window that ends just past its horizon.
  void run_window(TimePoint end);
  // Timestamp of the earliest pending event, if any. The shard coordinator
  // uses the global minimum to skip idle windows.
  [[nodiscard]] std::optional<TimePoint> next_event_time() { return queue_.next_time(); }
  // Requests the current run loop to return after the in-flight callback.
  void stop() { stopped_ = true; }

  [[nodiscard]] std::uint64_t events_processed() const { return processed_; }
  [[nodiscard]] bool idle() const { return queue_.empty(); }
  // Events scheduled and not yet fired/cancelled (telemetry).
  [[nodiscard]] std::size_t pending_events() const { return queue_.live_size(); }
  [[nodiscard]] EventQueue::WheelStats wheel_stats() const { return queue_.wheel_stats(); }

  // Safety valve for runaway simulations (0 = unlimited).
  void set_event_limit(std::uint64_t limit) { event_limit_ = limit; }

  // Invariant auditor attached to this run (normally by the owning
  // Simulation). In builds without AMRT_AUDIT `auditor()` is a constexpr
  // nullptr, so every `if (auto* a = sched.auditor()) a->hook(...)` site —
  // arguments included — is dead code the compiler removes.
#ifdef AMRT_AUDIT
  void set_auditor(audit::Auditor* a) { auditor_ = a; }
  [[nodiscard]] audit::Auditor* auditor() const { return auditor_; }
#else
  void set_auditor(audit::Auditor* /*a*/) {}
  [[nodiscard]] static constexpr audit::Auditor* auditor() { return nullptr; }
#endif

 private:
  bool dispatch_next(TimePoint horizon);

  EventQueue queue_;
  TimePoint now_ = TimePoint::zero();
  std::uint64_t processed_ = 0;
  std::uint64_t event_limit_ = 0;
  bool stopped_ = false;
#ifdef AMRT_AUDIT
  audit::Auditor* auditor_ = nullptr;
#endif
};

}  // namespace amrt::sim

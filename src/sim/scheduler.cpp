#include "sim/scheduler.hpp"

namespace amrt::sim {

bool Scheduler::dispatch_next(TimePoint horizon) {
  return queue_.fire_next(horizon, [this](TimePoint when) {
#ifdef AMRT_AUDIT
    if (auditor_ != nullptr) auditor_->on_event_fire(when.ns(), now_.ns());
#endif
    now_ = when;
    ++processed_;
  });
}

void Scheduler::run() {
  stopped_ = false;
  while (!stopped_) {
    if (event_limit_ != 0 && processed_ >= event_limit_) break;
    if (!dispatch_next(TimePoint::max())) break;
  }
}

void Scheduler::run_window(TimePoint end) {
  // Timestamps are integral nanoseconds, so "strictly before end" is the
  // same horizon as "at or before end - 1ns". Unlike run_until, the clock is
  // NOT bumped to the window edge: at() during the next window's injection
  // phase must still accept deliveries anywhere >= the last fired event.
  const TimePoint horizon = TimePoint::from_ns(end.ns() - 1);
  stopped_ = false;
  while (!stopped_) {
    if (event_limit_ != 0 && processed_ >= event_limit_) break;
    if (!dispatch_next(horizon)) break;
  }
}

void Scheduler::run_until(TimePoint until) {
  stopped_ = false;
  while (!stopped_) {
    if (event_limit_ != 0 && processed_ >= event_limit_) break;
    if (!dispatch_next(until)) break;
  }
  // stop() freezes the clock where the stopping event fired; an exhausted
  // horizon advances it to `until`.
  if (!stopped_ && now_ < until) now_ = until;
}

}  // namespace amrt::sim

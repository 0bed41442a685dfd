#include "flowsim/flowsim.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>

namespace amrt::flowsim {

namespace {
constexpr double kDoneEps = 1e-3;  // bytes: below this a flow is drained
// Cap on a drain's distance (~146 years): far past any horizon, and no
// overflow when added to one.
constexpr double kFarNs = 4.6e18;
}

const char* to_string(RateModel m) {
  switch (m) {
    case RateModel::kInstant: return "instant";
    case RateModel::kAmrtGrantClock: return "amrt";
    case RateModel::kDctcpThreshold: return "dctcp";
    case RateModel::kTraditional: return "traditional";
  }
  return "?";
}

FlowSim::FlowSim(const Fabric& fabric, FlowSimConfig cfg) : fabric_{fabric}, cfg_{std::move(cfg)} {
  if (cfg_.rtt <= sim::Duration::zero()) {
    throw std::invalid_argument("FlowSim: rtt must be positive");
  }
  if (cfg_.payload_fraction <= 0.0 || cfg_.payload_fraction > 1.0) {
    throw std::invalid_argument("FlowSim: payload_fraction must be in (0, 1]");
  }
  const std::size_t n = fabric.link_count();
  cap_rem_.assign(n, 0.0);
  link_cnt_.assign(n, 0);
  link_bytes_.assign(n, 0.0);
  link_first_.assign(n, sim::TimePoint::max());
  link_last_.assign(n, sim::TimePoint::zero());
}

void FlowSim::add_flow(std::uint64_t id, std::size_t src, std::size_t dst, std::uint64_t bytes,
                       sim::TimePoint start, RateModel model) {
  if (bytes == 0) throw std::invalid_argument("FlowSim: zero-byte flow");
  Input in;
  in.id = id;
  in.bytes = bytes;
  in.start = start;
  in.model = model;
  in.path_off = static_cast<std::uint32_t>(path_arena_.size());
  fabric_.path(id, src, dst, path_arena_);
  in.path_len = static_cast<std::uint32_t>(path_arena_.size()) - in.path_off;
  inputs_.push_back(in);
}

void FlowSim::record_link_usage(sim::Duration bin) {
  if (bin <= sim::Duration::zero()) {
    throw std::invalid_argument("FlowSim: usage bin must be positive");
  }
  usage_bin_ = bin;
  usage_.assign(fabric_.link_count(), {});
}

sim::Duration FlowSim::completion_latency(const Input& in) const {
  return cfg_.prop_delay * static_cast<std::int64_t>(in.path_len) +
         cfg_.mtu_tx * static_cast<std::int64_t>(in.path_len > 0 ? in.path_len - 1 : 0) +
         cfg_.fixed_latency;
}

void FlowSim::collect_touched() {
  // Walk link -> member flow -> its links from every seed; seeds_ doubles as
  // the work stack and is empty again on return. A completed flow's links
  // are all seeds, so its hops are unlinked here, in the event it leaves.
  // Each flow reached sets its input's bit, in words [lo, hi).
  ++epoch_;
  std::size_t lo = touched_bits_.size();
  std::size_t hi = 0;
  while (!seeds_.empty()) {
    const LinkId l = seeds_.back();
    seeds_.pop_back();
    if (link_seen_[l] == epoch_) continue;
    link_seen_[l] = epoch_;
    for (std::uint32_t* link = &link_head_[l]; *link != kNil;) {
      const std::uint32_t h = *link;
      const std::uint32_t in = hop_owner_[h];
      if (act_pos_[in] == kNil) {
        *link = hop_next_[h];
        continue;
      }
      link = &hop_next_[h];
      Active& f = flow(in);
      if (f.seen == epoch_) continue;
      f.seen = epoch_;
      touched_bits_[in / 64] |= std::uint64_t{1} << (in % 64);
      lo = std::min<std::size_t>(lo, in / 64);
      hi = std::max<std::size_t>(hi, in / 64 + 1);
      for (const LinkId next : path_of(in)) {
        if (link_seen_[next] != epoch_) seeds_.push_back(next);
      }
    }
  }
  // Read the bits out in input order, the arrival order: the order every
  // list and loop below must follow. Reading a word clears it.
  touched_.clear();
  for (std::size_t w = lo; w < hi; ++w) {
    for (std::uint64_t bits = std::exchange(touched_bits_[w], 0); bits != 0; bits &= bits - 1) {
      touched_.push_back(static_cast<std::uint32_t>(w * 64 + std::countr_zero(bits)));
    }
  }
}

void FlowSim::recompute_targets() {
  ++recomputes_;
  collect_touched();
  flows_refilled_ += touched_.size();
  const std::size_t n = touched_.size();
  const double rtt_s = cfg_.rtt.to_seconds();
  const double slot_step = cfg_.mtu_bytes / rtt_s;  // one packet slot per RTT, bytes/sec

  // Per-link touched-flow counts and payload capacities, over the links the
  // touched flows cross, in first-use order. The touched set is a union of
  // whole components, so these counts are the links' full memberships.
  used_links_.clear();
  for (const std::uint32_t in : touched_) {
    for (const LinkId l : path_of(in)) {
      if (link_cnt_[l] == 0) {
        link_pos_[l] = static_cast<std::uint32_t>(used_links_.size());
        used_links_.push_back(l);
        cap_rem_[l] = fabric_.capacity_bps(l) / 8.0 * cfg_.payload_fraction;
      }
      ++link_cnt_[l];
    }
  }

  // Link -> flow lists (touched_ slots), indexed by position. Filling back to
  // front leaves each list in input order, the order the freezes below
  // subtract in.
  const std::size_t n_used = used_links_.size();
  flows_off_.resize(n_used + 1);
  std::uint32_t total = 0;
  for (std::size_t p = 0; p < n_used; ++p) {
    total += link_cnt_[used_links_[p]];
    flows_off_[p] = total;
  }
  flows_off_[n_used] = total;
  link_flows_.resize(total);
  for (std::size_t k = n; k-- > 0;) {
    for (const LinkId l : path_of(touched_[k])) {
      link_flows_[--flows_off_[link_pos_[l]]] = static_cast<std::uint32_t>(k);
    }
  }

  // A link one touched flow crosses keeps its share, cap_rem_/1, until that
  // flow freezes: a fixed cap on the flow, which needs no heap entry. Each
  // flow's least (share, position) over such links goes to caps_. A flow
  // alone on every link it crosses is touched by no other freeze, so
  // water-filling would give it its least cap whenever its turn came:
  // settle it now.
  constexpr Bottleneck kNoCap{std::numeric_limits<double>::infinity(), kNil};
  caps_.clear();
  Bottleneck least_cap = kNoCap;
  std::size_t left = n;
  for (std::size_t k = 0; k < n; ++k) {
    const auto path = path_of(touched_[k]);
    Bottleneck cap = kNoCap;
    bool shared = false;
    for (const LinkId l : path) {
      if (link_cnt_[l] == 1) {
        cap = std::min(cap, Bottleneck{cap_rem_[l], link_pos_[l]});
      } else {
        shared = true;
      }
    }
    if (shared) {
      if (cap.pos != kNil) {
        caps_.push_back(cap);
        least_cap = std::min(least_cap, cap);
      }
      continue;
    }
    flow(touched_[k]).target = cap.share;
    for (const LinkId l : path) link_cnt_[l] = 0;
    --left;
  }

  // Water-filling: repeatedly freeze every flow crossing the current
  // bottleneck (the link with the smallest per-flow share, the first in
  // used_links_ order on a tie) at that share. The shared links are in the
  // heap while they have flows: one leaves it when its last flow freezes.
  // Keys lag: every entry is keyed at or below its link's current share, so
  // a top whose key is current is the least shared (share, position) pair.
  // least_cap is at or below the least cap not yet taken, and equal to it
  // once refreshed: only a top not below it needs the refresh, which sorts
  // caps_ the first time. A cap whose flow already froze on a shared link
  // is taken and freezes nothing.
  const auto share_of = [&](LinkId l) {
    return cap_rem_[l] / static_cast<double>(link_cnt_[l]);
  };
  bottlenecks_.clear();
  for (std::uint32_t p = 0; p < n_used; ++p) {
    if (link_cnt_[used_links_[p]] < 2) continue;
    bottlenecks_.append({share_of(used_links_[p]), p});
    ++heap_entries_;
  }
  bottlenecks_.heapify();
  bool caps_sorted = false;
  std::size_t next_cap = 0;
  // An unfrozen flow that is not isolated keeps a shared link with flows, so
  // the heap holds an entry while any flow is left.
  while (left > 0) {
    const Bottleneck top = bottlenecks_.top();
    const double share = share_of(used_links_[top.pos]);
    if (top.share < share) {  // behind its share: catch up before use
      bottlenecks_.set({share, top.pos});
      ++catch_ups_;
      continue;
    }
    if (!(top < least_cap)) {
      if (!caps_sorted) {
        std::sort(caps_.begin(), caps_.end());
        caps_sorted = true;
      }
      least_cap = next_cap < caps_.size() ? caps_[next_cap] : kNoCap;
    }
    Bottleneck b = top;
    if (least_cap < top) {
      b = least_cap;
      ++next_cap;
    } else {
      bottlenecks_.pop();
      ++heap_pops_;
    }
    const LinkId bl = used_links_[b.pos];
    for (std::uint32_t k = flows_off_[b.pos]; k < flows_off_[b.pos + 1]; ++k) {
      const std::uint32_t slot = link_flows_[k];
      if (frozen_[slot] == epoch_) continue;
      frozen_[slot] = epoch_;
      --left;
      flow(touched_[slot]).target = b.share;
      for (const LinkId l : path_of(touched_[slot])) {
        cap_rem_[l] = std::max(0.0, cap_rem_[l] - b.share);
        const std::uint32_t at = link_pos_[l];
        if (--link_cnt_[l] == 0) {  // its flows all froze: it leaves the heap
          if (bottlenecks_.contains(at)) bottlenecks_.erase(at);
          continue;
        }
        if (l == bl) continue;
        // A raised share may wait; one that rounding left below its key
        // (an ulp, on a co-bottleneck) restores the invariant now.
        const double now_share = share_of(l);
        if (now_share < bottlenecks_.entry(at).share) bottlenecks_.set({now_share, at});
      }
    }
  }
  for (const LinkId l : used_links_) link_cnt_[l] = 0;  // restore the zeroed invariant

  // Model transitions: how each touched flow's actual rate tracks its new
  // share. An untouched flow kept its target, and re-running its transition
  // would change nothing (DESIGN.md §15 "Sharing").
  for (const std::uint32_t in : touched_) {
    Active& f = flow(in);
    if (f.fresh) {
      // Arrival: the unscheduled burst plus an immediately-scheduled grant
      // clock put a new flow at its share within the first RTT.
      f.fresh = false;
      set_rate(f, f.target);
      continue;
    }
    switch (inputs_[in].model) {
      case RateModel::kInstant:
        set_rate(f, f.target);
        break;
      case RateModel::kTraditional:
        // Eq. 6: grants lost to a rate reduction are never re-marked.
        if (f.target < f.rate) set_rate(f, f.target);
        break;
      case RateModel::kAmrtGrantClock:
        if (f.target <= f.rate) {
          set_rate(f, f.target);  // the grant clock cuts within one RTT
          f.ramp_step = 0.0;
        } else if (f.ramp_step <= 0.0) {
          // Refill episode begins at pre-drop rate R0. Earliest (Eq. 4/7):
          // the filled slots re-mark every RTT, +R0 per RTT. Latest
          // (Eq. 5/8): consecutive vacancies refill one slot per RTT.
          f.ramp_step = cfg_.amrt_ramp_latest ? slot_step : std::max(f.rate, slot_step);
        }
        break;
      case RateModel::kDctcpThreshold:
        if (f.target <= f.rate) {
          set_rate(f, f.target);
          f.ramp_step = 0.0;
        } else if (f.ramp_step <= 0.0) {
          f.ramp_step = cfg_.mss_bytes / rtt_s;  // additive increase, 1 MSS/RTT
        }
        break;
    }
    track_ramp(f);
  }
}

void FlowSim::apply_ramp_tick() {
  // Backwards, so a flow that reaches its target swaps a visited one into
  // its place in ramping_.
  for (std::size_t k = ramping_.size(); k-- > 0;) {
    Active& f = flow(ramping_[k]);
    set_rate(f, std::min(f.target, f.rate + f.ramp_step));
    if (f.rate >= f.target) {
      f.ramp_step = 0.0;
      track_ramp(f);
    }
  }
}

void FlowSim::track_ramp(Active& f) {
  const bool ramping = f.ramp_step > 0.0;
  if (ramping == (f.ramp_slot != kNil)) return;
  if (ramping) {
    f.ramp_slot = static_cast<std::uint32_t>(ramping_.size());
    ramping_.push_back(f.input);
    return;
  }
  const std::uint32_t moved = ramping_.back();
  ramping_[f.ramp_slot] = moved;
  flow(moved).ramp_slot = f.ramp_slot;
  ramping_.pop_back();
  f.ramp_slot = kNil;
}

void FlowSim::settle(Active& f, sim::TimePoint t) {
  if (f.rate > 0.0 && t > f.settled_at) {
    const Input& in = inputs_[f.input];
    const double add = std::min(f.rate * (t - f.settled_at).to_seconds(),
                                static_cast<double>(in.bytes) - f.delivered);
    const auto reported = static_cast<std::uint64_t>(f.delivered);
    f.delivered += add;
    const auto whole = static_cast<std::uint64_t>(f.delivered);
    if (observer_ != nullptr && whole > reported) {
      observer_->on_flow_progress(in.id, whole - reported, t);
    }
    // One addition per hop and segment. A link's busy window is a min and
    // a max over the segments it carried, which no order changes.
    for (const LinkId l : path_of(f.input)) {
      link_bytes_[l] += add;
      link_first_[l] = std::min(link_first_[l], f.settled_at);
      link_last_[l] = std::max(link_last_[l], t);
    }
    if (usage_bin_ > sim::Duration::zero()) spread_usage(f, t);
  }
  f.settled_at = t;
}

void FlowSim::set_rate(Active& f, double rate) {
  if (rate == f.rate) return;
  settle(f, now_);
  f.rate = rate;
  schedule_drain(f);
}

void FlowSim::schedule_drain(const Active& f) {
  const std::uint32_t pos = act_pos_[f.input];
  if (f.rate <= 0.0) {
    if (drains_.contains(pos)) drains_.erase(pos);
    return;
  }
  // The first whole nanosecond at which at most kDoneEps bytes remain, and
  // at least one past settled_at.
  const double ns = std::ceil(
      (static_cast<double>(inputs_[f.input].bytes) - f.delivered - kDoneEps) / f.rate * 1e9);
  const std::int64_t wait = ns < 1.0 ? 1 : static_cast<std::int64_t>(std::min(ns, kFarNs));
  drains_.set({f.settled_at + sim::Duration::nanoseconds(wait), f.input, pos});
}

void FlowSim::retire(std::uint32_t input) {
  const std::uint32_t pos = act_pos_[input];
  const auto last = static_cast<std::uint32_t>(active_.size() - 1);
  act_pos_[input] = kNil;  // its hops leave the link lists in the next traversal
  if (pos != last) {
    active_[pos] = active_.back();
    act_pos_[active_[pos].input] = pos;
    drains_.relabel(last, pos);
  }
  active_.pop_back();
}

void FlowSim::spread_usage(const Active& f, sim::TimePoint t) {
  // Spread the segment [settled_at, t)'s mean rate across the bins it overlaps.
  const double bin_s = usage_bin_.to_seconds();
  const std::int64_t bin_ns = usage_bin_.ns();
  const std::int64_t seg_end = t.ns();
  for (std::int64_t seg_start = f.settled_at.ns(); seg_start < seg_end;) {
    const std::int64_t b = seg_start / bin_ns;
    const std::int64_t b_end = std::min(seg_end, (b + 1) * bin_ns);
    const double overlap_s = static_cast<double>(b_end - seg_start) * 1e-9;
    const double mean = f.rate * overlap_s / bin_s;
    for (const LinkId l : path_of(f.input)) {
      auto& lane = usage_[l];
      if (lane.size() <= static_cast<std::size_t>(b)) {
        lane.resize(static_cast<std::size_t>(b) + 1, 0.0);
      }
      lane[static_cast<std::size_t>(b)] += mean;
    }
    seg_start = b_end;
  }
}

FlowSimResult FlowSim::run(stats::FlowObserver* observer) {
  std::sort(inputs_.begin(), inputs_.end(), [](const Input& a, const Input& b) {
    return a.start != b.start ? a.start < b.start : a.id < b.id;
  });

  const std::size_t n_links = fabric_.link_count();
  link_pos_.assign(n_links, 0);
  link_head_.assign(n_links, kNil);
  link_seen_.assign(n_links, 0);
  hop_next_.resize(path_arena_.size());
  hop_owner_.resize(path_arena_.size());
  for (std::uint32_t i = 0; i < inputs_.size(); ++i) {
    std::fill_n(hop_owner_.begin() + inputs_[i].path_off, inputs_[i].path_len, i);
  }
  act_pos_.assign(inputs_.size(), 0);
  touched_bits_.assign((inputs_.size() + 63) / 64, 0);
  frozen_.assign(inputs_.size(), 0);
  drains_.clear();
  ramping_.clear();
  observer_ = observer;

  FlowSimResult res;
  res.started = 0;
  std::size_t next = 0;
  now_ = sim::TimePoint::zero();
  sim::TimePoint next_tick = sim::TimePoint::max();

  while (next < inputs_.size() || !active_.empty()) {
    // Earliest of: next arrival, earliest drain, ramp tick. The tick is
    // (re)armed while anyone is still converging, from the state the
    // previous event left.
    sim::TimePoint t_next = sim::TimePoint::max();
    if (next < inputs_.size()) t_next = inputs_[next].start;
    if (!drains_.empty()) t_next = std::min(t_next, drains_.top().at);
    if (!ramping_.empty()) next_tick = std::min(next_tick, now_ + cfg_.rtt);
    t_next = std::min(t_next, next_tick);
    if (t_next == sim::TimePoint::max()) break;  // stalled: no arrivals, nothing moving
    if (t_next > cfg_.max_time) {
      now_ = cfg_.max_time;
      for (Active& f : active_) settle(f, now_);
      break;
    }

    ++events_;
    now_ = t_next;
    bool membership_changed = false;
    // Completions, in input order (the heap's tie-break) for deterministic
    // observer callbacks.
    while (!drains_.empty() && drains_.top().at <= now_) {
      const std::uint32_t in = drains_.top().input;
      drains_.pop();
      Active& f = flow(in);
      settle(f, now_);
      const Input& src = inputs_[in];
      if (observer != nullptr) {
        const auto whole = static_cast<std::uint64_t>(f.delivered);
        if (src.bytes > whole) observer->on_flow_progress(src.id, src.bytes - whole, now_);
        observer->on_flow_completed(src.id, now_ + completion_latency(src));
      }
      ++res.completed;
      f.ramp_step = 0.0;
      track_ramp(f);
      const auto path = path_of(in);
      seeds_.insert(seeds_.end(), path.begin(), path.end());
      retire(in);
      membership_changed = true;
    }

    // Arrivals due now.
    while (next < inputs_.size() && inputs_[next].start <= now_) {
      const Input& in = inputs_[next];
      Active f;
      f.settled_at = now_;
      f.input = static_cast<std::uint32_t>(next);
      act_pos_[next] = static_cast<std::uint32_t>(active_.size());
      active_.push_back(f);
      for (std::uint32_t h = in.path_off; h < in.path_off + in.path_len; ++h) {
        hop_next_[h] = link_head_[path_arena_[h]];
        link_head_[path_arena_[h]] = h;
        seeds_.push_back(path_arena_[h]);
      }
      if (observer != nullptr) observer->on_flow_started(in.id, in.bytes, in.start);
      ++res.started;
      ++next;
      membership_changed = true;
    }

    if (membership_changed) recompute_targets();

    if (next_tick <= now_) {
      apply_ramp_tick();
      next_tick = sim::TimePoint::max();
    }
  }
  observer_ = nullptr;

  res.events = events_;
  res.recomputes = recomputes_;
  res.flows_refilled = flows_refilled_;
  res.heap_entries = heap_entries_;
  res.heap_pops = heap_pops_;
  res.catch_ups = catch_ups_;
  res.end_time = now_;
  return res;
}

}  // namespace amrt::flowsim

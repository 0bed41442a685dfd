#include "flowsim/flowsim.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace amrt::flowsim {

namespace {
constexpr double kDoneEps = 1e-3;  // bytes: below this a flow is drained
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

sim::Duration FlowSim::completion_latency(const Active& f) const {
  return cfg_.prop_delay * static_cast<std::int64_t>(f.path_len) +
         cfg_.mtu_tx * static_cast<std::int64_t>(f.path_len > 0 ? f.path_len - 1 : 0) +
         cfg_.fixed_latency;
}

void FlowSim::collect_touched() {
  // Walk link -> member flow -> its links from every seed; seeds_ doubles as
  // the work stack and is empty again on return. A completed flow's links
  // are all seeds, so its hops are unlinked here, in the event it leaves.
  ++epoch_;
  touched_.clear();
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
      if (flow_seen_[in] == epoch_) continue;
      flow_seen_[in] = epoch_;
      touched_.push_back(act_pos_[in]);
      const Input& src = inputs_[in];
      for (std::uint32_t p = src.path_off; p < src.path_off + src.path_len; ++p) {
        if (link_seen_[path_arena_[p]] != epoch_) seeds_.push_back(path_arena_[p]);
      }
    }
  }
  // active_ order: the order every list and loop below must follow.
  std::sort(touched_.begin(), touched_.end());
}

void FlowSim::heap_place(std::size_t slot, Bottleneck b) {
  heap_[slot] = b;
  heap_slot_[b.pos] = static_cast<std::uint32_t>(slot);
}

void FlowSim::heap_sift_up(std::size_t slot) {
  const Bottleneck b = heap_[slot];
  while (slot > 0) {
    const std::size_t parent = (slot - 1) / 2;
    if (!(b < heap_[parent])) break;
    heap_place(slot, heap_[parent]);
    slot = parent;
  }
  heap_place(slot, b);
}

void FlowSim::heap_sift_down(std::size_t slot) {
  const Bottleneck b = heap_[slot];
  const std::size_t n = heap_.size();
  for (;;) {
    std::size_t child = 2 * slot + 1;
    if (child >= n) break;
    if (child + 1 < n && heap_[child + 1] < heap_[child]) ++child;
    if (!(heap_[child] < b)) break;
    heap_place(slot, heap_[child]);
    slot = child;
  }
  heap_place(slot, b);
}

void FlowSim::heap_pop() {
  const Bottleneck last = heap_.back();
  heap_.pop_back();
  if (heap_.empty()) return;
  heap_place(0, last);
  heap_sift_down(0);
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
  for (const std::uint32_t i : touched_) {
    const Active& f = active_[i];
    for (std::uint32_t p = 0; p < f.path_len; ++p) {
      const LinkId l = path_arena_[f.path_off + p];
      if (link_cnt_[l] == 0) {
        link_pos_[l] = static_cast<std::uint32_t>(used_links_.size());
        used_links_.push_back(l);
        cap_rem_[l] = fabric_.capacity_bps(l) / 8.0 * cfg_.payload_fraction;
      }
      ++link_cnt_[l];
    }
  }

  // Link -> flow lists (touched_ slots), indexed by position. Filling back to
  // front leaves each list in active_ order, the order the freezes below
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
    const Active& f = active_[touched_[k]];
    for (std::uint32_t p = 0; p < f.path_len; ++p) {
      link_flows_[--flows_off_[link_pos_[path_arena_[f.path_off + p]]]] =
          static_cast<std::uint32_t>(k);
    }
  }

  // A flow alone on every link it crosses is touched by no other freeze, so
  // water-filling would give it its path's smallest capacity whenever its
  // turn came: settle it now and keep its links out of the heap.
  frozen_.assign(n, 0);
  std::size_t left = n;
  for (std::size_t k = 0; k < n; ++k) {
    Active& f = active_[touched_[k]];
    const LinkId* path = path_arena_.data() + f.path_off;
    if (!std::all_of(path, path + f.path_len, [&](LinkId l) { return link_cnt_[l] == 1; })) {
      continue;
    }
    f.target = std::numeric_limits<double>::infinity();
    for (std::uint32_t p = 0; p < f.path_len; ++p) {
      f.target = std::min(f.target, cap_rem_[path[p]]);
      link_cnt_[path[p]] = 0;
    }
    frozen_[k] = 1;
    --left;
  }

  // Water-filling: repeatedly freeze every flow crossing the current
  // bottleneck (the link with the smallest per-flow share, the first in
  // used_links_ order on a tie) at that share. Keys lag: every link that
  // still has flows is in the heap keyed at or below its current share, so
  // a top whose key is current is the least (share, position) pair.
  const auto share_of = [&](LinkId l) {
    return cap_rem_[l] / static_cast<double>(link_cnt_[l]);
  };
  heap_.clear();
  heap_slot_.resize(n_used);
  for (std::uint32_t p = 0; p < n_used; ++p) {
    if (link_cnt_[used_links_[p]] == 0) continue;
    heap_slot_[p] = static_cast<std::uint32_t>(heap_.size());
    heap_.push_back({share_of(used_links_[p]), p});
  }
  for (std::size_t slot = heap_.size() / 2; slot-- > 0;) heap_sift_down(slot);
  while (left > 0 && !heap_.empty()) {
    const std::uint32_t pos = heap_.front().pos;
    const LinkId bl = used_links_[pos];
    if (link_cnt_[bl] == 0) {  // its flows all froze on other links
      heap_pop();
      continue;
    }
    const double share = share_of(bl);
    if (heap_.front().share < share) {  // behind its share: catch up before use
      heap_.front().share = share;
      heap_sift_down(0);
      continue;
    }
    heap_pop();
    for (std::uint32_t k = flows_off_[pos]; k < flows_off_[pos + 1]; ++k) {
      const std::uint32_t slot = link_flows_[k];
      if (frozen_[slot] != 0) continue;
      frozen_[slot] = 1;
      --left;
      Active& f = active_[touched_[slot]];
      f.target = share;
      for (std::uint32_t p = 0; p < f.path_len; ++p) {
        const LinkId l = path_arena_[f.path_off + p];
        cap_rem_[l] = std::max(0.0, cap_rem_[l] - share);
        --link_cnt_[l];
        if (l == bl || link_cnt_[l] == 0) continue;
        // A raised share may wait; one that rounding left below its key
        // (an ulp, on a co-bottleneck) restores the invariant now.
        const std::size_t at = heap_slot_[link_pos_[l]];
        const double now_share = share_of(l);
        if (now_share < heap_[at].share) {
          heap_[at].share = now_share;
          heap_sift_up(at);
        }
      }
    }
  }
  for (const LinkId l : used_links_) link_cnt_[l] = 0;  // restore the zeroed invariant

  // Model transitions: how each touched flow's actual rate tracks its new
  // share. An untouched flow kept its target, and re-running its transition
  // would change nothing (DESIGN.md §15 "Sharing").
  for (const std::uint32_t i : touched_) {
    Active& f = active_[i];
    if (f.fresh) {
      // Arrival: the unscheduled burst plus an immediately-scheduled grant
      // clock put a new flow at its share within the first RTT.
      f.rate = f.target;
      f.ramp_step = 0.0;
      f.fresh = false;
      continue;
    }
    switch (f.model) {
      case RateModel::kInstant:
        f.rate = f.target;
        f.ramp_step = 0.0;
        break;
      case RateModel::kTraditional:
        // Eq. 6: grants lost to a rate reduction are never re-marked.
        if (f.target < f.rate) f.rate = f.target;
        f.ramp_step = 0.0;
        break;
      case RateModel::kAmrtGrantClock:
        if (f.target <= f.rate) {
          f.rate = f.target;  // the grant clock cuts within one RTT
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
          f.rate = f.target;
          f.ramp_step = 0.0;
        } else if (f.ramp_step <= 0.0) {
          f.ramp_step = cfg_.mss_bytes / rtt_s;  // additive increase, 1 MSS/RTT
        }
        break;
    }
  }
}

void FlowSim::apply_ramp_tick() {
  for (Active& f : active_) {
    if (f.ramp_step <= 0.0 || f.rate >= f.target) continue;
    f.rate = std::min(f.target, f.rate + f.ramp_step);
    if (f.rate >= f.target) f.ramp_step = 0.0;
  }
}

bool FlowSim::advance_to(sim::TimePoint t, stats::FlowObserver* observer) {
  const double dt = (t - now_).to_seconds();
  bool drained = false;
  if (dt > 0.0) {
    for (Active& f : active_) {
      if (f.rate <= 0.0) continue;
      const double add =
          std::min(f.rate * dt, static_cast<double>(f.total_bytes) - f.delivered);
      f.delivered += add;
      const auto whole = static_cast<std::uint64_t>(f.delivered);
      if (observer != nullptr && whole > f.reported) {
        observer->on_flow_progress(f.id, whole - f.reported, t);
        f.reported = whole;
      }
      // Per hop only the byte sum, whose order the utilization pins fix. A
      // link's first busy instant is a min over segments, so each flow folds
      // in its first; its last is a max, folded by fold_last_busy.
      const LinkId* path = path_arena_.data() + f.path_off;
      for (std::uint32_t p = 0; p < f.path_len; ++p) link_bytes_[path[p]] += add;
      if (!f.advanced) {
        f.advanced = true;
        for (std::uint32_t p = 0; p < f.path_len; ++p) {
          if (link_first_[path[p]] > now_) link_first_[path[p]] = now_;
        }
      }
      f.last_adv = t;
      if (usage_bin_ > sim::Duration::zero()) spread_usage(f, t);
      if (static_cast<double>(f.total_bytes) - f.delivered <= kDoneEps) drained = true;
    }
  }
  now_ = t;
  return drained;
}

void FlowSim::spread_usage(const Active& f, sim::TimePoint t) {
  // Spread the segment [now_, t)'s mean rate across the bins it overlaps.
  const double bin_s = usage_bin_.to_seconds();
  const std::int64_t bin_ns = usage_bin_.ns();
  const std::int64_t seg_end = t.ns();
  for (std::int64_t seg_start = now_.ns(); seg_start < seg_end;) {
    const std::int64_t b = seg_start / bin_ns;
    const std::int64_t b_end = std::min(seg_end, (b + 1) * bin_ns);
    const double overlap_s = static_cast<double>(b_end - seg_start) * 1e-9;
    const double mean = f.rate * overlap_s / bin_s;
    for (std::uint32_t p = 0; p < f.path_len; ++p) {
      auto& lane = usage_[path_arena_[f.path_off + p]];
      if (lane.size() <= static_cast<std::size_t>(b)) {
        lane.resize(static_cast<std::size_t>(b) + 1, 0.0);
      }
      lane[static_cast<std::size_t>(b)] += mean;
    }
    seg_start = b_end;
  }
}

void FlowSim::fold_last_busy(const Active& f) {
  // A flow that never advanced has last_adv zero, which folds to nothing.
  for (std::uint32_t p = 0; p < f.path_len; ++p) {
    const LinkId l = path_arena_[f.path_off + p];
    if (link_last_[l] < f.last_adv) link_last_[l] = f.last_adv;
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
  flow_seen_.assign(inputs_.size(), 0);

  FlowSimResult res;
  res.started = 0;
  std::size_t next = 0;
  now_ = sim::TimePoint::zero();
  sim::TimePoint next_tick = sim::TimePoint::max();

  while (next < inputs_.size() || !active_.empty()) {
    // Earliest of: next arrival, earliest drain at current rates, ramp tick.
    // The same scan (re)arms the grant-clock tick while anyone is still
    // converging, from the state the previous event left.
    sim::TimePoint t_next = sim::TimePoint::max();
    if (next < inputs_.size()) t_next = inputs_[next].start;
    bool ramping = false;
    for (const Active& f : active_) {
      if (f.ramp_step > 0.0 && f.rate < f.target) ramping = true;
      if (f.rate <= 0.0) continue;
      const double secs = (static_cast<double>(f.total_bytes) - f.delivered) / f.rate;
      sim::TimePoint est = now_ + sim::Duration::from_seconds(secs);
      if (est <= now_) est = now_ + sim::Duration::nanoseconds(1);
      if (est < t_next) t_next = est;
    }
    if (ramping) {
      const sim::TimePoint tick = now_ + cfg_.rtt;
      if (tick < next_tick) next_tick = tick;
    }
    if (next_tick < t_next) t_next = next_tick;
    if (t_next == sim::TimePoint::max()) break;  // stalled: no arrivals, nothing moving
    if (t_next > cfg_.max_time) {
      advance_to(cfg_.max_time, observer);
      break;
    }

    ++events_;
    bool membership_changed = false;
    // Completions, in arrival order for deterministic observer callbacks. Only
    // a flow that advanced can newly drain, so the scan runs only when one did.
    if (advance_to(t_next, observer)) {
      for (Active& f : active_) {
        if (static_cast<double>(f.total_bytes) - f.delivered > kDoneEps) continue;
        if (observer != nullptr) {
          if (f.total_bytes > f.reported) {
            observer->on_flow_progress(f.id, f.total_bytes - f.reported, now_);
            f.reported = f.total_bytes;
          }
          observer->on_flow_completed(f.id, now_ + completion_latency(f));
        }
        ++res.completed;
        fold_last_busy(f);
        act_pos_[f.input] = kNil;  // its hops leave the link lists in the next traversal
        seeds_.insert(seeds_.end(), path_arena_.begin() + f.path_off,
                      path_arena_.begin() + f.path_off + f.path_len);
        f.path_len = 0;  // mark for removal; keeps indices stable until the compaction
        f.rate = 0.0;
        f.total_bytes = 0;
        f.delivered = 0.0;
      }
      std::uint32_t kept = 0;
      for (const Active& f : active_) {
        if (f.path_len == 0) continue;
        act_pos_[f.input] = kept;
        active_[kept++] = f;
      }
      active_.resize(kept);
      membership_changed = true;
    }

    // Arrivals due now.
    while (next < inputs_.size() && inputs_[next].start <= now_) {
      const Input& in = inputs_[next];
      Active f;
      f.id = in.id;
      f.total_bytes = in.bytes;
      f.model = in.model;
      f.path_off = in.path_off;
      f.path_len = in.path_len;
      f.input = static_cast<std::uint32_t>(next);
      act_pos_[next] = static_cast<std::uint32_t>(active_.size());
      active_.push_back(f);
      for (std::uint32_t h = f.path_off; h < f.path_off + f.path_len; ++h) {
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
  // A stall or the horizon leaves flows active: close their busy windows.
  for (const Active& f : active_) fold_last_busy(f);

  res.events = events_;
  res.recomputes = recomputes_;
  res.flows_refilled = flows_refilled_;
  res.end_time = now_;
  return res;
}

}  // namespace amrt::flowsim

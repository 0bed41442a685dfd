#include "net/routing.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>

namespace amrt::net {

void RoutingTable::set_routes(NodeId dst, std::span<const PortId> ports) {
  if (ports.empty()) throw std::invalid_argument("RoutingTable::set_routes: empty ECMP set");
  if (ports.size() > kMaxSetPorts) {
    throw std::length_error("RoutingTable: more than " + std::to_string(kMaxSetPorts) +
                            " ports toward node " + std::to_string(dst.value));
  }
  const std::size_t n = ports.size();
  if (pool_.size() < n || !std::equal(ports.begin(), ports.end(), pool_.end() - n)) {
    if (pool_.size() + n > kMaxPoolPorts) {
      throw std::length_error("RoutingTable: port pool would pass " +
                              std::to_string(kMaxPoolPorts) + " ports");
    }
    pool_.insert(pool_.end(), ports.begin(), ports.end());
  }
  if (dst.value >= entries_.size()) entries_.resize(dst.value + 1);
  Entry& e = entries_[dst.value];
  if (e.count == 0) ++dst_count_;
  e.offset = static_cast<std::uint32_t>(pool_.size() - n);
  e.count = static_cast<std::uint32_t>(n);
  dirty_ = true;
}

// The entries and pool are always current; a mutation leaves only the view
// pointers and the spray cursors stale, and this resets both.
void RoutingTable::restart_lookups() const {
  spray_.assign(mode_ == MultipathMode::kPacketSpray ? entries_.size() : 0, 0);
  view_entries_ = entries_.data();
  view_pool_ = pool_.data();
  view_spray_ = spray_.data();
  view_size_ = entries_.size();
  // Any past link transition invalidates this full view; resetting the seen
  // epoch below the live one makes the next select() re-filter. Epoch 0
  // (no transition ever) keeps the full view with no refresh.
  seen_epoch_ = 0;
  dirty_ = false;
}

void RoutingTable::refresh_link_view() const {
  seen_epoch_ = link_state_->epoch.load(std::memory_order_relaxed);
  bool any_down = false;
  for (const PortId p : pool_) {
    if (!link_state_->is_up(p)) {
      any_down = true;
      break;
    }
  }
  if (!any_down) {
    // Back on the full view: its spray cursors resume where they stopped.
    view_entries_ = entries_.data();
    view_pool_ = pool_.data();
    view_spray_ = spray_.data();
    view_size_ = entries_.size();
    return;
  }
  alive_entries_.assign(entries_.size(), Entry{});
  alive_pool_.clear();
  alive_pool_.reserve(pool_.size());
  for (std::size_t dst = 0; dst < entries_.size(); ++dst) {
    const Entry& e = entries_[dst];
    const auto offset = static_cast<std::uint32_t>(alive_pool_.size());
    for (std::uint32_t i = 0; i < e.count; ++i) {
      const PortId p = pool_[e.offset + i];
      if (link_state_->is_up(p)) alive_pool_.push_back(p);
    }
    auto count = static_cast<std::uint32_t>(alive_pool_.size()) - offset;
    if (count == 0 && e.count != 0) {
      // Every path toward dst is dead. Keep the wired set: the dead egress
      // port eats the packets (charged as faulted), the flow heals when a
      // link returns, and a miswired fabric still dies via the count==0
      // check in select().
      for (std::uint32_t i = 0; i < e.count; ++i) alive_pool_.push_back(pool_[e.offset + i]);
      count = e.count;
    }
    alive_entries_[dst].offset = offset;
    alive_entries_[dst].count = count;
  }
  alive_spray_.assign(mode_ == MultipathMode::kPacketSpray ? entries_.size() : 0, 0);
  view_entries_ = alive_entries_.data();
  view_pool_ = alive_pool_.data();
  view_spray_ = alive_spray_.data();
  view_size_ = alive_entries_.size();
}

std::span<const PortId> RoutingTable::ports_for(NodeId dst) const {
  if (dst.value >= entries_.size()) return {};
  const Entry& e = entries_[dst.value];
  return {pool_.data() + e.offset, e.count};
}

void RoutingTable::require_route(NodeId dst) const {
  if (!knows(dst)) {
    throw std::logic_error("RoutingTable: no route to node " + std::to_string(dst.value) +
                           " after wiring");
  }
}

void RoutingTable::die_unknown_destination(NodeId dst) {
  // A packet addressed past the wired fabric is a topology bug, not a
  // runtime condition: fail loudly instead of dragging exception machinery
  // through the per-packet path.
  std::fprintf(stderr, "RoutingTable: unknown destination node %u — miswired topology\n",
               dst.value);
  std::abort();
}

}  // namespace amrt::net

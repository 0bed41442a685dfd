// Destination-based routing with ECMP.
//
// A switch's routing table maps destination node -> the set of egress ports
// with equal-cost paths; a flow hash picks one so a flow stays on one path
// (per-flow ECMP, see DESIGN.md §6 for why all protocols share this choice).
//
// Data-plane layout (see DESIGN.md "Data-plane fast path"): destinations are
// dense small integers per topology, so the table is a flat array of 4-byte
// {offset, count} entries into one shared port pool — a forward is two
// indexed loads, the SplitMix64 flow hash and one modulo, with no hashing
// into a map and no node allocation. The pool holds each distinct ECMP set
// once (an edge switch of a k=16 fat-tree has 9 sets for its 1024
// destinations), interned as routes are wired. The table keeps nothing per
// flow: a switch's state is fixed by its topology, not by its traffic.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <span>
#include <vector>

#include "net/node.hpp"
#include "net/packet.hpp"
#include "util/flat_map.hpp"

namespace amrt::net {

// Fabric-wide link liveness, owned by Network and shared read-only with
// every RoutingTable. The epoch bumps on each up/down transition; tables
// compare it against the epoch they last compiled their alive view for and
// refresh lazily, so the per-forward cost in a healthy run is one load and
// one compare.
struct LinkState {
  std::vector<std::uint8_t> up;  // indexed by PortId; absent slots count as up
  // Atomic (relaxed) so sharded runs may read it from every worker thread:
  // fault injection is serial-only, so across a partitioned run the epoch is
  // a constant and the relaxed load costs the same as the plain one did.
  std::atomic<std::uint64_t> epoch{0};

  [[nodiscard]] bool is_up(std::int32_t port) const {
    const auto i = static_cast<std::size_t>(port);
    return i >= up.size() || up[i] != 0;
  }
};

// How multipath sets are used. Per-flow hashing (the default, used by every
// experiment so all protocols compare on equal routing) keeps a flow on one
// path; per-packet spraying (what real NDP deploys) round-robins every
// packet across the set, trading reordering for perfect load balance.
// Spray state is kept per destination, so concurrent spray sets on one
// switch round-robin independently instead of in (correlated) lockstep.
enum class MultipathMode : std::uint8_t { kPerFlowEcmp, kPacketSpray };

// The ECMP hash: deterministic, spreads consecutive flow ids across paths.
[[nodiscard]] std::uint64_t ecmp_hash(FlowId flow);

class RoutingTable {
 public:
  // A destination's ECMP set: `count` ports at `offset` in the port pool.
  // Packed into 4 bytes, so a set holds at most kMaxSetPorts ports and the
  // pool at most kMaxPoolPorts; wiring past either throws std::length_error.
  struct Entry {
    std::uint32_t offset : 24 = 0;
    std::uint32_t count : 8 = 0;
  };
  static constexpr std::size_t kMaxSetPorts = 255;
  static constexpr std::size_t kMaxPoolPorts = std::size_t{1} << 24;

  // Registers `port` as one of the equal-cost next hops toward `dst`,
  // after the ones already registered. Mutating the table restarts the
  // spray cursors on the next select().
  void add_route(NodeId dst, PortId port);
  // Installs `ports` (non-empty, in order) as the whole ECMP set toward
  // `dst`, replacing any earlier one. Equivalent to add_route per port on a
  // fresh destination, at one entry store: the builders wire uplink sets
  // with it.
  void set_routes(NodeId dst, std::span<const PortId> ports);
  // Sizes the entry array for destinations [0, n) up front, so builders that
  // know their node count wire without growth slack.
  void reserve(std::size_t n) { entries_.reserve(n); }

  // Switching modes counts as a mutation (spray cursors restart).
  void set_mode(MultipathMode mode) {
    if (mode != mode_) dirty_ = true;
    mode_ = mode;
  }
  [[nodiscard]] MultipathMode mode() const { return mode_; }

  // Subscribes this table to the fabric's link liveness (Network wires every
  // switch at construction). When the state's epoch moves past the one the
  // current view was compiled for, the next select() rebuilds an ECMP view
  // restricted to live ports; healthy runs pay one epoch compare per
  // forward.
  void bind_link_state(const LinkState* ls) { link_state_ = ls; }

  // Picks the egress port for `pkt`. Unknown destinations are a wiring bug:
  // the process aborts with a diagnostic (use `require_route` at build time
  // to fail during setup instead of mid-run).
  [[nodiscard]] PortId select(const Packet& pkt) {
    if (dirty_) restart_lookups();
    if (link_state_ != nullptr &&
        link_state_->epoch.load(std::memory_order_relaxed) != seen_epoch_) [[unlikely]] {
      refresh_link_view();
    }
    const std::uint32_t dst = pkt.dst.value;
    if (dst >= view_size_ || view_entries_[dst].count == 0) [[unlikely]] {
      die_unknown_destination(pkt.dst);
    }
    const Entry e = view_entries_[dst];
    const PortId* ports = view_pool_ + e.offset;
    const std::uint32_t count = e.count;
    if (count == 1) return ports[0];
    if (mode_ == MultipathMode::kPacketSpray && pkt.type == PacketType::kData) {
      // Control packets stay on the flow's hashed path so grant clocks are
      // not reordered; only data is sprayed (as in NDP).
      return ports[view_spray_[dst]++ % count];
    }
    return ports[ecmp_hash(pkt.flow) % count];
  }

  // The ECMP set toward `dst`; empty if the destination is unknown.
  [[nodiscard]] std::span<const PortId> ports_for(NodeId dst) const;
  [[nodiscard]] bool knows(NodeId dst) const { return !ports_for(dst).empty(); }
  [[nodiscard]] std::size_t destinations() const { return dst_count_; }
  // Ports stored in the shared pool: the sum of the distinct ECMP sets'
  // sizes (plus prefixes shared with them), not of the per-destination ones.
  [[nodiscard]] std::size_t pool_size() const { return pool_.size(); }

  // Wiring-time validation: throws std::logic_error if `dst` has no route.
  // Topology builders call this for every node a switch must reach, so a
  // miswired fabric fails at setup rather than aborting mid-run.
  void require_route(NodeId dst) const;

 private:
  // Runs on the first select() after a mutation: points the view at the
  // full tables and restarts every destination's spray cursor at the front
  // of its set.
  void restart_lookups() const;
  // Rebuilds the live-port view after a link-state transition (cold: runs
  // once per epoch change, not per packet). If every port toward some
  // destination is down the wired set is kept — packets then charge the
  // dead port's `faulted` counter instead of aborting the run.
  void refresh_link_view() const;
  [[noreturn]] static void die_unknown_destination(NodeId dst);
  // Stores `dst`'s set as `count` ports at pool `offset`.
  void install(NodeId dst, std::uint32_t offset, std::uint32_t count);
  // Interns the set "pool_[offset, offset + count) followed by `port`" and
  // returns its offset (its count is count + 1).
  [[nodiscard]] std::uint32_t intern_extended(std::uint32_t offset, std::uint32_t count,
                                              PortId port);

  // Per-destination sets into pool_, kept current by add_route/set_routes.
  std::vector<Entry> entries_;
  std::size_t dst_count_ = 0;
  mutable bool dirty_ = false;

  // Interned ECMP sets. Every set is built one port at a time, and each new
  // set either extends in place a run that ends at the pool's end or is
  // copied there, so it always ends past every older set: a set's end index
  // names it. `interned_` maps (parent's end << 32 | added port) to the
  // child's offset; the empty set ends at 0. `memo_` caches the last lookup
  // per parent size, which the builders' "same ports for the next
  // destination" wiring hits almost every time.
  struct Memo {
    std::uint64_t key = ~std::uint64_t{0};
    std::uint32_t offset = 0;
  };
  static constexpr std::size_t kMemoSlots = 8;
  std::vector<PortId> pool_;
  util::FlatMap<std::uint64_t, std::uint32_t> interned_;
  std::array<Memo, kMemoSlots> memo_{};

  // The view select() reads: the full tables above, or (between a link
  // transition and full recovery) the filtered alive_* copies. Each view
  // has its own spray cursors, allocated only in kPacketSpray mode. Raw
  // pointers are re-derived by restart_lookups()/refresh_link_view()
  // whenever the backing vectors may have moved.
  mutable const Entry* view_entries_ = nullptr;
  mutable const PortId* view_pool_ = nullptr;
  mutable std::uint32_t* view_spray_ = nullptr;
  mutable std::size_t view_size_ = 0;
  mutable std::vector<std::uint32_t> spray_;
  mutable std::vector<Entry> alive_entries_;
  mutable std::vector<PortId> alive_pool_;
  mutable std::vector<std::uint32_t> alive_spray_;
  mutable std::uint64_t seen_epoch_ = 0;
  const LinkState* link_state_ = nullptr;
  MultipathMode mode_ = MultipathMode::kPerFlowEcmp;
};

}  // namespace amrt::net

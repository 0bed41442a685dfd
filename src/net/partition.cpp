#include "net/partition.hpp"

#include <algorithm>
#include <barrier>
#include <limits>
#include <stdexcept>
#include <thread>

#include "audit/auditor.hpp"

namespace amrt::net {

namespace {
constexpr std::uint32_t kUnassigned = ~std::uint32_t{0};
}  // namespace

void ShardMailbox::sort_for_injection() {
  std::stable_sort(msgs_.begin(), msgs_.end(),
                   [](const Msg& a, const Msg& b) { return a.deliver_ns < b.deliver_ns; });
}

void ShardMailbox::inject(sim::Scheduler& sched, std::int64_t window_end_ns) {
  if (msgs_.empty()) return;
  sort_for_injection();
  // Sorted, so the front is the earliest delivery: one compare covers all.
  if (msgs_.front().deliver_ns < window_end_ns) {
    throw std::logic_error(
        "ShardMailbox: cross-shard delivery at " + std::to_string(msgs_.front().deliver_ns) +
        " ns precedes the end of the window it was sent in (" + std::to_string(window_end_ns) +
        " ns); the lookahead overstates the cross-link latency");
  }
  for (Msg& m : msgs_) {
    auto deliver = [port = m.from, p = std::move(m.pkt)]() mutable {
      port->deliver_to_peer(std::move(p));
    };
    static_assert(sim::InplaceCallback::fits_inline<decltype(deliver)>(),
                  "an injected delivery event must not allocate");
    sched.at(sim::TimePoint::from_ns(m.deliver_ns), std::move(deliver));
  }
  msgs_.clear();
}

Partition make_partition(const Network& net, std::vector<std::uint32_t> node_shard,
                         unsigned n_shards) {
  if (n_shards == 0) throw std::logic_error("make_partition: need at least one shard");
  const std::size_t n_nodes = net.host_count() + net.switch_count();
  if (node_shard.size() != n_nodes) {
    throw std::logic_error("make_partition: node map size does not match the node pool");
  }
  for (const std::uint32_t s : node_shard) {
    if (s >= n_shards) throw std::logic_error("make_partition: node unassigned or shard out of range");
  }

  Partition part;
  part.n_shards = n_shards;
  part.node_shard = std::move(node_shard);
  part.port_shard.assign(net.port_count(), kUnassigned);
  part.port_cross.assign(net.port_count(), 0);

  // A port belongs to the node that transmits on it. Every port slot must be
  // claimed by exactly one node — double or missing claims are wiring bugs.
  auto claim = [&part](PortId p, std::uint32_t shard) {
    auto& slot = part.port_shard[static_cast<std::size_t>(p)];
    if (slot != kUnassigned) throw std::logic_error("make_partition: port claimed twice");
    slot = shard;
  };
  for (const Host& h : net.hosts()) claim(h.nic_id(), part.shard_of(h.id()));
  for (const Switch& sw : net.switches()) {
    const std::uint32_t s = part.shard_of(sw.id());
    for (int i = 0; i < sw.port_count(); ++i) claim(sw.port_id(i), s);
  }
  for (const std::uint32_t s : part.port_shard) {
    if (s == kUnassigned) throw std::logic_error("make_partition: port owned by no node");
  }

  // Lookahead: the fastest any event can reach another shard. A cross link
  // delivers no earlier than propagation plus the serialization time of the
  // smallest frame (a trimmed header), so that minimum bounds every
  // cross-shard interaction and is safe under tx jitter (additive) and
  // fault rate-scaling (scale <= 1 only slows links down).
  std::int64_t min_latency_ns = std::numeric_limits<std::int64_t>::max();
  for (std::size_t p = 0; p < net.port_count(); ++p) {
    const EgressPort& port = net.port_at(static_cast<PortId>(p));
    const std::uint32_t peer_shard = part.shard_of(port.peer());
    if (peer_shard == part.port_shard[p]) continue;
    part.port_cross[p] = 1;
    ++part.cross_ports;
    const std::int64_t lat =
        (port.config().delay + port.config().rate.tx_time(kHeaderBytes)).ns();
    if (lat < min_latency_ns) min_latency_ns = lat;
  }
  if (part.cross_ports != 0) part.lookahead = sim::Duration::nanoseconds(min_latency_ns);
  return part;
}

Partition partition_fat_tree(const Network& net, const FatTree& topo, unsigned n_shards) {
  const int half = topo.k / 2;
  const std::size_t n_nodes = net.host_count() + net.switch_count();
  std::vector<std::uint32_t> map(n_nodes, kUnassigned);

  // Pod-major layouts: hosts[(p*half + e)*half + h], edges/aggs[p*half + e].
  for (std::size_t i = 0; i < topo.hosts.size(); ++i) {
    const auto pod = i / (static_cast<std::size_t>(half) * static_cast<std::size_t>(half));
    map[topo.hosts[i]->id().value] = static_cast<std::uint32_t>(pod % n_shards);
  }
  for (std::size_t i = 0; i < topo.edges.size(); ++i) {
    const auto pod = i / static_cast<std::size_t>(half);
    map[topo.edges[i]->id().value] = static_cast<std::uint32_t>(pod % n_shards);
  }
  for (std::size_t i = 0; i < topo.aggs.size(); ++i) {
    const auto pod = i / static_cast<std::size_t>(half);
    map[topo.aggs[i]->id().value] = static_cast<std::uint32_t>(pod % n_shards);
  }
  for (std::size_t i = 0; i < topo.cores.size(); ++i) {
    map[topo.cores[i]->id().value] = static_cast<std::uint32_t>(i % n_shards);
  }
  return make_partition(net, std::move(map), n_shards);
}

Partition partition_leaf_spine(const Network& net, const LeafSpine& topo, unsigned n_shards) {
  const std::size_t n_nodes = net.host_count() + net.switch_count();
  std::vector<std::uint32_t> map(n_nodes, kUnassigned);
  const std::size_t hosts_per_leaf = topo.hosts.size() / topo.leaves.size();

  for (std::size_t i = 0; i < topo.hosts.size(); ++i) {
    map[topo.hosts[i]->id().value] = static_cast<std::uint32_t>((i / hosts_per_leaf) % n_shards);
  }
  for (std::size_t l = 0; l < topo.leaves.size(); ++l) {
    map[topo.leaves[l]->id().value] = static_cast<std::uint32_t>(l % n_shards);
  }
  for (std::size_t s = 0; s < topo.spines.size(); ++s) {
    map[topo.spines[s]->id().value] = static_cast<std::uint32_t>(s % n_shards);
  }
  return make_partition(net, std::move(map), n_shards);
}

ShardedRunner::ShardedRunner(Network& net, Partition part, sim::ShardGroup& shards, Config cfg)
    : net_{net}, part_{std::move(part)}, shards_{shards}, cfg_{std::move(cfg)} {
  if (shards_.size() != part_.n_shards) {
    throw std::logic_error("ShardedRunner: shard group size does not match the partition");
  }
}

ShardedRunner::ShardedRunner(Network& net, Partition part, sim::ShardGroup& shards)
    : ShardedRunner{net, std::move(part), shards, Config{}} {}

void ShardedRunner::bind() {
  const unsigned n = part_.n_shards;
  boxes_ = std::vector<ShardMailbox>(static_cast<std::size_t>(n) * n);
  for (std::size_t p = 0; p < net_.port_count(); ++p) {
    EgressPort& port = net_.port_at(static_cast<PortId>(p));
    const std::uint32_t s = part_.port_shard[p];
    sim::Scheduler& sched = shards_.shard(s).scheduler();
    port.rebind_scheduler(sched);
    // The queue's audit hook fires on the owning shard's thread; re-point it
    // at that shard's auditor (no-op without AMRT_AUDIT).
    port.queue_mut().audit_bind(&shards_.shard(s).auditor(), static_cast<std::uint32_t>(p));
    if (part_.port_cross[p] != 0) {
      const std::uint32_t d = part_.shard_of(port.peer());
      port.set_cross_shard_outbox(&boxes_[static_cast<std::size_t>(s) * n + d]);
    }
  }
  for (Host& host : net_.hosts()) {
    host.rebind_scheduler(shards_.shard(part_.shard_of(host.id())).scheduler());
  }
  // Injection and delivery of one packet may land in different shards'
  // ledgers; cross-shard mode books both sides and the post-run merge
  // cancels them.
  for (unsigned i = 0; i < n; ++i) shards_.shard(i).auditor().set_cross_shard(true);
}

void ShardedRunner::inject_inbound(unsigned me) {
  const unsigned n = part_.n_shards;
  sim::Scheduler& sched = shards_.shard(me).scheduler();
  for (unsigned src = 0; src < n; ++src) {
    boxes_[static_cast<std::size_t>(src) * n + me].inject(sched, window_end_ns_);
  }
}

void ShardedRunner::coordinate() noexcept {
  ++rounds_;
  if (failed_.load(std::memory_order_relaxed)) {
    done_ = true;
    return;
  }
  const unsigned n = part_.n_shards;
  std::int64_t min_next = std::numeric_limits<std::int64_t>::max();
  std::uint64_t total_events = 0;
  for (unsigned i = 0; i < n; ++i) {
    sim::Scheduler& sched = shards_.shard(i).scheduler();
    total_events += sched.events_processed();
    if (const auto t = sched.next_event_time(); t.has_value() && t->ns() < min_next) {
      min_next = t->ns();
    }
  }
  if (min_next == std::numeric_limits<std::int64_t>::max()) {
    done_ = true;  // global drain: every shard's event set is empty
    return;
  }
  if (cfg_.event_limit != 0 && total_events >= cfg_.event_limit) {
    done_ = true;
    limit_hit_ = true;
    return;
  }
  if (min_next > cfg_.horizon.ns()) {
    done_ = true;
    horizon_hit_ = true;
    return;
  }
  // Skip-ahead: the window opens at the global minimum next event, so idle
  // stretches cost one barrier round, not one round per lookahead quantum.
  const std::int64_t la = part_.lookahead.ns();
  window_end_ns_ = la >= std::numeric_limits<std::int64_t>::max() - min_next
                       ? std::numeric_limits<std::int64_t>::max()
                       : min_next + la;
}

void ShardedRunner::run() {
  const unsigned n = part_.n_shards;
  if (n <= 1) {
    // Degenerate case: a plain serial run on the master scheduler.
    sim::Scheduler& sched = shards_.master().scheduler();
    if (cfg_.event_limit != 0) sched.set_event_limit(cfg_.event_limit);
    if (cfg_.horizon < sim::TimePoint::max()) {
      sched.run_until(cfg_.horizon);
    } else {
      sched.run();
    }
    return;
  }

  bind();
  std::barrier post_inject{static_cast<std::ptrdiff_t>(n), [this]() noexcept { coordinate(); }};
  std::barrier<> post_run{static_cast<std::ptrdiff_t>(n)};
  std::vector<std::exception_ptr> errors(n);

  auto worker = [&](unsigned me) {
    audit::set_context(cfg_.audit_context);  // thread-local; empty is fine
    sim::Scheduler& sched = shards_.shard(me).scheduler();
    if (cfg_.event_limit != 0) sched.set_event_limit(cfg_.event_limit);
    // After an exception the shard stops executing but keeps arriving at the
    // barriers, so its peers reach the termination decision instead of
    // deadlocking; coordinate() sees failed_ and winds the run down.
    bool dead = false;
    auto guard = [&](auto&& fn) {
      if (dead) return;
      try {
        fn();
      } catch (...) {
        errors[me] = std::current_exception();
        dead = true;
        failed_.store(true, std::memory_order_relaxed);
      }
    };
    for (;;) {
      guard([&] { inject_inbound(me); });
      post_inject.arrive_and_wait();
      if (done_) break;
      guard([&] { sched.run_window(sim::TimePoint::from_ns(window_end_ns_)); });
      post_run.arrive_and_wait();
    }
  };

  std::vector<std::thread> threads;
  threads.reserve(n);
  for (unsigned i = 0; i < n; ++i) threads.emplace_back(worker, i);
  for (auto& t : threads) t.join();
  for (const auto& e : errors) {
    if (e) std::rethrow_exception(e);
  }

  // Fold every shard's ledger into the master so the caller's
  // check_drained() / violation_count() see the whole run (stub: no-op).
  for (unsigned i = 1; i < n; ++i) {
    shards_.master().auditor().merge_from(shards_.shard(i).auditor());
  }
}

}  // namespace amrt::net

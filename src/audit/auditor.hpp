// Invariant-audit subsystem (compile-time gated by AMRT_AUDIT).
//
// One `Auditor` lives inside every `sim::Simulation` and observes the run
// through hooks woven into the scheduler, ports, queues, hosts and
// transports. It enforces, on every packet and every event:
//
//   * packet conservation — every injected packet is delivered, dropped
//     (with a reason) or still in flight; nothing is duplicated, and at a
//     drained (idle) scheduler the ledger closes exactly, payload bytes
//     included (trims account for the payload they cut);
//   * queue accounting — a shadow (packets, bytes) ledger per egress queue
//     must match the queue's own depth after every admit/dequeue, and the
//     stats identity depth == enqueued - dequeued - dropped must hold;
//   * clock monotonicity / wheel order — events fire in non-decreasing
//     timestamp order and the clock never runs backwards;
//   * transport invariants — grants never exceed a flow's packet budget, a
//     marked AMRT grant carries exactly the configured allowance, senders
//     never overshoot a grant's allowance, the received-sequence bitmap is
//     internally consistent at completion, and no credit is issued for a
//     finished flow;
//   * anti-ECN Eq. 1-3 — the CE bit a receiver sees equals the AND of the
//     per-hop gap-estimator verdicts (tracked per packet copy in an
//     audit-only Packet field), so markers can only ever clear it.
//
// Zero cost when off: without AMRT_AUDIT this header defines an empty stub
// with identical signatures, `Scheduler::auditor()` folds to a constexpr
// nullptr, and every `if (auto* a = ...auditor())` hook site — arguments
// included — is dead code the compiler deletes. The audited entry point is
// `Host::send`; packets injected by tests directly into ports or switches
// are simply untracked (delivery/drop of an unknown key is ignored), which
// keeps unit tests honest without false positives.
//
// Failure handling: by default a violation prints a diagnostic (plus the
// thread's replay context, see set_context) and aborts — the "checked
// build dies loudly" mode the fuzzer and CI rely on. Tests and the fuzzer
// flip `set_fail_fast(false)` to collect violations per run instead.
#pragma once

#include <atomic>
#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace amrt::audit {

// Why a queue refused (or evicted) a packet; carried into the conservation
// ledger so "dropped" always has an attributable cause.
enum class DropReason : std::uint8_t {
  kDataCapacity,          // data band full (drop-tail / shared cap)
  kUnscheduledSacrifice,  // Aeolus: blind packet refused at a full band
  kEvictedUnscheduled,    // Aeolus: queued blind packet evicted by scheduled
  kOther,
  // Fault-injection losses (src/fault): the fabric ate the packet. Kept
  // apart from congestion drops in the ledger — the `faulted` debit — so
  // conservation closes under injected failures without masking real leaks.
  kLinkDown,   // egress link down: packet refused or flushed from the queue
  kBlackhole,  // probabilistic per-port corruption/blackholing
};

[[nodiscard]] inline const char* to_string(DropReason r) {
  switch (r) {
    case DropReason::kDataCapacity: return "data-capacity";
    case DropReason::kUnscheduledSacrifice: return "unscheduled-sacrifice";
    case DropReason::kEvictedUnscheduled: return "evicted-unscheduled";
    case DropReason::kOther: return "other";
    case DropReason::kLinkDown: return "link-down";
    case DropReason::kBlackhole: return "blackhole";
  }
  return "?";
}

// Fault-injected losses are debited separately from congestion drops.
[[nodiscard]] inline bool is_fault(DropReason r) {
  return r == DropReason::kLinkDown || r == DropReason::kBlackhole;
}

// Primitive mirror of the net::Packet fields the auditor reads. Defined
// here (audit sits below net/ in the include graph); the converter lives in
// audit/hooks.hpp next to net::Packet.
struct PacketInfo {
  std::uint64_t flow = 0;
  std::uint32_t seq = 0;
  std::uint8_t type = 0;  // net::PacketType
  std::uint32_t wire_bytes = 0;
  std::uint32_t payload_bytes = 0;
  bool is_data = false;
  bool trimmed = false;
  bool ecn_capable = false;
  bool ce = false;
  bool ce_expected = false;  // AND of per-hop verdicts (audit builds only)
};

// --- process-global knobs ---------------------------------------------------

// Abort on the first violation (default) or record and keep going.
inline std::atomic<bool>& fail_fast_flag() {
  static std::atomic<bool> flag{true};
  return flag;
}
inline void set_fail_fast(bool on) { fail_fast_flag().store(on, std::memory_order_relaxed); }
[[nodiscard]] inline bool fail_fast() { return fail_fast_flag().load(std::memory_order_relaxed); }

// Replay context printed with every violation on this thread — the fuzzer
// sets it to the standalone repro line before each case.
inline std::string& context_ref() {
  thread_local std::string ctx;
  return ctx;
}
inline void set_context(std::string ctx) { context_ref() = std::move(ctx); }
[[nodiscard]] inline const std::string& context() { return context_ref(); }

#ifdef AMRT_AUDIT

class Auditor {
 public:
  static constexpr std::size_t kMaxStoredViolations = 64;

  // --- packet-conservation ledger ----------------------------------------
  void on_inject(const PacketInfo& p) {
    ++injected_;
    injected_payload_ += p.payload_bytes;
    ++ledger_[key_of(p)];
  }

  void on_deliver(const PacketInfo& p) {
    auto it = ledger_.find(key_of(p));
    if (it == ledger_.end()) {
      if (!cross_shard_) return;  // untracked (test-injected) packet
      // Sharded run: the injection was booked on the sender's shard. Debit
      // here into a fresh (negative-going) entry; merge_from cancels it
      // against the credit when the run's ledgers are folded together.
      it = ledger_.emplace(key_of(p), 0).first;
    } else if (!cross_shard_ && it->second <= 0) {
      fail("packet-conservation", "duplicate delivery of flow %llu seq %u type %u",
           static_cast<unsigned long long>(p.flow), p.seq, p.type);
      return;
    }
    --it->second;
    ++delivered_;
    delivered_payload_ += p.payload_bytes;
    // Anti-ECN Eq. 1-3: CE at the receiver must be the AND of every hop's
    // verdict; a marker may clear the bit, nothing may set it back.
    if (p.is_data && p.ecn_capable && !p.trimmed && p.ce != p.ce_expected) {
      fail("anti-ecn-eq3", "flow %llu seq %u delivered with CE=%d, per-hop AND says %d",
           static_cast<unsigned long long>(p.flow), p.seq, p.ce ? 1 : 0, p.ce_expected ? 1 : 0);
    }
  }

  void on_drop(const PacketInfo& p, DropReason r) {
    auto it = ledger_.find(key_of(p));
    if (it == ledger_.end() && cross_shard_) {
      it = ledger_.emplace(key_of(p), 0).first;  // debit the remote injection
    }
    if (it != ledger_.end()) {
      if (!cross_shard_ && it->second <= 0) {
        fail("packet-conservation", "drop of already-terminated flow %llu seq %u (%s)",
             static_cast<unsigned long long>(p.flow), p.seq, to_string(r));
        return;
      }
      --it->second;
    }
    if (is_fault(r)) {
      ++faulted_;
      faulted_payload_ += p.payload_bytes;
    } else {
      ++dropped_;
      dropped_payload_ += p.payload_bytes;
    }
  }

  // `payload_removed` is the payload the trim cut; the (now header-only)
  // packet stays live in the ledger and is delivered later.
  void on_trim(const PacketInfo& p, std::uint32_t payload_removed) {
    (void)p;
    ++trimmed_;
    trimmed_payload_ += payload_removed;
  }

  // At a drained (idle) scheduler nothing is in flight: every key must have
  // closed and the payload-byte ledger must balance exactly.
  void check_drained() {
    for (const auto& [key, outstanding] : ledger_) {
      if (outstanding != 0) {
        fail("packet-conservation",
             "drained run left flow %llu seq %u type %u with %lld unaccounted copies",
             static_cast<unsigned long long>(key >> 34), static_cast<std::uint32_t>((key >> 2) & 0xFFFFFFFFu),
             static_cast<unsigned>(key & 3), static_cast<long long>(outstanding));
        return;
      }
    }
    if (injected_payload_ !=
        delivered_payload_ + dropped_payload_ + trimmed_payload_ + faulted_payload_) {
      fail("byte-conservation",
           "payload ledger open at drain: injected %llu != delivered %llu + dropped %llu + trimmed %llu + faulted %llu",
           static_cast<unsigned long long>(injected_payload_),
           static_cast<unsigned long long>(delivered_payload_),
           static_cast<unsigned long long>(dropped_payload_),
           static_cast<unsigned long long>(trimmed_payload_),
           static_cast<unsigned long long>(faulted_payload_));
    }
  }

  // --- queue accounting ----------------------------------------------------
  // Called by EgressQueue after a packet is admitted into a band (control,
  // data, or a trimmed header into control) with the queue's own view of its
  // depth and stats; the auditor cross-checks its shadow ledger.
  void on_queue_admit(std::uint32_t q, std::uint32_t wire_bytes, std::size_t depth_pkts,
                      std::uint64_t enq, std::uint64_t deq, std::uint64_t dropped) {
    QueueShadow& s = shadow(q);
    ++s.pkts;
    s.bytes += wire_bytes;
    queue_check(q, s, depth_pkts, enq, deq, dropped, "admit");
  }

  void on_queue_dequeue(std::uint32_t q, std::uint32_t wire_bytes, std::size_t depth_pkts,
                        std::uint64_t enq, std::uint64_t deq, std::uint64_t dropped) {
    QueueShadow& s = shadow(q);
    --s.pkts;
    s.bytes -= wire_bytes;
    if (s.pkts < 0 || s.bytes < 0) {
      fail("queue-accounting", "queue %u dequeued more than it admitted (pkts %lld, bytes %lld)",
           q, static_cast<long long>(s.pkts), static_cast<long long>(s.bytes));
      return;
    }
    if (depth_pkts == 0 && s.bytes != 0) {
      fail("queue-accounting", "queue %u empty but shadow holds %lld bytes (byte drift)", q,
           static_cast<long long>(s.bytes));
      return;
    }
    queue_check(q, s, depth_pkts, enq, deq, dropped, "dequeue");
  }

  // An admitted packet leaves the band without being transmitted (Aeolus
  // eviction): shadow shrinks, and the caller reports the drop separately.
  void on_queue_unadmit(std::uint32_t q, std::uint32_t wire_bytes) {
    QueueShadow& s = shadow(q);
    --s.pkts;
    s.bytes -= wire_bytes;
    if (s.pkts < 0 || s.bytes < 0) {
      fail("queue-accounting", "queue %u evicted a packet it never admitted", q);
    }
  }

  // --- event core ----------------------------------------------------------
  void on_event_fire(std::int64_t when_ns, std::int64_t clock_before_ns) {
    if (when_ns < clock_before_ns) {
      fail("clock-monotonicity", "event at %lld ns fired with clock already at %lld ns",
           static_cast<long long>(when_ns), static_cast<long long>(clock_before_ns));
    } else if (when_ns < last_fire_ns_) {
      fail("wheel-order", "event at %lld ns fired after one at %lld ns",
           static_cast<long long>(when_ns), static_cast<long long>(last_fire_ns_));
    }
    if (when_ns > last_fire_ns_) last_fire_ns_ = when_ns;
  }

  // --- transport invariants ------------------------------------------------
  // An allowance grant left the receiver. `granted_total_pkts` counts
  // unscheduled + granted_new after this grant; `marked_expected` is the
  // AMRT marked-grant allowance (0 = protocol without the marked path).
  void on_grant_sent(std::uint64_t flow, bool marked, std::uint32_t allowance,
                     std::uint64_t granted_total_pkts, std::uint32_t total_pkts,
                     std::uint64_t remaining_before, std::uint32_t marked_expected) {
    check_not_finished(flow, "grant");
    if (granted_total_pkts > total_pkts) {
      fail("grant-budget", "flow %llu granted %llu of %u packets",
           static_cast<unsigned long long>(flow),
           static_cast<unsigned long long>(granted_total_pkts), total_pkts);
    }
    if (marked && marked_expected != 0) {
      const std::uint64_t want =
          remaining_before < marked_expected ? remaining_before : marked_expected;
      if (allowance != want) {
        fail("marked-grant-allowance", "flow %llu marked grant carries allowance %u, expected %llu",
             static_cast<unsigned long long>(flow), allowance,
             static_cast<unsigned long long>(want));
      }
    }
  }

  // A repair grant (re-request of one sequence number) left the receiver.
  void on_repair_grant(std::uint64_t flow, std::uint32_t seq, std::uint32_t total_pkts) {
    check_not_finished(flow, "repair grant");
    if (seq >= total_pkts) {
      fail("repair-range", "flow %llu re-requested seq %u of %u",
           static_cast<unsigned long long>(flow), seq, total_pkts);
    }
  }

  // Homa's byte-offset grant.
  void on_offset_grant(std::uint64_t flow, std::uint64_t offset, std::uint64_t flow_bytes) {
    check_not_finished(flow, "offset grant");
    if (offset > flow_bytes) {
      fail("grant-budget", "flow %llu offset-granted %llu of %llu bytes",
           static_cast<unsigned long long>(flow), static_cast<unsigned long long>(offset),
           static_cast<unsigned long long>(flow_bytes));
    }
  }

  // The sender answered one grant with `data_pkts_sent` data packets. A
  // `repair` grant asks for one retransmission, others for `allowance` new
  // packets. Offset grants (Homa) authorize by byte position, not count.
  void on_grant_response(std::uint64_t flow, std::uint32_t allowance, bool repair,
                         std::uint64_t data_pkts_sent, bool offset_semantics) {
    if (offset_semantics) return;
    const std::uint64_t allowed = repair ? 1 : allowance;
    if (data_pkts_sent > allowed) {
      fail("grant-response", "flow %llu sender sent %llu packets for a grant allowing %llu",
           static_cast<unsigned long long>(flow),
           static_cast<unsigned long long>(data_pkts_sent),
           static_cast<unsigned long long>(allowed));
    }
  }

  void on_flow_finished(std::uint64_t flow, std::uint32_t total_pkts, std::uint32_t received_pkts,
                        std::uint32_t got_count) {
    if (received_pkts != total_pkts || got_count != total_pkts) {
      fail("seq-bitmap", "flow %llu finished with %u/%u received but %u bits set",
           static_cast<unsigned long long>(flow), received_pkts, total_pkts, got_count);
    }
    finished_.insert(flow);
  }

  // --- DCTCP window invariants (transport/dctcp.hpp) -----------------------
  // Fired after every window update (fresh ACK or timeout): alpha is a
  // fraction by construction and cwnd must stay inside [1, cap].
  void on_dctcp_window(std::uint64_t flow, double cwnd, double alpha, double cap) {
    if (!(alpha >= 0.0 && alpha <= 1.0)) {
      fail("dctcp-alpha", "flow %llu alpha %f outside [0, 1]",
           static_cast<unsigned long long>(flow), alpha);
      return;
    }
    if (cwnd < 1.0) {
      fail("dctcp-cwnd", "flow %llu cwnd %f below one packet",
           static_cast<unsigned long long>(flow), cwnd);
      return;
    }
    if (cwnd > cap) {
      fail("dctcp-cwnd", "flow %llu cwnd %f above cap %f",
           static_cast<unsigned long long>(flow), cwnd, cap);
    }
  }

  // Fired after each data transmission with the packets then in flight: the
  // sender must never run ahead of floor(cwnd) (minimum one).
  void on_dctcp_send(std::uint64_t flow, std::uint32_t inflight, double cwnd) {
    const double allowed = cwnd < 1.0 ? 1.0 : cwnd;
    if (static_cast<double>(inflight) > allowed) {
      fail("dctcp-inflight", "flow %llu has %u packets in flight with cwnd %f",
           static_cast<unsigned long long>(flow), inflight, cwnd);
    }
  }

  // --- sharded runs (net/partition.hpp) ------------------------------------
  // Cross-shard mode: one packet's inject and deliver/drop hooks may run on
  // different shards' auditors, so an unknown key books a negative entry
  // instead of being skipped and the local duplicate checks are disabled (a
  // negative count is legitimate until the ledgers merge). Per-shard
  // check_drained() is meaningless in this mode — only the merged master
  // closes — which is why only ShardedRunner flips it.
  void set_cross_shard(bool on) { cross_shard_ = on; }

  // Folds `other`'s state into this auditor: ledger entries and payload
  // tallies sum (credits cancel debits), queue shadows add element-wise,
  // finished flows union, violations append. Called once per shard at the
  // end of a sharded run, with every worker thread joined.
  void merge_from(const Auditor& other) {
    for (const auto& [key, outstanding] : other.ledger_) {
      if (outstanding != 0) ledger_[key] += outstanding;
    }
    if (queues_.size() < other.queues_.size()) queues_.resize(other.queues_.size());
    for (std::size_t i = 0; i < other.queues_.size(); ++i) {
      queues_[i].pkts += other.queues_[i].pkts;
      queues_[i].bytes += other.queues_[i].bytes;
    }
    finished_.insert(other.finished_.begin(), other.finished_.end());
    injected_ += other.injected_;
    delivered_ += other.delivered_;
    dropped_ += other.dropped_;
    trimmed_ += other.trimmed_;
    faulted_ += other.faulted_;
    injected_payload_ += other.injected_payload_;
    delivered_payload_ += other.delivered_payload_;
    dropped_payload_ += other.dropped_payload_;
    trimmed_payload_ += other.trimmed_payload_;
    faulted_payload_ += other.faulted_payload_;
    if (other.last_fire_ns_ > last_fire_ns_) last_fire_ns_ = other.last_fire_ns_;
    violation_count_ += other.violation_count_;
    for (const auto& v : other.violations_) {
      if (violations_.size() >= kMaxStoredViolations) break;
      violations_.push_back(v);
    }
  }

  // --- results -------------------------------------------------------------
  [[nodiscard]] std::uint64_t violation_count() const { return violation_count_; }
  [[nodiscard]] const std::vector<std::string>& violations() const { return violations_; }
  [[nodiscard]] std::uint64_t injected() const { return injected_; }
  [[nodiscard]] std::uint64_t delivered() const { return delivered_; }
  [[nodiscard]] std::uint64_t dropped() const { return dropped_; }
  [[nodiscard]] std::uint64_t trimmed() const { return trimmed_; }
  [[nodiscard]] std::uint64_t faulted() const { return faulted_; }
  // True when the auditor is compiled in (the stub returns false).
  [[nodiscard]] static constexpr bool enabled() { return true; }

 private:
  struct QueueShadow {
    std::int64_t pkts = 0;
    std::int64_t bytes = 0;
  };

  // (flow, seq, type) packed: flow in the high 30 bits (experiment flow ids
  // are small), seq in the middle, the 2-bit type tag at the bottom.
  [[nodiscard]] static std::uint64_t key_of(const PacketInfo& p) {
    return (p.flow << 34) | (static_cast<std::uint64_t>(p.seq) << 2) |
           (static_cast<std::uint64_t>(p.type) & 3u);
  }

  // Dense shadow lookup: queues are identified by their pool slot (ports_
  // index inside Network), so the hot hooks index a vector instead of
  // hashing a pointer. Standalone queues in unit tests bind small ad-hoc
  // slots; resize-on-demand keeps those working.
  QueueShadow& shadow(std::uint32_t q) {
    if (q >= queues_.size()) queues_.resize(static_cast<std::size_t>(q) + 1);
    return queues_[q];
  }

  void queue_check(std::uint32_t q, const QueueShadow& s, std::size_t depth_pkts,
                   std::uint64_t enq, std::uint64_t deq, std::uint64_t dropped, const char* op) {
    if (static_cast<std::int64_t>(depth_pkts) != s.pkts) {
      fail("queue-accounting", "queue %u depth %zu != shadow %lld after %s", q, depth_pkts,
           static_cast<long long>(s.pkts), op);
      return;
    }
    if (enq != deq + dropped + depth_pkts) {
      fail("queue-accounting",
           "queue %u stats identity broken after %s: enqueued %llu != dequeued %llu + dropped %llu + depth %zu",
           q, op, static_cast<unsigned long long>(enq), static_cast<unsigned long long>(deq),
           static_cast<unsigned long long>(dropped), depth_pkts);
    }
  }

  void check_not_finished(std::uint64_t flow, const char* what) {
    if (finished_.count(flow) != 0) {
      fail("grant-after-finish", "flow %llu received a %s after completion",
           static_cast<unsigned long long>(flow), what);
    }
  }

  __attribute__((format(printf, 3, 4))) void fail(const char* invariant, const char* fmt, ...) {
    char buf[512];
    std::va_list args;
    va_start(args, fmt);
    std::vsnprintf(buf, sizeof(buf), fmt, args);
    va_end(args);

    ++violation_count_;
    std::string msg = std::string("[") + invariant + "] " + buf;
    if (violations_.size() < kMaxStoredViolations) violations_.push_back(msg);
    if (fail_fast()) {
      std::fprintf(stderr, "AMRT_AUDIT violation: %s\n", msg.c_str());
      if (!context().empty()) std::fprintf(stderr, "replay: %s\n", context().c_str());
      std::abort();
    }
  }

  std::unordered_map<std::uint64_t, std::int64_t> ledger_;
  std::vector<QueueShadow> queues_;  // indexed by queue pool slot
  std::unordered_set<std::uint64_t> finished_;
  std::uint64_t injected_ = 0, delivered_ = 0, dropped_ = 0, trimmed_ = 0, faulted_ = 0;
  std::uint64_t injected_payload_ = 0, delivered_payload_ = 0, dropped_payload_ = 0,
                trimmed_payload_ = 0, faulted_payload_ = 0;
  std::int64_t last_fire_ns_ = INT64_MIN;
  std::uint64_t violation_count_ = 0;
  std::vector<std::string> violations_;
  bool cross_shard_ = false;
};

#else  // !AMRT_AUDIT — signature-identical stub; every hook site folds away.

class Auditor {
 public:
  static constexpr std::size_t kMaxStoredViolations = 64;
  void on_inject(const PacketInfo&) {}
  void on_deliver(const PacketInfo&) {}
  void on_drop(const PacketInfo&, DropReason) {}
  void on_trim(const PacketInfo&, std::uint32_t) {}
  void check_drained() {}
  void on_queue_admit(std::uint32_t, std::uint32_t, std::size_t, std::uint64_t, std::uint64_t,
                      std::uint64_t) {}
  void on_queue_dequeue(std::uint32_t, std::uint32_t, std::size_t, std::uint64_t, std::uint64_t,
                        std::uint64_t) {}
  void on_queue_unadmit(std::uint32_t, std::uint32_t) {}
  void on_event_fire(std::int64_t, std::int64_t) {}
  void on_grant_sent(std::uint64_t, bool, std::uint32_t, std::uint64_t, std::uint32_t,
                     std::uint64_t, std::uint32_t) {}
  void on_repair_grant(std::uint64_t, std::uint32_t, std::uint32_t) {}
  void on_offset_grant(std::uint64_t, std::uint64_t, std::uint64_t) {}
  void on_grant_response(std::uint64_t, std::uint32_t, bool, std::uint64_t, bool) {}
  void on_flow_finished(std::uint64_t, std::uint32_t, std::uint32_t, std::uint32_t) {}
  void on_dctcp_window(std::uint64_t, double, double, double) {}
  void on_dctcp_send(std::uint64_t, std::uint32_t, double) {}
  void set_cross_shard(bool) {}
  void merge_from(const Auditor&) {}
  [[nodiscard]] std::uint64_t violation_count() const { return 0; }
  [[nodiscard]] const std::vector<std::string>& violations() const {
    static const std::vector<std::string> empty;
    return empty;
  }
  [[nodiscard]] std::uint64_t injected() const { return 0; }
  [[nodiscard]] std::uint64_t delivered() const { return 0; }
  [[nodiscard]] std::uint64_t dropped() const { return 0; }
  [[nodiscard]] std::uint64_t trimmed() const { return 0; }
  [[nodiscard]] std::uint64_t faulted() const { return 0; }
  [[nodiscard]] static constexpr bool enabled() { return false; }
};

#endif  // AMRT_AUDIT

}  // namespace amrt::audit

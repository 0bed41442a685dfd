// One-stop construction of a protocol's moving parts: the endpoint, the
// switch queue discipline it expects, and (for AMRT) the anti-ECN marker.
// Experiments pick a Protocol; everything else follows.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>

#include "core/amrt.hpp"
#include "net/queue.hpp"
#include "transport/config.hpp"
#include "transport/endpoint.hpp"

namespace amrt::core {

[[nodiscard]] std::unique_ptr<transport::TransportEndpoint> make_endpoint(
    transport::Protocol proto, sim::Simulation& sim, net::Host& host,
    const transport::TransportConfig& cfg, stats::FlowObserver* observer);

struct QueueConfig {
  std::size_t buffer_pkts = 128;      // Section 8.1's switch buffer
  std::size_t trim_threshold = 8;     // NDP trimming point (Section 6)
  std::size_t priority_levels = 8;    // Homa / PIAS priority bands
  std::size_t host_nic_pkts = 8192;   // room for the unscheduled burst
  std::size_t ecn_threshold_pkts = 20;  // DCTCP's K, in data packets
  // AMRT extension: Aeolus-style selective dropping — when a queue is full,
  // blind unscheduled packets are sacrificed before granted traffic.
  bool selective_drop = false;
  // Eq. (2)'s MSS for the anti-ECN marker: the gap must fit this many bytes
  // to count as spare bandwidth. The paper uses the full 1500B MTU.
  std::uint32_t marker_probe_bytes = net::kMtuBytes;
};

// Switch-port queue discipline per protocol: trimming for NDP, strict
// priorities for Homa and DCTCP (PIAS bands), drop-tail otherwise.
[[nodiscard]] net::QueueFactory make_queue_factory(transport::Protocol proto, QueueConfig cfg = {});

// Anti-ECN markers for AMRT (probing `marker_probe_bytes`), threshold-ECN
// for DCTCP (K = `ecn_threshold_pkts`); a null factory for the baselines.
[[nodiscard]] net::MarkerFactory make_marker_factory(transport::Protocol proto,
                                                     QueueConfig cfg = {});

// --- mixed AMRT + DCTCP fabrics (DESIGN.md §13) -----------------------------
// A shared fabric carries both populations: strict-priority queues (AMRT
// data rides band 0, above every demoted PIAS band) and one composite marker
// per port holding both ECN semantics.
[[nodiscard]] net::QueueFactory make_mixed_queue_factory(QueueConfig cfg = {});
[[nodiscard]] net::MarkerFactory make_mixed_marker_factory(QueueConfig cfg = {});

// A host endpoint carrying both transports, dispatching each flow by the
// predicate (true = DCTCP background, false = AMRT foreground). Both ends of
// a flow must agree on the predicate, so it is a pure function of the id.
[[nodiscard]] std::unique_ptr<transport::TransportEndpoint> make_mixed_endpoint(
    sim::Simulation& sim, net::Host& host, const transport::TransportConfig& cfg,
    stats::FlowObserver* observer, std::function<bool(net::FlowId)> is_background);

}  // namespace amrt::core

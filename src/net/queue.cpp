#include "net/queue.hpp"

namespace amrt::net {

bool EgressQueue::overflow(Packet&& pkt) {
  switch (overflow_) {
    case Overflow::kDrop:
      break;
    case Overflow::kTrim:
      // NDP: cut the payload, keep the header. The header rides the control
      // band so the receiver learns of the loss one RTT faster than a timeout.
      trim_to_control(std::move(pkt));
      return false;  // not admitted to the data band (counted as trim, not drop)
    case Overflow::kEvictUnscheduled: {
      if (pkt.unscheduled) {
        return drop_data(std::move(pkt), audit::DropReason::kUnscheduledSacrifice);
      }
      // Scheduled traffic evicts the youngest blind packet, if any; a band
      // full of scheduled packets tail-drops.
      RingDeque<Packet>& fifo = bands_.front();
      for (std::size_t i = fifo.size(); i-- > 0;) {
        if (fifo[i].unscheduled) {
          drop_admitted(std::move(fifo[i]), audit::DropReason::kEvictedUnscheduled);
          fifo.erase(i);
          fifo.push_back(std::move(pkt));
          return true;
        }
      }
      break;
    }
  }
  return drop_data(std::move(pkt), audit::DropReason::kDataCapacity);
}

std::size_t EgressQueue::flush_faulted() {
  std::size_t flushed = 0;
  while (!control_.empty()) {
    drop_admitted(control_.pop_front(), audit::DropReason::kLinkDown);
    ++flushed;
  }
  while (auto pkt = pop_data()) {
    drop_admitted(std::move(*pkt), audit::DropReason::kLinkDown);
    ++flushed;
  }
  return flushed;
}

}  // namespace amrt::net

#pragma once
// Single-threaded open-loop sFlow sender for the ce1-wire workload.
//
// The whole schedule is drawn up front from the seed (exponential
// inter-arrival times at the target rate) and every datagram is sent on its
// absolute deadline, never rescheduled: a stalled receiver sees queueing,
// not reduced load. Each datagram's due time is kept, and so is how late
// the send actually started — latency is measured from the due time, so a
// stall in the sender itself is charged to the system rather than hidden.
// The stream ends with netio::encode_fin_sentinel (repeated as loss
// insurance; the listener stops at the first).

#include <cstdint>
#include <vector>

#include "feed.hpp"

namespace perfbench {

class OpenLoopSender {
 public:
  /// Schedules stream datagrams [first, first + datagrams): send offsets
  /// drawn at `rate` datagrams/s from `seed`.
  OpenLoopSender(const Trace& trace, std::uint64_t first, double rate,
                 std::uint64_t datagrams, std::uint64_t seed);

  /// Sends every scheduled datagram on its deadline (start_ns + offset) to
  /// 127.0.0.1:`port`, then the FIN sentinel. Runs on the calling thread.
  void run(std::uint16_t port, std::uint64_t start_ns);

  /// Absolute due time of the k-th scheduled datagram (valid after run()).
  [[nodiscard]] std::uint64_t due_ns(std::uint64_t k) const noexcept {
    return start_ns_ + offsets_ns_[k];
  }
  /// Per-datagram send start minus due time, ns (valid after run()).
  [[nodiscard]] const std::vector<std::uint64_t>& late_ns() const noexcept {
    return late_ns_;
  }
  [[nodiscard]] std::uint64_t sent() const noexcept { return sent_; }

 private:
  const Trace& trace_;
  std::uint64_t first_ = 0;
  std::vector<std::uint64_t> offsets_ns_;
  std::vector<std::uint64_t> late_ns_;
  std::uint64_t start_ns_ = 0;
  std::uint64_t sent_ = 0;
};

}  // namespace perfbench

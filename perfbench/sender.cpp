#include "sender.hpp"

#include <time.h>

#include <array>
#include <cerrno>
#include <cmath>

#include "netio/udp.hpp"
#include "spans.hpp"
#include "util/rng.hpp"

namespace perfbench {

OpenLoopSender::OpenLoopSender(const Trace& trace, std::uint64_t first,
                               double rate, std::uint64_t datagrams,
                               std::uint64_t seed)
    : trace_(trace), first_(first) {
  util::Rng rng(seed ^ 0x5E4D5E4DULL);
  offsets_ns_.reserve(datagrams);
  double offset_s = 0.0;
  for (std::uint64_t i = 0; i < datagrams; ++i) {
    offsets_ns_.push_back(static_cast<std::uint64_t>(offset_s * 1e9));
    offset_s += -std::log(1.0 - rng.uniform()) / rate;
  }
  late_ns_.reserve(datagrams);
}

void OpenLoopSender::run(std::uint16_t port, std::uint64_t start_ns) {
  start_ns_ = start_ns;
  netio::UdpSocket socket;
  socket.connect("127.0.0.1", port);
  const SpanCursor cursor(trace_);
  std::array<std::uint8_t, 65536> buffer{};
  for (std::uint64_t k = 0; k < offsets_ns_.size(); ++k) {
    const std::uint64_t due = start_ns_ + offsets_ns_[k];
    std::uint64_t now = now_ns();
    if (now < due) {
      // steady_clock is CLOCK_MONOTONIC: sleep to the absolute deadline.
      timespec until{};
      until.tv_sec = static_cast<time_t>(due / 1'000'000'000ULL);
      until.tv_nsec = static_cast<long>(due % 1'000'000'000ULL);
      while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &until, nullptr) ==
             EINTR) {
      }
      now = now_ns();
    }
    late_ns_.push_back(now - due);
    const std::size_t size = cursor.copy(first_ + k, buffer.data());
    socket.send(std::span<const std::uint8_t>(buffer.data(), size));
    ++sent_;
  }
  const std::vector<std::uint8_t> fin = netio::encode_fin_sentinel(sent_);
  for (int repeat = 0; repeat < 3; ++repeat) socket.send(fin);
}

}  // namespace perfbench

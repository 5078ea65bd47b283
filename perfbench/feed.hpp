#pragma once
// Workloads and their input stream.
//
// Every workload replays a seeded IXP-CE1 trace (flowgen, with attacks,
// blackhole announcements and withdrawals) as sFlow v5 wire datagrams plus
// the BGP updates interleaved by export minute, the order ixpd's feeds use.
// A span of `span_min` trace minutes is generated and encoded once at
// set-up, then replayed in passes for as long as the run lasts: pass k adds
// k * span_min minutes to every datagram's sysUptime and to every BGP
// update, so stream minutes keep rising while set-up cost stays independent
// of run length. The first `window_min` stream minutes are warm-up (the
// detector's collection day, or one pass that warms the engine); the
// measured window starts on a pass boundary after them.
//
// Because every pass carries the same traffic, the detector's trailing
// training window holds the same mix from its first retrain on, so the
// measured window is stationary from its first minute.
//
// The end-to-end run, the single-threaded reference and the traced replay
// all consume this one definition, so they see byte-identical streams.

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "bgp/message.hpp"
#include "core/live_detector.hpp"
#include "runtime/engine.hpp"

namespace perfbench {

using namespace scrubber;

struct WorkloadConfig {
  std::string name;
  std::uint32_t sampling = 10;    ///< sFlow 1-in-N
  std::uint32_t span_min = 0;     ///< pre-encoded replay span
  /// Warm-up stream minutes (a whole number of passes); the measured window
  /// starts at this minute.
  std::uint32_t window_min = 0;
  /// The detector scores minutes >= window_min (false: it never leaves
  /// its collection warm-up, so no model is ever trained).
  bool detects = false;
  bool wire = false;              ///< measured span arrives over loopback UDP
  double rate = 0.0;              ///< wire: datagrams/s offered (open loop)
  std::uint32_t retrain_min = 120;          ///< retrain cadence (trace minutes)
  std::uint32_t training_window_min = 1440; ///< trailing training window
};

/// The benchmark's workloads, by name; throws std::invalid_argument.
[[nodiscard]] const WorkloadConfig& workload_by_name(const std::string& name);

/// ixpd --listen engine defaults: 1 shard, batch 512, queue 4096, 4096
/// pooled 8 KiB wire slots, blocking backpressure.
[[nodiscard]] runtime::EngineConfig engine_config(const WorkloadConfig& w);

/// LiveDetector settings shared by the end-to-end run and both replays.
[[nodiscard]] core::LiveDetectorConfig detector_config(const WorkloadConfig& w,
                                                       std::uint64_t seed);

/// flowgen seed of every workload's traffic and attack schedule (see
/// build_trace for what the workload seed varies).
inline constexpr std::uint64_t kScenarioSeed = 1;

/// Learning-pool participants (training, aggregation) in every run.
inline constexpr unsigned kLearnThreads = 1;

using Update = std::pair<std::uint32_t, bgp::UpdateMessage>;

/// One workload's pre-built input: the encoded span and its BGP updates.
struct Trace {
  const WorkloadConfig* workload = nullptr;
  std::uint64_t seed = 0;
  std::vector<std::uint8_t> bytes;     ///< span datagrams, back to back
  std::vector<std::uint32_t> offsets;  ///< datagram i = bytes[offsets[i], offsets[i+1])
  std::vector<std::uint32_t> minutes;  ///< export minute of datagram i (pass 0)
  std::vector<Update> updates;         ///< minutes clamped into the span

  [[nodiscard]] std::size_t datagrams_per_pass() const noexcept {
    return minutes.size();
  }
};

/// Generates and encodes the span (the set-up work the setup_s metric
/// times). The workload seed draws the trace's address universe (every
/// member, server, client and reflector address, and the attack-vector
/// mix); traffic volumes and the attack schedule come from kScenarioSeed,
/// because CE1's Pareto attack sizes would otherwise swing the training
/// volume, and with it every timing, from seed to seed.
[[nodiscard]] Trace build_trace(const WorkloadConfig& w, std::uint64_t seed,
                                unsigned threads);

/// sysUptime sits at bytes [20, 24) of an sFlow v5 (IPv4 agent) datagram.
inline constexpr std::size_t kUptimeOffset = 20;

/// Cursor over the replayed stream: datagram i counts across passes. Keeps
/// its own BGP position, so each consumer holds its own cursor.
class SpanCursor {
 public:
  explicit SpanCursor(const Trace& trace) : trace_(trace) {}

  [[nodiscard]] std::uint32_t minute_of(std::uint64_t i) const noexcept;
  /// Writes datagram i (uptime advanced by its pass) into `out`, which must
  /// hold 64 KiB; returns the size.
  std::size_t copy(std::uint64_t i, std::uint8_t* out) const noexcept;

  /// Delivers, in order, every not yet delivered BGP update whose
  /// (pass-shifted) minute is <= `minute`.
  void deliver_bgp(
      std::uint32_t minute,
      const std::function<void(const bgp::UpdateMessage&, std::uint64_t)>& bgp);

 private:
  const Trace& trace_;
  std::uint64_t next_pass_ = 0;
  std::size_t next_update_ = 0;
};

/// Order-sensitive 64-bit digest of one minute's flows (every field), as if
/// every flow's minute were `minute_shift` later.
[[nodiscard]] std::uint64_t digest_flows(std::span<const net::FlowRecord> flows,
                                         std::uint32_t minute_shift = 0);

/// One delivered minute, as the verdict stream records it.
struct MinuteRecord {
  std::uint32_t minute = 0;
  std::uint32_t flows = 0;
  std::uint64_t digest = 0;
  bool scored = false;  ///< the detector ran a detection pass on it

  friend bool operator==(const MinuteRecord&, const MinuteRecord&) = default;
};

/// A detection: minute, target, score to 9 decimals, flows and vector.
[[nodiscard]] std::string format_detection(const core::Detection& detection);

}  // namespace perfbench

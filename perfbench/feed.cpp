#include "feed.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <stdexcept>

#include "core/collector.hpp"
#include "flowgen/generator.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

const net::Ipv4Address kAgent = net::Ipv4Address::from_octets(10, 99, 0, 1);

/// IXP-CE1 with its address universe drawn from the workload seed.
flowgen::IxpProfile ce1_profile(std::uint64_t seed) {
  flowgen::IxpProfile profile = flowgen::ixp_ce1();
  profile.reflector_universe_seed = util::mix64(seed ^ 0xCE1);
  return profile;
}

/// Updates of [start, end) with minutes clamped into the range: a
/// withdrawal scheduled past the end closes its blackhole on the last
/// minute, so every pass of a replayed span starts from the same state.
std::vector<Update> clamp_updates(const std::vector<Update>& updates,
                                  std::uint32_t start, std::uint32_t end) {
  std::vector<Update> out;
  out.reserve(updates.size());
  for (const auto& [minute, update] : updates) {
    out.emplace_back(std::clamp(minute, start, end - 1), update);
  }
  return out;
}

std::vector<WorkloadConfig> make_workloads() {
  std::vector<WorkloadConfig> out;

  // Ingest: 1:1 sampling (~8.5k samples per trace minute), the detector
  // never leaves its collection warm-up, the first pass warms the engine.
  // Decode, route, collect and merge carry the work.
  WorkloadConfig ingest;
  ingest.name = "ce1-ingest";
  ingest.sampling = 1;
  ingest.span_min = 30;
  ingest.window_min = 30;
  ingest.detects = false;
  out.push_back(ingest);

  // Detect: 1:10 sampling, a warm-up day (six passes), then every minute is
  // scored and the model retrains every 2 trace-hours over the trailing
  // day (a time-compressed daily retrain over the trailing month, §6.3).
  WorkloadConfig detect;
  detect.name = "ce1-detect";
  detect.sampling = 10;
  detect.span_min = 240;
  detect.window_min = 1440;
  detect.detects = true;
  out.push_back(detect);

  // Wire: the ce1-detect stream; after the in-process warm-up day the
  // measured passes arrive over loopback UDP from the open-loop sender at
  // a fixed rate, about half of ce1-detect's closed-loop capacity
  // (~8k datagrams/s) on a 4-core 2.1 GHz Xeon VM.
  WorkloadConfig wire = detect;
  wire.name = "ce1-wire";
  wire.wire = true;
  wire.rate = 4000.0;
  out.push_back(wire);
  return out;
}

}  // namespace

const WorkloadConfig& workload_by_name(const std::string& name) {
  static const std::vector<WorkloadConfig> workloads = make_workloads();
  for (const auto& w : workloads) {
    if (w.name == name) return w;
  }
  throw std::invalid_argument("unknown workload: " + name);
}

runtime::EngineConfig engine_config(const WorkloadConfig& w) {
  runtime::EngineConfig config;
  config.shards = 1;
  config.queue_capacity = 4096;
  config.batch_records = 512;
  config.backpressure = runtime::Backpressure::kBlock;
  config.collector.sampling_rate = w.sampling;
  config.wire_pool_slots = 4096;
  config.wire_slot_bytes = 8192;
  return config;
}

core::LiveDetectorConfig detector_config(const WorkloadConfig& w,
                                         std::uint64_t seed) {
  core::LiveDetectorConfig config;
  config.warmup_min = w.detects ? w.window_min : (1U << 30);
  config.retrain_interval_min = w.retrain_min;
  config.training_window_min = w.training_window_min;
  config.min_flows_per_target = 8;
  config.seed = seed ^ 0xD43;
  config.agg_threads = kLearnThreads;
  return config;
}

Trace build_trace(const WorkloadConfig& w, std::uint64_t seed,
                  unsigned threads) {
  Trace trace;
  trace.workload = &w;
  trace.seed = seed;
  flowgen::TrafficGenerator span(ce1_profile(seed), kScenarioSeed);
  trace.offsets.push_back(0);
  span.generate_stream(
      0, w.span_min, flowgen::TrafficGenerator::Labeling::kBlackholeRegistry,
      [&](std::uint32_t minute, std::span<const net::FlowRecord> flows) {
        for (const auto& datagram :
             core::flows_to_datagrams(flows, w.sampling, kAgent)) {
          const std::vector<std::uint8_t> wire = datagram.encode();
          trace.bytes.insert(trace.bytes.end(), wire.begin(), wire.end());
          trace.offsets.push_back(static_cast<std::uint32_t>(trace.bytes.size()));
          trace.minutes.push_back(minute);
        }
      },
      threads);
  trace.updates = clamp_updates(span.updates(), 0, w.span_min);
  return trace;
}

std::uint32_t SpanCursor::minute_of(std::uint64_t i) const noexcept {
  const std::uint64_t n = trace_.datagrams_per_pass();
  return trace_.minutes[i % n] +
         static_cast<std::uint32_t>(i / n) * trace_.workload->span_min;
}

std::size_t SpanCursor::copy(std::uint64_t i, std::uint8_t* out) const noexcept {
  const std::uint64_t n = trace_.datagrams_per_pass();
  const std::size_t j = i % n;
  const std::size_t size = trace_.offsets[j + 1] - trace_.offsets[j];
  std::memcpy(out, trace_.bytes.data() + trace_.offsets[j], size);
  const auto shift_ms = static_cast<std::uint32_t>(
      (i / n) * trace_.workload->span_min * 60'000U);  // runs stop before 2^32
  std::uint8_t* field = out + kUptimeOffset;
  const std::uint32_t uptime =
      ((std::uint32_t{field[0]} << 24) | (std::uint32_t{field[1]} << 16) |
       (std::uint32_t{field[2]} << 8) | std::uint32_t{field[3]}) +
      shift_ms;
  field[0] = static_cast<std::uint8_t>(uptime >> 24);
  field[1] = static_cast<std::uint8_t>(uptime >> 16);
  field[2] = static_cast<std::uint8_t>(uptime >> 8);
  field[3] = static_cast<std::uint8_t>(uptime);
  return size;
}

void SpanCursor::deliver_bgp(
    std::uint32_t minute,
    const std::function<void(const bgp::UpdateMessage&, std::uint64_t)>& bgp) {
  const auto& updates = trace_.updates;
  if (updates.empty()) return;
  for (;;) {
    if (next_update_ == updates.size()) {
      next_update_ = 0;
      ++next_pass_;
    }
    const std::uint64_t shifted =
        updates[next_update_].first + next_pass_ * trace_.workload->span_min;
    if (shifted > minute) return;
    bgp(updates[next_update_].second, shifted * 60'000);
    ++next_update_;
  }
}

std::uint64_t digest_flows(std::span<const net::FlowRecord> flows,
                           std::uint32_t minute_shift) {
  // FNV-style mixing over explicit fields (no struct padding is hashed).
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](std::uint64_t word) {
    h ^= word;
    h *= 0x100000001b3ULL;
    h ^= h >> 29;
  };
  for (const net::FlowRecord& f : flows) {
    mix((std::uint64_t{f.minute + minute_shift} << 32) | f.src_ip.value());
    mix((std::uint64_t{f.dst_ip.value()} << 32) |
        (std::uint64_t{f.src_port} << 16) | f.dst_port);
    mix((std::uint64_t{f.protocol} << 40) | (std::uint64_t{f.tcp_flags} << 32) |
        f.src_member);
    mix((std::uint64_t{f.packets} << 1) | (f.blackholed ? 1U : 0U));
    mix(f.bytes);
  }
  return h;
}

std::string format_detection(const core::Detection& detection) {
  char line[192];
  std::snprintf(line, sizeof(line), "minute=%u target=%s score=%.9f flows=%u",
                detection.minute, detection.target.to_string().c_str(),
                detection.score, detection.flow_count);
  std::string out = line;
  out += " vector=";
  out += detection.vector ? net::vector_name(*detection.vector) : "-";
  return out;
}

}  // namespace perfbench

#pragma once
// Single-threaded replays of a workload's stream, run outside the timed
// window:
//
//   run_reference  core::Collector -> canonical minute order -> LiveDetector,
//                  the verdict stream the multi-threaded end-to-end run must
//                  reproduce bit for bit;
//   run_traced     the same stream through the layers' public functions one
//                  by one (SflowView::decode, Collector::ingest_samples,
//                  Balancer, IxpScrubber::{mine_tagging_rules, aggregate,
//                  train, score_all}), each call bracketed by a span. Its
//                  detector loop mirrors LiveDetector::ingest_minute step
//                  for step, so its verdicts must match too.

#include <cstdint>
#include <string>
#include <vector>

#include "feed.hpp"
#include "spans.hpp"

namespace perfbench {

struct ReplayOutput {
  std::vector<std::string> detections;
  std::vector<MinuteRecord> minutes;
  std::uint64_t datagrams = 0;      ///< decoded and collected
  std::uint64_t decode_errors = 0;
  double wall_s = 0.0;
  /// Flows of minutes [kept_from, kept_from + kept.size()) when asked for.
  std::uint32_t kept_from = 0;
  std::vector<std::vector<net::FlowRecord>> kept;
};

/// Work counts of the traced replay: the per-layer cost denominators.
struct LayerCounts {
  std::uint64_t samples = 0;         ///< flow samples decoded and collected
  std::uint64_t merged_flows = 0;    ///< flows out of the collector
  std::uint64_t balance_flows = 0;   ///< flows offered to the balancer
  std::uint64_t live_flows = 0;      ///< flows aggregated for detection
  std::uint64_t records_scored = 0;  ///< aggregated records scored
  std::uint64_t records_useful = 0;  ///< scored with flow_count >= threshold
  std::uint64_t retrains = 0;        ///< rule-mining passes
  std::uint64_t trains = 0;          ///< model fits
  /// Whole detector-minute durations for minutes of the measured window.
  std::vector<double> detector_minute_ns;
};

/// Replays the first `datagrams` datagrams of the stream, keeping the
/// flows of `keep_minutes` minutes from `keep_from` on.
[[nodiscard]] ReplayOutput run_reference(const Trace& trace,
                                         std::uint64_t datagrams,
                                         std::uint32_t keep_from = 0,
                                         std::uint32_t keep_minutes = 0);

[[nodiscard]] ReplayOutput run_traced(const Trace& trace,
                                      std::uint64_t datagrams,
                                      SpanRecorder& spans, LayerCounts& counts);

}  // namespace perfbench

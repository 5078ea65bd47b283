#include "replay.hpp"

#include <algorithm>
#include <deque>
#include <optional>

#include "core/collector.hpp"
#include "runtime/sharded_collector.hpp"

namespace perfbench {
namespace {

/// A span when tracing, nothing when not (the reference passes nullptr).
class MaybeScope {
 public:
  MaybeScope(SpanRecorder* spans, Layer layer) {
    if (spans != nullptr) scope_.emplace(*spans, layer);
  }

 private:
  std::optional<SpanRecorder::Scope> scope_;
};

/// The reference detector: the product's LiveDetector, untouched.
class ReferenceDetector {
 public:
  ReferenceDetector(const core::LiveDetectorConfig& config,
                    std::vector<std::string>& detections)
      : detector_(config, [&detections](const core::Detection& detection) {
          detections.push_back(format_detection(detection));
        }) {}

  /// Returns whether the minute got a detection pass.
  bool ingest(std::uint32_t minute, std::span<const net::FlowRecord> flows) {
    detector_.ingest_minute(minute, flows);
    return detector_.ready() && !flows.empty();
  }

 private:
  core::LiveDetector detector_;
};

/// LiveDetector::ingest_minute rebuilt from the layers' public calls, one
/// span per call. Any drift from the product loop shows as a verdict
/// mismatch against the end-to-end run.
class TracedDetector {
 public:
  TracedDetector(const core::LiveDetectorConfig& config, std::uint32_t window_min,
                 SpanRecorder& spans, LayerCounts& counts,
                 std::vector<std::string>& detections)
      : config_(config),
        window_min_(window_min),
        spans_(spans),
        counts_(counts),
        detections_(detections) {
    core::ScrubberConfig scrubber_config;
    scrubber_config.model = config_.model;
    scrubber_config.mining = config_.mining;
    scrubber_config.seed = config_.seed;
    scrubber_config.agg_threads = config_.agg_threads;
    scrubber_ = core::IxpScrubber(scrubber_config);
  }

  bool ingest(std::uint32_t minute, std::span<const net::FlowRecord> flows) {
    const std::uint64_t begin = now_ns();
    bool scored = false;
    {
      const auto minute_span = spans_.scope(Layer::kDetector);
      if (!first_minute_) first_minute_ = minute;
      {
        const auto span = spans_.scope(Layer::kBalance);
        core::Balancer balancer(config_.seed ^ minute);
        balancer.add_minute(minute, flows);
        auto balanced = balancer.take_balanced();
        if (!balanced.empty()) window_.emplace_back(minute, std::move(balanced));
        evict(minute);
      }
      counts_.balance_flows += flows.size();
      const bool warmed_up = minute >= *first_minute_ + config_.warmup_min;
      const bool due = !scrubber_.trained() ||
                       minute >= last_retrain_ + config_.retrain_interval_min;
      if (warmed_up && due) retrain(minute);
      if (scrubber_.trained() && !flows.empty()) {
        scored = true;
        score(minute, flows);
      }
    }
    if (minute >= window_min_) {
      counts_.detector_minute_ns.push_back(static_cast<double>(now_ns() - begin));
    }
    return scored;
  }

 private:
  void evict(std::uint32_t now) {
    while (!window_.empty() &&
           window_.front().first + config_.training_window_min <= now) {
      window_.pop_front();
    }
  }

  void retrain(std::uint32_t now) {
    evict(now);
    std::size_t total = 0;
    for (const auto& entry : window_) total += entry.second.size();
    std::vector<net::FlowRecord> training;
    training.reserve(total);
    for (const auto& entry : window_) {
      training.insert(training.end(), entry.second.begin(), entry.second.end());
    }
    if (training.empty()) return;
    {
      const auto span = spans_.scope(Layer::kMine);
      auto rules = scrubber_.mine_tagging_rules(training);
      core::accept_rules_above(rules, config_.rule_min_confidence, 0.0,
                               config_.rule_min_items);
      scrubber_.set_rules(std::move(rules));
    }
    ++counts_.retrains;
    std::optional<core::AggregatedDataset> aggregated;
    {
      const auto span = spans_.scope(Layer::kAggregateTrain);
      aggregated.emplace(scrubber_.aggregate(training));
    }
    if (aggregated->size() < 20 || aggregated->data.positive_count() < 5) return;
    {
      const auto span = spans_.scope(Layer::kTrain);
      scrubber_.train(*aggregated);
    }
    ++counts_.trains;
    last_retrain_ = now;
  }

  void score(std::uint32_t minute, std::span<const net::FlowRecord> flows) {
    std::optional<core::AggregatedDataset> aggregated;
    {
      const auto span = spans_.scope(Layer::kAggregate);
      aggregated.emplace(scrubber_.aggregate(flows));
    }
    counts_.live_flows += flows.size();
    std::vector<double> scores;
    {
      const auto span = spans_.scope(Layer::kScore);
      scores = scrubber_.score_all(*aggregated);
    }
    counts_.records_scored += aggregated->size();
    for (std::size_t i = 0; i < aggregated->size(); ++i) {
      const core::RecordMeta& meta = aggregated->meta[i];
      if (meta.flow_count < config_.min_flows_per_target) continue;
      ++counts_.records_useful;
      if (scores[i] < 0.5) continue;
      core::Detection detection;
      detection.minute = minute;
      detection.target = meta.target;
      detection.score = scores[i];
      detection.flow_count = meta.flow_count;
      detection.vector = meta.dominant_vector;
      detections_.push_back(format_detection(detection));
    }
  }

  core::LiveDetectorConfig config_;
  std::uint32_t window_min_;
  SpanRecorder& spans_;
  LayerCounts& counts_;
  std::vector<std::string>& detections_;
  core::IxpScrubber scrubber_;
  std::deque<std::pair<std::uint32_t, std::vector<net::FlowRecord>>> window_;
  std::optional<std::uint32_t> first_minute_;
  std::uint32_t last_retrain_ = 0;
};

/// Feeds the stream through Collector -> canonical sort -> `detector`,
/// bracketing each layer call when `spans` is set.
template <typename Detector>
void replay(const Trace& trace, std::uint64_t datagrams,
            SpanRecorder* spans, LayerCounts* counts, Detector& detector,
            ReplayOutput& out) {
  const WorkloadConfig& w = *trace.workload;
  std::vector<net::FlowRecord> sorted;
  core::Collector::Config collector_config;
  collector_config.sampling_rate = w.sampling;
  core::Collector collector(
      collector_config,
      [&](std::uint32_t minute, std::span<const net::FlowRecord> flows) {
        {
          const MaybeScope span(spans, Layer::kSort);
          sorted.assign(flows.begin(), flows.end());
          std::sort(sorted.begin(), sorted.end(), runtime::canonical_flow_less);
        }
        if (counts != nullptr) counts->merged_flows += sorted.size();
        const bool scored = detector.ingest(minute, sorted);
        const MaybeScope span(spans, Layer::kBench);
        if (minute >= out.kept_from && minute - out.kept_from < out.kept.size()) {
          out.kept[minute - out.kept_from] = sorted;
        }
        out.minutes.push_back({minute, static_cast<std::uint32_t>(sorted.size()),
                               digest_flows(sorted), scored});
      });

  std::vector<net::SflowFlowSample> samples;
  const auto ingest_wire = [&](std::span<const std::uint8_t> wire) {
    samples.clear();
    net::SflowHeaderView header;
    net::DecodeStatus status = net::DecodeStatus::kOk;
    {
      const MaybeScope span(spans, Layer::kDecode);
      status = net::SflowView::decode(
          wire, header,
          [&samples](const net::SflowFlowSample& sample) { samples.push_back(sample); });
    }
    if (status != net::DecodeStatus::kOk) {
      ++out.decode_errors;
      return;
    }
    ++out.datagrams;
    if (counts != nullptr) counts->samples += samples.size();
    const MaybeScope span(spans, Layer::kCollect);
    collector.ingest_samples(header.uptime_ms, samples);
  };
  const auto ingest_bgp = [&](const bgp::UpdateMessage& update, std::uint64_t now_ms) {
    const MaybeScope span(spans, Layer::kCollect);
    collector.ingest_bgp(update, now_ms);
  };

  const std::uint64_t begin = now_ns();
  SpanCursor cursor(trace);
  std::vector<std::uint8_t> buffer(65536);
  for (std::uint64_t i = 0; i < datagrams; ++i) {
    cursor.deliver_bgp(cursor.minute_of(i), ingest_bgp);
    std::size_t size = 0;
    {
      const MaybeScope span(spans, Layer::kBench);
      size = cursor.copy(i, buffer.data());
    }
    ingest_wire(std::span<const std::uint8_t>(buffer.data(), size));
  }
  {
    const MaybeScope span(spans, Layer::kCollect);
    collector.flush();
  }
  out.wall_s = static_cast<double>(now_ns() - begin) * 1e-9;
}

}  // namespace

ReplayOutput run_reference(const Trace& trace, std::uint64_t datagrams,
                           std::uint32_t keep_from, std::uint32_t keep_minutes) {
  ReplayOutput out;
  out.kept_from = keep_from;
  out.kept.resize(keep_minutes);
  ReferenceDetector detector(detector_config(*trace.workload, trace.seed),
                             out.detections);
  replay(trace, datagrams, nullptr, nullptr, detector, out);
  return out;
}

ReplayOutput run_traced(const Trace& trace, std::uint64_t datagrams,
                        SpanRecorder& spans, LayerCounts& counts) {
  ReplayOutput out;
  TracedDetector detector(detector_config(*trace.workload, trace.seed),
                          trace.workload->window_min, spans, counts,
                          out.detections);
  replay(trace, datagrams, &spans, &counts, detector, out);
  return out;
}

}  // namespace perfbench

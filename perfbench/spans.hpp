#pragma once
// In-memory span recorder for the traced layer replay.
//
// A span is one call into a layer's public function: layer, start, end and
// the span that was open when it began (its parent). Spans are appended to
// one preallocated vector on the replay thread and written out when the
// benchmark ends. A layer's self time is the sum of its spans' durations
// minus the parts covered by their direct children, so the self times of
// all layers partition the time spent inside root spans exactly.

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// The layers the replay brackets. Names match the per-layer metric
/// prefixes (net.*, core.*, arm.*, ml.*) plus the benchmark's own input
/// production and bookkeeping ("bench"), which coverage must account for.
enum class Layer : std::uint8_t {
  kBench,           ///< the benchmark itself: datagram copy, flow digests
  kDecode,          ///< net::SflowView::decode
  kCollect,         ///< core::Collector::ingest_samples / flush
  kSort,            ///< the benchmark's minute copy + canonical sort, a
                    ///< stand-in for the merge stage (not its code)
  kDetector,        ///< one detector minute (parent of the layers below)
  kBalance,         ///< core::Balancer::add_minute + take_balanced
  kMine,            ///< IxpScrubber::mine_tagging_rules + rule acceptance
  kAggregateTrain,  ///< IxpScrubber::aggregate over the training window
  kTrain,           ///< IxpScrubber::train
  kAggregate,       ///< IxpScrubber::aggregate over the live minute
  kScore,           ///< IxpScrubber::score_all
  kCount,
};

inline constexpr std::size_t kLayerCount = static_cast<std::size_t>(Layer::kCount);

[[nodiscard]] const char* layer_name(Layer layer) noexcept;

[[nodiscard]] inline std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

struct Span {
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::int32_t parent = -1;
  Layer layer = Layer::kBench;
};

class SpanRecorder {
 public:
  explicit SpanRecorder(std::size_t expected_spans) {
    spans_.reserve(expected_spans);
  }

  /// RAII bracket: opens a span on construction, closes it on destruction.
  class Scope {
   public:
    Scope(SpanRecorder& recorder, Layer layer) : recorder_(recorder) {
      index_ = static_cast<std::int32_t>(recorder_.spans_.size());
      recorder_.spans_.push_back({now_ns(), 0, recorder_.open_, layer});
      recorder_.open_ = index_;
    }
    ~Scope() {
      Span& span = recorder_.spans_[static_cast<std::size_t>(index_)];
      span.end_ns = now_ns();
      recorder_.open_ = span.parent;
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanRecorder& recorder_;
    std::int32_t index_ = 0;
  };

  [[nodiscard]] Scope scope(Layer layer) { return Scope(*this, layer); }

  [[nodiscard]] const std::vector<Span>& spans() const noexcept {
    return spans_;
  }

  /// Self time per layer (ns): span durations minus direct children.
  [[nodiscard]] std::array<double, kLayerCount> self_ns() const;

  /// Number of spans per layer.
  [[nodiscard]] std::array<std::uint64_t, kLayerCount> calls() const;

  /// Sum of root-span durations (ns): the time the spans account for.
  [[nodiscard]] double root_ns() const;

  /// Writes every span as `layer<TAB>start_ns<TAB>end_ns<TAB>parent`.
  /// Returns false when the file cannot be written.
  bool write_tsv(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::int32_t open_ = -1;
};

}  // namespace perfbench

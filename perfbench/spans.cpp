#include "spans.hpp"

#include <cstdio>

namespace perfbench {

const char* layer_name(Layer layer) noexcept {
  switch (layer) {
    case Layer::kBench: return "bench";
    case Layer::kDecode: return "net.decode";
    case Layer::kCollect: return "core.collect";
    case Layer::kSort: return "bench.minute_sort";
    case Layer::kDetector: return "core.detector";
    case Layer::kBalance: return "core.balance";
    case Layer::kMine: return "arm.mine";
    case Layer::kAggregateTrain: return "core.aggregate_train";
    case Layer::kTrain: return "ml.train";
    case Layer::kAggregate: return "core.aggregate";
    case Layer::kScore: return "ml.score";
    case Layer::kCount: break;
  }
  return "?";
}

std::array<double, kLayerCount> SpanRecorder::self_ns() const {
  std::array<double, kLayerCount> self{};
  for (const Span& span : spans_) {
    const auto duration = static_cast<double>(span.end_ns - span.start_ns);
    self[static_cast<std::size_t>(span.layer)] += duration;
    if (span.parent >= 0) {
      const Span& parent = spans_[static_cast<std::size_t>(span.parent)];
      self[static_cast<std::size_t>(parent.layer)] -= duration;
    }
  }
  return self;
}

std::array<std::uint64_t, kLayerCount> SpanRecorder::calls() const {
  std::array<std::uint64_t, kLayerCount> calls{};
  for (const Span& span : spans_) ++calls[static_cast<std::size_t>(span.layer)];
  return calls;
}

double SpanRecorder::root_ns() const {
  double total = 0.0;
  for (const Span& span : spans_) {
    if (span.parent < 0) total += static_cast<double>(span.end_ns - span.start_ns);
  }
  return total;
}

bool SpanRecorder::write_tsv(const std::string& path) const {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  std::fprintf(file, "layer\tstart_ns\tend_ns\tparent\n");
  for (const Span& span : spans_) {
    std::fprintf(file, "%s\t%llu\t%llu\t%d\n", layer_name(span.layer),
                 static_cast<unsigned long long>(span.start_ns),
                 static_cast<unsigned long long>(span.end_ns), span.parent);
  }
  return std::fclose(file) == 0;
}

}  // namespace perfbench

// In-memory span recorder and sample summaries for the IMP benchmark.
//
// A span is (name, start, end, parent, request id). Spans are kept in memory
// while the workload runs and written out once it ends. Each thread owns its
// own Tracer, so recording takes no lock; the per-thread tracers are merged
// when the run is summarised.
//
// Parents are logical: a replayed inner-layer call (see impbench.cc) runs
// after the outer call returned, yet names that outer span as its parent.
// A span's self time is its duration minus the durations of its children.

#ifndef IMP_PERFBENCH_TRACE_H_
#define IMP_PERFBENCH_TRACE_H_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace impbench {

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Latency samples of one metric, summarised by linear-interpolated
/// percentiles (the same rule as numpy's default).
class Samples {
 public:
  void Add(double v) { values_.push_back(v); }
  void Append(const Samples& other) {
    values_.insert(values_.end(), other.values_.begin(), other.values_.end());
  }
  size_t size() const { return values_.size(); }
  double Sum() const {
    double s = 0;
    for (double v : values_) s += v;
    return s;
  }
  double Mean() const { return values_.empty() ? 0.0 : Sum() / size(); }
  /// Percentile p in [0, 100]; 0 for an empty sample.
  double Percentile(double p) const {
    if (values_.empty()) return 0.0;
    std::vector<double> sorted = values_;
    std::sort(sorted.begin(), sorted.end());
    double rank = p / 100.0 * static_cast<double>(sorted.size() - 1);
    size_t lo = static_cast<size_t>(std::floor(rank));
    size_t hi = std::min(lo + 1, sorted.size() - 1);
    double frac = rank - static_cast<double>(lo);
    return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
  }

 private:
  std::vector<double> values_;
};

struct Span {
  const char* name;  ///< string literal; compared by content when merging
  uint64_t request;
  uint32_t parent;
  int64_t start_ns;
  int64_t end_ns;

  double Seconds() const { return static_cast<double>(end_ns - start_ns) * 1e-9; }
};

/// Per-thread span store. A disabled tracer records nothing, so the
/// untraced runs pay one branch per scope.
class Tracer {
 public:
  static constexpr uint32_t kNoParent = UINT32_MAX;

  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  const std::vector<Span>& spans() const { return spans_; }

  static int64_t NowNs() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
  }

  uint32_t Open(const char* name, uint64_t request, uint32_t parent) {
    spans_.push_back(Span{name, request, parent, NowNs(), 0});
    return static_cast<uint32_t>(spans_.size() - 1);
  }
  void Close(uint32_t id) { spans_[id].end_ns = NowNs(); }

 private:
  bool enabled_;
  std::vector<Span> spans_;
};

/// RAII span. With a disabled tracer (or none) it records nothing.
class Scope {
 public:
  Scope(Tracer* tracer, const char* name, uint64_t request,
        uint32_t parent = Tracer::kNoParent)
      : tracer_(tracer != nullptr && tracer->enabled() ? tracer : nullptr) {
    if (tracer_ != nullptr) id_ = tracer_->Open(name, request, parent);
  }
  ~Scope() { Stop(); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  void Stop() {
    if (tracer_ != nullptr && !stopped_) tracer_->Close(id_);
    stopped_ = true;
  }
  uint32_t id() const { return id_; }

 private:
  Tracer* tracer_;
  uint32_t id_ = Tracer::kNoParent;
  bool stopped_ = false;
};

/// Totals of one span name across all tracers.
struct SpanTotals {
  size_t count = 0;
  double seconds = 0;       ///< summed duration
  double self_seconds = 0;  ///< summed duration minus children

  double MeanSeconds() const { return count == 0 ? 0.0 : seconds / count; }
  double MeanSelfSeconds() const {
    return count == 0 ? 0.0 : self_seconds / count;
  }
};

/// Self time of every span of one tracer (duration minus its children).
inline std::vector<double> SelfSeconds(const Tracer& tracer) {
  const std::vector<Span>& spans = tracer.spans();
  std::vector<double> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) self[i] = spans[i].Seconds();
  for (const Span& s : spans) {
    if (s.parent != Tracer::kNoParent) self[s.parent] -= s.Seconds();
  }
  return self;
}

inline std::map<std::string, SpanTotals> Summarize(
    const std::vector<const Tracer*>& tracers) {
  std::map<std::string, SpanTotals> out;
  for (const Tracer* tracer : tracers) {
    std::vector<double> self = SelfSeconds(*tracer);
    const std::vector<Span>& spans = tracer->spans();
    for (size_t i = 0; i < spans.size(); ++i) {
      SpanTotals& t = out[spans[i].name];
      ++t.count;
      t.seconds += spans[i].Seconds();
      t.self_seconds += self[i];
    }
  }
  return out;
}

/// Write every span as one JSON object per line.
inline bool WriteSpans(const std::string& path,
                       const std::vector<const Tracer*>& tracers) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (size_t t = 0; t < tracers.size(); ++t) {
    const std::vector<Span>& spans = tracers[t]->spans();
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      std::fprintf(f,
                   "{\"thread\":%zu,\"id\":%zu,\"name\":\"%s\",\"request\":%llu,"
                   "\"parent\":%lld,\"start_ns\":%lld,\"end_ns\":%lld}\n",
                   t, i, s.name, static_cast<unsigned long long>(s.request),
                   s.parent == Tracer::kNoParent
                       ? -1LL
                       : static_cast<long long>(s.parent),
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns));
    }
  }
  return std::fclose(f) == 0;
}

}  // namespace impbench

#endif  // IMP_PERFBENCH_TRACE_H_

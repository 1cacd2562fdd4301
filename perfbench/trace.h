// Span recorder and sample statistics for tcbench.
//
// Spans wrap the benchmark's own calls into the store's layers (Submit,
// AcquireReadView, ReadView::Get, DecodeRecord, the paper queries, ...). Each
// span has a name, start and end, the span that caused it and a request id
// shared by every span of one operation. Every thread records into its own
// SpanLog, so recording takes no lock; the logs are merged and written out
// once the measurement ends. When tracing is off no log exists and a Span
// does not read the clock.
#ifndef TC_PERFBENCH_TRACE_H_
#define TC_PERFBENCH_TRACE_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

namespace tcbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Latency or size samples; quantiles interpolate linearly between ranks.
class Samples {
 public:
  void Add(double x) { v_.push_back(x); }
  void Append(const Samples& o) { v_.insert(v_.end(), o.v_.begin(), o.v_.end()); }
  size_t size() const { return v_.size(); }
  double Quantile(double q) const {
    if (v_.empty()) return 0;
    std::vector<double> s = v_;
    std::sort(s.begin(), s.end());
    double pos = q * static_cast<double>(s.size() - 1);
    size_t lo = static_cast<size_t>(pos);
    size_t hi = std::min(lo + 1, s.size() - 1);
    double frac = pos - static_cast<double>(lo);
    return s[lo] + (s[hi] - s[lo]) * frac;
  }
  double Median() const { return Quantile(0.5); }
  /// The highest quantile (capped at 0.99) that leaves at least ten samples
  /// above it: the tail a run of this many samples can resolve.
  double TailQuantileLevel() const {
    if (v_.size() <= 20) return 0.5;
    return std::min(0.99, 1.0 - 10.0 / static_cast<double>(v_.size()));
  }
  double Tail() const { return Quantile(TailQuantileLevel()); }

 private:
  std::vector<double> v_;
};

struct SpanRecord {
  uint64_t id = 0;
  uint64_t parent = 0;  // 0 = a root span
  uint64_t request = 0;
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// One thread's spans. Ids carry the log's tag in the high bits, so ids from
/// different threads never collide.
class SpanLog {
 public:
  explicit SpanLog(uint64_t tag) : tag_(tag) {}

  uint64_t Open(const char* name, uint64_t parent, uint64_t request) {
    SpanRecord r;
    r.id = (tag_ << 40) | (spans_.size() + 1);
    r.parent = parent;
    r.request = request;
    r.name = name;
    r.start_ns = NowNs();
    spans_.push_back(r);
    return r.id;
  }
  void Close(uint64_t id) {
    spans_[(id & ((uint64_t{1} << 40) - 1)) - 1].end_ns = NowNs();
  }
  const std::vector<SpanRecord>& spans() const { return spans_; }

 private:
  uint64_t tag_;
  std::vector<SpanRecord> spans_;
};

/// Scoped span; a no-op when `log` is null (the untraced run).
class Span {
 public:
  Span(SpanLog* log, const char* name, uint64_t parent, uint64_t request)
      : log_(log) {
    if (log_ != nullptr) id_ = log_->Open(name, parent, request);
  }
  ~Span() {
    if (log_ != nullptr) log_->Close(id_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  uint64_t id() const { return id_; }

 private:
  SpanLog* log_;
  uint64_t id_ = 0;
};

/// Owns every thread's log for one run.
class Tracer {
 public:
  SpanLog* NewLog() {
    logs_.push_back(std::make_unique<SpanLog>(logs_.size() + 1));
    return logs_.back().get();
  }

  std::vector<SpanRecord> AllSpans() const {
    std::vector<SpanRecord> all;
    for (const auto& log : logs_) {
      all.insert(all.end(), log->spans().begin(), log->spans().end());
    }
    return all;
  }

  /// Self time of every closed span, grouped by span name, in microseconds:
  /// the span's duration minus the time its children cover. Children of one
  /// span run one after another on the span's thread, so they never overlap
  /// and their durations add up.
  std::map<std::string, Samples> SelfMicros() const {
    std::vector<SpanRecord> all = AllSpans();
    std::unordered_map<uint64_t, int64_t> child_ns;
    for (const SpanRecord& s : all) {
      if (s.parent != 0 && s.end_ns != 0) child_ns[s.parent] += s.end_ns - s.start_ns;
    }
    std::map<std::string, Samples> out;
    for (const SpanRecord& s : all) {
      if (s.end_ns == 0) continue;
      int64_t self = s.end_ns - s.start_ns;
      auto it = child_ns.find(s.id);
      if (it != child_ns.end()) self -= it->second;
      out[s.name].Add(static_cast<double>(std::max<int64_t>(self, 0)) / 1e3);
    }
    return out;
  }

  /// Writes one JSON object per span (name, start/end in ns of the steady
  /// clock, parent span, request id). Returns false on an I/O error.
  bool WriteJsonLines(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    for (const SpanRecord& s : AllSpans()) {
      std::fprintf(f,
                   "{\"id\":%llu,\"parent\":%llu,\"request\":%llu,\"name\":\"%s\","
                   "\"start_ns\":%lld,\"end_ns\":%lld}\n",
                   static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.parent),
                   static_cast<unsigned long long>(s.request), s.name,
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns));
    }
    return std::fclose(f) == 0;
  }

 private:
  std::vector<std::unique_ptr<SpanLog>> logs_;
};

}  // namespace tcbench

#endif  // TC_PERFBENCH_TRACE_H_

#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

// In-memory span recorder for the traced run. Spans are opened around the
// benchmark's own calls into each layer's public functions, never inside
// the library, so an untraced run pays one predictable branch per call.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct SpanRecord {
  const char* name;    // static string: one of the layer span names
  std::int64_t start;  // ns since the tracer's origin
  std::int64_t end;
  std::int32_t parent;  // index into the tracer's spans, -1 for a root
  std::int32_t day;     // measured-day id (-1 for set-up, 0 for warm-up)
};

class Tracer {
 public:
  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }
  void set_day(std::int32_t day) { day_ = day; }

  std::int32_t Open(const char* name) {
    const std::int32_t id = static_cast<std::int32_t>(spans_.size());
    spans_.push_back(SpanRecord{name, Now(), 0, open_, day_});
    open_ = id;
    return id;
  }
  void Close(std::int32_t id) {
    spans_[static_cast<std::size_t>(id)].end = Now();
    open_ = spans_[static_cast<std::size_t>(id)].parent;
  }

  struct Totals {
    std::int64_t self_ns = 0;  // duration minus what direct children cover
    std::int64_t total_ns = 0;
    std::int64_t count = 0;
  };

  /// Per span name totals over the spans of measured days (day >= 1).
  std::map<std::string, Totals> MeasuredTotals() const {
    std::vector<std::int64_t> child(spans_.size(), 0);
    for (const SpanRecord& s : spans_) {
      if (s.parent >= 0) {
        child[static_cast<std::size_t>(s.parent)] += s.end - s.start;
      }
    }
    std::map<std::string, Totals> totals;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const SpanRecord& s = spans_[i];
      if (s.day < 1) continue;
      Totals& t = totals[s.name];
      t.self_ns += s.end - s.start - child[i];
      t.total_ns += s.end - s.start;
      ++t.count;
    }
    return totals;
  }

  void Clear() {
    spans_.clear();
    open_ = -1;
  }

  const std::vector<SpanRecord>& spans() const { return spans_; }

 private:
  std::int64_t Now() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - origin_)
        .count();
  }

  bool enabled_ = false;
  std::int32_t day_ = -1;
  std::int32_t open_ = -1;
  std::vector<SpanRecord> spans_;
  std::chrono::steady_clock::time_point origin_ =
      std::chrono::steady_clock::now();
};

/// Writes spans as JSON lines; returns false on an I/O error.
inline bool WriteSpans(const std::vector<SpanRecord>& spans,
                       const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    std::fprintf(f,
                 "{\"id\":%zu,\"name\":\"%s\",\"start_ns\":%lld,"
                 "\"end_ns\":%lld,\"parent\":%d,\"day\":%d}\n",
                 i, s.name, static_cast<long long>(s.start),
                 static_cast<long long>(s.end), s.parent, s.day);
  }
  return std::fclose(f) == 0;
}

/// RAII span; a no-op when the tracer is disabled.
class Span {
 public:
  Span(Tracer& tracer, const char* name)
      : tracer_(tracer), id_(tracer.enabled() ? tracer.Open(name) : -1) {}
  ~Span() {
    if (id_ >= 0) tracer_.Close(id_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer& tracer_;
  std::int32_t id_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_

// In-memory span recorder for the benchmark's traced runs.
//
// A span is one timed interval around a call the benchmark makes into the
// system (plan build, serve, scrub, WAL append, ...), or around the inner
// serve the probe shim (timed_memory.hpp) forwards. Spans carry their
// parent's index, so every step forms one tree rooted at a "step" span,
// and every span of a step carries that step's id. Nothing is written
// while the run measures: the recorder keeps spans in a vector and writes
// them as Chrome trace-event JSON once the run has ended.
//
// An inactive recorder (or a null one) makes ScopedSpan inert: no clock
// reads, one predicted branch. The untraced run never builds a recorder.
#pragma once

#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "util/stopwatch.hpp"

namespace pramsim::benchmark {

struct Span {
  const char* name = "";
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::int32_t parent = -1;  ///< index of the enclosing span, -1 for a root
  std::uint32_t depth = 0;   ///< 0 for a step root
  std::uint64_t step = 0;    ///< id shared by every span of one step

  [[nodiscard]] std::uint64_t duration_ns() const {
    return end_ns - start_ns;
  }
};

class SpanRecorder {
 public:
  /// Spans are recorded only while active (the timed body, not set-up).
  void set_active(bool active) { active_ = active; }

  /// Open a span as a child of the innermost open span; -1 when inactive.
  std::int32_t open(const char* name, std::uint64_t step = 0) {
    if (!active_) {
      return -1;
    }
    Span span;
    span.name = name;
    span.parent = open_;
    if (open_ >= 0) {
      span.depth = spans_[open_].depth + 1;
      span.step = spans_[open_].step;
    } else {
      span.step = step;
    }
    span.start_ns = util::Stopwatch::now_ns();
    spans_.push_back(span);
    open_ = static_cast<std::int32_t>(spans_.size() - 1);
    return open_;
  }

  void close(std::int32_t index) {
    if (index < 0) {
      return;
    }
    spans_[index].end_ns = util::Stopwatch::now_ns();
    open_ = spans_[index].parent;
  }

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Total duration per span name.
  [[nodiscard]] std::map<std::string, std::uint64_t, std::less<>> totals()
      const {
    std::map<std::string, std::uint64_t, std::less<>> out;
    for (const Span& span : spans_) {
      out[span.name] += span.duration_ns();
    }
    return out;
  }

  /// Chrome trace-event JSON ("X" complete events, microsecond stamps).
  /// Returns false when the file cannot be written.
  [[nodiscard]] bool write_chrome_json(const std::string& path) const {
    std::FILE* file = std::fopen(path.c_str(), "w");
    if (file == nullptr) {
      return false;
    }
    const std::uint64_t origin = spans_.empty() ? 0 : spans_[0].start_ns;
    std::fputs("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[", file);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& span = spans_[i];
      std::fprintf(file,
                   "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                   "\"parent\":%d,\"step\":%llu}}",
                   i == 0 ? "" : ",", span.name,
                   static_cast<double>(span.start_ns - origin) / 1e3,
                   static_cast<double>(span.duration_ns()) / 1e3, i,
                   span.parent, static_cast<unsigned long long>(span.step));
    }
    std::fputs("\n]}\n", file);
    return std::fclose(file) == 0;
  }

 private:
  std::vector<Span> spans_;
  std::int32_t open_ = -1;
  bool active_ = false;
};

/// RAII span; a null recorder makes it inert.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, const char* name, std::uint64_t step = 0)
      : recorder_(recorder),
        index_(recorder != nullptr ? recorder->open(name, step) : -1) {}
  ~ScopedSpan() {
    if (recorder_ != nullptr) {
      recorder_->close(index_);
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* recorder_;
  std::int32_t index_;
};

}  // namespace pramsim::benchmark

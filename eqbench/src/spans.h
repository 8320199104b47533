#ifndef EQBENCH_SPANS_H_
#define EQBENCH_SPANS_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "stats.h"

namespace eqbench {

/// One timed layer call: what ran, when, and which span caused it. Spans of
/// one group share `group` (-1 for spans outside any group).
struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;  ///< 0 = root
  int64_t group = -1;
  std::string name;
  Clock::time_point start{};
  Clock::time_point end{};
};

/// In-memory span log of a traced run, written out once at the end. A
/// disabled log records nothing, so untraced runs pay one branch per call.
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}

  /// Records a finished span and returns its id (0 when disabled).
  uint64_t Add(std::string name, Clock::time_point start, Clock::time_point end,
               uint64_t parent = 0, int64_t group = -1);

  /// Writes one JSON object per line, times in microseconds from the first
  /// span's start. Returns false when the file cannot be written.
  bool WriteJsonLines(const std::string& path) const;

  size_t size() const;

 private:
  const bool enabled_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

}  // namespace eqbench

#endif  // EQBENCH_SPANS_H_

#include "spans.h"

#include <cstdio>

namespace eqbench {

uint64_t SpanLog::Add(std::string name, Clock::time_point start,
                      Clock::time_point end, uint64_t parent, int64_t group) {
  if (!enabled_) return 0;
  std::lock_guard<std::mutex> lock(mu_);
  Span s;
  s.id = spans_.size() + 1;
  s.parent = parent;
  s.group = group;
  s.name = std::move(name);
  s.start = start;
  s.end = end;
  spans_.push_back(std::move(s));
  return spans_.back().id;
}

size_t SpanLog::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

bool SpanLog::WriteJsonLines(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  Clock::time_point origin = spans_.empty() ? Clock::now() : spans_[0].start;
  for (const Span& s : spans_) {
    if (s.start < origin) origin = s.start;
  }
  for (const Span& s : spans_) {
    std::fprintf(f,
                 "{\"id\": %llu, \"parent\": %llu, \"group\": %lld, "
                 "\"name\": \"%s\", \"start_us\": %.3f, \"end_us\": %.3f}\n",
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<long long>(s.group), s.name.c_str(),
                 MsBetween(origin, s.start) * 1000.0,
                 MsBetween(origin, s.end) * 1000.0);
  }
  return std::fclose(f) == 0;
}

}  // namespace eqbench

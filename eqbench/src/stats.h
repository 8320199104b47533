#ifndef EQBENCH_STATS_H_
#define EQBENCH_STATS_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <vector>

#include <sys/resource.h>

namespace eqbench {

using Clock = std::chrono::steady_clock;

inline double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

inline Clock::time_point AfterMs(Clock::time_point t, double ms) {
  return t + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double, std::milli>(ms));
}

/// Nearest-rank-with-interpolation percentile (0..100); 0 when empty.
inline double Percentile(std::vector<double> v, double pct) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  double rank = pct / 100.0 * static_cast<double>(v.size() - 1);
  size_t lo = static_cast<size_t>(rank);
  size_t hi = std::min(lo + 1, v.size() - 1);
  double frac = rank - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

inline double Median(const std::vector<double>& v) {
  return Percentile(v, 50);
}

inline double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double s = 0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

/// Process CPU time and context switches, from getrusage(RUSAGE_SELF).
struct Usage {
  double cpu_s = 0;
  uint64_t ctx_switches = 0;
  uint64_t minor_faults = 0;
  double max_rss_mib = 0;

  static Usage Now() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    Usage u;
    u.cpu_s = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
              static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) /
                  1e6;
    u.ctx_switches = static_cast<uint64_t>(ru.ru_nvcsw + ru.ru_nivcsw);
    u.minor_faults = static_cast<uint64_t>(ru.ru_minflt);
    u.max_rss_mib = static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
    return u;
  }
};

}  // namespace eqbench

#endif  // EQBENCH_STATS_H_

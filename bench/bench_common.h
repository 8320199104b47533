#ifndef EQ_BENCH_BENCH_COMMON_H_
#define EQ_BENCH_BENCH_COMMON_H_

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "util/stopwatch.h"

namespace eq::bench {

/// Command-line knobs shared by the figure benches.
///
///   --full        paper-scale sweeps (up to 100k queries; slower)
///   --runs=N      repetitions per point (default 3, as in §5.2)
///   --users=N     social-graph size (default 82168 = Slashdot scale)
///   --seed=N      RNG seed, threaded into every randomized section
///                 (social graphs, Zipf skew, Poisson arrival schedules)
///                 so a CI bench run is reproducible bit-for-bit; sections
///                 that sample randomness echo it into their JSON rows
///   --json=PATH   also write machine-readable results (see JsonReporter)
///   --help        print the usage and exit 0
///
/// An unknown flag prints the usage and exits 2, so a typo never runs the
/// whole suite with defaults.
struct BenchFlags {
  bool full = false;
  int runs = 3;
  uint32_t users = 82168;
  uint32_t airports = 102;
  uint64_t seed = 42;
  std::string json_path;

  /// Parses argv. `extra` claims a bench's own flags (true when it consumed
  /// the argument) and `extra_usage` lists them in the usage text.
  static BenchFlags Parse(
      int argc, char** argv, const char* extra_usage = "",
      const std::function<bool(const char*)>& extra = nullptr) {
    BenchFlags f;
    for (int i = 1; i < argc; ++i) {
      const char* a = argv[i];
      if (std::strcmp(a, "--help") == 0 || std::strcmp(a, "-h") == 0) {
        PrintUsage(stdout, argv[0], extra_usage);
        std::exit(0);
      } else if (std::strcmp(a, "--full") == 0) {
        f.full = true;
      } else if (std::strncmp(a, "--runs=", 7) == 0) {
        f.runs = std::atoi(a + 7);
      } else if (std::strncmp(a, "--users=", 8) == 0) {
        f.users = static_cast<uint32_t>(std::atoll(a + 8));
      } else if (std::strncmp(a, "--seed=", 7) == 0) {
        f.seed = static_cast<uint64_t>(std::atoll(a + 7));
      } else if (std::strncmp(a, "--json=", 7) == 0) {
        f.json_path = a + 7;
      } else if (!extra || !extra(a)) {
        std::fprintf(stderr, "unknown flag: %s\n", a);
        PrintUsage(stderr, argv[0], extra_usage);
        std::exit(2);
      }
    }
    if (f.runs < 1) f.runs = 1;
    return f;
  }

  static void PrintUsage(std::FILE* out, const char* prog,
                         const char* extra_usage) {
    std::fprintf(out,
                 "usage: %s [flags]\n"
                 "%s"
                 "  --full        paper-scale sweeps (slower)\n"
                 "  --runs=N      repetitions per point (default 3)\n"
                 "  --users=N     social-graph size (default 82168)\n"
                 "  --seed=N      RNG seed for every randomized section "
                 "(default 42)\n"
                 "  --json=PATH   also write the results as JSON rows\n"
                 "  --help        print this usage and exit\n",
                 prog, extra_usage);
  }
};

/// Collects benchmark results as flat rows and writes them as a JSON array
/// (`BENCH_*.json` trajectory tracking). Values are numbers or strings:
///
///     JsonReporter json;
///     auto& row = json.NewRow("service_scaling");
///     row.Set("shards", 8).Set("qps", 123456.0);
///     json.WriteFile("BENCH_service.json");
class JsonReporter {
 public:
  class Row {
   public:
    explicit Row(std::string bench) {
      Set("bench", std::move(bench));
    }
    Row& Set(const std::string& key, double value) {
      char buf[64];
      // Trim trailing zeros so integers render as integers.
      std::snprintf(buf, sizeof(buf), "%.6g", value);
      fields_.emplace_back(key, std::string(buf));
      return *this;
    }
    Row& Set(const std::string& key, const std::string& value) {
      fields_.emplace_back(key, "\"" + Escaped(value) + "\"");
      return *this;
    }

   private:
    friend class JsonReporter;
    static std::string Escaped(const std::string& s) {
      std::string out;
      for (char c : s) {
        switch (c) {
          case '"':  out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          case '\r': out += "\\r"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
              char buf[8];
              std::snprintf(buf, sizeof(buf), "\\u%04x", c);
              out += buf;
            } else {
              out += c;
            }
        }
      }
      return out;
    }
    std::vector<std::pair<std::string, std::string>> fields_;
  };

  Row& NewRow(std::string bench) {
    rows_.emplace_back(std::move(bench));
    return rows_.back();
  }

  /// Writes `[{...}, ...]`; returns false (with a note on stderr) on I/O
  /// failure. A no-op when `path` is empty.
  bool WriteFile(const std::string& path) const {
    if (path.empty()) return true;
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (!f) {
      std::fprintf(stderr, "json: cannot open %s\n", path.c_str());
      return false;
    }
    std::fputs("[\n", f);
    for (size_t r = 0; r < rows_.size(); ++r) {
      std::fputs("  {", f);
      const auto& fields = rows_[r].fields_;
      for (size_t i = 0; i < fields.size(); ++i) {
        std::fprintf(f, "\"%s\": %s%s", fields[i].first.c_str(),
                     fields[i].second.c_str(),
                     i + 1 < fields.size() ? ", " : "");
      }
      std::fprintf(f, "}%s\n", r + 1 < rows_.size() ? "," : "");
    }
    std::fputs("]\n", f);
    std::fclose(f);
    std::printf("# json results written to %s\n", path.c_str());
    return true;
  }

 private:
  std::deque<Row> rows_;  // deque: NewRow references stay valid as it grows
};

/// Mean and standard deviation over repeated timed runs. The paper reports
/// 3-run averages with < 2% standard deviation (§5.2).
struct RunStats {
  double mean_ms = 0;
  double stddev_ms = 0;
};

/// Times `fn` `runs` times (fn must be self-contained per run).
inline RunStats Repeat(int runs, const std::function<double()>& fn) {
  std::vector<double> samples;
  samples.reserve(runs);
  for (int i = 0; i < runs; ++i) samples.push_back(fn());
  RunStats out;
  for (double s : samples) out.mean_ms += s;
  out.mean_ms /= samples.size();
  for (double s : samples) {
    out.stddev_ms += (s - out.mean_ms) * (s - out.mean_ms);
  }
  out.stddev_ms = std::sqrt(out.stddev_ms / samples.size());
  return out;
}

/// Nearest-rank percentile over a sample (pct in [0, 100]; 100 = max).
/// Takes the sample by value: percentile extraction sorts a copy, leaving
/// the caller's insertion-ordered data intact.
inline double Percentile(std::vector<double> xs, double pct) {
  if (xs.empty()) return 0;
  std::sort(xs.begin(), xs.end());
  size_t idx = static_cast<size_t>(pct / 100.0 * (xs.size() - 1) + 0.5);
  return xs[std::min(idx, xs.size() - 1)];
}

inline double Mean(const std::vector<double>& xs) {
  if (xs.empty()) return 0;
  double sum = 0;
  for (double x : xs) sum += x;
  return sum / static_cast<double>(xs.size());
}

/// Query-count sweep used by the scalability figures: 5 → 100k in the
/// paper; the default run stops at 20k to keep `make bench` snappy.
inline std::vector<size_t> QuerySweep(bool full) {
  std::vector<size_t> sweep = {5, 100, 1000, 5000, 10000, 20000};
  if (full) {
    sweep.push_back(50000);
    sweep.push_back(100000);
  }
  return sweep;
}

inline void PrintHeader(const char* title, const char* columns) {
  std::printf("\n%s\n", title);
  std::printf("%s\n", columns);
}

}  // namespace eq::bench

#endif  // EQ_BENCH_BENCH_COMMON_H_

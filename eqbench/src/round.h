#ifndef EQBENCH_ROUND_H_
#define EQBENCH_ROUND_H_

#include <map>
#include <string>
#include <vector>

#include "spans.h"
#include "workloads.h"

namespace eqbench {

/// Load threads every round uses: one submits the groups, one the writes.
inline constexpr int kLoadThreads = 2;

/// What one round measured.
struct RoundResult {
  /// Service construction until every shard serves, once per build: a
  /// round builds the service Workload::setup_builds times and runs on the
  /// last.
  std::vector<double> setup_s;
  double bootstrap_s = 0;  ///< the bootstrap callback alone (all nodes), median
  std::vector<double> answer_ms;  ///< group latency, every answered group
  std::vector<double> woken_ms;   ///< the subset a write supplied
  std::vector<double> ack_ms;     ///< ExecuteWrite wall time
  std::vector<double> late_ms;    ///< how late each scheduled operation began
  double cpu_s = 0;               ///< process CPU over the timed region
  uint64_t ctx_switches = 0;
  uint64_t minor_faults = 0;  ///< page faults over the timed region
  size_t queries = 0;
  size_t queries_answered = 0;
  size_t queries_failed = 0;
  size_t writes = 0;
  size_t writes_failed = 0;
  std::vector<std::string> wrong;  ///< failed correctness checks
  std::vector<std::string> errors;  ///< why operations failed (first few)
  /// Per-layer readings; filled in traced rounds only.
  std::map<std::string, double> layer;

  size_t ops_done() const {
    return queries_answered + (writes - writes_failed);
  }
};

/// Builds a fresh deployment of `w`'s service, drives one round of its
/// operations open loop, checks every answer, and tears the service down.
/// A traced round also records spans into `spans` and reads the service's
/// own per-query traces and counters.
RoundResult RunRound(const Workload& w, bool traced, SpanLog* spans);

/// Times each layer's public functions on the workload's own generated
/// inputs, outside any service: prepare (Canonicalize), the wire codec,
/// write translation, storage apply, a private engine, and the combiner's
/// executor counts. Returns per-layer readings by metric name.
std::map<std::string, double> ReplayLayers(const Workload& w, SpanLog* spans);

}  // namespace eqbench

#endif  // EQBENCH_ROUND_H_

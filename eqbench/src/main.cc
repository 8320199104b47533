// eqbench: one workload of the coordination service, open loop, from one
// process. Prints every end-to-end metric (or, with --trace 1, every
// per-layer metric) as the last line of standard output, in JSON, with the
// operations attempted and failed; checks every answer and exits non-zero
// on a wrong one.
//
//   eqbench --workload rings --seed 1 --seconds 10 --trace 0
//   eqbench --selftest

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "checks.h"
#include "round.h"
#include "stats.h"
#include "workloads.h"

namespace eqbench {
namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

const std::vector<MetricDef> kEndToEnd = {
    {"setup_s", "s"},
    {"answer_p50_ms", "ms"},
    {"write_ack_p50_ms", "ms"},
    {"cpu_us_per_op", "us"},
    {"peak_rss_mb", "MiB"},
};

const std::vector<MetricDef> kPerLayer = {
    {"prepare.us_per_query", "us"},
    {"prepare.cache_hit_ratio", "ratio"},
    {"sql.write_translate_us", "us"},
    {"submit.us_p50", "us"},
    {"router.groups", "count"},
    {"service.migrations", "count"},
    {"shard.queue_wait_us_p50", "us"},
    {"shard.pending_us_p50", "us"},
    {"sched.ctx_switches_per_op", "count"},
    {"memory.minor_faults_per_op", "count"},
    {"engine.match_us_per_query", "us"},
    {"engine.replay_us_per_query", "us"},
    {"engine.flushes", "count"},
    {"engine.db_us_per_query", "us"},
    {"executor.rows_scanned_per_answer", "count"},
    {"executor.index_probes_per_answer", "count"},
    {"storage.bootstrap_s", "s"},
    {"storage.apply_us_p50", "us"},
    {"storage.retained_versions", "count"},
    {"storage.versions_retired_per_write", "count"},
    {"wakeup.reevals_per_write", "count"},
    {"wakeup.satisfied_per_write", "count"},
    {"wakeup.coalesced_per_write", "count"},
    {"interner.symbols_per_query", "count"},
    {"wire.encode_us", "us"},
    {"wire.decode_us", "us"},
    {"cluster.forwarded_share", "ratio"},
    {"cluster.forward_submit_us_p50", "us"},
    {"cluster.delta_lag_versions", "count"},
    {"loadgen.late_p99_ms", "ms"},
    {"loadgen.threads", "count"},
    {"trace.overhead_cpu_us_per_op", "us"},
};

void PrintUsage(std::FILE* out) {
  std::fprintf(out,
               "usage: eqbench --workload NAME [--seed N] [--seconds N] "
               "[--trace 0|1] [--spans-out PATH]\n"
               "       eqbench --selftest\n"
               "workloads:");
  for (const std::string& n : WorkloadNames()) std::fprintf(out, " %s", n.c_str());
  std::fprintf(out, "\n");
}

bool ParseUint(const std::string& s, uint64_t* out) {
  if (s.empty() || s.size() > 18) return false;
  for (char c : s) {
    if (c < '0' || c > '9') return false;
  }
  *out = std::strtoull(s.c_str(), nullptr, 10);
  return true;
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  uint64_t seconds = 10;
  uint64_t trace = 0;
  std::string spans_out;
  bool selftest = false;
};

/// Strict: any unknown flag, missing value or unknown workload is an error.
bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (flag == "--selftest") {
      a->selftest = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    std::string value = argv[++i];
    if (flag == "--workload") {
      a->workload = value;
    } else if (flag == "--seed") {
      if (!ParseUint(value, &a->seed)) return false;
    } else if (flag == "--seconds") {
      if (!ParseUint(value, &a->seconds) || a->seconds == 0) return false;
    } else if (flag == "--trace") {
      if (!ParseUint(value, &a->trace) || a->trace > 1) return false;
    } else if (flag == "--spans-out") {
      a->spans_out = value;
    } else {
      return false;
    }
  }
  if (a->selftest) return a->workload.empty();
  for (const std::string& n : WorkloadNames()) {
    if (n == a->workload) return true;
  }
  return false;
}

/// Median over rounds of one per-round value.
template <typename F>
double MedianOver(const std::vector<RoundResult>& rounds, F f) {
  std::vector<double> v;
  for (const RoundResult& r : rounds) v.push_back(f(r));
  return Median(v);
}

std::vector<double> Pooled(const std::vector<RoundResult>& rounds,
                           std::vector<double> RoundResult::*field) {
  std::vector<double> v;
  for (const RoundResult& r : rounds) {
    v.insert(v.end(), (r.*field).begin(), (r.*field).end());
  }
  return v;
}

double CpuUsPerOp(const RoundResult& r) {
  return r.cpu_s * 1e6 / static_cast<double>(std::max<size_t>(r.ops_done(), 1));
}

void PrintTail(const char* what, const std::vector<double>& v) {
  // A tail percentile needs at least ten samples beyond it.
  std::printf("  %-22s n=%zu p50=%.4f", what, v.size(), Median(v));
  if (v.size() >= 200) std::printf(" p95=%.4f", Percentile(v, 95));
  if (v.size() >= 1000) std::printf(" p99=%.4f", Percentile(v, 99));
  if (!v.empty()) std::printf(" max=%.4f", Percentile(v, 100));
  std::printf(" ms\n");
}

int Run(const Args& a) {
  const Clock::time_point started = Clock::now();
  Workload w = MakeWorkload(a.workload, a.seed);
  const double generate_s = MsBetween(started, Clock::now()) / 1000.0;
  const bool traced = a.trace == 1;
  SpanLog spans(traced);

  // Whole rounds until the time is up; a traced run alternates untraced
  // and traced rounds, so it can print the tracing overhead.
  std::vector<RoundResult> plain, with_trace;
  const Clock::time_point measure_start = Clock::now();
  for (size_t i = 0;; ++i) {
    bool trace_round = traced && i % 2 == 1;
    (trace_round ? with_trace : plain).push_back(RunRound(w, trace_round, &spans));
    double elapsed = MsBetween(measure_start, Clock::now()) / 1000.0;
    bool enough = !plain.empty() && (!traced || !with_trace.empty());
    if (enough && elapsed >= static_cast<double>(a.seconds)) break;
  }
  std::vector<RoundResult> all = plain;
  all.insert(all.end(), with_trace.begin(), with_trace.end());

  size_t queries = 0, answered = 0, q_failed = 0, writes = 0, w_failed = 0;
  std::vector<std::string> wrong, errors;
  for (const RoundResult& r : all) {
    queries += r.queries;
    answered += r.queries_answered;
    q_failed += r.queries_failed;
    writes += r.writes;
    w_failed += r.writes_failed;
    wrong.insert(wrong.end(), r.wrong.begin(), r.wrong.end());
    errors.insert(errors.end(), r.errors.begin(), r.errors.end());
  }
  const bool correct = wrong.empty();
  const std::vector<double> late = Pooled(all, &RoundResult::late_ms);

  std::printf("eqbench workload=%s seed=%llu seconds=%llu trace=%llu rounds=%zu\n",
              w.name.c_str(), static_cast<unsigned long long>(a.seed),
              static_cast<unsigned long long>(a.seconds),
              static_cast<unsigned long long>(a.trace), all.size());
  std::printf("inputs: %s (generated in %.3f s)\n", w.makeup.c_str(), generate_s);
  std::printf("service: %s, %u shard(s) per node, %s mode, offered %.0f q/s open "
              "loop\n",
              w.topology == Topology::kTwoNodes ? "two loopback cluster nodes"
                                                : "one node",
              w.service.num_shards,
              w.service.mode == eq::engine::EvalMode::kSetAtATime ? "set-at-a-time"
                                                                  : "incremental",
              w.offered_qps);
  // The generator calls the service in process: it opens no connections
  // of its own (the two cluster nodes talk over loopback sockets).
  std::printf("load: %d threads in one process (nproc %u), 0 connections, %d "
              "entry node(s); generator late p50=%.4f p99=%.4f max=%.4f ms "
              "over %zu operations\n",
              kLoadThreads, std::thread::hardware_concurrency(),
              w.topology == Topology::kTwoNodes ? 2 : 1,
              Median(late), Percentile(late, 99), Percentile(late, 100),
              late.size());
  const std::vector<double> setups = Pooled(all, &RoundResult::setup_s);
  std::printf("set-up: %zu builds, min=%.4f median=%.4f max=%.4f s\n", setups.size(),
              Percentile(setups, 0), Median(setups), Percentile(setups, 100));
  std::printf("operations: queries submitted=%zu answered=%zu failed=%zu; "
              "writes attempted=%zu failed=%zu\n",
              queries, answered, q_failed, writes, w_failed);
  for (const std::string& e : errors) std::printf("  failure: %s\n", e.c_str());
  for (const std::string& e : wrong) std::printf("  WRONG ANSWER: %s\n", e.c_str());
  std::printf("latency (pooled over rounds; tails printed, not gated):\n");
  PrintTail("group answer", Pooled(plain, &RoundResult::answer_ms));
  PrintTail("write-woken answer", Pooled(plain, &RoundResult::woken_ms));
  PrintTail("write ack", Pooled(plain, &RoundResult::ack_ms));

  std::map<std::string, double> values;
  if (!traced) {
    values["setup_s"] = Median(Pooled(plain, &RoundResult::setup_s));
    values["answer_p50_ms"] = Median(Pooled(plain, &RoundResult::answer_ms));
    values["write_ack_p50_ms"] = Median(Pooled(plain, &RoundResult::ack_ms));
    values["cpu_us_per_op"] = MedianOver(plain, CpuUsPerOp);
    values["peak_rss_mb"] = Usage::Now().max_rss_mib;
  } else {
    std::map<std::string, std::vector<double>> per_round;
    for (const RoundResult& r : with_trace) {
      for (const auto& [k, v] : r.layer) per_round[k].push_back(v);
    }
    for (const auto& [k, v] : per_round) values[k] = Median(v);
    for (const auto& [k, v] : ReplayLayers(w, &spans)) values[k] = v;
    values["loadgen.late_p99_ms"] = Percentile(Pooled(with_trace, &RoundResult::late_ms), 99);
    values["loadgen.threads"] = kLoadThreads;
    const double untraced_cpu = MedianOver(plain, CpuUsPerOp);
    const double traced_cpu = MedianOver(with_trace, CpuUsPerOp);
    values["trace.overhead_cpu_us_per_op"] = traced_cpu - untraced_cpu;
    std::printf("tracing overhead: cpu %.3f -> %.3f us/op, answer p50 %.4f -> "
                "%.4f ms (untraced -> traced rounds)\n",
                untraced_cpu, traced_cpu,
                Median(Pooled(plain, &RoundResult::answer_ms)),
                Median(Pooled(with_trace, &RoundResult::answer_ms)));
    if (!a.spans_out.empty()) {
      if (spans.WriteJsonLines(a.spans_out)) {
        std::printf("spans: %zu written to %s\n", spans.size(), a.spans_out.c_str());
      } else {
        std::fprintf(stderr, "eqbench: cannot write %s\n", a.spans_out.c_str());
      }
    }
  }

  const std::vector<MetricDef>& defs = traced ? kPerLayer : kEndToEnd;
  std::string json = "{\"correct\": " + std::string(correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(queries + writes) +
                     ", \"failed\": " + std::to_string(q_failed + w_failed) +
                     ", \"metrics\": {";
  for (size_t i = 0; i < defs.size(); ++i) {
    char buf[256];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", defs[i].name, values[defs[i].name], defs[i].unit);
    json += buf;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace eqbench

int main(int argc, char** argv) {
  eqbench::Args args;
  if (argc == 2 && (std::string(argv[1]) == "--help" || std::string(argv[1]) == "-h")) {
    eqbench::PrintUsage(stdout);
    return 0;
  }
  if (!eqbench::ParseArgs(argc, argv, &args)) {
    eqbench::PrintUsage(stderr);
    return 2;
  }
  try {
    if (args.selftest) return eqbench::SelfTest() ? 0 : 1;
    return eqbench::Run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "eqbench: %s\n", e.what());
    return 1;
  }
}

#ifndef EQBENCH_WORKLOADS_H_
#define EQBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "client/query.h"
#include "service/service.h"

namespace eqbench {

/// One entangled group: its members' queries and what a right answer is.
/// Every member answers with exactly one tuple `relation(name, value)`;
/// all members share `value`, and `value` is one of `allowed`.
struct Group {
  std::vector<std::string> names;  ///< member i's own name (tuple argument 0)
  std::vector<eq::client::Query> queries;
  std::string relation;
  std::vector<std::string> allowed;
  double at_ms = 0;  ///< scheduled arrival, from the round's start
  int write = -1;    ///< index of the write that supplies its row, or -1
};

/// One SQL write, scheduled on the writer thread.
struct Write {
  std::string sql;
  double at_ms = 0;
  size_t rows = 1;  ///< rows the statement affects, per the benchmark's model
};

enum class Topology { kOneNode, kTwoNodes };

/// A workload is a fixed round of operations plus the service it runs on.
/// A run repeats whole rounds, each against a freshly built service, so the
/// per-group state the service keeps never carries from one round into the
/// next.
struct Workload {
  std::string name;
  uint64_t seed = 0;
  Topology topology = Topology::kOneNode;
  eq::service::ServiceOptions service;  ///< bootstrap included, no hooks
  /// Service builds per round, each one a set-up sample; the round runs on
  /// the last. A catalog that takes a second to load gets one.
  int setup_builds = 5;
  /// Mode of the private engine the traced run replays the groups on.
  eq::engine::EvalMode replay_mode = eq::engine::EvalMode::kIncremental;
  std::vector<Group> groups;
  std::vector<Write> writes;  ///< sorted by at_ms
  /// Final-state model of one table ("a|b" rows, sorted); empty table name
  /// = no final-state check.
  std::string model_table;
  std::vector<std::string> model_rows;
  std::string makeup;  ///< one-line description of the generated inputs
  double offered_qps = 0;
};

const std::vector<std::string>& WorkloadNames();

/// Generates workload `name` from `seed`. Same seed, same inputs.
Workload MakeWorkload(const std::string& name, uint64_t seed);

/// Renders one stored row as "a|b" (strings through `interner`).
std::string RenderRow(const eq::db::Row& row, const eq::StringInterner& interner);

}  // namespace eqbench

#endif  // EQBENCH_WORKLOADS_H_

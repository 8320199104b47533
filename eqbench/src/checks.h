#ifndef EQBENCH_CHECKS_H_
#define EQBENCH_CHECKS_H_

#include <string>
#include <vector>

#include "stats.h"
#include "workloads.h"

namespace eqbench {

/// What one member of a group got back.
struct MemberAnswer {
  bool answered = false;
  std::vector<std::string> tuples;
  Clock::time_point at{};  ///< when the answer reached the client
};

/// Checks one group's answers against what the benchmark computed apart
/// from the program: all-or-nothing, one tuple per member naming the
/// member, one shared value for every member, and that value allowed.
/// `supplied_at` is when the write the group waits on was issued (ignored
/// for groups that wait on no write): no member may be answered before it.
/// Returns "" when right, else what is wrong.
std::string CheckGroup(const Group& g, const std::vector<MemberAnswer>& answers,
                       Clock::time_point supplied_at);

/// Compares a table's rows with the benchmark's model of it, or one
/// replica with another ("a|b" rows, any order). Returns "" when they match.
std::string CheckTable(std::vector<std::string> model,
                       std::vector<std::string> actual);

/// Runs every check on a right and on corrupted answers; prints what each
/// corrupted case produced. Returns true when every right case passes and
/// every corrupted case is caught.
bool SelfTest();

}  // namespace eqbench

#endif  // EQBENCH_CHECKS_H_

#include "checks.h"

#include <algorithm>
#include <cstdio>
#include <iterator>

namespace eqbench {

namespace {

/// Splits "Rel(a, b)" into {Rel, a, b}; false when it is not that shape.
bool ParseTuple(const std::string& t, std::string* rel, std::string* a,
                std::string* b) {
  size_t open = t.find('(');
  size_t comma = t.find(", ", open == std::string::npos ? 0 : open);
  if (open == std::string::npos || comma == std::string::npos ||
      t.empty() || t.back() != ')') {
    return false;
  }
  *rel = t.substr(0, open);
  *a = t.substr(open + 1, comma - open - 1);
  *b = t.substr(comma + 2, t.size() - comma - 3);
  return b->find(", ") == std::string::npos;
}

}  // namespace

std::string CheckGroup(const Group& g, const std::vector<MemberAnswer>& answers,
                       Clock::time_point supplied_at) {
  if (answers.size() != g.names.size()) return "member count differs";
  size_t answered = 0;
  for (const MemberAnswer& m : answers) answered += m.answered ? 1 : 0;
  if (answered == 0) return "";  // not answered: a failed operation, not a wrong one
  if (answered != answers.size()) return "answered in part, not all-or-nothing";
  std::string shared;
  for (size_t i = 0; i < answers.size(); ++i) {
    const MemberAnswer& m = answers[i];
    if (m.tuples.size() != 1) return g.names[i] + ": not exactly one tuple";
    std::string rel, who, value;
    if (!ParseTuple(m.tuples[0], &rel, &who, &value)) {
      return g.names[i] + ": malformed tuple " + m.tuples[0];
    }
    if (rel != g.relation) return g.names[i] + ": wrong relation " + rel;
    if (who != g.names[i]) return g.names[i] + ": tuple names " + who;
    if (i == 0) shared = value;
    if (value != shared) return g.names[i] + ": value " + value + " differs from " + shared;
    if (g.write >= 0 && m.at < supplied_at) {
      return g.names[i] + ": answered before its row was written";
    }
  }
  if (std::find(g.allowed.begin(), g.allowed.end(), shared) == g.allowed.end()) {
    return g.names[0] + ": value " + shared + " is not allowed";
  }
  return "";
}

std::string CheckTable(std::vector<std::string> model,
                       std::vector<std::string> actual) {
  std::sort(model.begin(), model.end());
  std::sort(actual.begin(), actual.end());
  if (actual == model) return "";
  std::vector<std::string> missing, extra;
  std::set_difference(model.begin(), model.end(), actual.begin(), actual.end(),
                      std::back_inserter(missing));
  std::set_difference(actual.begin(), actual.end(), model.begin(), model.end(),
                      std::back_inserter(extra));
  return "table differs from model: " + std::to_string(missing.size()) +
         " rows missing" + (missing.empty() ? "" : " (" + missing[0] + ")") +
         ", " + std::to_string(extra.size()) + " unexpected" +
         (extra.empty() ? "" : " (" + extra[0] + ")");
}

bool SelfTest() {
  bool ok = true;
  auto expect = [&](const std::string& what, const std::string& verdict,
                    bool want_caught) {
    bool caught = !verdict.empty();
    std::printf("%-58s %s%s\n", what.c_str(), caught ? "caught: " : "passes",
                verdict.c_str());
    if (caught != want_caught) {
      std::printf("  ^ SELF-TEST FAILURE: expected %s\n",
                  want_caught ? "the check to fail" : "the check to pass");
      ok = false;
    }
  };
  const Clock::time_point t0 = Clock::now();
  // One group of each workload, answered right and then corrupted.
  for (const std::string& name : WorkloadNames()) {
    Workload w = MakeWorkload(name, 1);
    const Group* pick = &w.groups[0];
    for (const Group& g : w.groups) {
      if (g.names.size() >= 3) {
        pick = &g;
        break;
      }
    }
    const Group& g = *pick;
    auto right = [&] {
      std::vector<MemberAnswer> a(g.names.size());
      for (size_t i = 0; i < a.size(); ++i) {
        a[i].answered = true;
        a[i].tuples = {g.relation + "(" + g.names[i] + ", " + g.allowed[0] + ")"};
        a[i].at = AfterMs(t0, 5);
      }
      return a;
    };
    const Clock::time_point supplied = AfterMs(t0, 1);
    expect(name + ": right answers", CheckGroup(g, right(), supplied), false);
    {
      auto a = right();
      a.back().tuples = {g.relation + "(" + g.names.back() + ", 999999)"};
      expect(name + ": one member bound to another value", CheckGroup(g, a, supplied), true);
    }
    {
      auto a = right();
      for (size_t i = 0; i < a.size(); ++i) {
        a[i].tuples = {g.relation + "(" + g.names[i] + ", NOPE)"};
      }
      expect(name + ": every member bound to a value not allowed", CheckGroup(g, a, supplied), true);
    }
    {
      auto a = right();
      a[0].answered = false;
      a[0].tuples.clear();
      expect(name + ": one member left unanswered", CheckGroup(g, a, supplied), true);
    }
    {
      auto a = right();
      std::swap(a[0].tuples, a[1].tuples);
      expect(name + ": tuples handed to the wrong members", CheckGroup(g, a, supplied), true);
    }
    {
      auto a = right();
      a[0].tuples[0] = "Other" + a[0].tuples[0].substr(g.relation.size());
      expect(name + ": wrong ANSWER relation", CheckGroup(g, a, supplied), true);
    }
  }
  // churn: a pair answered before the write that supplies its row.
  {
    Workload w = MakeWorkload("churn", 1);
    const Group& g = w.groups[0];
    std::vector<MemberAnswer> a(2);
    for (size_t i = 0; i < 2; ++i) {
      a[i].answered = true;
      a[i].tuples = {g.relation + "(" + g.names[i] + ", " + g.allowed[0] + ")"};
      a[i].at = t0;
    }
    expect("churn: pair answered before its row was written",
           CheckGroup(g, a, AfterMs(t0, 1)), true);
    std::vector<std::string> actual = w.model_rows;
    expect("churn: final table equal to the model", CheckTable(w.model_rows, actual), false);
    actual.pop_back();
    expect("churn: final table missing a row", CheckTable(w.model_rows, actual), true);
    actual = w.model_rows;
    actual[0] += "x";
    expect("churn: final table with a changed row", CheckTable(w.model_rows, actual), true);
    // cluster_rings compares the two nodes' replicas with the same check.
    expect("cluster_rings: replicas that differ by a row",
           CheckTable(w.model_rows, {w.model_rows.begin() + 1, w.model_rows.end()}), true);
  }
  std::printf("self-test %s\n", ok ? "passed" : "FAILED");
  return ok;
}

}  // namespace eqbench

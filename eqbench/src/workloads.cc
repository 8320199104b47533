#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <random>
#include <set>
#include <stdexcept>

#include "db/database.h"

namespace eqbench {

namespace {

using eq::client::Query;
using eq::client::QueryBuilder;
using eq::client::Str;
using eq::client::Var;
using eq::ir::Value;
using eq::ir::ValueType;

using Rng = std::mt19937_64;

size_t Below(Rng* rng, size_t n) {
  return std::uniform_int_distribution<size_t>(0, n - 1)(*rng);
}

double Uniform(Rng* rng) {
  return std::uniform_real_distribution<double>(0.0, 1.0)(*rng);
}

/// Poisson arrival offsets (ms) of `n` events at `per_sec` events/s.
std::vector<double> PoissonMs(size_t n, double per_sec, Rng* rng) {
  std::vector<double> out;
  out.reserve(n);
  double t = 0;
  for (size_t i = 0; i < n; ++i) {
    t += -std::log(1.0 - Uniform(rng)) * 1000.0 / per_sec;
    out.push_back(t);
  }
  return out;
}

void SortWrites(std::vector<Write>* writes, std::vector<Group>* groups) {
  std::vector<size_t> order(writes->size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return (*writes)[a].at_ms < (*writes)[b].at_ms;
  });
  std::vector<size_t> new_index(order.size());
  std::vector<Write> sorted;
  sorted.reserve(order.size());
  for (size_t i = 0; i < order.size(); ++i) {
    new_index[order[i]] = i;
    sorted.push_back(std::move((*writes)[order[i]]));
  }
  *writes = std::move(sorted);
  for (Group& g : *groups) {
    if (g.write >= 0) g.write = static_cast<int>(new_index[g.write]);
  }
}

void Check(const eq::Status& s) {
  if (!s.ok()) throw std::runtime_error("bootstrap: " + s.ToString());
}

// ------------------------------------------------------------------ flights

/// The §5.2 social graph: users with a hometown airport, friendships that
/// cluster inside hometowns and close triangles.
struct SocialGraph {
  std::vector<std::vector<uint32_t>> friends;  ///< sorted, symmetric
  std::vector<uint32_t> hometown;
  size_t rows = 0;  ///< Friends rows (both directions)

  static std::string User(uint32_t u) { return "u" + std::to_string(u); }
  static std::string Airport(uint32_t a) {
    return std::string{'X', static_cast<char>('A' + a / 26),
                       static_cast<char>('A' + a % 26)};
  }
  bool AreFriends(uint32_t a, uint32_t b) const {
    return std::binary_search(friends[a].begin(), friends[a].end(), b);
  }
};

constexpr uint32_t kUsers = 10000;
constexpr uint32_t kAirports = 102;
constexpr int kEdgesPerUser = 7;

SocialGraph MakeSocialGraph(Rng* rng) {
  SocialGraph g;
  g.hometown.resize(kUsers);
  std::vector<double> weight(kAirports);
  for (uint32_t a = 0; a < kAirports; ++a) weight[a] = 1.0 / std::pow(a + 1, 0.8);
  std::discrete_distribution<uint32_t> town(weight.begin(), weight.end());
  std::vector<std::vector<uint32_t>> residents(kAirports);
  for (uint32_t u = 0; u < kUsers; ++u) {
    g.hometown[u] = town(*rng);
    residents[g.hometown[u]].push_back(u);
  }
  std::vector<std::set<uint32_t>> adj(kUsers);
  for (uint32_t u = 0; u < kUsers; ++u) {
    for (int e = 0; e < kEdgesPerUser; ++e) {
      double r = Uniform(rng);
      uint32_t v = u;
      if (r < 0.35 && !adj[u].empty()) {
        // Triangle closure: a friend of a friend.
        auto it = adj[u].begin();
        std::advance(it, Below(rng, adj[u].size()));
        const auto& fof = adj[*it];
        auto jt = fof.begin();
        std::advance(jt, Below(rng, fof.size()));
        v = *jt;
      } else if (r < 0.85) {
        const auto& town_users = residents[g.hometown[u]];
        v = town_users[Below(rng, town_users.size())];
      } else {
        v = static_cast<uint32_t>(Below(rng, kUsers));
      }
      if (v == u) continue;
      adj[u].insert(v);
      adj[v].insert(u);
    }
  }
  g.friends.resize(kUsers);
  for (uint32_t u = 0; u < kUsers; ++u) {
    g.friends[u].assign(adj[u].begin(), adj[u].end());
    g.rows += g.friends[u].size();
  }
  return g;
}

/// Member `me` of a named-partner ring: reserve the shared hometown `c` if
/// `partner` reserves it too, where the two are friends and both live in c.
std::string FlightSql(const std::string& me, const std::string& partner) {
  return "SELECT '" + me + "', c INTO ANSWER Reserve WHERE c IN (SELECT "
         "U1.hometown FROM Friends F, User U1, User U2 WHERE F.u1 = '" +
         me + "' AND F.u2 = '" + partner + "' AND U1.name = '" + me +
         "' AND U2.name = '" + partner +
         "' AND U1.hometown = U2.hometown) AND ('" + partner +
         "', c) IN ANSWER Reserve CHOOSE 1";
}

Workload MakeFlights(uint64_t seed) {
  constexpr size_t kGroups = 1200;
  constexpr double kTriangleShare = 0.3;
  constexpr double kOfferedQps = 1000;
  constexpr double kWritesPerSec = 20;

  Workload w;
  Rng rng(seed);
  auto graph = std::make_shared<const SocialGraph>(MakeSocialGraph(&rng));
  const SocialGraph& g = *graph;

  // Every flights query answers into Reserve, so all of them route to one
  // shard. Incremental mode: in set-at-a-time mode a tick-overdue shard
  // flushes after the first member of a SubmitBatch group and fails it
  // for want of partners, so the batch matcher runs in the engine replay.
  w.service.num_shards = 1;
  w.service.mode = eq::engine::EvalMode::kIncremental;
  w.replay_mode = eq::engine::EvalMode::kSetAtATime;
  w.setup_builds = 1;
  w.service.bootstrap = [graph](eq::ir::QueryContext* ctx, eq::db::Database* db) {
    const SocialGraph& sg = *graph;
    Check(db->CreateTable("Friends", {{"u1", ValueType::kString},
                                      {"u2", ValueType::kString}}));
    Check(db->CreateTable("User", {{"name", ValueType::kString},
                                   {"hometown", ValueType::kString}}));
    Check(db->GetTable("Friends")->BuildIndex(0));
    Check(db->GetTable("Friends")->BuildIndex(1));
    Check(db->GetTable("User")->BuildIndex(0));
    std::vector<Value> users(kUsers);
    for (uint32_t u = 0; u < kUsers; ++u) {
      users[u] = Value::Str(ctx->Intern(SocialGraph::User(u)));
    }
    for (uint32_t u = 0; u < kUsers; ++u) {
      Check(db->Insert("User", {users[u], Value::Str(ctx->Intern(
                                              SocialGraph::Airport(sg.hometown[u])))}));
      for (uint32_t v : sg.friends[u]) {
        Check(db->Insert("Friends", {users[u], users[v]}));
      }
    }
  };

  // Groups: named-partner pairs and triangles of friends who share a
  // hometown (so every group can coordinate), no user in two groups.
  std::vector<char> used(kUsers, 0);
  std::vector<std::vector<uint32_t>> rings;
  size_t triangles = 0;
  while (rings.size() < kGroups) {
    bool triangle = Uniform(&rng) < kTriangleShare;
    uint32_t u = static_cast<uint32_t>(Below(&rng, kUsers));
    if (used[u] || g.friends[u].empty()) continue;
    uint32_t v = g.friends[u][Below(&rng, g.friends[u].size())];
    if (used[v] || g.hometown[v] != g.hometown[u]) continue;
    std::vector<uint32_t> ring = {u, v};
    if (triangle) {
      uint32_t x = kUsers;
      for (uint32_t c : g.friends[v]) {
        if (c != u && !used[c] && g.hometown[c] == g.hometown[u] &&
            g.AreFriends(u, c)) {
          x = c;
          break;
        }
      }
      if (x == kUsers) continue;
      ring.push_back(x);
      ++triangles;
    }
    for (uint32_t m : ring) used[m] = 1;
    rings.push_back(std::move(ring));
  }
  size_t members = 0;
  for (const auto& r : rings) members += r.size();
  double mean_size = static_cast<double>(members) / static_cast<double>(kGroups);
  std::vector<double> at = PoissonMs(kGroups, kOfferedQps / mean_size, &rng);
  for (size_t i = 0; i < kGroups; ++i) {
    Group grp;
    grp.relation = "Reserve";
    grp.allowed = {SocialGraph::Airport(g.hometown[rings[i][0]])};
    grp.at_ms = at[i];
    for (size_t m = 0; m < rings[i].size(); ++m) {
      std::string me = SocialGraph::User(rings[i][m]);
      std::string partner = SocialGraph::User(rings[i][(m + 1) % rings[i].size()]);
      grp.names.push_back(me);
      grp.queries.push_back(Query::Sql(FlightSql(me, partner)));
    }
    w.groups.push_back(std::move(grp));
  }

  // Sign-ups: new users that no group names, written to the User table
  // the pending queries read (so each write also wakes their shards).
  size_t n_writes = static_cast<size_t>(at.back() / 1000.0 * kWritesPerSec);
  for (size_t i = 0; i < n_writes; ++i) {
    Write wr;
    wr.sql = "INSERT INTO User VALUES ('n" + std::to_string(i) + "', '" +
             SocialGraph::Airport(static_cast<uint32_t>(Below(&rng, kAirports))) +
             "')";
    wr.at_ms = (static_cast<double>(i) + Uniform(&rng)) * 1000.0 / kWritesPerSec;
    w.writes.push_back(std::move(wr));
  }
  SortWrites(&w.writes, &w.groups);
  w.offered_qps = kOfferedQps;
  w.makeup = std::to_string(kUsers) + " users, " + std::to_string(g.rows) +
             " Friends rows, " + std::to_string(kAirports) + " airports; " +
             std::to_string(kGroups - triangles) + " pairs + " +
             std::to_string(triangles) + " triangles as SQL text; " +
             std::to_string(w.writes.size()) + " User INSERTs";
  return w;
}

// -------------------------------------------------------------------- rings

constexpr int kDests = 2048;
constexpr int kRowsPerDest = 8;
constexpr int kWaitRows = 64;

/// F(x, dest): kDests destinations with kRowsPerDest rows each, the
/// catalog rings read. W(x, tag): a small table that write-woken rings
/// wait on, so their INSERTs copy little.
void RingsBootstrap(eq::ir::QueryContext* ctx, eq::db::Database* db) {
  Check(db->CreateTable("F", {{"x", ValueType::kInt}, {"dest", ValueType::kString}}));
  Check(db->GetTable("F")->BuildIndex(0));
  Check(db->GetTable("F")->BuildIndex(1));
  for (int d = 0; d < kDests; ++d) {
    Value dest = Value::Str(ctx->Intern("D" + std::to_string(d)));
    for (int j = 0; j < kRowsPerDest; ++j) {
      Check(db->Insert("F", {Value::Int(1000 + d * kRowsPerDest + j), dest}));
    }
  }
  Check(db->CreateTable("W", {{"x", ValueType::kInt}, {"tag", ValueType::kString}}));
  Check(db->GetTable("W")->BuildIndex(1));
  for (int j = 0; j < kWaitRows; ++j) {
    Check(db->Insert("W", {Value::Int(j), Value::Str(ctx->Intern("w" + std::to_string(j)))}));
  }
}

/// A k-way postcondition ring over its own ANSWER relation:
///   { G(next, x) } G(me, x) :- table(x, dest)
Group MakeRing(const std::string& rel, int k, const std::string& table,
               const std::string& dest) {
  Group g;
  g.relation = rel;
  for (int m = 0; m < k; ++m) g.names.push_back(rel + "m" + std::to_string(m));
  for (int m = 0; m < k; ++m) {
    QueryBuilder b;
    b.Label(g.names[m])
        .Postcondition(rel, {Str(g.names[(m + 1) % k]), Var("x")})
        .Head(rel, {Str(g.names[m]), Var("x")})
        .Body(table, {Var("x"), Str(dest)});
    g.queries.push_back(b.Build());
  }
  return g;
}

/// Rings of k = 2..4 over F; every `kWokenEvery`-th ring instead waits on
/// a W row that does not exist yet, and an INSERT `kWakeDelayMs` after its
/// arrival supplies it.
Workload MakeRingsTraffic(uint64_t seed, size_t n_groups, double offered_qps) {
  constexpr size_t kWokenEvery = 8;
  constexpr double kWakeDelayMs = 2.0;
  Workload w;
  Rng rng(seed);
  w.service.bootstrap = RingsBootstrap;
  w.service.mode = eq::engine::EvalMode::kIncremental;
  std::vector<int> ks(n_groups);
  size_t members = 0;
  for (size_t i = 0; i < n_groups; ++i) {
    ks[i] = 2 + static_cast<int>(Below(&rng, 3));
    members += static_cast<size_t>(ks[i]);
  }
  double mean_size = static_cast<double>(members) / static_cast<double>(n_groups);
  std::vector<double> at = PoissonMs(n_groups, offered_qps / mean_size, &rng);
  for (size_t i = 0; i < n_groups; ++i) {
    std::string rel = "G" + std::to_string(i);
    if (i % kWokenEvery == kWokenEvery - 1) {
      std::string dest = "W" + std::to_string(i);
      int64_t x = 500000 + static_cast<int64_t>(i);
      Group g = MakeRing(rel, ks[i], "W", dest);
      g.allowed = {std::to_string(x)};
      g.at_ms = at[i];
      g.write = static_cast<int>(w.writes.size());
      w.writes.push_back({"INSERT INTO W VALUES (" + std::to_string(x) + ", '" +
                              dest + "')",
                          at[i] + kWakeDelayMs, 1});
      w.groups.push_back(std::move(g));
    } else {
      int d = static_cast<int>(Below(&rng, kDests));
      Group g = MakeRing(rel, ks[i], "F", "D" + std::to_string(d));
      for (int j = 0; j < kRowsPerDest; ++j) {
        g.allowed.push_back(std::to_string(1000 + d * kRowsPerDest + j));
      }
      g.at_ms = at[i];
      w.groups.push_back(std::move(g));
    }
  }
  SortWrites(&w.writes, &w.groups);
  w.offered_qps = offered_qps;
  w.makeup = std::to_string(n_groups) + " builder rings (k = 2..4, " +
             std::to_string(members) + " queries) over F (" +
             std::to_string(kDests * kRowsPerDest) + " rows); " +
             std::to_string(w.writes.size()) + " ring-completing INSERTs into W (" +
             std::to_string(kWaitRows) + " rows at start)";
  return w;
}

Workload MakeRings(uint64_t seed) {
  Workload w = MakeRingsTraffic(seed, 1500, 2000);
  w.service.num_shards = 1;
  return w;
}

Workload MakeClusterRings(uint64_t seed) {
  Workload w = MakeRingsTraffic(seed, 1000, 1000);
  w.topology = Topology::kTwoNodes;
  w.service.num_shards = 1;
  w.makeup += "; members enter through alternating nodes, writes through the "
              "follower";
  return w;
}

// -------------------------------------------------------------------- churn

constexpr int64_t kChurnRows = 4096;

void ChurnBootstrap(eq::ir::QueryContext* ctx, eq::db::Database* db) {
  Check(db->CreateTable("T", {{"id", ValueType::kInt}, {"tag", ValueType::kString}}));
  Check(db->GetTable("T")->BuildIndex(0));
  Check(db->GetTable("T")->BuildIndex(1));
  for (int64_t id = 0; id < kChurnRows; ++id) {
    Check(db->Insert("T", {Value::Int(id),
                           Value::Str(ctx->Intern("f" + std::to_string(id)))}));
  }
}

/// Pairs that wait on rows of T, and a paced stream of SQL writes. Each
/// INSERT supplies the row kPairsPerRow pairs wait on; per INSERT, one
/// DELETE and one UPDATE of filler rows keep T's size constant. The pairs
/// arrive kLeadMs before their INSERT.
Workload MakeChurn(uint64_t seed) {
  constexpr size_t kInserts = 60;
  constexpr size_t kPairsPerRow = 2;
  constexpr double kWritesPerSec = 72;
  constexpr double kLeadMs = 3.0;
  Workload w;
  Rng rng(seed);
  w.service.num_shards = 1;
  w.service.mode = eq::engine::EvalMode::kIncremental;
  w.service.bootstrap = ChurnBootstrap;

  std::map<int64_t, std::string> model;
  for (int64_t id = 0; id < kChurnRows; ++id) model[id] = "f" + std::to_string(id);
  std::vector<int64_t> fillers(kChurnRows);
  for (int64_t id = 0; id < kChurnRows; ++id) fillers[id] = id;
  std::shuffle(fillers.begin(), fillers.end(), rng);

  const double period_ms = 1000.0 / kWritesPerSec;
  for (size_t i = 0; i < kInserts; ++i) {
    const double insert_at = kLeadMs + static_cast<double>(3 * i) * period_ms;
    const std::string tag = "W" + std::to_string(i);
    const int64_t x = 700000 + static_cast<int64_t>(i);
    for (size_t p = 0; p < kPairsPerRow; ++p) {
      std::string rel = "C" + std::to_string(i) + "_" + std::to_string(p);
      Group g;
      g.relation = rel;
      g.names = {rel + "a", rel + "b"};
      for (int m = 0; m < 2; ++m) {
        QueryBuilder b;
        b.Label(g.names[m])
            .Postcondition(rel, {Str(g.names[1 - m]), Var("x")})
            .Head(rel, {Str(g.names[m]), Var("x")})
            .Body("T", {Var("x"), Str(tag)});
        g.queries.push_back(b.Build());
      }
      g.allowed = {std::to_string(x)};
      g.at_ms = insert_at - kLeadMs;
      g.write = static_cast<int>(w.writes.size());
      w.groups.push_back(std::move(g));
    }
    w.writes.push_back({"INSERT INTO T VALUES (" + std::to_string(x) + ", '" +
                            tag + "')",
                        insert_at, 1});
    model[x] = tag;
    const int64_t gone = fillers[2 * i];
    const int64_t moved = fillers[2 * i + 1];
    const std::string new_tag = "g" + std::to_string(i);
    w.writes.push_back({"DELETE FROM T WHERE id = " + std::to_string(gone),
                        insert_at + period_ms, 1});
    model.erase(gone);
    w.writes.push_back({"UPDATE T SET tag = '" + new_tag + "' WHERE id = " +
                            std::to_string(moved),
                        insert_at + 2 * period_ms, 1});
    model[moved] = new_tag;
  }
  SortWrites(&w.writes, &w.groups);
  w.model_table = "T";
  for (const auto& [id, tag] : model) {
    w.model_rows.push_back(std::to_string(id) + "|" + tag);
  }
  std::sort(w.model_rows.begin(), w.model_rows.end());
  w.offered_qps = 2.0 * kPairsPerRow * kWritesPerSec / 3;
  w.makeup = std::to_string(w.groups.size()) + " waiting pairs over T (" +
             std::to_string(kChurnRows) + " rows); " +
             std::to_string(w.writes.size()) +
             " SQL writes paced at " + std::to_string(static_cast<int>(kWritesPerSec)) +
             "/s (each INSERT completes " + std::to_string(kPairsPerRow) +
             " pairs; a DELETE and an UPDATE of filler rows per INSERT keep "
             "T's size)";
  return w;
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"flights", "rings", "churn",
                                                 "cluster_rings"};
  return names;
}

Workload MakeWorkload(const std::string& name, uint64_t seed) {
  Workload w;
  if (name == "flights") {
    w = MakeFlights(seed);
  } else if (name == "rings") {
    w = MakeRings(seed);
  } else if (name == "churn") {
    w = MakeChurn(seed);
  } else if (name == "cluster_rings") {
    w = MakeClusterRings(seed);
  } else {
    throw std::invalid_argument("unknown workload " + name);
  }
  w.name = name;
  w.seed = seed;
  return w;
}

std::string RenderRow(const eq::db::Row& row, const eq::StringInterner& interner) {
  std::string out;
  for (size_t i = 0; i < row.size(); ++i) {
    if (i > 0) out += "|";
    const Value& v = row[i];
    out += v.is_int() ? std::to_string(v.AsInt())
           : v.is_str() ? interner.Name(v.AsStr())
                        : std::string("null");
  }
  return out;
}

}  // namespace eqbench

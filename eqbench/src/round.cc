#include "round.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "checks.h"
#include "cluster/node.h"
#include "net/socket.h"
#include "service/service.h"

namespace eqbench {

namespace {

using eq::service::CoordinationInterface;
using eq::service::CoordinationService;
using eq::service::ServiceOutcome;
using eq::service::TicketId;

/// How long a round waits for its last answers after its last scheduled
/// operation before counting the rest as failed.
constexpr auto kDrainTimeout = std::chrono::seconds(15);

/// The service a round runs against: one CoordinationService, or two
/// loopback cluster nodes (node 0 owns storage; writes enter node 1).
class Deployment {
 public:
  explicit Deployment(const Workload& w, bool traced) {
    eq::service::ServiceOptions opts = w.service;
    auto inner = opts.bootstrap;
    opts.bootstrap = [this, inner](eq::ir::QueryContext* ctx, eq::db::Database* db) {
      Clock::time_point t = Clock::now();
      inner(ctx, db);
      bootstrap_s_ += MsBetween(t, Clock::now()) / 1000.0;
    };
    opts.on_shard_start = [this](uint32_t) {
      std::lock_guard<std::mutex> lock(mu_);
      ++shards_started_;
      cv_.notify_all();
    };
    if (traced) {
      opts.trace_all = true;
      size_t queries = 0;
      for (const Group& g : w.groups) queries += g.queries.size();
      opts.trace_capacity = queries + 64;
    }
    uint32_t shards = opts.num_shards;
    if (w.topology == Topology::kOneNode) {
      single_ = std::make_unique<CoordinationService>(opts);
    } else {
      shards *= 2;
      // Two free loopback ports, held together so they differ, then
      // released for the nodes to bind.
      uint16_t ports[2] = {0, 0};
      {
        auto l0 = eq::net::Listener::Bind("127.0.0.1", 0);
        auto l1 = eq::net::Listener::Bind("127.0.0.1", 0);
        if (!l0.ok() || !l1.ok()) throw std::runtime_error("no loopback port");
        ports[0] = l0->port();
        ports[1] = l1->port();
      }
      for (uint32_t n = 0; n < 2; ++n) {
        eq::cluster::ClusterOptions c;
        c.node_id = n;
        c.listen_port = ports[n];
        c.peers = {{1 - n, "127.0.0.1", ports[1 - n]}};
        c.storage_owner = 0;
        c.io_timeout_ms = 3000;
        c.service = opts;
        auto node = eq::cluster::ClusterNode::Start(c);
        if (!node.ok()) throw std::runtime_error(node.status().ToString());
        nodes_[n] = std::move(*node);
      }
    }
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return shards_started_ == shards; });
  }

  ~Deployment() {
    // Followers first, so the owner's pushes find no half-closed peer.
    for (int n = 1; n >= 0; --n) {
      if (nodes_[n]) nodes_[n]->Stop();
    }
  }

  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  bool two_nodes() const { return single_ == nullptr; }

  CoordinationInterface* entry(int node) {
    if (single_) return single_.get();
    return &nodes_[node]->service();
  }
  CoordinationInterface* writer() { return entry(two_nodes() ? 1 : 0); }

  std::vector<CoordinationService*> locals() {
    if (single_) return {single_.get()};
    return {&nodes_[0]->local_service(), &nodes_[1]->local_service()};
  }

  eq::cluster::ClusterService* cluster(int node) {
    return nodes_[node] ? &nodes_[node]->service() : nullptr;
  }

  double bootstrap_s() const { return bootstrap_s_; }

 private:
  std::unique_ptr<CoordinationService> single_;
  std::unique_ptr<eq::cluster::ClusterNode> nodes_[2];
  double bootstrap_s_ = 0;  ///< written by bootstraps, on this thread
  std::mutex mu_;
  std::condition_variable cv_;
  uint32_t shards_started_ = 0;
};

/// One resolution as the ticket callback saw it.
struct Resolution {
  TicketId id = 0;
  Clock::time_point at{};
  bool answered = false;
  std::vector<std::string> tuples;
  std::string status;
};

/// Shared with every ticket callback; outlives the service (callbacks of
/// queries orphaned at shutdown fire from its destructor).
struct RoundState {
  explicit RoundState(size_t groups) : got(groups), mu(groups) {}
  std::vector<std::vector<Resolution>> got;  ///< per group, guarded by mu[g]
  std::vector<std::mutex> mu;
  std::atomic<size_t> outstanding{0};
};

std::vector<std::string> TableRows(CoordinationService* svc, const std::string& table) {
  std::vector<std::string> rows;
  eq::db::Snapshot snap = svc->storage().Current();
  const eq::db::TableVersion* t = snap.GetTable(table);
  if (t == nullptr) return rows;
  for (size_t i = 0; i < t->physical_size(); ++i) {
    if (!t->row_dead(i)) rows.push_back(RenderRow(t->row(i), snap.interner()));
  }
  return rows;
}

void AddError(std::vector<std::string>* errors, std::string e) {
  if (errors->size() < 5) errors->push_back(std::move(e));
}

}  // namespace

RoundResult RunRound(const Workload& w, bool traced, SpanLog* spans) {
  RoundResult r;
  const size_t n_groups = w.groups.size();
  auto state = std::make_shared<RoundState>(n_groups);
  for (const Group& g : w.groups) r.queries += g.queries.size();
  r.writes = w.writes.size();
  state->outstanding.store(r.queries);

  std::unique_ptr<Deployment> dep;
  std::vector<double> bootstrap_s;
  for (int i = 0; i < w.setup_builds; ++i) {
    dep.reset();
    Clock::time_point setup_start = Clock::now();
    dep = std::make_unique<Deployment>(w, traced);
    r.setup_s.push_back(MsBetween(setup_start, Clock::now()) / 1000.0);
    bootstrap_s.push_back(dep->bootstrap_s());
  }
  r.bootstrap_s = Median(bootstrap_s);

  auto interned = [&] {
    size_t n = 0;
    for (CoordinationService* s : dep->locals()) n += s->interner().size();
    return n;
  };
  const size_t symbols_before = interned();

  // Per member: the ticket it got, the node it entered, Submit wall time.
  std::vector<std::vector<TicketId>> tickets(n_groups);
  std::vector<std::vector<int>> entered(n_groups);
  std::vector<double> submit_us, forwarded_submit_us;
  size_t forwarded = 0;
  std::vector<double> late_submit, late_write;
  std::vector<Clock::time_point> issued(w.writes.size());
  std::vector<double> delta_lag;
  std::vector<double> queue_us, pending_us;  // from the service's own traces
  std::vector<std::string> submit_errors, write_errors;

  const Usage u0 = Usage::Now();
  const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(20);

  std::thread submitter([&] {
    for (size_t gi = 0; gi < n_groups; ++gi) {
      const Group& g = w.groups[gi];
      const Clock::time_point due = AfterMs(t0, g.at_ms);
      std::this_thread::sleep_until(due);
      const Clock::time_point begin = Clock::now();
      late_submit.push_back(MsBetween(due, begin));
      eq::service::SubmitOptions opts;
      opts.callback = [state, gi](TicketId id, const ServiceOutcome& o) {
        Resolution res;
        res.id = id;
        res.at = Clock::now();
        res.answered = o.state == ServiceOutcome::State::kAnswered;
        res.tuples = o.tuples;
        if (!res.answered) res.status = o.status.ToString();
        {
          std::lock_guard<std::mutex> lock(state->mu[gi]);
          state->got[gi].push_back(std::move(res));
        }
        state->outstanding.fetch_sub(1);
      };
      auto record = [&](size_t m, const eq::Result<eq::service::Ticket>& t,
                        int node, Clock::time_point s, Clock::time_point e) {
        entered[gi].push_back(node);
        if (t.ok()) {
          tickets[gi].push_back(t->id());
        } else {
          tickets[gi].push_back(0);
          AddError(&submit_errors, g.names[m] + ": " + t.status().ToString());
          state->outstanding.fetch_sub(1);
        }
        if (traced) {
          submit_us.push_back(MsBetween(s, e) * 1000.0);
          spans->Add("submit", s, e, 0, static_cast<int64_t>(gi));
        }
      };
      for (size_t m = 0; m < g.queries.size(); ++m) {
        int node = dep->two_nodes() ? static_cast<int>((gi + m) % 2) : 0;
        bool forwards = false;
        if (dep->two_nodes()) {
          forwards = dep->cluster(node)->OwnerOf({g.relation}) !=
                     static_cast<uint32_t>(node);
        }
        Clock::time_point s = Clock::now();
        auto t = dep->entry(node)->Submit(g.queries[m], opts);
        Clock::time_point e = Clock::now();
        record(m, t, node, s, e);
        if (forwards) {
          ++forwarded;
          if (traced) forwarded_submit_us.push_back(MsBetween(s, e) * 1000.0);
        }
      }
    }
  });

  std::thread writer([&] {
    for (size_t i = 0; i < w.writes.size(); ++i) {
      const Write& wr = w.writes[i];
      const Clock::time_point due = AfterMs(t0, wr.at_ms);
      std::this_thread::sleep_until(due);
      const Clock::time_point s = Clock::now();
      issued[i] = s;
      late_write.push_back(MsBetween(due, s));
      auto res = dep->writer()->ExecuteWrite(wr.sql);
      const Clock::time_point e = Clock::now();
      r.ack_ms.push_back(MsBetween(s, e));
      if (!res.ok()) {
        ++r.writes_failed;
        AddError(&write_errors, wr.sql + ": " + res.status().ToString());
      } else if (*res != wr.rows) {
        ++r.writes_failed;
        AddError(&write_errors, wr.sql + ": affected " + std::to_string(*res) +
                                    " rows, model says " + std::to_string(wr.rows));
      }
      if (dep->two_nodes()) {
        auto locals = dep->locals();
        delta_lag.push_back(static_cast<double>(locals[0]->storage().version()) -
                            static_cast<double>(locals[1]->storage().version()));
      }
      if (traced) spans->Add("write", s, e);
    }
  });
  submitter.join();
  writer.join();

  double last_due_ms = 0;
  if (!w.groups.empty()) last_due_ms = w.groups.back().at_ms;
  if (!w.writes.empty()) last_due_ms = std::max(last_due_ms, w.writes.back().at_ms);
  const Clock::time_point deadline = AfterMs(t0, last_due_ms) + kDrainTimeout;
  while (state->outstanding.load() > 0 && Clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::microseconds(500));
  }
  const Usage u1 = Usage::Now();
  r.cpu_s = u1.cpu_s - u0.cpu_s;
  r.ctx_switches = u1.ctx_switches - u0.ctx_switches;
  r.minor_faults = u1.minor_faults - u0.minor_faults;
  r.late_ms = late_submit;
  r.late_ms.insert(r.late_ms.end(), late_write.begin(), late_write.end());
  r.errors = submit_errors;
  r.errors.insert(r.errors.end(), write_errors.begin(), write_errors.end());

  // Answers: match resolutions to members by ticket id, then check groups.
  std::vector<std::vector<MemberAnswer>> answers(n_groups);
  for (size_t gi = 0; gi < n_groups; ++gi) {
    const Group& g = w.groups[gi];
    std::vector<Resolution> got;
    {
      std::lock_guard<std::mutex> lock(state->mu[gi]);
      got = state->got[gi];
    }
    auto& ans = answers[gi];
    ans.resize(g.queries.size());
    for (size_t m = 0; m < g.queries.size(); ++m) {
      for (const Resolution& res : got) {
        if (tickets[gi][m] == 0 || res.id != tickets[gi][m]) continue;
        ans[m].answered = res.answered;
        ans[m].tuples = res.tuples;
        ans[m].at = res.at;
        if (!res.answered) AddError(&r.errors, g.names[m] + ": " + res.status);
      }
      if (ans[m].answered) {
        ++r.queries_answered;
      } else {
        ++r.queries_failed;
      }
    }
    Clock::time_point supplied = g.write >= 0 ? issued[g.write] : t0;
    std::string verdict = CheckGroup(g, ans, supplied);
    if (!verdict.empty()) r.wrong.push_back("group " + std::to_string(gi) + ": " + verdict);
    bool all = std::all_of(ans.begin(), ans.end(),
                           [](const MemberAnswer& a) { return a.answered; });
    if (!all) continue;
    Clock::time_point last = ans[0].at;
    for (const MemberAnswer& a : ans) last = std::max(last, a.at);
    const Clock::time_point epoch =
        AfterMs(t0, g.write >= 0 ? w.writes[g.write].at_ms : g.at_ms);
    double ms = MsBetween(epoch, last);
    r.answer_ms.push_back(ms);
    if (g.write >= 0) r.woken_ms.push_back(ms);
    if (traced) {
      uint64_t id = spans->Add("group", epoch, last, 0, static_cast<int64_t>(gi));
      // The service's own lifecycle spans of each member, under the group.
      for (size_t m = 0; m < g.queries.size(); ++m) {
        auto tr = dep->entry(entered[gi][m])->Trace(tickets[gi][m]);
        if (!tr.ok()) continue;
        Clock::time_point at[4] = {};
        bool seen[4] = {false, false, false, false};
        for (const auto& ev : tr->events) {
          using K = eq::service::TraceEventKind;
          int k = ev.kind == K::kSubmitted      ? 0
                  : ev.kind == K::kEnqueued     ? 1
                  : ev.kind == K::kEngineSubmit ? 2
                  : ev.kind == K::kResolved     ? 3
                                                : -1;
          if (k >= 0 && !seen[k]) {
            seen[k] = true;
            at[k] = ev.at;
          }
        }
        const auto group = static_cast<int64_t>(gi);
        if (seen[0] && seen[1]) spans->Add("service.route", at[0], at[1], id, group);
        if (seen[1] && seen[2]) {
          spans->Add("shard.queue", at[1], at[2], id, group);
          queue_us.push_back(MsBetween(at[1], at[2]) * 1000.0);
        }
        if (seen[2] && seen[3]) {
          spans->Add("engine.pending", at[2], at[3], id, group);
          pending_us.push_back(MsBetween(at[2], at[3]) * 1000.0);
        }
      }
    }
  }
  if (r.wrong.size() > 5) r.wrong.resize(5);

  // Final state: churn's table against its model; on two nodes, the
  // follower's replica against the owner's once replication caught up.
  auto locals = dep->locals();
  if (!w.model_table.empty()) {
    std::string verdict = CheckTable(w.model_rows, TableRows(locals[0], w.model_table));
    if (!verdict.empty()) r.wrong.push_back(w.model_table + ": " + verdict);
  }
  if (dep->two_nodes()) {
    const Clock::time_point until = Clock::now() + std::chrono::seconds(5);
    while (locals[1]->storage().version() < locals[0]->storage().version() &&
           Clock::now() < until) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    std::string verdict =
        CheckTable(TableRows(locals[0], "W"), TableRows(locals[1], "W"));
    if (!verdict.empty()) r.wrong.push_back("replicas of W: " + verdict);
  }

  if (traced) {
    const double queries = static_cast<double>(std::max<size_t>(r.queries, 1));
    const double writes = static_cast<double>(std::max<size_t>(r.writes, 1));
    double hits = 0, misses = 0, migrations = 0, flushes = 0, match_s = 0,
           db_s = 0, reevals = 0, satisfied = 0, coalesced = 0, groups = 0,
           retained = 0, retired = 0;
    for (CoordinationService* s : locals) {
      eq::service::ServiceMetrics m = s->Metrics();
      hits += static_cast<double>(m.prepare_cache_hits);
      misses += static_cast<double>(m.prepare_cache_misses);
      migrations += static_cast<double>(m.migrations);
      flushes += static_cast<double>(m.flushes);
      for (const auto& shard : m.shards) {
        match_s += shard.match_seconds;
        db_s += shard.db_seconds;
      }
      reevals += static_cast<double>(m.wakeup_reevals);
      satisfied += static_cast<double>(m.wakeup_satisfied);
      coalesced += static_cast<double>(m.write_notifies_coalesced);
      groups += static_cast<double>(s->router().group_count());
      // Version-GC state as DumpState() reports it (on two nodes, the
      // replica that retains the most).
      eq::service::ServiceStateDump dump = s->DumpState();
      retained = std::max(retained, static_cast<double>(dump.retained_versions));
      retired = std::max(retired, static_cast<double>(dump.versions_retired));
    }
    auto& L = r.layer;
    L["prepare.cache_hit_ratio"] = hits + misses > 0 ? hits / (hits + misses) : 0;
    L["submit.us_p50"] = Median(submit_us);
    L["router.groups"] = groups;
    L["service.migrations"] = migrations;
    L["shard.queue_wait_us_p50"] = Median(queue_us);
    L["shard.pending_us_p50"] = Median(pending_us);
    L["sched.ctx_switches_per_op"] =
        static_cast<double>(r.ctx_switches) /
        static_cast<double>(std::max<size_t>(r.ops_done(), 1));
    L["memory.minor_faults_per_op"] =
        static_cast<double>(r.minor_faults) /
        static_cast<double>(std::max<size_t>(r.ops_done(), 1));
    L["engine.match_us_per_query"] = match_s * 1e6 / queries;
    L["engine.db_us_per_query"] = db_s * 1e6 / queries;
    L["engine.flushes"] = flushes;
    L["storage.bootstrap_s"] = r.bootstrap_s;
    L["storage.retained_versions"] = retained;
    L["storage.versions_retired_per_write"] = retired / writes;
    L["wakeup.reevals_per_write"] = reevals / writes;
    L["wakeup.satisfied_per_write"] = satisfied / writes;
    L["wakeup.coalesced_per_write"] = coalesced / writes;
    L["interner.symbols_per_query"] =
        static_cast<double>(interned() - symbols_before) / queries;
    L["cluster.forwarded_share"] = static_cast<double>(forwarded) / queries;
    L["cluster.forward_submit_us_p50"] = Median(forwarded_submit_us);
    L["cluster.delta_lag_versions"] = Mean(delta_lag);
  }
  dep.reset();
  return r;
}

}  // namespace eqbench

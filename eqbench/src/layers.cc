#include <cstdio>
#include <memory>

#include "core/combiner.h"
#include "core/matcher.h"
#include "core/unifiability_graph.h"
#include "db/executor.h"
#include "db/storage.h"
#include "engine/engine.h"
#include "net/wire.h"
#include "round.h"
#include "service/service.h"
#include "sql/translator.h"

namespace eqbench {

namespace {

double UsBetween(Clock::time_point a, Clock::time_point b) {
  return MsBetween(a, b) * 1000.0;
}

}  // namespace

std::map<std::string, double> ReplayLayers(const Workload& w, SpanLog* spans) {
  std::map<std::string, double> out;

  // Prepare: every member query through Canonicalize on a fresh service,
  // so each text is new to the plan cache exactly as in the round.
  std::vector<std::vector<eq::client::PortableQuery>> programs(w.groups.size());
  {
    eq::service::CoordinationService svc(w.service);
    std::vector<double> us;
    for (size_t gi = 0; gi < w.groups.size(); ++gi) {
      for (const eq::client::Query& q : w.groups[gi].queries) {
        Clock::time_point s = Clock::now();
        auto p = svc.Canonicalize(q);
        Clock::time_point e = Clock::now();
        us.push_back(UsBetween(s, e));
        spans->Add("replay.prepare", s, e, 0, static_cast<int64_t>(gi));
        if (!p.ok()) throw std::runtime_error("Canonicalize: " + p.status().ToString());
        programs[gi].push_back(std::move(*p));
      }
    }
    out["prepare.us_per_query"] = Mean(us);
  }

  // Node boundary: each canonical program as a forwarded-submit frame.
  {
    std::vector<double> enc, dec;
    uint64_t req = 0;
    for (const auto& group : programs) {
      for (const eq::client::PortableQuery& p : group) {
        eq::net::SubmitMsg msg;
        msg.req_id = ++req;
        msg.query = p;
        msg.group_relations = p.EntangledRelations();
        Clock::time_point s = Clock::now();
        std::string bytes = eq::net::Encode(msg);
        Clock::time_point m = Clock::now();
        auto back = eq::net::DecodeSubmit(bytes);
        Clock::time_point e = Clock::now();
        if (!back.ok()) throw std::runtime_error("DecodeSubmit: " + back.status().ToString());
        enc.push_back(UsBetween(s, m));
        dec.push_back(UsBetween(m, e));
        spans->Add("replay.wire.encode", s, m);
        spans->Add("replay.wire.decode", m, e);
      }
    }
    out["wire.encode_us"] = Mean(enc);
    out["wire.decode_us"] = Mean(dec);
  }

  // Storage: a private db::Storage built by the workload's bootstrap, with
  // the round's writes translated and applied in schedule order.
  auto interner = std::make_shared<eq::StringInterner>();
  eq::ir::QueryContext ctx(interner);
  eq::db::Storage storage(interner);
  storage.mutable_db()->set_compaction_threshold(w.service.compaction_threshold);
  storage.mutable_db()->set_ordered_indexes(w.service.ordered_indexes);
  w.service.bootstrap(&ctx, storage.mutable_db());
  storage.Publish();
  {
    eq::sql::Translator translator(&ctx, storage.Current());
    std::vector<double> translate_us, apply_us;
    for (const Write& wr : w.writes) {
      Clock::time_point s = Clock::now();
      auto stmt = translator.TranslateWriteSql(wr.sql);
      Clock::time_point m = Clock::now();
      if (!stmt.ok()) throw std::runtime_error("TranslateWriteSql: " + stmt.status().ToString());
      std::vector<eq::db::Storage::TableWrite> batch;
      batch.push_back(std::move(stmt->write));
      size_t rows = 0;
      eq::Status st = storage.ApplyBatch(batch, &rows);
      Clock::time_point e = Clock::now();
      if (!st.ok() || rows != wr.rows) {
        throw std::runtime_error("ApplyBatch " + wr.sql + ": " + st.ToString());
      }
      translate_us.push_back(UsBetween(s, m));
      apply_us.push_back(UsBetween(m, e));
      spans->Add("replay.sql.translate_write", s, m);
      spans->Add("replay.storage.apply", m, e);
    }
    out["sql.write_translate_us"] = Mean(translate_us);
    out["storage.apply_us_p50"] = Median(apply_us);
  }
  const eq::db::Snapshot snapshot = storage.Current();

  // Matching: a private engine on one thread, against the snapshot after
  // every write, so each group can be answered on arrival.
  {
    eq::ir::QueryContext ectx(interner);
    eq::engine::EngineOptions eo;
    eo.mode = w.replay_mode;
    eq::engine::CoordinationEngine engine(&ectx, snapshot, eo);
    std::vector<std::vector<eq::ir::EntangledQuery>> queries;
    size_t n = 0;
    for (const auto& group : programs) {
      queries.emplace_back();
      for (const auto& p : group) {
        auto q = p.Instantiate(&ectx);
        if (!q.ok()) throw std::runtime_error("Instantiate: " + q.status().ToString());
        queries.back().push_back(std::move(*q));
        ++n;
      }
    }
    const bool batched = w.replay_mode == eq::engine::EvalMode::kSetAtATime;
    size_t since_flush = 0;
    Clock::time_point s = Clock::now();
    for (auto& group : queries) {
      for (auto& q : group) {
        auto id = engine.Submit(std::move(q));
        if (!id.ok()) throw std::runtime_error("engine Submit: " + id.status().ToString());
        ++since_flush;
      }
      // Flush between groups only, so no group is split across two flushes.
      if (batched && since_flush >= w.service.max_batch) {
        eq::Status st = engine.Flush();
        if (!st.ok()) throw std::runtime_error("engine Flush: " + st.ToString());
        since_flush = 0;
      }
    }
    if (batched) {
      eq::Status st = engine.Flush();
      if (!st.ok()) throw std::runtime_error("engine Flush: " + st.ToString());
    }
    Clock::time_point e = Clock::now();
    spans->Add("replay.engine", s, e);
    out["engine.replay_us_per_query"] = UsBetween(s, e) / static_cast<double>(std::max<size_t>(n, 1));
    if (engine.metrics().answered != n) {
      std::fprintf(stderr, "eqbench: engine replay answered %llu of %zu queries\n",
                   static_cast<unsigned long long>(engine.metrics().answered), n);
    }
  }

  // Executor: each group's combined query, evaluated with ExecStats.
  {
    eq::ir::QueryContext cctx(interner);
    uint64_t scanned = 0, probes = 0, answered = 0;
    for (size_t gi = 0; gi < programs.size(); ++gi) {
      eq::ir::QuerySet qs;
      for (const auto& p : programs[gi]) {
        auto q = p.Instantiate(&cctx);
        if (!q.ok()) throw std::runtime_error("Instantiate: " + q.status().ToString());
        qs.queries.push_back(std::move(*q));
      }
      qs.AssignIds();
      eq::core::UnifiabilityGraph graph(&qs);
      if (!graph.Build().ok()) continue;
      std::vector<eq::ir::QueryId> all(qs.queries.size());
      for (eq::ir::QueryId i = 0; i < all.size(); ++i) all[i] = i;
      Clock::time_point s = Clock::now();
      eq::core::Matcher matcher(&graph);
      std::vector<eq::ir::QueryId> survivors = matcher.MatchComponent(all);
      eq::core::Combiner combiner(&qs);
      auto cq = combiner.Combine(graph, survivors);
      if (!cq.ok()) continue;
      eq::db::ExecStats stats;
      auto ans = combiner.Evaluate(*cq, snapshot, 1, eq::db::ExecOptions(), &stats);
      spans->Add("replay.combiner", s, Clock::now(), 0, static_cast<int64_t>(gi));
      if (!ans.ok() || ans->empty()) continue;
      scanned += stats.rows_scanned;
      probes += stats.index_probes + stats.range_probes;
      ++answered;
    }
    const double per = static_cast<double>(std::max<uint64_t>(answered, 1));
    out["executor.rows_scanned_per_answer"] = static_cast<double>(scanned) / per;
    out["executor.index_probes_per_answer"] = static_cast<double>(probes) / per;
    if (answered != programs.size()) {
      std::fprintf(stderr, "eqbench: combiner replay answered %llu of %zu groups\n",
                   static_cast<unsigned long long>(answered), programs.size());
    }
  }
  return out;
}

}  // namespace eqbench

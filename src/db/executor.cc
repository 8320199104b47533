#include "db/executor.h"

#include <algorithm>

namespace eq::db {

using ir::Atom;
using ir::CompareOp;
using ir::Filter;
using ir::Term;
using ir::Value;
using ir::VarId;

const Value& Valuation::ValueOf(VarId v) const {
  for (size_t i = 0; i < vars_->size(); ++i) {
    if ((*vars_)[i] == v) return (*values_)[i];
  }
  static const Value kNull;
  return kNull;
}

std::unordered_map<VarId, Value> Valuation::ToMap() const {
  std::unordered_map<VarId, Value> out;
  for (size_t i = 0; i < vars_->size(); ++i) {
    out.emplace((*vars_)[i], (*values_)[i]);
  }
  return out;
}

namespace {

using ir::EvalCompare;  // the shared comparison kernel (ir/query.h)

/// One depth-first evaluation of a conjunctive query.
class Evaluation {
 public:
  Evaluation(const Snapshot& snap, const ConjunctiveQuery& q,
             const ExecOptions& opts, const RowCallback& cb, ExecStats* stats)
      : snap_(snap), q_(q), opts_(opts), cb_(cb), stats_(stats) {}

  Status Run() {
    EQ_RETURN_NOT_OK(Prepare());
    if (!PassesConstFilters()) return Status::OK();
    Status st = Recurse(0);
    if (stats_ != nullptr) *stats_ = local_stats_;
    return st;
  }

 private:
  struct PlannedAtom {
    const Atom* atom = nullptr;
    const TableVersion* table = nullptr;
  };

  int SlotOf(VarId v) {
    auto it = var_slots_.find(v);
    if (it != var_slots_.end()) return it->second;
    int slot = static_cast<int>(var_order_.size());
    var_slots_.emplace(v, slot);
    var_order_.push_back(v);
    values_.emplace_back();
    bound_.push_back(false);
    return slot;
  }

  Status Prepare() {
    // Resolve tables and collect variables.
    for (const Atom& a : q_.atoms) {
      const TableVersion* t = snap_.GetTable(a.relation);
      if (t == nullptr) {
        return Status::NotFound("relation '" +
                                snap_.interner().Name(a.relation) +
                                "' has no table");
      }
      if (t->schema().arity() != a.arity()) {
        return Status::InvalidArgument(
            "atom arity " + std::to_string(a.arity()) +
            " does not match table '" + snap_.interner().Name(a.relation) +
            "' arity " + std::to_string(t->schema().arity()));
      }
      for (const Term& term : a.args) {
        if (term.is_var()) SlotOf(term.var());
      }
      plan_.push_back(PlannedAtom{&a, t});
    }
    for (const Filter& f : q_.filters) {
      for (const Term* t : {&f.lhs, &f.rhs}) {
        if (t->is_var()) SlotOf(t->var());
      }
    }

    if (opts_.reorder_atoms) OrderAtoms();

    // Attach each filter to the earliest plan level at which both operands
    // are bound (level = index into plan_ after whose binding it can run).
    filter_level_.assign(q_.filters.size(), -1);
    std::vector<bool> sim_bound(var_order_.size(), false);
    for (size_t lvl = 0; lvl < plan_.size(); ++lvl) {
      for (const Term& term : plan_[lvl].atom->args) {
        if (term.is_var()) sim_bound[var_slots_[term.var()]] = true;
      }
      for (size_t fi = 0; fi < q_.filters.size(); ++fi) {
        if (filter_level_[fi] >= 0) continue;
        const Filter& f = q_.filters[fi];
        bool ready = true;
        for (const Term* t : {&f.lhs, &f.rhs}) {
          if (t->is_var() && !sim_bound[var_slots_[t->var()]]) ready = false;
        }
        if (ready) filter_level_[fi] = static_cast<int>(lvl);
      }
    }
    // Filters on variables never bound by any atom are a validation error
    // upstream; treat remaining -1 (constant-only filters) as level -1,
    // checked before recursion starts.
    return Status::OK();
  }

  /// Greedy bound-first static ordering: repeatedly pick the atom with the
  /// most bound argument positions (constants + already-planned variables);
  /// tie-break on smaller table.
  void OrderAtoms() {
    std::vector<bool> planned(plan_.size(), false);
    std::vector<bool> var_known(var_order_.size(), false);
    std::vector<PlannedAtom> ordered;
    ordered.reserve(plan_.size());
    for (size_t step = 0; step < plan_.size(); ++step) {
      int best = -1;
      size_t best_bound = 0;
      size_t best_rows = 0;
      for (size_t i = 0; i < plan_.size(); ++i) {
        if (planned[i]) continue;
        size_t bound = 0;
        for (const Term& t : plan_[i].atom->args) {
          if (t.is_const() || var_known[var_slots_[t.var()]]) ++bound;
        }
        size_t rows = plan_[i].table->row_count();
        if (best < 0 || bound > best_bound ||
            (bound == best_bound && rows < best_rows)) {
          best = static_cast<int>(i);
          best_bound = bound;
          best_rows = rows;
        }
      }
      planned[best] = true;
      for (const Term& t : plan_[best].atom->args) {
        if (t.is_var()) var_known[var_slots_[t.var()]] = true;
      }
      ordered.push_back(plan_[best]);
    }
    plan_ = std::move(ordered);
  }

  const Value& TermValue(const Term& t) const {
    if (t.is_const()) return t.value();
    return values_[var_slots_.at(t.var())];
  }

  bool PassesConstFilters() const {
    for (size_t fi = 0; fi < q_.filters.size(); ++fi) {
      if (filter_level_[fi] != -1) continue;
      const Filter& f = q_.filters[fi];
      if (!EvalCompare(f.op, TermValue(f.lhs), TermValue(f.rhs),
                       &snap_.interner())) {
        return false;
      }
    }
    return true;
  }

  bool FiltersAtLevelPass(int level) const {
    for (size_t fi = 0; fi < q_.filters.size(); ++fi) {
      if (filter_level_[fi] != level) continue;
      const Filter& f = q_.filters[fi];
      if (!EvalCompare(f.op, TermValue(f.lhs), TermValue(f.rhs),
                       &snap_.interner())) {
        return false;
      }
    }
    return true;
  }

  /// Binds the row against the atom at `level`; records which slots were
  /// newly bound in *newly for backtracking. Returns false on mismatch.
  bool TryBindRow(const Atom& atom, const Row& row, std::vector<int>* newly) {
    for (size_t i = 0; i < atom.args.size(); ++i) {
      const Term& t = atom.args[i];
      if (t.is_const()) {
        if (t.value() != row[i]) return false;
      } else {
        int slot = var_slots_[t.var()];
        if (bound_[slot]) {
          if (values_[slot] != row[i]) return false;
        } else {
          bound_[slot] = true;
          values_[slot] = row[i];
          newly->push_back(slot);
        }
      }
    }
    return true;
  }

  void Unbind(const std::vector<int>& newly) {
    for (int slot : newly) bound_[slot] = false;
  }

  Status Recurse(size_t level) {
    if (done_) return Status::OK();
    if (level == plan_.size()) {
      ++local_stats_.output_rows;
      Valuation v(&var_order_, &values_);
      if (!cb_(v)) done_ = true;
      if (q_.limit != 0 && local_stats_.output_rows >= q_.limit) done_ = true;
      return Status::OK();
    }

    const PlannedAtom& pa = plan_[level];
    const Atom& atom = *pa.atom;

    // Candidate rows: a hash probe on some bound column if permitted, else
    // the ordered-index spans narrowed by a range filter attached to this
    // level, otherwise a full scan. Index postings reference live rows
    // only, so no tombstone check is needed on the probe paths.
    IdSpan probe{nullptr, nullptr};
    IdSpans ranges;
    const IdSpan* spans_begin = nullptr;
    const IdSpan* spans_end = nullptr;
    bool have_candidates = false;
    if (opts_.use_indexes) {
      for (size_t i = 0; i < atom.args.size(); ++i) {
        const Term& t = atom.args[i];
        bool is_bound =
            t.is_const() || bound_[var_slots_.at(t.var())];
        if (is_bound && pa.table->HasIndex(i)) {
          const std::vector<uint32_t>* postings =
              pa.table->Probe(i, TermValue(t));
          probe = {postings->data(), postings->data() + postings->size()};
          spans_begin = &probe;
          spans_end = spans_begin + 1;
          have_candidates = true;
          ++local_stats_.index_probes;
          break;
        }
      }
      if (!have_candidates && RangeCandidates(level, &ranges)) {
        spans_begin = ranges.data();
        spans_end = spans_begin + ranges.size();
        have_candidates = true;
        ++local_stats_.range_probes;
      }
    }

    auto visit = [&](const Row& row) -> Status {
      ++local_stats_.rows_scanned;
      if (opts_.max_scanned_rows != 0 &&
          local_stats_.rows_scanned > opts_.max_scanned_rows) {
        return Status::Timeout("scan budget of " +
                               std::to_string(opts_.max_scanned_rows) +
                               " rows exceeded");
      }
      std::vector<int> newly;
      if (TryBindRow(atom, row, &newly)) {
        if (FiltersAtLevelPass(static_cast<int>(level))) {
          Status st = Recurse(level + 1);
          if (!st.ok()) {
            Unbind(newly);
            return st;
          }
        }
      }
      Unbind(newly);
      return Status::OK();
    };

    if (have_candidates) {
      for (const IdSpan* s = spans_begin; s != spans_end && !done_; ++s) {
        for (const uint32_t* p = s->first; p != s->second; ++p) {
          if (done_) break;
          EQ_RETURN_NOT_OK(visit(pa.table->row(*p)));
        }
      }
    } else {
      for (size_t rid = 0; rid < pa.table->physical_size(); ++rid) {
        if (done_) break;
        if (pa.table->row_dead(rid)) continue;
        EQ_RETURN_NOT_OK(visit(pa.table->row(rid)));
      }
    }
    return Status::OK();
  }

  /// Mirrors an ordered comparison across swapped operands: `a < b` is
  /// `b > a`. Only range ops reach the caller's flip path.
  static CompareOp FlipOp(CompareOp op) {
    switch (op) {
      case CompareOp::kLt: return CompareOp::kGt;
      case CompareOp::kLe: return CompareOp::kGe;
      case CompareOp::kGt: return CompareOp::kLt;
      case CompareOp::kGe: return CompareOp::kLe;
      default: return op;
    }
  }

  /// Ordered-index spans for the atom at `level`: looks for a filter
  /// attached to this level of the shape `var <op> bound-term` (or the
  /// reverse, flipping the op) where `var` is introduced by this atom at an
  /// ordered-indexed position, and narrows the candidates to the index
  /// slices satisfying the comparison (one span per index chunk). The
  /// filter still runs afterwards — the spans only have to cover the
  /// matching rows (they are in fact exact for the conjunct they use,
  /// since the index is sorted by the same comparator EvalCompare
  /// applies). False when no filter can use an ordered index.
  bool RangeCandidates(size_t level, IdSpans* out) {
    const PlannedAtom& pa = plan_[level];
    const Atom& atom = *pa.atom;
    for (size_t fi = 0; fi < q_.filters.size(); ++fi) {
      if (filter_level_[fi] != static_cast<int>(level)) continue;
      const Filter& f = q_.filters[fi];
      for (bool flip : {false, true}) {
        const Term& vt = flip ? f.rhs : f.lhs;
        const Term& ct = flip ? f.lhs : f.rhs;
        if (!vt.is_var() || bound_[var_slots_.at(vt.var())]) continue;
        if (ct.is_var() && !bound_[var_slots_.at(ct.var())]) continue;
        CompareOp op = flip ? FlipOp(f.op) : f.op;
        if (op != CompareOp::kLt && op != CompareOp::kLe &&
            op != CompareOp::kGt && op != CompareOp::kGe) {
          continue;
        }
        for (size_t i = 0; i < atom.args.size(); ++i) {
          const Term& at = atom.args[i];
          if (at.is_var() && at.var() == vt.var() &&
              pa.table->HasOrderedIndex(i)) {
            *out = pa.table->OrderedRange(i, op, TermValue(ct));
            return true;
          }
        }
      }
    }
    return false;
  }

  const Snapshot& snap_;
  const ConjunctiveQuery& q_;
  const ExecOptions& opts_;
  const RowCallback& cb_;
  ExecStats* stats_;

  std::vector<PlannedAtom> plan_;
  std::unordered_map<VarId, int> var_slots_;
  std::vector<VarId> var_order_;
  std::vector<Value> values_;
  std::vector<bool> bound_;
  std::vector<int> filter_level_;
  ExecStats local_stats_;
  bool done_ = false;
};

}  // namespace

Status Executor::Execute(const ConjunctiveQuery& q, const ExecOptions& opts,
                         const RowCallback& cb, ExecStats* stats) {
  Evaluation eval(snap_, q, opts, cb, stats);
  return eval.Run();
}

Result<std::vector<std::unordered_map<VarId, Value>>> Executor::ExecuteAll(
    const ConjunctiveQuery& q, const ExecOptions& opts) {
  std::vector<std::unordered_map<VarId, Value>> out;
  Status st = Execute(q, opts, [&](const Valuation& v) {
    out.push_back(v.ToMap());
    return true;
  });
  if (!st.ok()) return st;
  return out;
}

}  // namespace eq::db

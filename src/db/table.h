#ifndef EQ_DB_TABLE_H_
#define EQ_DB_TABLE_H_

#include <array>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "ir/query.h"
#include "ir/value.h"
#include "util/status.h"

namespace eq::db {

using Row = std::vector<ir::Value>;

/// Column description: name (for the SQL frontend) and type.
struct Column {
  std::string name;
  ir::ValueType type = ir::ValueType::kString;
};

/// A table schema: ordered list of typed, named columns.
struct Schema {
  std::vector<Column> columns;

  Schema() = default;
  /*implicit*/ Schema(std::initializer_list<Column> cols) : columns(cols) {}

  size_t arity() const { return columns.size(); }

  /// Index of the column with the given name, or -1.
  int ColumnIndex(std::string_view name) const;
};

/// A write predicate: a conjunction (AND) of per-column comparisons
/// `col <op> literal`, op ∈ {=, !=, <, <=, >, >=}. The match unit for
/// DeleteWhere/UpdateWhere — the declarative generalization of the
/// original single-column-equality match. An empty conjunction matches
/// every row (SQL `DELETE FROM t` with no WHERE).
///
/// Ordered comparisons use the same kernel as query-body filters
/// (ir::EvalCompare), so `WHERE fno < 200` means the same thing in a
/// query and in a DELETE. Ordered STRING comparisons require a
/// sorted-dictionary order — the StringInterner that owns the symbols —
/// passed as `order` to Matches/Validate: tables created through a
/// db::Database carry their interner and support `dest < 'M'` natively,
/// while a bare interner-less Table rejects ordered string comparisons at
/// Validate (SymbolIds alone have no lexicographic order). Predicates
/// are plain data: value-copyable, immutable once built, safe to share
/// across threads.
struct Predicate {
  /// One conjunct: `column <op> value`.
  struct Term {
    size_t col = 0;
    ir::CompareOp op = ir::CompareOp::kEq;
    ir::Value value;
  };

  std::vector<Term> terms;  ///< conjunction; empty = match all rows

  /// `col = v` — the classic single-column match.
  static Predicate Eq(size_t col, ir::Value v) {
    Predicate p;
    p.terms.push_back({col, ir::CompareOp::kEq, std::move(v)});
    return p;
  }

  /// Appends a conjunct (builder style): `Predicate::Eq(0, a).And(1, kLt, b)`.
  Predicate& And(size_t col, ir::CompareOp op, ir::Value v) {
    terms.push_back({col, op, std::move(v)});
    return *this;
  }

  bool empty() const { return terms.empty(); }

  /// True iff every conjunct holds for `row`. `row` must satisfy the schema
  /// this predicate was validated against. SQL NULL semantics: a NULL cell
  /// satisfies no comparison (not even !=) — without this guard the
  /// type-tag ordering in ir::CompareValues would make NULL compare less
  /// than every value and silently match range predicates. A row with
  /// NULL cells is still matched by the empty conjunction (bare
  /// `DELETE FROM t` really does clear the table).
  bool Matches(const Row& row, const StringInterner* order = nullptr) const {
    for (const Term& t : terms) {
      if (row[t.col].is_null()) return false;
      if (!ir::EvalCompare(t.op, row[t.col], t.value, order)) return false;
    }
    return true;
  }

  /// Checks every conjunct against `schema`: column in range, literal
  /// non-null and of the column's declared type. Ordered comparisons on
  /// STRING columns additionally require a sorted-dictionary `order` (the
  /// interner) — without one they are rejected rather than silently
  /// matching hash-ordered rows. Run BEFORE any CoW clone so an invalid
  /// predicate never copies a table.
  Status Validate(const Schema& schema,
                  const StringInterner* order = nullptr) const;
};

/// One SQL SET clause: assign `value` to `col` in every matched row.
struct ColumnSet {
  size_t col = 0;
  ir::Value value;
};

/// Checks SET clauses against `schema`: at least one clause, column in
/// range, no column assigned twice, value type matching the column (NULL
/// allowed, mirroring Insert's CheckRow).
Status ValidateColumnSets(const Schema& schema,
                          const std::vector<ColumnSet>& sets);

/// Lowers a full-row replacement to its SET-clause form (one assignment
/// per column) — the single definition shared by the legacy UpdateWhere
/// overload and batch application.
std::vector<ColumnSet> ReplacementSets(const Row& replacement);

/// A run of row ids inside one index piece: [first, second).
using IdSpan = std::pair<const uint32_t*, const uint32_t*>;
/// The row ids of a range probe, in index order, one span per ordered-
/// index chunk the range touches.
using IdSpans = std::vector<IdSpan>;

/// One immutable version of an in-memory row-store table: rows plus
/// optional per-column hash and ordered indexes, with tombstoned deletes.
///
/// This is the storage substrate for combined-query evaluation — the role
/// MySQL played in the paper's experiments (§5.1). A version is mutable
/// only while it is exclusively owned (bootstrap, or the private copy a
/// write makes); once published inside a db::Snapshot it is shared
/// immutably via shared_ptr across every reader (§2.3: the database must
/// not change during coordinated answering).
///
/// Structural sharing: a version is a directory of pieces, each held by
/// shared_ptr and shared with the versions it was copied from or to —
///  - rows live in fixed-size segments (kSegmentRows), each holding
///    shared_ptrs to its rows and its own tombstone bitmap;
///  - each hash index is split by ir::ValueHash into partitions, whose
///    count is a power of two derived from the key count (about
///    kKeysPerPartition keys each; it doubles as keys are added);
///  - each ordered index is a list of sorted chunks of at most kChunkRows
///    row ids (a full chunk splits in two on insert).
/// Copy-construction copies only the directories, so the unit of
/// copy-on-write is the piece: a one-row write clones the segment it
/// touches, one partition per hash index and one chunk per ordered index,
/// and every other piece stays pointer-identical to the predecessor's.
/// A piece is mutated in place only when this version created it (its
/// owner tag is this version's id); any other piece may be reachable from
/// a published version and is cloned first.
///
/// Tombstones: DeleteWhere/UpdateWhere mark rows dead instead of erasing
/// them, and patch only the touched posting lists — no physical compaction
/// and no full index rebuild per write. Physical row ids therefore stay
/// stable between compactions, and indexes reference live rows only.
/// Readers that iterate physically (`physical_size()` + `row(i)`) must
/// skip `row_dead(i)` rows; `row_count()` reports live rows. Compact()
/// erases the dead rows for real (the CoW handle triggers it once
/// `dead_fraction()` crosses its compaction threshold).
///
/// Loading: a version made by the schema constructor is *loading* until it
/// is first shared. While loading, an ordered index declared by
/// BuildOrderedIndex is only marked deferred: inserts, deletes and updates
/// maintain the hash postings per row but leave the ordered index alone.
/// EndLoad() (run by Table::version() before the first share) builds each
/// deferred index once, in bulk, from its column's hash postings; from
/// then on ordered indexes are maintained per row. A copy of a version
/// that is no longer loading — every published version — never defers.
/// Readers only ever see built ordered indexes: HasOrderedIndex() is false
/// for a deferred one.
class TableVersion {
 public:
  static constexpr size_t kSegmentShift = 6;
  static constexpr size_t kSegmentRows = size_t{1} << kSegmentShift;
  static constexpr size_t kKeysPerPartition = 32;
  static constexpr size_t kChunkRows = 256;

  struct Segment;

  /// `order` is the sorted-dictionary for this table's interned strings —
  /// non-owning; the Database that creates the table guarantees the
  /// interner outlives every version (snapshots share ownership of it).
  /// A null order means ordered string comparisons are unsupported here.
  explicit TableVersion(Schema schema, const StringInterner* order = nullptr);
  /// Shares every piece of `other`; the copy owns none of them yet.
  TableVersion(const TableVersion& other);
  TableVersion& operator=(const TableVersion&) = delete;

  const Schema& schema() const { return schema_; }
  /// Live (non-tombstoned) rows — the logical table size.
  size_t row_count() const { return size_ - dead_count_; }
  /// Physical slots, dead included — the bound for row(i) iteration.
  size_t physical_size() const { return size_; }
  const Row& row(size_t i) const {
    return *segs_[i >> kSegmentShift]->rows[i & kSegmentMask];
  }
  bool row_dead(size_t i) const {
    return segs_[i >> kSegmentShift]->Dead(i & kSegmentMask);
  }
  size_t dead_count() const { return dead_count_; }
  /// Dead fraction of the physical row array (0 when empty).
  double dead_fraction() const {
    return size_ == 0 ? 0.0
                      : static_cast<double>(dead_count_) /
                            static_cast<double>(size_);
  }
  /// The sorted-dictionary order for string cells (null for bare tables).
  const StringInterner* order() const { return order_; }

  /// The pieces, for checking what two versions share: the segment
  /// holding physical rows [s * kSegmentRows, (s + 1) * kSegmentRows),
  /// and the piece counts of the built indexes on `col` (0 when unbuilt).
  size_t segment_count() const { return segs_.size(); }
  const Segment* segment(size_t s) const { return segs_[s].get(); }
  size_t partition_count(size_t col) const {
    return col < hash_.size() ? hash_[col].parts.size() : 0;
  }
  size_t chunk_count(size_t col) const {
    return col < ordered_.size() ? ordered_[col].chunks.size() : 0;
  }

  /// Validates `row` against the schema (arity, per-column types) without
  /// inserting. Exactly the checks Insert performs.
  Status CheckRow(const Row& row) const;

  /// Appends a row after arity/type checking. Maintains any built indexes
  /// (hash postings appended, ordered postings inserted into their chunk).
  /// Only valid while this version is exclusively owned.
  Status Insert(Row row);

  /// Tombstones every row matching `pred` and unlinks it from every built
  /// index (postings are patched, not rebuilt). An indexed `=` conjunct —
  /// or an ordered conjunct over an ordered-indexed column — narrows the
  /// scan to its candidates. Returns the number of rows removed.
  /// Only valid while this version is exclusively owned.
  size_t DeleteWhere(const Predicate& pred);

  /// Single-column-equality convenience: DeleteWhere(col = v).
  size_t DeleteWhere(size_t col, const ir::Value& v) {
    return DeleteWhere(Predicate::Eq(col, v));
  }

  /// Applies `sets` to every row matching `pred` (the SQL UPDATE ... SET
  /// semantics; `sets` must already be schema-checked) MVCC-style: the old
  /// row is tombstoned and the updated copy appended, with both ends
  /// patched into the built indexes — no full rebuild. Returns the number
  /// of rows updated. Only valid while this version is exclusively owned.
  size_t UpdateWhere(const Predicate& pred, const std::vector<ColumnSet>& sets);

  /// Full-row-replacement convenience: every row with `col` = `v` becomes
  /// `replacement` (already schema-checked). Returns rows replaced.
  size_t UpdateWhere(size_t col, const ir::Value& v, const Row& replacement);

  /// True iff some live row matches `pred` (probing the index of an
  /// indexed `=` conjunct when available, linear scan otherwise).
  /// Read-only: lets the CoW handle skip the clone for a delete/update
  /// that would touch nothing.
  bool AnyMatch(const Predicate& pred) const;

  /// Single-column-equality convenience: AnyMatch(col = v).
  bool AnyMatch(size_t col, const ir::Value& v) const {
    return AnyMatch(Predicate::Eq(col, v));
  }

  /// Physically erases tombstoned rows (stable order) into fresh segments
  /// — the rows themselves are shared, not copied — and bulk-rebuilds
  /// every built index (erasure shifts row ids). The deferred half of the
  /// tombstone design; triggered by the CoW handle's threshold.
  /// Only valid while this version is exclusively owned.
  void Compact();

  /// Builds (or rebuilds) a hash index on `col` by posting every live row
  /// in turn; kept up to date by Insert/DeleteWhere/UpdateWhere.
  /// Only valid while this version is exclusively owned.
  Status BuildIndex(size_t col);

  bool HasIndex(size_t col) const {
    return col < hash_.size() && !hash_[col].parts.empty();
  }

  /// Declares an ordered index on `col`: row ids sorted by the cell value
  /// (sorted-dictionary order for strings — requires order()), sliced into
  /// chunks. It is built from the column's hash postings, so a hash index
  /// on `col` is built first if there is none. While this version is
  /// loading the build is deferred to EndLoad(); otherwise it runs now.
  /// Kept up to date by Insert/DeleteWhere/UpdateWhere once built.
  /// Only valid while this version is exclusively owned.
  Status BuildOrderedIndex(size_t col);

  /// True iff the ordered index on `col` is built (a deferred one is not).
  bool HasOrderedIndex(size_t col) const {
    return col < ordered_.size() && ordered_[col].built;
  }

  /// Builds the ordered index on `col` now if it is deferred.
  /// Only valid while this version is exclusively owned.
  void BuildDeferred(size_t col) {
    if (col < ordered_.size() && ordered_[col].deferred) BulkOrdered(col);
  }

  /// Ends the load: builds every deferred ordered index, after which
  /// ordered indexes are maintained per row. A no-op (that writes
  /// nothing) once the load has ended, so shared versions may call it.
  void EndLoad() {
    if (loading_) BuildAllDeferred();
  }

  /// A fresh, loading version with this version's schema, order and index
  /// declarations, holding `rows` (already schema-checked). The rows go in
  /// first, then the hash postings, and the ordered indexes are deferred.
  std::shared_ptr<TableVersion> FreshWith(std::vector<Row> rows) const;

  /// Row ids whose `col` equals `v`. Requires HasIndex(col); returns a
  /// pointer to an empty vector when no rows match.
  const std::vector<uint32_t>* Probe(size_t col, const ir::Value& v) const;

  /// Row ids of live rows satisfying `col <op> v` for an ordered op
  /// (<, <=, >, >=), in index order: one span per chunk the range covers
  /// (no span for an empty range). Requires HasOrderedIndex(col) and a
  /// range op; returns no spans otherwise.
  IdSpans OrderedRange(size_t col, ir::CompareOp op,
                       const ir::Value& v) const;

  /// A row-id segment: shared row pointers plus the tombstone bitmap.
  struct Segment {
    uint64_t owner = 0;
    std::array<std::shared_ptr<const Row>, kSegmentRows> rows;
    std::array<uint64_t, (kSegmentRows + 63) / 64> dead{};

    bool Dead(size_t j) const { return (dead[j >> 6] >> (j & 63)) & 1; }
  };

 private:
  static constexpr size_t kSegmentMask = kSegmentRows - 1;

  /// One hash-index partition: (key, postings) entries sorted by key
  /// (Value::operator<, so no interner involved).
  struct Partition {
    using Entry = std::pair<ir::Value, std::vector<uint32_t>>;
    uint64_t owner = 0;
    std::vector<Entry> entries;
  };
  struct HashIndex {
    std::vector<std::shared_ptr<Partition>> parts;  // power-of-two count
    size_t keys = 0;
  };
  struct Chunk {
    uint64_t owner = 0;
    std::vector<uint32_t> ids;  // sorted by (cell value, row id)
    /// The cell of ids.back() and its text (string cells only): the
    /// chunk-level search reads neither rows nor the interner.
    ir::Value last;
    const std::string* last_text = nullptr;
  };
  struct OrderedIndex {
    bool built = false;
    bool deferred = false;  // declared while loading; built at EndLoad()
    std::vector<std::shared_ptr<Chunk>> chunks;  // no chunk is empty
  };

  static const std::vector<uint32_t> kEmptyPostings;

  /// A fresh, empty piece owned by this version.
  template <typename Piece>
  std::shared_ptr<Piece> NewPiece() const;
  /// `piece`, cloned first unless this version created it.
  template <typename Piece>
  Piece* Own(std::shared_ptr<Piece>& piece);

  /// Recomputes every built index from the current rows (after compaction
  /// replaced the row ids).
  void RebuildIndexes();

  /// Spreads the hash index on `col` over `parts` partitions (a power of
  /// two, a multiple of the current count): partition p hands the entries
  /// whose hash now selects another partition to it — moved when this
  /// version owns p, copied otherwise.
  void Repartition(size_t col, size_t parts);

  /// Candidate row ids that could match `pred`: postings of an indexed `=`
  /// conjunct, else the ordered-index spans of an ordered conjunct. False
  /// when no index applies (callers fall back to the full scan). The
  /// shared fast path of AnyMatch/DeleteWhere/UpdateWhere.
  bool CandidateSpans(const Predicate& pred, IdSpans* out) const;

  /// Postings of the first `=` conjunct over an indexed column, or nullptr
  /// when no conjunct can use an index.
  const std::vector<uint32_t>* EqPostings(const Predicate& pred) const;

  /// The live row ids matching `pred`, in candidate order. Collected
  /// BEFORE mutating: killing a row edits the very postings a candidate
  /// span may point into.
  std::vector<uint32_t> MatchingIds(const Predicate& pred) const;

  /// Appends an already-validated row, wiring it into every built index.
  void AppendRow(std::shared_ptr<const Row> row);

  /// Adds row `id` (whose `col` cell is `cell`) to the hash postings of
  /// `col`, after every id already there.
  void HashInsert(size_t col, const ir::Value& cell, uint32_t id);

  /// EndLoad's work: every deferred index, then the load flag.
  void BuildAllDeferred();

  /// (Re)builds the ordered index on `col` from its hash postings: the
  /// distinct keys are sorted and each key's ascending postings are
  /// streamed into full chunks. Requires HasIndex(col).
  void BulkOrdered(size_t col);

  /// Tombstones row `id` and unlinks it from every built index.
  void KillRow(uint32_t id);

  /// An ordered-index entry: a cell, its text when already resolved (a
  /// string cell under order(); null otherwise), and its row id.
  struct Key {
    const ir::Value* cell;
    const std::string* text;
    uint32_t id;
  };
  /// The text of a string cell under order(), or null.
  const std::string* TextOf(const ir::Value& cell) const {
    return cell.is_str() && order_ != nullptr ? &order_->Name(cell.AsStr())
                                              : nullptr;
  }
  /// CompareValues(*a.cell, *b.cell, order()), comparing resolved texts
  /// directly (no interner lock) when both keys carry one.
  static int CompareCells(const Key& a, const Key& b,
                          const StringInterner* order);
  /// Ordered-index order: (cell value, row id), total.
  bool KeyLess(const Key& a, const Key& b) const {
    int c = CompareCells(a, b, order_);
    return c != 0 ? c < 0 : a.id < b.id;
  }
  /// Caches `cell` (the cell of the chunk's last id) in `chunk`.
  void SetLast(Chunk* chunk, const ir::Value& cell) const {
    chunk->last = cell;
    chunk->last_text = TextOf(cell);
  }
  /// The first position in the ordered index on `col` whose entry
  /// satisfies `pred(Key)` (monotone false..true over the index order),
  /// as (chunk, offset); (chunks.size(), 0) when none does.
  template <typename Pred>
  std::pair<size_t, size_t> OrderedBound(size_t col, Pred pred) const;
  void OrderedInsert(size_t col, uint32_t id);
  void OrderedErase(size_t col, uint32_t id);

  Schema schema_;
  const StringInterner* order_ = nullptr;  // sorted-dictionary (may be null)
  uint64_t id_ = 0;  // owner tag of the pieces this version created
  bool loading_ = true;  // until EndLoad(); copies inherit it
  std::vector<std::shared_ptr<Segment>> segs_;
  size_t size_ = 0;  // physical rows
  size_t dead_count_ = 0;
  std::vector<HashIndex> hash_;        // per column once any index is built
  std::vector<OrderedIndex> ordered_;  // per column once any is built
};

/// A cheap handle to the current version of one table.
///
/// Reads pass through to the version; mutations are copy-on-write — if the
/// version is shared (held by a published db::Snapshot, or by any other
/// handle), the mutation first copies it, so snapshot readers keep seeing
/// the version they captured. The copy shares every piece (row segments,
/// hash partitions, ordered chunks — see TableVersion) and the mutation
/// then copies only the pieces it changes, so a one-row write costs
/// O(rows / piece size) pointer copies plus O(1) pieces, not O(rows).
/// While the version is exclusively owned (bootstrap fill, repeated writes
/// between publishes) mutation is in place, and so is every piece that
/// version already copied.
///
/// Ordered indexes of a fresh version (a new handle, or the one
/// ReplaceAllRows installs) are deferred while it loads (see
/// TableVersion): version() ends the load before handing the version out,
/// so every shared version has them built, and HasOrderedIndex /
/// OrderedRange build the asked column's index first.
///
/// Thread model: a Table handle is single-writer (db::Storage serializes
/// writes); concurrent readers must read via db::Snapshot, never through a
/// handle another thread may mutate. version(), HasOrderedIndex and
/// OrderedRange may build a deferred index, so they count as writes.
///
/// Write invariants every mutation path upholds (callers — and the
/// no-publish logic in db::Storage — rely on both):
///  - validate BEFORE clone: a write rejected by validation (bad row, bad
///    predicate, bad SET clause) copies nothing and never perturbs
///    version pointer identity for readers;
///  - no match, no clone: a delete/update whose predicate matches nothing
///    is a no-op — AnyMatch runs against the shared version first.
class Table {
 public:
  explicit Table(Schema schema)
      : v_(std::make_shared<TableVersion>(std::move(schema))) {}

  /// Database-created tables carry the sorted-dictionary `order` (enables
  /// ordered string predicates and ordered indexes), a compaction
  /// threshold (tombstoned fraction that triggers Compact() — <= 0 means
  /// compact eagerly on every delete/update, the pre-tombstone behavior),
  /// and whether BuildIndex should pair each hash index with an ordered
  /// index.
  Table(Schema schema, const StringInterner* order,
        double compaction_threshold, bool ordered_indexes)
      : v_(std::make_shared<TableVersion>(std::move(schema), order)),
        compaction_threshold_(compaction_threshold),
        ordered_indexes_(ordered_indexes) {}

  const Schema& schema() const { return v_->schema(); }
  size_t row_count() const { return v_->row_count(); }
  const Row& row(size_t i) const { return v_->row(i); }

  /// Validates without inserting (and without triggering a copy).
  Status CheckRow(const Row& row) const { return v_->CheckRow(row); }

  /// Appends a row after arity/type checking (copy-on-write when shared).
  /// Validates BEFORE the CoW clone, so a rejected row never copies the
  /// table (or perturbs version pointer identity for readers).
  Status Insert(Row row) {
    Status st = v_->CheckRow(row);
    if (!st.ok()) return st;
    return Mutable()->Insert(std::move(row));
  }

  /// Removes every row matching `pred` (copy-on-write when shared).
  /// Validates the predicate — and checks that anything matches — BEFORE
  /// the CoW clone, so an invalid or no-op delete never copies the table
  /// or perturbs version pointer identity for readers. `removed`
  /// (optional) receives the row count.
  Status DeleteWhere(const Predicate& pred, size_t* removed = nullptr) {
    if (removed != nullptr) *removed = 0;
    Status st = pred.Validate(v_->schema(), v_->order());
    if (!st.ok()) return st;
    if (!v_->AnyMatch(pred)) return Status::OK();
    size_t n = Mutable()->DeleteWhere(pred);
    MaybeCompact();
    if (removed != nullptr) *removed = n;
    return Status::OK();
  }

  /// Single-column-equality convenience: DeleteWhere(col = v).
  Status DeleteWhere(size_t col, const ir::Value& v,
                     size_t* removed = nullptr) {
    return DeleteWhere(Predicate::Eq(col, v), removed);
  }

  /// Applies `sets` to every row matching `pred` (copy-on-write when
  /// shared) — SQL UPDATE ... SET semantics. Predicate and SET clauses
  /// are validated up front; a match-less update never clones.
  Status UpdateWhere(const Predicate& pred, const std::vector<ColumnSet>& sets,
                     size_t* updated = nullptr) {
    if (updated != nullptr) *updated = 0;
    Status st = pred.Validate(v_->schema(), v_->order());
    if (!st.ok()) return st;
    st = ValidateColumnSets(v_->schema(), sets);
    if (!st.ok()) return st;
    if (!v_->AnyMatch(pred)) return Status::OK();
    size_t n = Mutable()->UpdateWhere(pred, sets);
    MaybeCompact();
    if (updated != nullptr) *updated = n;
    return Status::OK();
  }

  /// Replaces every row whose `col` equals `v` with `replacement`
  /// (copy-on-write when shared). Full-row replacement: `replacement` is
  /// schema-checked up front, and a match-less update never clones.
  Status UpdateWhere(size_t col, const ir::Value& v, Row replacement,
                     size_t* updated = nullptr) {
    if (updated != nullptr) *updated = 0;
    if (col >= v_->schema().arity()) {
      return Status::InvalidArgument("no column " + std::to_string(col));
    }
    Status st = v_->CheckRow(replacement);
    if (!st.ok()) return st;
    if (!v_->AnyMatch(col, v)) return Status::OK();
    size_t n = Mutable()->UpdateWhere(col, v, replacement);
    MaybeCompact();
    if (updated != nullptr) *updated = n;
    return Status::OK();
  }

  /// Replaces the table's entire contents with `rows` (schema unchanged,
  /// index configuration preserved) — the follower side of snapshot delta
  /// replication: the storage owner ships whole touched tables, and the
  /// follower swaps each one in atomically. Rows are validated before any
  /// state changes, and the swap installs a fresh TableVersion rather than
  /// mutating in place, so snapshot readers keep the version they captured.
  /// Each ordered index of the fresh version is built in bulk when it is
  /// first shared.
  Status ReplaceAllRows(std::vector<Row> rows) {
    for (const Row& r : rows) {
      Status st = v_->CheckRow(r);
      if (!st.ok()) return st;
    }
    v_ = v_->FreshWith(std::move(rows));
    return Status::OK();
  }

  /// Builds (or rebuilds) a hash index on `col` (copy-on-write when
  /// shared). Database-created tables with ordered indexing enabled pair
  /// it with an ordered index on the same column, so every bootstrap-built
  /// index also answers range probes.
  Status BuildIndex(size_t col) {
    if (col >= v_->schema().arity()) {
      return Status::InvalidArgument("no column " + std::to_string(col));
    }
    EQ_RETURN_NOT_OK(Mutable()->BuildIndex(col));
    if (ordered_indexes_) return Mutable()->BuildOrderedIndex(col);
    return Status::OK();
  }

  /// Declares just the ordered index on `col` (and the hash index it is
  /// built from, if absent).
  Status BuildOrderedIndex(size_t col) {
    if (col >= v_->schema().arity()) {
      return Status::InvalidArgument("no column " + std::to_string(col));
    }
    return Mutable()->BuildOrderedIndex(col);
  }

  bool HasIndex(size_t col) const { return v_->HasIndex(col); }
  /// Builds a deferred ordered index on `col` first, so the answer is the
  /// one a snapshot would give.
  bool HasOrderedIndex(size_t col) const {
    v_->BuildDeferred(col);
    return v_->HasOrderedIndex(col);
  }

  const std::vector<uint32_t>* Probe(size_t col, const ir::Value& v) const {
    return v_->Probe(col, v);
  }

  /// TableVersion::OrderedRange, building a deferred index on `col` first.
  IdSpans OrderedRange(size_t col, ir::CompareOp op, const ir::Value& v) const {
    v_->BuildDeferred(col);
    return v_->OrderedRange(col, op, v);
  }

  /// The tombstoned fraction that triggers physical compaction after a
  /// delete/update (<= 0: compact eagerly, the pre-tombstone behavior).
  double compaction_threshold() const { return compaction_threshold_; }
  void set_compaction_threshold(double t) { compaction_threshold_ = t; }

  /// The current version, shareable with snapshots. The first call on a
  /// loading version ends its load (see TableVersion) — Database::MakeRep,
  /// Storage::Publish and snapshot() all share versions through here.
  std::shared_ptr<const TableVersion> version() const {
    v_->EndLoad();
    return v_;
  }

 private:
  TableVersion* Mutable() {
    // A version is reachable by readers iff some snapshot Rep holds a
    // strong reference, so use_count > 1 ⇒ copy before mutating. The copy
    // shares every piece and owns none, so each piece it changes is copied
    // once; the copy is invisible to readers until the next publish, so
    // further mutations before that publish stay in place.
    if (v_.use_count() != 1) v_ = std::make_shared<TableVersion>(*v_);
    return v_.get();
  }

  /// Deferred compaction: physically erase tombstones once they cross the
  /// threshold. Runs right after a mutation, so v_ is already exclusively
  /// owned — Mutable() is a plain pointer fetch, never a second clone.
  void MaybeCompact() {
    if (v_->dead_count() == 0) return;
    if (compaction_threshold_ > 0.0 &&
        v_->dead_fraction() < compaction_threshold_) {
      return;
    }
    Mutable()->Compact();
  }

  std::shared_ptr<TableVersion> v_;
  double compaction_threshold_ = 0.0;  // bare tables compact eagerly
  bool ordered_indexes_ = false;
};

}  // namespace eq::db

#endif  // EQ_DB_TABLE_H_

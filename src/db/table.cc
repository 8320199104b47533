#include "db/table.h"

#include <algorithm>
#include <atomic>
#include <tuple>

namespace eq::db {

namespace {

/// Owner tags: every TableVersion takes a fresh one, so a piece created by
/// one version is never mistaken for another version's.
uint64_t NextOwnerTag() {
  static std::atomic<uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

size_t PartitionOf(const ir::Value& v, size_t parts) {
  return ir::ValueHash()(v) & (parts - 1);
}

/// The first entry of a partition whose key is not less than `key`.
template <typename Entries>
auto SeekKey(Entries& entries, const ir::Value& key) {
  return std::lower_bound(
      entries.begin(), entries.end(), key,
      [](const auto& e, const ir::Value& k) { return e.first < k; });
}

}  // namespace

const std::vector<uint32_t> TableVersion::kEmptyPostings;

int Schema::ColumnIndex(std::string_view name) const {
  for (size_t i = 0; i < columns.size(); ++i) {
    if (columns[i].name == name) return static_cast<int>(i);
  }
  return -1;
}

TableVersion::TableVersion(Schema schema, const StringInterner* order)
    : schema_(std::move(schema)), order_(order), id_(NextOwnerTag()) {}

TableVersion::TableVersion(const TableVersion& other)
    : schema_(other.schema_),
      order_(other.order_),
      id_(NextOwnerTag()),
      loading_(other.loading_),
      segs_(other.segs_),
      size_(other.size_),
      dead_count_(other.dead_count_),
      hash_(other.hash_),
      ordered_(other.ordered_) {}

template <typename Piece>
Piece* TableVersion::Own(std::shared_ptr<Piece>& piece) {
  if (piece->owner != id_) {
    piece = std::make_shared<Piece>(*piece);
    piece->owner = id_;
  }
  return piece.get();
}

template <typename Piece>
std::shared_ptr<Piece> TableVersion::NewPiece() const {
  auto piece = std::make_shared<Piece>();
  piece->owner = id_;
  return piece;
}

Status TableVersion::CheckRow(const Row& row) const {
  if (row.size() != schema_.arity()) {
    return Status::InvalidArgument(
        "row arity " + std::to_string(row.size()) + " does not match schema " +
        std::to_string(schema_.arity()));
  }
  for (size_t i = 0; i < row.size(); ++i) {
    if (row[i].is_null()) continue;
    if (row[i].type() != schema_.columns[i].type) {
      return Status::InvalidArgument("type mismatch in column '" +
                                     schema_.columns[i].name + "'");
    }
  }
  return Status::OK();
}

Status TableVersion::Insert(Row row) {
  EQ_RETURN_NOT_OK(CheckRow(row));
  AppendRow(std::make_shared<const Row>(std::move(row)));
  return Status::OK();
}

void TableVersion::AppendRow(std::shared_ptr<const Row> row) {
  const uint32_t id = static_cast<uint32_t>(size_);
  const size_t s = id >> kSegmentShift;
  if (s == segs_.size()) segs_.push_back(NewPiece<Segment>());
  const Row& cells = *row;
  Own(segs_[s])->rows[id & kSegmentMask] = std::move(row);
  ++size_;
  for (size_t c = 0; c < hash_.size(); ++c) {
    if (!hash_[c].parts.empty()) HashInsert(c, cells[c], id);
  }
  for (size_t c = 0; c < ordered_.size(); ++c) {
    if (ordered_[c].built) OrderedInsert(c, id);
  }
}

void TableVersion::HashInsert(size_t col, const ir::Value& cell, uint32_t id) {
  HashIndex& h = hash_[col];
  auto& entries = Own(h.parts[PartitionOf(cell, h.parts.size())])->entries;
  auto it = SeekKey(entries, cell);
  if (it != entries.end() && it->first == cell) {
    it->second.push_back(id);
    return;
  }
  entries.insert(it, {cell, {id}});
  // Doubling keeps partitions near kKeysPerPartition keys: amortized O(1)
  // per new key.
  if (++h.keys > h.parts.size() * kKeysPerPartition) {
    Repartition(col, h.parts.size() * 2);
  }
}

void TableVersion::KillRow(uint32_t id) {
  Segment* seg = Own(segs_[id >> kSegmentShift]);
  const size_t j = id & kSegmentMask;
  seg->dead[j >> 6] |= uint64_t{1} << (j & 63);
  ++dead_count_;
  const Row& cells = *seg->rows[j];
  for (size_t c = 0; c < hash_.size(); ++c) {
    HashIndex& h = hash_[c];
    if (h.parts.empty()) continue;
    auto& part = h.parts[PartitionOf(cells[c], h.parts.size())];
    auto found = SeekKey(part->entries, cells[c]);
    if (found == part->entries.end() || found->first != cells[c]) continue;
    const size_t at = static_cast<size_t>(found - part->entries.begin());
    auto& entries = Own(part)->entries;
    std::vector<uint32_t>& ids = entries[at].second;
    ids.erase(std::remove(ids.begin(), ids.end(), id), ids.end());
    if (ids.empty()) {
      entries.erase(entries.begin() + static_cast<ptrdiff_t>(at));
      --h.keys;
    }
  }
  for (size_t c = 0; c < ordered_.size(); ++c) {
    if (ordered_[c].built) OrderedErase(c, id);
  }
}

int TableVersion::CompareCells(const Key& a, const Key& b,
                               const StringInterner* order) {
  if (a.text == nullptr || b.text == nullptr) {
    return ir::CompareValues(*a.cell, *b.cell, order);
  }
  if (*a.cell == *b.cell) return 0;
  int c = a.text->compare(*b.text);
  return c < 0 ? -1 : (c > 0 ? 1 : 0);
}

template <typename Pred>
std::pair<size_t, size_t> TableVersion::OrderedBound(size_t col,
                                                     Pred pred) const {
  const auto& chunks = ordered_[col].chunks;
  // The first chunk whose last entry satisfies `pred` holds the bound;
  // chunks cache that entry's cell, so this search touches no rows.
  auto ci = std::partition_point(
      chunks.begin(), chunks.end(), [&](const std::shared_ptr<Chunk>& ch) {
        return !pred(Key{&ch->last, ch->last_text, ch->ids.back()});
      });
  if (ci == chunks.end()) return {chunks.size(), 0};
  const std::vector<uint32_t>& ids = (*ci)->ids;
  auto at = std::partition_point(
      ids.begin(), ids.end() - 1,
      [&](uint32_t rid) { return !pred(Key{&row(rid)[col], nullptr, rid}); });
  return {static_cast<size_t>(ci - chunks.begin()),
          static_cast<size_t>(at - ids.begin())};
}

void TableVersion::OrderedInsert(size_t col, uint32_t id) {
  auto& chunks = ordered_[col].chunks;
  const ir::Value& v = row(id)[col];
  const Key key{&v, TextOf(v), id};
  auto before = [&](const Key& entry) { return KeyLess(key, entry); };
  size_t ci;
  size_t at;
  if (chunks.empty()) {
    chunks.push_back(NewPiece<Chunk>());
    chunks.back()->ids.reserve(kChunkRows + 1);
    ci = 0;
    at = 0;
  } else if (const Chunk& tail = *chunks.back();
             !before(Key{&tail.last, tail.last_text, tail.ids.back()})) {
    ci = chunks.size() - 1;  // past every entry (ascending loads): append
    at = tail.ids.size();
  } else {
    std::tie(ci, at) = OrderedBound(col, before);
  }
  Chunk* chunk = Own(chunks[ci]);
  chunk->ids.insert(chunk->ids.begin() + static_cast<ptrdiff_t>(at), id);
  if (at + 1 == chunk->ids.size()) {
    chunk->last = v;
    chunk->last_text = key.text;
  }
  if (chunk->ids.size() > kChunkRows) {
    const size_t half = chunk->ids.size() / 2;
    auto upper = NewPiece<Chunk>();
    upper->ids.reserve(kChunkRows + 1);
    upper->ids.assign(chunk->ids.begin() + static_cast<ptrdiff_t>(half),
                      chunk->ids.end());
    upper->last = chunk->last;
    upper->last_text = chunk->last_text;
    chunk->ids.resize(half);
    SetLast(chunk, row(chunk->ids.back())[col]);
    chunks.insert(chunks.begin() + static_cast<ptrdiff_t>(ci) + 1,
                  std::move(upper));
  }
}

void TableVersion::OrderedErase(size_t col, uint32_t id) {
  auto& chunks = ordered_[col].chunks;
  const ir::Value& v = row(id)[col];
  const Key key{&v, TextOf(v), id};
  auto [ci, at] = OrderedBound(
      col, [&](const Key& entry) { return !KeyLess(entry, key); });
  if (ci == chunks.size() || chunks[ci]->ids[at] != id) return;
  Chunk* chunk = Own(chunks[ci]);
  chunk->ids.erase(chunk->ids.begin() + static_cast<ptrdiff_t>(at));
  if (chunk->ids.empty()) {
    chunks.erase(chunks.begin() + static_cast<ptrdiff_t>(ci));
  } else if (at == chunk->ids.size()) {
    SetLast(chunk, row(chunk->ids.back())[col]);
  }
}

Status Predicate::Validate(const Schema& schema,
                           const StringInterner* order) const {
  for (const Term& t : terms) {
    if (t.col >= schema.arity()) {
      return Status::InvalidArgument("no column " + std::to_string(t.col));
    }
    if (t.value.is_null()) {
      return Status::InvalidArgument(
          "predicate on column '" + schema.columns[t.col].name +
          "' compares against NULL");
    }
    if (t.value.type() != schema.columns[t.col].type) {
      return Status::InvalidArgument(
          "type mismatch: predicate compares column '" +
          schema.columns[t.col].name + "' with a value of another type");
    }
    // Ordered string comparisons need a sorted dictionary: without the
    // interner, SymbolIds carry no lexicographic order and the comparison
    // would silently match hash-ordered rows — reject it rather than
    // corrupt data. Database-created tables always carry their interner.
    bool ordered = t.op != ir::CompareOp::kEq && t.op != ir::CompareOp::kNe;
    if (ordered && order == nullptr &&
        schema.columns[t.col].type == ir::ValueType::kString) {
      return Status::InvalidArgument(
          "ordered comparison '" + std::string(ir::CompareOpName(t.op)) +
          "' on STRING column '" + schema.columns[t.col].name +
          "' needs the table's sorted dictionary (this table has none; " +
          "only = and != compare bare interned strings meaningfully)");
    }
  }
  return Status::OK();
}

Status ValidateColumnSets(const Schema& schema,
                          const std::vector<ColumnSet>& sets) {
  if (sets.empty()) {
    return Status::InvalidArgument("update carries no SET clauses");
  }
  std::vector<bool> assigned(schema.arity(), false);
  for (const ColumnSet& s : sets) {
    if (s.col >= schema.arity()) {
      return Status::InvalidArgument("no column " + std::to_string(s.col));
    }
    if (assigned[s.col]) {
      // Last-one-wins would silently mask a typo'd column name; standard
      // SQL rejects duplicate assignment targets, so do we.
      return Status::InvalidArgument("column '" + schema.columns[s.col].name +
                                     "' assigned twice in one update");
    }
    assigned[s.col] = true;
    if (!s.value.is_null() && s.value.type() != schema.columns[s.col].type) {
      return Status::InvalidArgument("type mismatch in column '" +
                                     schema.columns[s.col].name + "'");
    }
  }
  return Status::OK();
}

const std::vector<uint32_t>* TableVersion::EqPostings(
    const Predicate& pred) const {
  for (const Predicate::Term& t : pred.terms) {
    if (t.op != ir::CompareOp::kEq || !HasIndex(t.col)) continue;
    return Probe(t.col, t.value);
  }
  return nullptr;
}

bool TableVersion::CandidateSpans(const Predicate& pred, IdSpans* out) const {
  if (const std::vector<uint32_t>* postings = EqPostings(pred)) {
    out->push_back({postings->data(), postings->data() + postings->size()});
    return true;
  }
  for (const Predicate::Term& t : pred.terms) {
    if (t.op == ir::CompareOp::kEq || t.op == ir::CompareOp::kNe) continue;
    if (!HasOrderedIndex(t.col)) continue;
    *out = OrderedRange(t.col, t.op, t.value);
    return true;
  }
  return false;
}

std::vector<uint32_t> TableVersion::MatchingIds(const Predicate& pred) const {
  // Postings never contain tombstoned ids, but the dead check also guards
  // the full-scan path.
  std::vector<uint32_t> hits;
  IdSpans spans;
  if (CandidateSpans(pred, &spans)) {
    for (const IdSpan& span : spans) {
      for (const uint32_t* p = span.first; p != span.second; ++p) {
        if (!row_dead(*p) && pred.Matches(row(*p), order_)) hits.push_back(*p);
      }
    }
    return hits;
  }
  for (uint32_t i = 0; i < size_; ++i) {
    if (!row_dead(i) && pred.Matches(row(i), order_)) hits.push_back(i);
  }
  return hits;
}

size_t TableVersion::DeleteWhere(const Predicate& pred) {
  std::vector<uint32_t> hits = MatchingIds(pred);
  for (uint32_t id : hits) KillRow(id);
  return hits.size();
}

size_t TableVersion::UpdateWhere(const Predicate& pred,
                                 const std::vector<ColumnSet>& sets) {
  // MVCC update: tombstone the old row, append the updated copy. Matched
  // ids are collected first — appends grow the posting lists (and the row
  // array) that matching iterates.
  std::vector<uint32_t> hits = MatchingIds(pred);
  for (uint32_t id : hits) {
    Row next = row(id);
    for (const ColumnSet& s : sets) next[s.col] = s.value;
    KillRow(id);
    AppendRow(std::make_shared<const Row>(std::move(next)));
  }
  return hits.size();
}

std::vector<ColumnSet> ReplacementSets(const Row& replacement) {
  std::vector<ColumnSet> sets;
  sets.reserve(replacement.size());
  for (size_t c = 0; c < replacement.size(); ++c) {
    sets.push_back({c, replacement[c]});
  }
  return sets;
}

size_t TableVersion::UpdateWhere(size_t col, const ir::Value& v,
                                 const Row& replacement) {
  return UpdateWhere(Predicate::Eq(col, v), ReplacementSets(replacement));
}

bool TableVersion::AnyMatch(const Predicate& pred) const {
  IdSpans spans;
  if (CandidateSpans(pred, &spans)) {
    for (const IdSpan& span : spans) {
      for (const uint32_t* p = span.first; p != span.second; ++p) {
        if (!row_dead(*p) && pred.Matches(row(*p), order_)) return true;
      }
    }
    return false;
  }
  for (uint32_t i = 0; i < size_; ++i) {
    if (!row_dead(i) && pred.Matches(row(i), order_)) return true;
  }
  return false;
}

void TableVersion::Compact() {
  if (dead_count_ == 0) return;
  std::vector<std::shared_ptr<Segment>> old;
  old.swap(segs_);
  const size_t n = size_;
  size_ = 0;
  dead_count_ = 0;
  for (size_t i = 0; i < n; ++i) {
    const Segment& seg = *old[i >> kSegmentShift];
    if (seg.Dead(i & kSegmentMask)) continue;
    const uint32_t id = static_cast<uint32_t>(size_);
    if ((id & kSegmentMask) == 0) segs_.push_back(NewPiece<Segment>());
    segs_.back()->rows[id & kSegmentMask] = seg.rows[i & kSegmentMask];
    ++size_;
  }
  RebuildIndexes();
}

void TableVersion::RebuildIndexes() {
  // Hash first: the ordered indexes are built from the hash postings.
  for (size_t c = 0; c < hash_.size(); ++c) {
    if (HasIndex(c)) BuildIndex(c);
  }
  for (size_t c = 0; c < ordered_.size(); ++c) {
    if (HasOrderedIndex(c)) BulkOrdered(c);
  }
}

Status TableVersion::BuildIndex(size_t col) {
  if (col >= schema_.arity()) {
    return Status::InvalidArgument("no column " + std::to_string(col));
  }
  if (hash_.size() < schema_.arity()) hash_.resize(schema_.arity());
  // The same per-row posting as AppendRow: in row-id order, so every
  // key's postings come out ascending, and partitions double as keys
  // arrive — a load costs the same with the index built before the rows
  // or after them.
  HashIndex& h = hash_[col];
  h.keys = 0;
  h.parts.assign(1, NewPiece<Partition>());
  for (uint32_t i = 0; i < size_; ++i) {
    if (!row_dead(i)) HashInsert(col, row(i)[col], i);
  }
  return Status::OK();
}

void TableVersion::Repartition(size_t col, size_t parts) {
  HashIndex& h = hash_[col];
  const size_t old_parts = h.parts.size();
  h.parts.resize(parts);
  for (size_t p = old_parts; p < parts; ++p) {
    h.parts[p] = NewPiece<Partition>();
    h.parts[p]->entries.reserve(kKeysPerPartition);
  }
  // Partition p's entries go to p + k * old_parts; walking p in key order
  // appends to every target in key order.
  for (size_t p = 0; p < old_parts; ++p) {
    std::shared_ptr<Partition> src = std::move(h.parts[p]);
    h.parts[p] = NewPiece<Partition>();
    h.parts[p]->entries.reserve(kKeysPerPartition);
    const bool owned = src->owner == id_;
    for (Partition::Entry& e : src->entries) {
      auto& to = h.parts[PartitionOf(e.first, parts)]->entries;
      if (owned) {
        to.push_back(std::move(e));
      } else {
        to.push_back(e);
      }
    }
  }
}

Status TableVersion::BuildOrderedIndex(size_t col) {
  if (col >= schema_.arity()) {
    return Status::InvalidArgument("no column " + std::to_string(col));
  }
  if (schema_.columns[col].type == ir::ValueType::kString &&
      order_ == nullptr) {
    return Status::InvalidArgument(
        "ordered index on STRING column '" + schema_.columns[col].name +
        "' needs the table's sorted dictionary (this table has none)");
  }
  if (!HasIndex(col)) EQ_RETURN_NOT_OK(BuildIndex(col));
  if (ordered_.size() < schema_.arity()) ordered_.resize(schema_.arity());
  if (loading_) {
    OrderedIndex& idx = ordered_[col];
    idx.built = false;
    idx.deferred = true;
    idx.chunks.clear();
  } else {
    BulkOrdered(col);
  }
  return Status::OK();
}

void TableVersion::BuildAllDeferred() {
  for (size_t c = 0; c < ordered_.size(); ++c) BuildDeferred(c);
  loading_ = false;
}

std::shared_ptr<TableVersion> TableVersion::FreshWith(
    std::vector<Row> rows) const {
  auto next = std::make_shared<TableVersion>(schema_, order_);
  for (Row& r : rows) next->AppendRow(std::make_shared<const Row>(std::move(r)));
  for (size_t c = 0; c < schema_.arity(); ++c) {
    if (HasIndex(c)) next->BuildIndex(c);
    if (c < ordered_.size() && (ordered_[c].built || ordered_[c].deferred)) {
      next->BuildOrderedIndex(c);
    }
  }
  return next;
}

void TableVersion::BulkOrdered(size_t col) {
  // Sort the distinct keys, not the rows: each key's postings already list
  // its row ids in ascending order, which is the index order within a key.
  // String keys resolve their text once, so the sort compares text directly
  // instead of taking the interner's lock per comparison.
  struct Run {
    const Partition::Entry* entry;
    const std::string* text;
  };
  std::vector<Run> runs;
  runs.reserve(hash_[col].keys);
  for (const auto& part : hash_[col].parts) {
    for (const Partition::Entry& e : part->entries) {
      runs.push_back({&e, TextOf(e.first)});
    }
  }
  std::sort(runs.begin(), runs.end(), [&](const Run& a, const Run& b) {
    return CompareCells(Key{&a.entry->first, a.text, 0},
                        Key{&b.entry->first, b.text, 0}, order_) < 0;
  });
  OrderedIndex& idx = ordered_[col];
  idx.built = true;
  idx.deferred = false;
  idx.chunks.clear();
  for (const Run& run : runs) {
    const std::vector<uint32_t>& ids = run.entry->second;
    for (size_t at = 0; at < ids.size();) {
      if (idx.chunks.empty() || idx.chunks.back()->ids.size() == kChunkRows) {
        idx.chunks.push_back(NewPiece<Chunk>());
        idx.chunks.back()->ids.reserve(kChunkRows);
      }
      Chunk& chunk = *idx.chunks.back();
      const size_t take = std::min(kChunkRows - chunk.ids.size(),
                                   ids.size() - at);
      chunk.ids.insert(chunk.ids.end(), ids.begin() + static_cast<ptrdiff_t>(at),
                       ids.begin() + static_cast<ptrdiff_t>(at + take));
      at += take;
      chunk.last = run.entry->first;
      chunk.last_text = run.text;
    }
  }
}

IdSpans TableVersion::OrderedRange(size_t col, ir::CompareOp op,
                                   const ir::Value& v) const {
  IdSpans spans;
  if (!HasOrderedIndex(col)) return spans;
  const Key bound{&v, TextOf(v), 0};
  auto cell_ge = [&](const Key& entry) {
    return CompareCells(entry, bound, order_) >= 0;
  };
  auto cell_gt = [&](const Key& entry) {
    return CompareCells(entry, bound, order_) > 0;
  };
  const auto& chunks = ordered_[col].chunks;
  std::pair<size_t, size_t> lo{0, 0};
  std::pair<size_t, size_t> hi{chunks.size(), 0};
  switch (op) {
    case ir::CompareOp::kLt:
      hi = OrderedBound(col, cell_ge);
      break;
    case ir::CompareOp::kLe:
      hi = OrderedBound(col, cell_gt);
      break;
    case ir::CompareOp::kGt:
      lo = OrderedBound(col, cell_gt);
      break;
    case ir::CompareOp::kGe:
      lo = OrderedBound(col, cell_ge);
      break;
    default:
      return spans;
  }
  for (size_t c = lo.first; c <= hi.first && c < chunks.size(); ++c) {
    const std::vector<uint32_t>& ids = chunks[c]->ids;
    const size_t b = c == lo.first ? lo.second : 0;
    const size_t e = c == hi.first ? hi.second : ids.size();
    if (b < e) spans.push_back({ids.data() + b, ids.data() + e});
  }
  return spans;
}

const std::vector<uint32_t>* TableVersion::Probe(size_t col,
                                                 const ir::Value& v) const {
  if (!HasIndex(col)) return nullptr;
  const HashIndex& h = hash_[col];
  const auto& entries = h.parts[PartitionOf(v, h.parts.size())]->entries;
  auto it = SeekKey(entries, v);
  if (it == entries.end() || it->first != v) return &kEmptyPostings;
  return &it->second;
}

}  // namespace eq::db

// Randomized storage-model harness: drives db::Storage with seeded random
// op sequences — insert, predicate delete, predicate update, range scan,
// snapshot hold/verify, GC tick — and checks every observation against a
// naive reference model (a plain vector of (string, int) rows compared
// with std::string order). The properties under test:
//
//  - every snapshot's visible state equals the reference state captured
//    when it was taken (MVCC isolation across tombstones, compaction and
//    watermark GC);
//  - delete/update matched-row counts equal the reference counts for the
//    same random predicate;
//  - ordered-index range spans are exactly the live matching rows;
//  - the version history stays bounded by the reported read watermark;
//  - a table loaded with its indexes declared before any row (ordered
//    indexes deferred to the first share) answers every probe and range
//    like a scan, before, at and after that share, and its deferred build
//    equals a rows-first bulk build id for id.
//
// Op counts shrink under ASan/TSan (the sanitizer legs run the same
// logic; wall-clock is the only difference). The failing seed is echoed
// via SCOPED_TRACE on every assertion.

#include "db/storage.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <climits>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "db/database.h"
#include "db/snapshot.h"
#include "util/rng.h"

#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define EQ_MODEL_SANITIZED 1
#endif
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#ifndef EQ_MODEL_SANITIZED
#define EQ_MODEL_SANITIZED 1
#endif
#endif
#ifndef EQ_MODEL_SANITIZED
#define EQ_MODEL_SANITIZED 0
#endif

namespace eq::db {
namespace {

constexpr size_t kOpsPerSeed = EQ_MODEL_SANITIZED ? 250 : 1000;
constexpr uint64_t kReader = 1;

struct RefRow {
  std::string s;
  int64_t n = 0;
};

/// One random conjunct in both worlds: convertible to a db::Predicate
/// term and directly evaluable against the reference model.
struct RefTerm {
  size_t col = 0;  // 0 = s (STRING), 1 = n (INT)
  ir::CompareOp op = ir::CompareOp::kEq;
  std::string sval;
  int64_t nval = 0;
};

bool CmpHolds(int c, ir::CompareOp op) {
  switch (op) {
    case ir::CompareOp::kEq:
      return c == 0;
    case ir::CompareOp::kNe:
      return c != 0;
    case ir::CompareOp::kLt:
      return c < 0;
    case ir::CompareOp::kLe:
      return c <= 0;
    case ir::CompareOp::kGt:
      return c > 0;
    case ir::CompareOp::kGe:
      return c >= 0;
  }
  return false;
}

bool RefMatches(const RefRow& row, const std::vector<RefTerm>& terms) {
  for (const RefTerm& t : terms) {
    int c;
    if (t.col == 0) {
      c = row.s.compare(t.sval);
    } else {
      c = row.n < t.nval ? -1 : (row.n > t.nval ? 1 : 0);
    }
    if (!CmpHolds(c, t.op)) return false;
  }
  return true;
}

using Canon = std::multiset<std::pair<std::string, int64_t>>;

Canon CanonOfRef(const std::vector<RefRow>& ref) {
  Canon out;
  for (const RefRow& r : ref) out.emplace(r.s, r.n);
  return out;
}

Canon CanonOfTable(const TableVersion& v, const StringInterner& interner) {
  Canon out;
  for (size_t i = 0; i < v.physical_size(); ++i) {
    if (v.row_dead(i)) continue;
    out.emplace(std::string(interner.Name(v.row(i)[0].AsStr())),
                v.row(i)[1].AsInt());
  }
  return out;
}

class StorageModelTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(StorageModelTest, RandomOpsMatchReferenceModel) {
  const uint64_t seed = GetParam();
  SCOPED_TRACE(::testing::Message() << "seed=" << seed);
  Rng rng(seed);

  auto interner = std::make_shared<StringInterner>();
  Storage storage(interner);
  ASSERT_TRUE(storage.mutable_db()
                  ->CreateTable("M", {{"s", ir::ValueType::kString},
                                      {"n", ir::ValueType::kInt}})
                  .ok());
  // Hash + ordered index on both columns (Database tables pair them).
  ASSERT_TRUE(storage.mutable_db()->GetTable("M")->BuildIndex(0).ok());
  ASSERT_TRUE(storage.mutable_db()->GetTable("M")->BuildIndex(1).ok());

  auto rand_name = [&] {
    size_t len = 1 + rng.Below(3);
    std::string s;
    for (size_t i = 0; i < len; ++i) {
      s.push_back(static_cast<char>('a' + rng.Below(4)));
    }
    return s;
  };
  auto rand_int = [&] { return static_cast<int64_t>(rng.Below(30)); };
  auto S = [&](const std::string& s) {
    return ir::Value::Str(interner->Intern(s));
  };

  std::vector<RefRow> ref;
  for (int i = 0; i < 20; ++i) {
    RefRow r{rand_name(), rand_int()};
    ASSERT_TRUE(
        storage.mutable_db()->Insert("M", {S(r.s), ir::Value::Int(r.n)}).ok());
    ref.push_back(std::move(r));
  }
  storage.Publish();
  storage.RegisterReader(kReader);
  storage.ReportReadVersion(kReader, storage.version());

  // A small pool of held snapshots, each with the reference state frozen
  // at capture time (oldest first).
  std::vector<std::pair<Snapshot, Canon>> held;

  auto rand_terms = [&](size_t max_terms) {
    std::vector<RefTerm> terms;
    size_t n = 1 + rng.Below(max_terms);
    const ir::CompareOp all_ops[] = {ir::CompareOp::kEq, ir::CompareOp::kNe,
                                     ir::CompareOp::kLt, ir::CompareOp::kLe,
                                     ir::CompareOp::kGt, ir::CompareOp::kGe};
    for (size_t i = 0; i < n; ++i) {
      RefTerm t;
      t.col = rng.Below(2);
      t.op = all_ops[rng.Below(6)];
      if (t.col == 0) {
        t.sval = rand_name();
      } else {
        t.nval = rand_int();
      }
      terms.push_back(std::move(t));
    }
    return terms;
  };
  auto to_pred = [&](const std::vector<RefTerm>& terms) {
    Predicate p;
    for (const RefTerm& t : terms) {
      p.And(t.col, t.op,
            t.col == 0 ? S(t.sval) : ir::Value::Int(t.nval));
    }
    return p;
  };
  auto ref_count = [&](const std::vector<RefTerm>& terms) {
    size_t n = 0;
    for (const RefRow& r : ref) {
      if (RefMatches(r, terms)) ++n;
    }
    return n;
  };

  for (size_t op = 0; op < kOpsPerSeed; ++op) {
    SCOPED_TRACE(::testing::Message() << "op=" << op);
    uint64_t roll = rng.Below(100);

    if (roll < 35) {
      // ---- insert
      RefRow r{rand_name(), rand_int()};
      ASSERT_TRUE(
          storage.ApplyWrite("M", {S(r.s), ir::Value::Int(r.n)}).ok());
      ref.push_back(std::move(r));
    } else if (roll < 50) {
      // ---- predicate delete
      auto terms = rand_terms(2);
      size_t want = ref_count(terms);
      size_t removed = 0;
      ASSERT_TRUE(storage.ApplyDelete("M", to_pred(terms), &removed).ok());
      ASSERT_EQ(removed, want);
      ref.erase(std::remove_if(
                    ref.begin(), ref.end(),
                    [&](const RefRow& r) { return RefMatches(r, terms); }),
                ref.end());
    } else if (roll < 65) {
      // ---- predicate update (SET col = literal)
      auto terms = rand_terms(2);
      size_t want = ref_count(terms);
      std::vector<ColumnSet> sets;
      RefRow assign{rand_name(), rand_int()};
      bool set_s = rng.Chance(0.5);
      if (set_s) sets.push_back({0, S(assign.s)});
      if (!set_s || rng.Chance(0.3)) {
        sets.push_back({1, ir::Value::Int(assign.n)});
      }
      size_t updated = 0;
      ASSERT_TRUE(
          storage.ApplyUpdate("M", to_pred(terms), sets, &updated).ok());
      ASSERT_EQ(updated, want);
      for (RefRow& r : ref) {
        if (!RefMatches(r, terms)) continue;
        for (const ColumnSet& cs : sets) {
          if (cs.col == 0) {
            r.s = assign.s;
          } else {
            r.n = assign.n;
          }
        }
      }
    } else if (roll < 80) {
      // ---- range scan: predicate full scan AND ordered-index span vs ref
      const ir::CompareOp range_ops[] = {ir::CompareOp::kLt,
                                         ir::CompareOp::kLe,
                                         ir::CompareOp::kGt,
                                         ir::CompareOp::kGe};
      RefTerm t;
      t.col = rng.Below(2);
      t.op = range_ops[rng.Below(4)];
      if (t.col == 0) {
        t.sval = rand_name();
      } else {
        t.nval = rand_int();
      }
      size_t want = ref_count({t});

      Snapshot snap = storage.Current();
      const TableVersion* table = snap.GetTable("M");
      ASSERT_NE(table, nullptr);
      Predicate pred = to_pred({t});
      size_t scan = 0;
      for (size_t i = 0; i < table->physical_size(); ++i) {
        if (table->row_dead(i)) continue;
        if (pred.Matches(table->row(i), table->order())) ++scan;
      }
      ASSERT_EQ(scan, want);

      ASSERT_TRUE(table->HasOrderedIndex(t.col));
      ir::Value bound = t.col == 0 ? S(t.sval) : ir::Value::Int(t.nval);
      size_t spanned = 0;
      for (auto [b, e] : table->OrderedRange(t.col, t.op, bound)) {
        spanned += static_cast<size_t>(e - b);
        for (const uint32_t* p = b; p != e; ++p) {
          ASSERT_FALSE(table->row_dead(*p));
        }
      }
      ASSERT_EQ(spanned, want);
    } else if (roll < 90) {
      // ---- snapshot hold (verify + release the oldest when full)
      if (held.size() >= 3) {
        ASSERT_EQ(CanonOfTable(*held.front().first.GetTable("M"), *interner),
                  held.front().second)
            << "held snapshot v" << held.front().first.version()
            << " drifted";
        held.erase(held.begin());
      } else {
        held.emplace_back(storage.Current(), CanonOfRef(ref));
      }
      storage.ReportReadVersion(
          kReader,
          held.empty() ? storage.version() : held.front().first.version());
    } else {
      // ---- GC tick + invariants
      uint64_t report =
          held.empty() ? storage.version() : held.front().first.version();
      storage.ReportReadVersion(kReader, report);
      storage.GcTick();
      ASSERT_LE(storage.gc_watermark(), storage.version());
      ASSERT_GE(storage.retained_versions(), 1u);
      if (held.empty()) {
        ASSERT_EQ(storage.retained_versions(), 1u);
      } else {
        // History never retains more than the un-reported tail.
        ASSERT_LE(storage.retained_versions(),
                  storage.version() - storage.gc_watermark() + 1);
      }
    }

    if (op % 16 == 0) {
      ASSERT_EQ(CanonOfTable(*storage.Current().GetTable("M"), *interner),
                CanonOfRef(ref));
    }
  }

  // Drain: every held snapshot must still read its capture-time state.
  for (auto& [snap, canon] : held) {
    ASSERT_EQ(CanonOfTable(*snap.GetTable("M"), *interner), canon)
        << "held snapshot v" << snap.version() << " drifted";
  }
  held.clear();
  storage.ReportReadVersion(kReader, storage.version());
  storage.GcTick();
  EXPECT_EQ(storage.retained_versions(), 1u);
  EXPECT_EQ(CanonOfTable(*storage.Current().GetTable("M"), *interner),
            CanonOfRef(ref));
  storage.UnregisterReader(kReader);
}

INSTANTIATE_TEST_SUITE_P(Seeds, StorageModelTest,
                         ::testing::Range<uint64_t>(1, 21));

// ------------------------------------------------ structural sharing ---
//
// The same model on a table grown from 0 to ~5,000 rows, so versions span
// many row segments, hash partitions and ordered chunks and every write
// lands in pieces shared with held snapshots. Each held snapshot is
// re-checked after later writes — rows, postings and range spans (which
// cross chunk boundaries) — including across compactions that rebuild
// the pieces of a successor. A reader thread walks the current version
// concurrently with the writes: a piece mutated in place after a publish
// is a data race the TSan leg reports.

constexpr size_t kLargeRows = EQ_MODEL_SANITIZED ? 2500 : 5000;

std::string LargeName(Rng& rng) {
  size_t len = 1 + rng.Below(4);
  std::string s;
  for (size_t i = 0; i < len; ++i) {
    s.push_back(static_cast<char>('a' + rng.Below(8)));
  }
  return s;
}

/// Checks `v` against `canon`: rows, the postings of a few keys, and
/// ordered range spans on both columns.
void CheckVersion(const TableVersion& v, const Canon& canon,
                  const StringInterner& interner, Rng& rng) {
  ASSERT_EQ(CanonOfTable(v, interner), canon);
  for (int k = 0; k < 3; ++k) {
    std::string key = LargeName(rng);
    SymbolId sym = interner.Lookup(key);
    size_t want = 0;
    for (const auto& [s, n] : canon) want += s == key ? 1 : 0;
    if (sym == kInvalidSymbol) {
      ASSERT_EQ(want, 0u);
      continue;
    }
    const std::vector<uint32_t>* ids = v.Probe(0, ir::Value::Str(sym));
    ASSERT_EQ(ids->size(), want) << "postings of '" << key << "'";
    for (uint32_t id : *ids) {
      ASSERT_FALSE(v.row_dead(id));
      ASSERT_EQ(v.row(id)[0], ir::Value::Str(sym));
    }
    int64_t n = static_cast<int64_t>(rng.Below(2000));
    want = 0;
    for (const auto& [s, m] : canon) want += m == n ? 1 : 0;
    ASSERT_EQ(v.Probe(1, ir::Value::Int(n))->size(), want);
  }
  const ir::CompareOp ops[] = {ir::CompareOp::kLt, ir::CompareOp::kLe,
                               ir::CompareOp::kGt, ir::CompareOp::kGe};
  for (ir::CompareOp op : ops) {
    int64_t bound = static_cast<int64_t>(rng.Below(2000));
    size_t want = 0;
    for (const auto& [s, n] : canon) {
      want += CmpHolds(n < bound ? -1 : (n > bound ? 1 : 0), op) ? 1 : 0;
    }
    size_t got = 0;
    int64_t prev = INT64_MIN;
    for (auto [b, e] : v.OrderedRange(1, op, ir::Value::Int(bound))) {
      for (const uint32_t* p = b; p != e; ++p) {
        ASSERT_FALSE(v.row_dead(*p));
        int64_t n = v.row(*p)[1].AsInt();
        ASSERT_TRUE(CmpHolds(n < bound ? -1 : (n > bound ? 1 : 0), op));
        ASSERT_LE(prev, n) << "range spans out of order";
        prev = n;
        ++got;
      }
    }
    ASSERT_EQ(got, want);
  }
}

class StorageSharingModelTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(StorageSharingModelTest, HeldSnapshotsSurviveWritesIntoSharedPieces) {
  const uint64_t seed = GetParam();
  SCOPED_TRACE(::testing::Message() << "seed=" << seed);
  Rng rng(seed);

  auto interner = std::make_shared<StringInterner>();
  Storage storage(interner);
  ASSERT_TRUE(storage.mutable_db()
                  ->CreateTable("L", {{"s", ir::ValueType::kString},
                                      {"n", ir::ValueType::kInt}})
                  .ok());
  ASSERT_TRUE(storage.mutable_db()->GetTable("L")->BuildIndex(0).ok());
  ASSERT_TRUE(storage.mutable_db()->GetTable("L")->BuildIndex(1).ok());
  storage.Publish();
  auto S = [&](const std::string& s) {
    return ir::Value::Str(interner->Intern(s));
  };

  // Concurrent reader: every index of the current version must agree
  // with its rows while the writer clones the pieces it shares.
  std::atomic<bool> stop{false};
  std::atomic<size_t> reads{0};
  std::thread reader([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      Snapshot snap = storage.Current();
      const TableVersion* v = snap.GetTable("L");
      size_t live = 0;
      for (size_t i = 0; i < v->physical_size(); ++i) live += !v->row_dead(i);
      size_t ranged = 0;
      for (auto [b, e] :
           v->OrderedRange(1, ir::CompareOp::kGe, ir::Value::Int(0))) {
        ranged += static_cast<size_t>(e - b);
      }
      if (live != v->row_count() || ranged != live) {
        ADD_FAILURE() << "reader saw " << live << " live rows, "
                      << v->row_count() << " counted, " << ranged
                      << " in the ordered index";
        return;
      }
      reads.fetch_add(1, std::memory_order_relaxed);
    }
  });

  std::vector<RefRow> ref;
  std::vector<std::pair<Snapshot, Canon>> held;
  bool saw_many_pieces = false;
  auto check_held = [&] {
    for (auto& [snap, canon] : held) {
      SCOPED_TRACE(::testing::Message() << "held v" << snap.version());
      CheckVersion(*snap.GetTable("L"), canon, *interner, rng);
    }
  };

  for (size_t step = 0; ref.size() < kLargeRows || step < 80; ++step) {
    SCOPED_TRACE(::testing::Message() << "step=" << step);
    uint64_t roll = rng.Below(100);
    if (ref.size() < kLargeRows || roll < 40) {
      // ---- insert batch: one publish, several rows into shared pieces
      std::vector<Storage::TableWrite> batch;
      for (size_t i = 0; i < 100; ++i) {
        RefRow r{LargeName(rng), static_cast<int64_t>(rng.Below(2000))};
        batch.push_back(Storage::TableWrite::Insert("L", {S(r.s), ir::Value::Int(r.n)}));
        ref.push_back(std::move(r));
      }
      ASSERT_TRUE(storage.ApplyBatch(batch).ok());
    } else if (roll < 60) {
      // ---- point update: one row moves to a new key
      int64_t n = static_cast<int64_t>(rng.Below(2000));
      RefRow assign{LargeName(rng), static_cast<int64_t>(rng.Below(2000))};
      size_t updated = 0;
      ASSERT_TRUE(storage
                      .ApplyUpdate("L", Predicate::Eq(1, ir::Value::Int(n)),
                                   {{0, S(assign.s)}, {1, ir::Value::Int(assign.n)}},
                                   &updated)
                      .ok());
      size_t want = 0;
      for (RefRow& r : ref) {
        if (r.n != n) continue;
        r = assign;
        ++want;
      }
      ASSERT_EQ(updated, want);
    } else if (roll < 80) {
      // ---- range delete: narrow, or wide enough to force compaction
      int64_t lo = static_cast<int64_t>(rng.Below(2000));
      int64_t width = roll < 75 ? 20 : 800;
      Predicate pred;
      pred.And(1, ir::CompareOp::kGe, ir::Value::Int(lo))
          .And(1, ir::CompareOp::kLt, ir::Value::Int(lo + width));
      size_t removed = 0;
      ASSERT_TRUE(storage.ApplyDelete("L", pred, &removed).ok());
      size_t before = ref.size();
      ref.erase(std::remove_if(ref.begin(), ref.end(),
                               [&](const RefRow& r) {
                                 return r.n >= lo && r.n < lo + width;
                               }),
                ref.end());
      ASSERT_EQ(removed, before - ref.size());
    } else {
      // ---- hold a snapshot (release the oldest when full)
      if (held.size() >= 3) held.erase(held.begin());
      held.emplace_back(storage.Current(), CanonOfRef(ref));
    }

    const TableVersion& cur = *storage.Current().GetTable("L");
    saw_many_pieces = saw_many_pieces ||
                      (cur.segment_count() > 16 && cur.partition_count(0) > 16 &&
                       cur.chunk_count(1) > 8);
    if (step % 8 == 0) {
      ASSERT_EQ(CanonOfTable(cur, *interner), CanonOfRef(ref));
      check_held();
    }
  }
  check_held();
  CheckVersion(*storage.Current().GetTable("L"), CanonOfRef(ref), *interner,
               rng);
  stop.store(true);
  reader.join();
  EXPECT_TRUE(saw_many_pieces);
  EXPECT_GT(reads.load(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, StorageSharingModelTest,
                         ::testing::Range<uint64_t>(1, 4));

// ------------------------------------------------- index-first loads ---
//
// A table whose hash and ordered indexes are declared before any row, so
// its ordered indexes are deferred while it loads. Each seed runs a load
// of row batches, deletes, updates and compactions through the Table
// handle, then the first share at a random step and by one of four
// routes — a Database snapshot, Table::version(), or the handle answering
// HasOrderedIndex or OrderedRange for one column (which builds only that
// column) — then further writes with snapshots held. After every step the
// handle's postings (and its ranges, on every column built so far) and
// every held snapshot's postings and ranges must agree with the reference
// rows. Whenever a column's ordered index is built it must equal, chunk
// for chunk and id for id, the index a rows-first load of the same live
// rows builds. A reader thread walks the first shared version while the
// writes go on (the TSan leg's view of the first share).

constexpr size_t kLoadSteps = EQ_MODEL_SANITIZED ? 60 : 120;
constexpr size_t kAfterSteps = EQ_MODEL_SANITIZED ? 30 : 60;

/// A reference row by symbol: (s, n).
using SymRow = std::pair<SymbolId, int64_t>;

/// `row` as (s, n).
SymRow SymOf(const Row& row) { return {row[0].AsStr(), row[1].AsInt()}; }

/// The rows behind `ids`, read through `src`, sorted.
template <typename Source>
std::vector<SymRow> SortedRows(const Source& src, const uint32_t* b,
                               const uint32_t* e) {
  std::vector<SymRow> out;
  for (const uint32_t* p = b; p != e; ++p) out.push_back(SymOf(src.row(*p)));
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<uint32_t> Flatten(const IdSpans& spans) {
  std::vector<uint32_t> ids;
  for (auto [b, e] : spans) ids.insert(ids.end(), b, e);
  return ids;
}

/// Checks every key's postings, and random ranges on the columns marked in
/// `ranges`, of `src` (a Table handle or a TableVersion) against `ref`.
/// The reference compares strings as text, independently of the index.
template <typename Source>
void CheckIndexes(const Source& src, const std::vector<SymRow>& ref,
                  const StringInterner& interner, Rng& rng,
                  std::array<bool, 2> ranges) {
  auto check_postings = [&](size_t col, const ir::Value& key,
                            const std::vector<SymRow>& want) {
    const std::vector<uint32_t>* ids = src.Probe(col, key);
    ASSERT_NE(ids, nullptr);
    ASSERT_TRUE(std::adjacent_find(ids->begin(), ids->end(),
                                   std::greater_equal<uint32_t>()) ==
                ids->end())
        << "postings not strictly ascending";
    ASSERT_EQ(SortedRows(src, ids->data(), ids->data() + ids->size()), want)
        << "postings of column " << col;
  };
  // Every key of each column: its run of the reference sorted by that key.
  std::vector<SymRow> sorted = ref;
  std::sort(sorted.begin(), sorted.end());
  for (size_t i = 0; i < sorted.size();) {
    size_t end = i;
    while (end < sorted.size() && sorted[end].first == sorted[i].first) ++end;
    check_postings(0, ir::Value::Str(sorted[i].first),
                   {sorted.begin() + i, sorted.begin() + end});
    i = end;
  }
  auto by_n = [](const SymRow& a, const SymRow& b) {
    return a.second != b.second ? a.second < b.second : a < b;
  };
  std::sort(sorted.begin(), sorted.end(), by_n);
  for (size_t i = 0; i < sorted.size();) {
    size_t end = i;
    while (end < sorted.size() && sorted[end].second == sorted[i].second) ++end;
    std::vector<SymRow> want(sorted.begin() + i, sorted.begin() + end);
    std::sort(want.begin(), want.end());
    check_postings(1, ir::Value::Int(sorted[i].second), want);
    i = end;
  }
  check_postings(1, ir::Value::Int(-1), {});

  const ir::CompareOp ops[] = {ir::CompareOp::kLt, ir::CompareOp::kLe,
                               ir::CompareOp::kGt, ir::CompareOp::kGe};
  for (size_t col = 0; col < 2; ++col) {
    if (!ranges[col]) continue;
    for (ir::CompareOp op : ops) {
      // A bound drawn from the live rows (or a fixed one when empty).
      const SymRow pick = ref.empty() ? SymRow{interner.Lookup("b"), 15}
                                      : ref[rng.Below(ref.size())];
      const ir::Value bound = col == 0 ? ir::Value::Str(pick.first)
                                       : ir::Value::Int(pick.second);
      const std::string& pick_text = interner.Name(pick.first);
      std::vector<SymRow> want;
      for (const SymRow& r : ref) {
        int c = col == 1 ? (r.second < pick.second
                                ? -1
                                : (r.second > pick.second ? 1 : 0))
                         : interner.Name(r.first).compare(pick_text);
        if (CmpHolds(c, op)) want.push_back(r);
      }
      std::sort(want.begin(), want.end());
      std::vector<uint32_t> ids = Flatten(src.OrderedRange(col, op, bound));
      ASSERT_EQ(SortedRows(src, ids.data(), ids.data() + ids.size()), want)
          << "range on column " << col << " " << ir::CompareOpName(op);
      for (size_t i = 1; i < ids.size(); ++i) {
        int c = ir::CompareValues(src.row(ids[i - 1])[col],
                                  src.row(ids[i])[col], &interner);
        ASSERT_TRUE(c < 0 || (c == 0 && ids[i - 1] < ids[i]))
            << "range out of (value, id) order";
      }
    }
  }
}

class IndexFirstLoadModelTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(IndexFirstLoadModelTest, DeferredOrderedIndexesAgreeAtEveryStep) {
  const uint64_t seed = GetParam();
  SCOPED_TRACE(::testing::Message() << "seed=" << seed);
  Rng rng(seed);

  auto interner = std::make_shared<StringInterner>();
  Database db(interner);
  const Schema schema{{"s", ir::ValueType::kString},
                      {"n", ir::ValueType::kInt}};
  ASSERT_TRUE(db.CreateTable("L", schema).ok());
  Table* table = db.GetTable("L");
  ASSERT_TRUE(table->BuildIndex(0).ok());
  ASSERT_TRUE(table->BuildIndex(1).ok());

  // 84 names of one to three letters, interned up front in a shuffled
  // order, so symbol order is not text order.
  std::vector<std::string> texts;
  for (char a = 'a'; a <= 'd'; ++a) {
    texts.emplace_back(1, a);
    for (char b = 'a'; b <= 'd'; ++b) {
      texts.push_back(std::string{a, b});
      for (char c = 'a'; c <= 'd'; ++c) texts.push_back(std::string{a, b, c});
    }
  }
  for (size_t i = texts.size() - 1; i > 0; --i) {
    std::swap(texts[i], texts[rng.Below(i + 1)]);
  }
  std::vector<SymbolId> names;
  for (const std::string& t : texts) names.push_back(interner->Intern(t));
  auto rand_row = [&] {
    return SymRow{names[rng.Below(names.size())],
                  static_cast<int64_t>(rng.Below(30))};
  };
  auto to_row = [](const SymRow& r) {
    return Row{ir::Value::Str(r.first), ir::Value::Int(r.second)};
  };

  std::vector<SymRow> ref;
  std::array<bool, 2> built{false, false};
  struct Held {
    Snapshot snap;  // empty for a version taken by Table::version()
    std::shared_ptr<const TableVersion> version;
    std::vector<SymRow> ref;
  };
  std::vector<Held> held;

  std::atomic<bool> stop{false};
  std::atomic<bool> reader_done{false};
  std::atomic<size_t> reads{0};
  std::thread reader;
  auto start_reader = [&](Held first) {
    reader = std::thread([&, first = std::move(first)] {
      const TableVersion& v = *first.version;
      const ir::Value any = ir::Value::Int(INT64_MIN);
      while (!stop.load(std::memory_order_relaxed)) {
        size_t live = 0;
        for (size_t i = 0; i < v.physical_size(); ++i) live += !v.row_dead(i);
        size_t ranged =
            Flatten(v.OrderedRange(1, ir::CompareOp::kGe, any)).size();
        if (live != first.ref.size() || ranged != live) {
          ADD_FAILURE() << "reader saw " << live << " live rows and "
                        << ranged << " ranged, want " << first.ref.size();
          break;
        }
        reads.fetch_add(1, std::memory_order_relaxed);
      }
      reader_done.store(true);
    });
  };

  // A column's ordered index was just built: it must be the index a
  // rows-first load of the same live rows (in physical order, taken from
  // the hash postings) builds, with every chunk but the last full.
  auto expect_rows_first_chunks = [&](size_t col) {
    std::vector<uint32_t> live;
    for (int64_t n = 0; n < 30; ++n) {
      const std::vector<uint32_t>* ids = table->Probe(1, ir::Value::Int(n));
      live.insert(live.end(), ids->begin(), ids->end());
    }
    std::sort(live.begin(), live.end());
    ASSERT_EQ(live.size(), ref.size());
    Database rows_first(interner);
    ASSERT_TRUE(rows_first.CreateTable("R", schema).ok());
    Table* r = rows_first.GetTable("R");
    for (uint32_t id : live) ASSERT_TRUE(r->Insert(table->row(id)).ok());
    ASSERT_TRUE(r->BuildIndex(0).ok());
    ASSERT_TRUE(r->BuildIndex(1).ok());
    const ir::Value min = col == 0 ? ir::Value::Str(interner->Intern(""))
                                   : ir::Value::Int(INT64_MIN);
    IdSpans want = r->OrderedRange(col, ir::CompareOp::kGe, min);
    IdSpans got = table->OrderedRange(col, ir::CompareOp::kGe, min);
    ASSERT_EQ(got.size(), want.size()) << "chunks of column " << col;
    for (size_t c = 0; c < got.size(); ++c) {
      const size_t size = static_cast<size_t>(got[c].second - got[c].first);
      ASSERT_EQ(size, static_cast<size_t>(want[c].second - want[c].first))
          << "chunk " << c << " of column " << col;
      if (c + 1 < got.size()) {
        ASSERT_EQ(size, TableVersion::kChunkRows);
      }
      for (size_t i = 0; i < size; ++i) {
        // Row ids of the rows-first table are ranks among the live rows.
        auto rank = std::lower_bound(live.begin(), live.end(), got[c].first[i]);
        ASSERT_EQ(static_cast<uint32_t>(rank - live.begin()), want[c].first[i])
            << "chunk " << c << " of column " << col << ", entry " << i;
      }
    }
  };
  auto note_built = [&](size_t col) {
    if (built[col]) return;
    built[col] = true;
    expect_rows_first_chunks(col);
  };
  auto share_all = [&](Held h) {
    // Shared versions carry built ordered indexes before the handle is
    // asked anything.
    ASSERT_TRUE(h.version->HasOrderedIndex(0) && h.version->HasOrderedIndex(1));
    if (held.size() >= 3) held.erase(held.begin() + 1);  // keep the first
    held.push_back(std::move(h));
    note_built(0);
    note_built(1);
    if (!reader.joinable()) start_reader(held.front());
  };
  auto hold_snapshot = [&] {
    Snapshot snap = db.snapshot();
    const TableVersion* v = snap.GetTable("L");
    ASSERT_EQ(v, table->version().get());
    share_all({std::move(snap), table->version(), ref});
  };

  const size_t share_at = rng.Below(kLoadSteps + 1);
  const uint64_t share_route = rng.Below(4);
  size_t most_rows = 0;
  for (size_t step = 0; step < kLoadSteps + kAfterSteps; ++step) {
    SCOPED_TRACE(::testing::Message() << "step=" << step);
    if (step == share_at) {
      // ---- the first share
      const size_t col = rng.Below(2);
      if (share_route == 0) {
        hold_snapshot();
      } else if (share_route == 1) {
        share_all({Snapshot(), table->version(), ref});
      } else if (share_route == 2) {
        ASSERT_TRUE(table->HasOrderedIndex(col));
        note_built(col);
      } else {
        note_built(col);  // through the handle's OrderedRange
      }
      ASSERT_TRUE(table->HasOrderedIndex(col));
    }
    ASSERT_FALSE(HasFatalFailure());

    const uint64_t roll = rng.Below(100);
    if (step > share_at && roll < 8) {
      hold_snapshot();
    } else if (roll < 60) {
      // ---- a batch of rows
      for (size_t i = 1 + rng.Below(24); i > 0; --i) {
        SymRow r = rand_row();
        ASSERT_TRUE(table->Insert(to_row(r)).ok());
        ref.push_back(r);
      }
    } else if (roll < 75) {
      // ---- delete one key (or the lowest n); every third delete
      // compacts right away
      const SymRow key = rand_row();
      const size_t col = rng.Below(3);
      Predicate pred;
      std::function<bool(const SymRow&)> match;
      if (col == 0) {
        pred = Predicate::Eq(0, ir::Value::Str(key.first));
        match = [&](const SymRow& r) { return r.first == key.first; };
      } else if (col == 1) {
        pred = Predicate::Eq(1, ir::Value::Int(key.second));
        match = [&](const SymRow& r) { return r.second == key.second; };
      } else {
        pred.And(1, ir::CompareOp::kLt, ir::Value::Int(2));
        match = [](const SymRow& r) { return r.second < 2; };
      }
      const bool compact = rng.Below(3) == 0;
      if (compact) table->set_compaction_threshold(0.0);
      size_t removed = 0;
      ASSERT_TRUE(table->DeleteWhere(pred, &removed).ok());
      table->set_compaction_threshold(0.3);
      const size_t before = ref.size();
      ref.erase(std::remove_if(ref.begin(), ref.end(), match), ref.end());
      ASSERT_EQ(removed, before - ref.size());
    } else {
      // ---- update one column of the rows in an n range
      const int64_t lo = static_cast<int64_t>(rng.Below(30));
      const SymRow assign = rand_row();
      const size_t set_col = rng.Below(2);
      Predicate pred;
      pred.And(1, ir::CompareOp::kGe, ir::Value::Int(lo))
          .And(1, ir::CompareOp::kLt, ir::Value::Int(lo + 3));
      std::vector<ColumnSet> sets{{set_col, to_row(assign)[set_col]}};
      size_t updated = 0;
      ASSERT_TRUE(table->UpdateWhere(pred, sets, &updated).ok());
      size_t want = 0;
      for (SymRow& r : ref) {
        if (r.second < lo || r.second >= lo + 3) continue;
        ++want;
        if (set_col == 0) {
          r.first = assign.first;
        } else {
          r.second = assign.second;
        }
      }
      ASSERT_EQ(updated, want);
    }
    most_rows = std::max(most_rows, ref.size());

    // Through the handle: ranges only on built columns (asking for one
    // would build it, which is a share route above).
    ASSERT_NO_FATAL_FAILURE(CheckIndexes(*table, ref, *interner, rng, built));
    for (const Held& h : held) {
      ASSERT_NO_FATAL_FAILURE(
          CheckIndexes(*h.version, h.ref, *interner, rng, {true, true}))
          << "held version";
    }
  }
  if (!reader.joinable()) hold_snapshot();
  while (reads.load() == 0 && !reader_done.load()) std::this_thread::yield();
  stop.store(true);
  reader.join();
  EXPECT_GT(most_rows, TableVersion::kChunkRows);  // several chunks
}

INSTANTIATE_TEST_SUITE_P(Seeds, IndexFirstLoadModelTest,
                         ::testing::Range<uint64_t>(1, 17));

}  // namespace
}  // namespace eq::db

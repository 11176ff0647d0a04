// Online integrity scrub (Database::VerifyIntegrity, SQL CHECK INTEGRITY).
//
// The scrub is strictly read-only: it cross-checks the in-memory structures
// (row slabs vs hash indexes, the slot reuse queue, next-id vs stored ids,
// undo log emptiness) and re-walks the on-disk WAL and snapshot with the
// decoders recovery uses, without installing anything — so it stays
// runnable while the database is degraded to read-only mode, and tests can
// assert invariants right after an injected storage fault.
#include <algorithm>
#include <string>
#include <vector>

#include "rdb/database.h"
#include "rdb/snapshot.h"
#include "rdb/table.h"
#include "rdb/wal.h"

namespace xupd::rdb {

namespace {

std::string ValueBrief(const Value& v) {
  std::string s = v.ToString();
  if (s.size() > 32) s = s.substr(0, 29) + "...";
  return s;
}

// Both directions of the slab/index invariant: every index entry points to
// a live row still carrying that value, and every live row is findable
// through every index on its table.
void VerifyTableIndexes(const Table& t, std::vector<std::string>* out) {
  const std::string& tname = t.schema().name();
  for (const auto& index : t.indexes()) {
    const int col = index->column();
    if (col < 0 || static_cast<size_t>(col) >= t.schema().column_count()) {
      out->push_back("index '" + index->name() + "' on table '" + tname +
                     "' covers out-of-range column " + std::to_string(col));
      continue;
    }
    size_t entries = 0;
    index->ForEachEntry([&](const Value& v, size_t rowid) {
      ++entries;
      if (rowid >= t.capacity()) {
        out->push_back("index '" + index->name() + "' on table '" + tname +
                       "' holds rowid " + std::to_string(rowid) +
                       " beyond capacity " + std::to_string(t.capacity()));
        return;
      }
      if (!t.is_live(rowid)) {
        out->push_back("index '" + index->name() + "' on table '" + tname +
                       "' holds tombstoned rowid " + std::to_string(rowid));
        return;
      }
      if (!(t.row(rowid)[col] == v)) {
        out->push_back("index '" + index->name() + "' on table '" + tname +
                       "' entry (" + ValueBrief(v) + ", " +
                       std::to_string(rowid) + ") disagrees with the slab "
                       "value " + ValueBrief(t.row(rowid)[col]));
      }
    });
    if (entries != t.live_count()) {
      out->push_back("index '" + index->name() + "' on table '" + tname +
                     "' has " + std::to_string(entries) + " entries for " +
                     std::to_string(t.live_count()) + " live rows");
    }
    // Forward direction: a missing entry would make index probes silently
    // drop rows that a full scan still sees. A Lookup walks the row's key
    // chain and marks every row it reaches that carries the key, so a clean
    // index costs one Lookup per distinct key — linear in entries, where a
    // Lookup per row re-walks a low-cardinality key's chain for every row.
    std::vector<bool> reached(t.capacity(), false);
    std::vector<size_t> hits;
    for (size_t rowid = 0; rowid < t.capacity(); ++rowid) {
      if (!t.is_live(rowid) || reached[rowid]) continue;
      const Value& v = t.row(rowid)[col];
      hits.clear();
      index->Lookup(v, &hits);
      for (size_t h : hits) {
        if (h < t.capacity() && t.is_live(h) && t.row(h)[col] == v) {
          reached[h] = true;
        }
      }
      if (!reached[rowid]) {
        out->push_back("live row " + std::to_string(rowid) + " of table '" +
                       tname + "' is missing from index '" + index->name() +
                       "'");
      }
    }
  }
}

// The reuse queue: an entry the next insert would not skip as stale names
// a dead slot, and that slot must have no index entry (an insert into it
// would otherwise leave a probe returning the new row under an old key).
// Every dead slot must be queued, or no insert would ever take it again.
void VerifyReuseQueue(const Table& t, std::vector<std::string>* out) {
  const std::string& tname = t.schema().name();
  std::vector<bool> indexed(t.capacity(), false);
  for (const auto& index : t.indexes()) {
    index->ForEachEntry([&](const Value&, size_t rowid) {
      if (rowid < indexed.size()) indexed[rowid] = true;
    });
  }
  std::vector<bool> queued(t.capacity(), false);
  for (size_t rowid : t.reuse_queue()) {
    if (rowid >= t.capacity() || t.is_live(rowid)) continue;  // stale
    if (indexed[rowid] && !queued[rowid]) {
      out->push_back("reuse queue of table '" + tname + "' holds slot " +
                     std::to_string(rowid) +
                     ", which an index still points at");
    }
    queued[rowid] = true;
  }
  for (size_t rowid = 0; rowid < t.capacity(); ++rowid) {
    if (!t.is_live(rowid) && !queued[rowid]) {
      out->push_back("tombstoned slot " + std::to_string(rowid) +
                     " of table '" + tname +
                     "' is missing from the reuse queue");
    }
  }
}

}  // namespace

std::vector<std::string> Database::VerifyIntegrity() {
  ++stats_.integrity_checks;
  const uint64_t t0 = MonotonicNanos();
  std::vector<std::string> violations;

  // In-memory: slab liveness vs hash indexes, both directions, and the
  // slot reuse queue.
  for (const auto& [key, table] : catalog()) {
    VerifyTableIndexes(*table, &violations);
    VerifyReuseQueue(*table, &violations);
  }

  // next-id must stay ahead of every id the engine has handed out; a stale
  // counter after recovery would mint duplicate node ids. Only element
  // tables follow the allocator convention (the id, parentId, ... layout) —
  // arbitrary SQL tables may hold any integers in a column named "id".
  for (const auto& [key, table] : catalog()) {
    int col = table->schema().ColumnIndex("id");
    if (col != 0 || table->schema().ColumnIndex("parentId") != 1) continue;
    for (size_t rowid = 0; rowid < table->capacity(); ++rowid) {
      if (!table->is_live(rowid)) continue;
      const Value& v = table->row(rowid)[col];
      if (v.is_null() || v.type() != ValueType::kInt) continue;
      if (v.AsInt() >= next_id_) {
        violations.push_back("table '" + table->schema().name() +
                             "' row " + std::to_string(rowid) + " holds id " +
                             std::to_string(v.AsInt()) +
                             " >= next id counter " + std::to_string(next_id_));
      }
    }
  }

  // Outside a transaction the undo log must be fully drained — leftover
  // records mean some commit/rollback path forgot to consume them.
  if (!txn_.active() && txn_.undo_size() != 0) {
    violations.push_back("undo log holds " + std::to_string(txn_.undo_size()) +
                         " records outside any transaction");
  }

  // On-disk: re-walk the WAL frames and the snapshot. Reads only, so
  // this works even while a write fault is being injected.
  if (!durability_.dir().empty()) {
    const std::string& dir = durability_.dir();
    const WalWriter* wal = durability_.wal();
    // The WAL may legally be one epoch ahead of a fail-stopped writer (a
    // checkpoint that reset the log before breaking), so the expected epoch
    // is whichever of the writer and the on-disk snapshot is newest.
    uint64_t writer_epoch = wal != nullptr ? wal->epoch() : 0;
    uint64_t writer_bytes = wal != nullptr ? wal->committed_bytes() : 0;
    uint64_t snap_epoch = 0;
    std::vector<std::string> snapshot_violations =
        VerifySnapshotFile(durability_.vfs(), SnapshotPath(dir), &snap_epoch);
    const uint64_t epoch = std::max(writer_epoch, snap_epoch);
    for (std::string& v : VerifyWalFile(durability_.vfs(), WalPath(dir), epoch,
                                        writer_epoch, writer_bytes)) {
      violations.push_back(std::move(v));
    }
    for (std::string& v : snapshot_violations) {
      violations.push_back(std::move(v));
    }
  }
  const uint64_t dur = MonotonicNanos() - t0;
  metrics_.GetHistogram("db.scrub")->Record(dur);
  events_.Record({TraceEvent::Kind::kScrub, t0, dur, violations.size(), 0,
                  nullptr});
  return violations;
}

}  // namespace xupd::rdb

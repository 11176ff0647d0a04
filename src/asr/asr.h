// Access Support Relations (§5.3, after Kemper & Moerkotte [12]).
//
// One relation `asr` indexes every root-to-leaf path instance of the table
// hierarchy: one column `id_<table>` per mapped table (pre-order) plus a
// `marked` work column used by the ASR delete/insert marking scheme
// (§6.1.3/§6.2.3). Left-complete extension: NULLs appear only below the
// deepest existing element of a path.
#ifndef XUPD_ASR_ASR_H_
#define XUPD_ASR_ASR_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "rdb/database.h"
#include "shred/mapping.h"
#include "shred/shredder.h"

namespace xupd::asr {

class AsrManager {
 public:
  AsrManager(const shred::Mapping* mapping, rdb::Database* db)
      : mapping_(mapping), db_(db) {}

  static constexpr const char* kTableName = "asr";

  /// The ASR column holding ids of `t`'s tuples.
  static std::string IdColumn(const shred::TableMapping* t) {
    return "id_" + t->table;
  }

  /// CREATE TABLE asr(...) + an index on every id column and on `marked`.
  Status CreateSchema();

  /// Builds all path rows from freshly shredded tuples (bulk, direct API).
  Status BuildFromTuples(const std::vector<shred::ShreddedTuple>& tuples);

  /// Number of ASR rows (live).
  size_t RowCount() const;

  const shred::Mapping* mapping() const { return mapping_; }

 private:
  const shred::Mapping* mapping_;
  rdb::Database* db_;
};

}  // namespace xupd::asr

#endif  // XUPD_ASR_ASR_H_

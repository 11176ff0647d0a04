// Workload generators reproducing §7.1 of the paper:
//  * fixed synthetic documents (scaling factor, depth, fanout; every element
//    carries a 50-character string and an integer as data subelements);
//  * randomized synthetic documents (depth ~ U[2, max], fanout ~ U[1, max]);
//  * a DBLP-like document (conferences -> publications -> authors/cites;
//    "bushy" and shallow) standing in for the real 40MB DBLP snapshot.
//
// Element naming: the root is <doc>; level-k subtree nodes are <nk>; their
// data children are <sk> (string) and <vk> (integer). Per-level data names
// keep the data inlined under Shared Inlining (a shared <str> child would
// become its own table and distort the tuple counts of Table 1).
#ifndef XUPD_WORKLOAD_SYNTHETIC_H_
#define XUPD_WORKLOAD_SYNTHETIC_H_

#include <cstdint>
#include <memory>
#include <string>

#include "common/result.h"
#include "xml/document.h"
#include "xml/dtd.h"

namespace xupd::workload {

struct SyntheticSpec {
  int scaling_factor = 100;  ///< number of subtrees at the root level.
  int depth = 2;             ///< levels per subtree (max depth if randomized).
  int fanout = 1;            ///< children per internal node (max if randomized).
};

struct GeneratedDoc {
  std::string dtd_text;
  xml::Dtd dtd;
  std::unique_ptr<xml::Document> doc;
  /// Number of table-mapped elements (root + all <nk>); equals the row count
  /// the relational store will hold (Table 1's "data size").
  size_t tuple_count = 0;
};

/// §7.1.1. Deterministic for a given spec + seed (content strings only).
Result<GeneratedDoc> GenerateFixedSynthetic(const SyntheticSpec& spec,
                                            uint64_t seed);

/// §7.1.2. Depth of each subtree ~ U[2, spec.depth] (minimum 2, as in the
/// paper); fanout of each internal node ~ U[1, spec.fanout].
Result<GeneratedDoc> GenerateRandomizedSynthetic(const SyntheticSpec& spec,
                                                 uint64_t seed);

struct DblpSpec {
  int conferences = 50;
  int min_pubs = 10, max_pubs = 30;       ///< publications per conference.
  int min_authors = 1, max_authors = 4;   ///< authors per publication.
  int min_cites = 0, max_cites = 5;       ///< citations per publication.
  int min_year = 1990, max_year = 2002;
};

/// §7.1.3 substitute for the real DBLP data: the paper's 40 MB snapshot is
/// not shipped with the repository, so this generates a document of the
/// same bushy, shallow shape (conferences of publications with authors and
/// citations) at a size `spec` chooses.
Result<GeneratedDoc> GenerateDblp(const DblpSpec& spec, uint64_t seed);

/// Closed-form tuple count for a fixed synthetic doc:
/// 1 + sf * sum_{i=0..depth-1} fanout^i.
size_t FixedSyntheticTupleCount(const SyntheticSpec& spec);

}  // namespace xupd::workload

#endif  // XUPD_WORKLOAD_SYNTHETIC_H_

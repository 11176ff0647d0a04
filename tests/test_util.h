// Shared fixtures for xupd tests: the paper's running examples.
#ifndef XUPD_TESTS_TEST_UTIL_H_
#define XUPD_TESTS_TEST_UTIL_H_

#include <memory>
#include <string>

#include "xml/document.h"
#include "xml/dtd.h"
#include "xml/parser.h"

namespace xupd::rdb {
class Database;
}  // namespace xupd::rdb

namespace xupd::testing {

/// The bio-labs document of Figure 1 of the paper.
extern const char kBioXml[];

/// The customer DTD of Figure 4 of the paper (extended with the Status and
/// comment elements used by Example 8, and Name made repeatable-free).
extern const char kCustomerDtd[];

/// A small customer document conforming to kCustomerDtd.
extern const char kCustomerXml[];

/// Parses kBioXml with the ref-attribute declarations used in the paper
/// (managers, source, biologist, lab are IDREF/IDREFS attributes).
std::unique_ptr<xml::Document> ParseBioDocument();

/// Parses arbitrary XML and aborts the test on failure.
std::unique_ptr<xml::Document> MustParse(const std::string& text);

/// Parses a DTD or aborts.
xml::Dtd MustParseDtd(const std::string& text);

/// A scratch data directory under /tmp, removed (with its contents) on
/// destruction.
class TempDir {
 public:
  TempDir();
  ~TempDir();
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// Whole-file binary read ("" when the file is missing) and truncating
/// write, for tests that inspect or corrupt on-disk state directly.
std::string ReadFile(const std::string& path);
void WriteFile(const std::string& path, const std::string& data);

/// Renders the full durable state of a database — every durable table's
/// schema, every row slot (with liveness), index definitions, and the
/// next-id counter — as one comparable string.
std::string DumpDurableState(const rdb::Database& db);

}  // namespace xupd::testing

#endif  // XUPD_TESTS_TEST_UTIL_H_

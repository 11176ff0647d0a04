#include "test_util.h"

#include <gtest/gtest.h>

#include <dirent.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <iterator>

#include "rdb/database.h"

namespace xupd::testing {

const char kBioXml[] = R"(<db lab="lalab">
  <university ID="ucla">
    <lab ID="lalab" managers="smith1 jones1">
      <name>UCLA Bio Lab</name>
      <city>Los Angeles</city>
    </lab>
  </university>
  <lab ID="baselab" managers="smith1">
    <name>Seattle Bio Lab</name>
    <location>
      <city>Seattle</city>
      <country>USA</country>
    </location>
  </lab>
  <lab ID="lab2">
    <name>PMBL</name>
    <city>Philadelphia</city>
    <country>USA</country>
  </lab>
  <paper ID="Smith991231" source="lab2" category="spectral" biologist="smith1">
    <title>Autocatalysis of Spectral...</title>
  </paper>
  <biologist ID="smith1">
    <lastname>Smith</lastname>
  </biologist>
  <biologist ID="jones1" age="32">
    <lastname>Jones</lastname>
  </biologist>
</db>)";

const char kCustomerDtd[] = R"(
<!ELEMENT CustDB (Customer*)>
<!ELEMENT Customer (Name, Address, Order*)>
<!ELEMENT Address (City, State)>
<!ELEMENT Order (Date, Status?, OrderLine*)>
<!ELEMENT OrderLine (ItemName, Qty, comment?)>
<!ELEMENT Name (#PCDATA)>
<!ELEMENT City (#PCDATA)>
<!ELEMENT State (#PCDATA)>
<!ELEMENT Date (#PCDATA)>
<!ELEMENT Status (#PCDATA)>
<!ELEMENT ItemName (#PCDATA)>
<!ELEMENT Qty (#PCDATA)>
<!ELEMENT comment (#PCDATA)>
)";

const char kCustomerXml[] = R"(<CustDB>
  <Customer>
    <Name>John</Name>
    <Address><City>Seattle</City><State>WA</State></Address>
    <Order>
      <Date>2000-05-01</Date>
      <Status>ready</Status>
      <OrderLine><ItemName>tire</ItemName><Qty>4</Qty></OrderLine>
      <OrderLine><ItemName>wrench</ItemName><Qty>1</Qty></OrderLine>
    </Order>
    <Order>
      <Date>2000-06-12</Date>
      <Status>shipped</Status>
      <OrderLine><ItemName>tire</ItemName><Qty>2</Qty></OrderLine>
    </Order>
  </Customer>
  <Customer>
    <Name>Mary</Name>
    <Address><City>Fresno</City><State>CA</State></Address>
    <Order>
      <Date>2000-07-04</Date>
      <Status>ready</Status>
      <OrderLine><ItemName>hammer</ItemName><Qty>1</Qty></OrderLine>
    </Order>
  </Customer>
  <Customer>
    <Name>John</Name>
    <Address><City>Portland</City><State>OR</State></Address>
  </Customer>
</CustDB>)";

std::unique_ptr<xml::Document> ParseBioDocument() {
  xml::ParseOptions options;
  options.ref_attributes = {"managers", "source", "biologist", "lab",
                            "worksAt"};
  auto parsed = xml::ParseXml(kBioXml, options);
  if (!parsed.ok()) {
    std::cerr << "ParseBioDocument failed: " << parsed.status() << "\n";
    std::abort();
  }
  return std::move(parsed.value().document);
}

std::unique_ptr<xml::Document> MustParse(const std::string& text) {
  auto parsed = xml::ParseXml(text);
  if (!parsed.ok()) {
    std::cerr << "MustParse failed: " << parsed.status() << "\n";
    std::abort();
  }
  return std::move(parsed.value().document);
}

xml::Dtd MustParseDtd(const std::string& text) {
  auto dtd = xml::Dtd::Parse(text);
  if (!dtd.ok()) {
    std::cerr << "MustParseDtd failed: " << dtd.status() << "\n";
    std::abort();
  }
  return std::move(dtd).value();
}

TempDir::TempDir() {
  char tmpl[] = "/tmp/xupd_test_XXXXXX";
  char* p = ::mkdtemp(tmpl);
  EXPECT_NE(p, nullptr);
  path_ = p == nullptr ? "/tmp/xupd_test_fallback" : p;
}

TempDir::~TempDir() {
  DIR* d = ::opendir(path_.c_str());
  if (d != nullptr) {
    while (dirent* e = ::readdir(d)) {
      std::string name = e->d_name;
      if (name == "." || name == "..") continue;
      std::remove((path_ + "/" + name).c_str());
    }
    ::closedir(d);
  }
  ::rmdir(path_.c_str());
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void WriteFile(const std::string& path, const std::string& data) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(data.data(), static_cast<std::streamsize>(data.size()));
}

std::string DumpDurableState(const rdb::Database& db) {
  std::string out = "next_id=" + std::to_string(db.next_id()) + "\n";
  for (const std::string& name : db.TableNames()) {
    const rdb::Table* t = db.FindTable(name);
    if (t == nullptr || !t->durable()) continue;
    out += "table " + t->schema().name() + " (";
    for (const auto& c : t->schema().columns()) out += c.name + ",";
    out += ")\n";
    for (size_t rowid = 0; rowid < t->capacity(); ++rowid) {
      out += t->is_live(rowid) ? "  live " : "  dead ";
      for (const rdb::Value& v : t->row_span(rowid)) out += v.ToString() + "|";
      out += "\n";
    }
    for (const auto& index : t->indexes()) {
      out += "  index " + index->name() + " col " +
             std::to_string(index->column()) + " size " +
             std::to_string(index->size()) + "\n";
    }
  }
  return out;
}

workload::GeneratedDoc MakeDoc(int scaling_factor) {
  workload::SyntheticSpec spec;
  spec.scaling_factor = scaling_factor;
  spec.depth = 3;
  spec.fanout = 2;
  auto gen = workload::GenerateFixedSynthetic(spec, 42);
  EXPECT_TRUE(gen.ok());
  return std::move(gen).value();
}

}  // namespace xupd::testing

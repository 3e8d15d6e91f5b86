#include <gtest/gtest.h>

#include "pds/pds_node.h"

namespace pds::node {
namespace {

using ac::Action;
using ac::PolicySet;
using ac::Rule;
using ac::Subject;
using embdb::ColumnType;
using embdb::Predicate;
using embdb::Schema;
using embdb::Tuple;
using embdb::Value;

TEST(PolicyTest, DenyByDefault) {
  PolicySet policies;
  auto d = policies.Check({"doctor", "d1"}, Action::kRead, "health",
                          {"diagnosis"});
  EXPECT_FALSE(d.allowed);
}

TEST(PolicyTest, AllColumnsRule) {
  PolicySet policies;
  policies.AddRule({"owner", Action::kRead, "health", {}, std::nullopt});
  EXPECT_TRUE(policies.Check({"owner", "a"}, Action::kRead, "health",
                             {"diagnosis", "date"})
                  .allowed);
  EXPECT_TRUE(
      policies.Check({"owner", "a"}, Action::kRead, "health", {}).allowed);
  // Different table / action / role still denied.
  EXPECT_FALSE(
      policies.Check({"owner", "a"}, Action::kRead, "bank", {}).allowed);
  EXPECT_FALSE(
      policies.Check({"owner", "a"}, Action::kInsert, "health", {}).allowed);
  EXPECT_FALSE(
      policies.Check({"guest", "g"}, Action::kRead, "health", {}).allowed);
}

TEST(PolicyTest, ColumnSubsetRule) {
  PolicySet policies;
  policies.AddRule(
      {"researcher", Action::kRead, "health", {"age", "diagnosis"},
       std::nullopt});
  EXPECT_TRUE(policies.Check({"researcher", "r"}, Action::kRead, "health",
                             {"age"})
                  .allowed);
  EXPECT_TRUE(policies.Check({"researcher", "r"}, Action::kRead, "health",
                             {"age", "diagnosis"})
                  .allowed);
  // Requesting a column beyond the grant is denied.
  EXPECT_FALSE(policies.Check({"researcher", "r"}, Action::kRead, "health",
                              {"age", "name"})
                   .allowed);
  // Requesting all columns via a subset rule is denied.
  EXPECT_FALSE(
      policies.Check({"researcher", "r"}, Action::kRead, "health", {})
          .allowed);
}

TEST(PolicyTest, RulesCompose) {
  PolicySet policies;
  policies.AddRule(
      {"auditor", Action::kRead, "t", {"a"}, std::nullopt});
  policies.AddRule(
      {"auditor", Action::kRead, "t", {"b"}, std::nullopt});
  EXPECT_TRUE(
      policies.Check({"auditor", "x"}, Action::kRead, "t", {"a", "b"})
          .allowed);
}

TEST(PolicyTest, RowFilterSurfaces) {
  PolicySet policies;
  Predicate medical_only{2, Predicate::Op::kEq, Value::Str("medical")};
  policies.AddRule(
      {"doctor", Action::kRead, "records", {}, medical_only});
  auto d = policies.Check({"doctor", "d"}, Action::kRead, "records", {});
  ASSERT_TRUE(d.allowed);
  ASSERT_EQ(d.mandatory_filters.size(), 1u);
  EXPECT_EQ(d.mandatory_filters[0].column, 2);
}

class PdsNodeTest : public ::testing::Test {
 protected:
  PdsNodeTest() {
    PdsNode::Config cfg;
    cfg.node_id = 1;
    cfg.fleet_key = crypto::KeyFromString("fleet");
    cfg.flash_geometry.page_size = 512;
    cfg.flash_geometry.pages_per_block = 8;
    cfg.flash_geometry.block_count = 512;
    node_ = std::make_unique<PdsNode>(cfg);

    Schema records("records", {{"id", ColumnType::kUint64, ""},
                               {"category", ColumnType::kString, ""},
                               {"detail", ColumnType::kString, ""},
                               {"cost", ColumnType::kDouble, ""}});
    EXPECT_TRUE(node_->DefineTable(records).ok());

    auto& p = node_->policies();
    p.AddRule({"owner", Action::kInsert, "records", {}, std::nullopt});
    p.AddRule({"owner", Action::kRead, "records", {}, std::nullopt});
    Predicate medical{1, Predicate::Op::kEq, Value::Str("medical")};
    p.AddRule({"doctor", Action::kRead, "records", {}, medical});
    p.AddRule({"stats-agency", Action::kShare, "records",
               {"category", "cost"}, std::nullopt});
  }

  Status InsertRecord(uint64_t id, const std::string& category,
                      const std::string& detail, double cost) {
    return node_
        ->InsertAs({"owner", "alice"}, "records",
                   {Value::U64(id), Value::Str(category), Value::Str(detail),
                    Value::F64(cost)})
        .status();
  }

  std::unique_ptr<PdsNode> node_;
};

TEST(PdsNodeIndexTest, MandatoryFilterOnIndexedLongStringAdmitsNoPrefixTwin) {
  // The nurse's mandatory filter names one ward; another ward shares its
  // first Value::kKeyWidth (24) bytes, so both share one index key. The
  // filter is answered through the index and still admits no twin row.
  PdsNode::Config cfg;
  cfg.node_id = 2;
  cfg.fleet_key = crypto::KeyFromString("fleet");
  cfg.flash_geometry.page_size = 512;
  cfg.flash_geometry.pages_per_block = 8;
  cfg.flash_geometry.block_count = 512;
  PdsNode node(cfg);
  Schema stays("stays", {{"id", ColumnType::kUint64, ""},
                         {"ward", ColumnType::kString, ""},
                         {"cost", ColumnType::kDouble, ""}});
  embdb::Database::TableOptions topts;
  topts.data_blocks = 64;
  topts.directory_blocks = 16;
  ASSERT_TRUE(node.DefineTable(stays, topts).ok());
  ASSERT_TRUE(node.db().CreateKeyIndex("stays", "ward", {}).ok());

  const std::string prefix(Value::kKeyWidth, 'w');
  const std::string cardiology = prefix + "-cardiology";
  const std::string oncology = prefix + "-oncology";
  Predicate in_cardiology{1, Predicate::Op::kEq, Value::Str(cardiology)};
  auto& p = node.policies();
  p.AddRule({"nurse", Action::kRead, "stays", {}, in_cardiology});
  p.AddRule({"analyst", Action::kShare, "stays", {"ward", "cost"},
             in_cardiology});

  std::vector<uint64_t> want;
  for (uint64_t i = 0; i < 1000; ++i) {
    std::string ward = i % 100 == 7    ? cardiology
                       : i % 100 == 8 ? oncology
                                      : "ward-" + std::to_string(i % 50);
    if (ward == cardiology) {
      want.push_back(i);
    }
    ASSERT_TRUE(node.db()
                    .Insert("stays", {Value::U64(i), Value::Str(ward),
                                      Value::F64(static_cast<double>(i))})
                    .ok());
  }

  node.chip().ResetStats();
  std::vector<uint64_t> got;
  ASSERT_TRUE(node.QueryAs({"nurse", "n"}, "stays", {}, {},
                           [&](const Tuple& t) {
                             EXPECT_EQ(t[1].AsStr(), cardiology);
                             got.push_back(t[0].AsU64());
                             return Status::Ok();
                           })
                  .ok());
  uint64_t indexed_reads = node.chip().stats().page_reads;
  EXPECT_EQ(got, want);

  node.chip().ResetStats();
  ASSERT_TRUE(node.db()
                  .SelectScan("stays", {in_cardiology},
                              [](uint64_t, const Tuple&) {
                                return Status::Ok();
                              })
                  .ok());
  EXPECT_LT(indexed_reads, node.chip().stats().page_reads);

  std::vector<std::pair<std::string, double>> exported;
  ASSERT_TRUE(
      node.ExportAs({"analyst", "a"}, "stays", "ward", "cost", &exported)
          .ok());
  ASSERT_EQ(exported.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(exported[i].first, cardiology);
    EXPECT_EQ(exported[i].second, static_cast<double>(want[i]));
  }
}

TEST_F(PdsNodeTest, OwnerInsertAllowedGuestDenied) {
  EXPECT_TRUE(InsertRecord(1, "medical", "flu", 40).ok());
  auto denied = node_->InsertAs({"guest", "g"}, "records",
                                {Value::U64(2), Value::Str("bank"),
                                 Value::Str("x"), Value::F64(0)});
  EXPECT_EQ(denied.status().code(), StatusCode::kPermissionDenied);
}

TEST_F(PdsNodeTest, DoctorSeesOnlyMedicalRows) {
  ASSERT_TRUE(InsertRecord(1, "medical", "flu", 40).ok());
  ASSERT_TRUE(InsertRecord(2, "bank", "loan", 1000).ok());
  ASSERT_TRUE(InsertRecord(3, "medical", "xray", 120).ok());

  int rows = 0;
  ASSERT_TRUE(node_
                  ->QueryAs({"doctor", "dr-lucas"}, "records", {}, {},
                            [&](const Tuple& t) {
                              EXPECT_EQ(t[1].AsStr(), "medical");
                              ++rows;
                              return Status::Ok();
                            })
                  .ok());
  EXPECT_EQ(rows, 2);

  // The owner sees everything.
  rows = 0;
  ASSERT_TRUE(node_
                  ->QueryAs({"owner", "alice"}, "records", {}, {},
                            [&](const Tuple&) {
                              ++rows;
                              return Status::Ok();
                            })
                  .ok());
  EXPECT_EQ(rows, 3);
}

TEST_F(PdsNodeTest, ProjectionRestrictsColumns) {
  ASSERT_TRUE(InsertRecord(1, "medical", "flu", 40).ok());
  ASSERT_TRUE(node_
                  ->QueryAs({"owner", "alice"}, "records", {},
                            {"category", "cost"},
                            [&](const Tuple& t) {
                              EXPECT_EQ(t.size(), 2u);
                              EXPECT_EQ(t[0].AsStr(), "medical");
                              return Status::Ok();
                            })
                  .ok());
}

TEST_F(PdsNodeTest, UnknownSubjectDeniedAndAudited) {
  uint64_t before = node_->audit_entries();
  Status s = node_->QueryAs({"burglar", "b"}, "records", {}, {},
                            [](const Tuple&) { return Status::Ok(); });
  EXPECT_EQ(s.code(), StatusCode::kPermissionDenied);
  EXPECT_EQ(node_->audit_entries(), before + 1);

  auto log = node_->ReadAuditLog();
  ASSERT_TRUE(log.ok());
  ASSERT_FALSE(log->empty());
  EXPECT_NE(log->back().find("DENY"), std::string::npos);
  EXPECT_NE(log->back().find("burglar"), std::string::npos);
}

TEST_F(PdsNodeTest, AuditRecordsAllows) {
  ASSERT_TRUE(InsertRecord(1, "medical", "flu", 40).ok());
  auto log = node_->ReadAuditLog();
  ASSERT_TRUE(log.ok());
  EXPECT_NE((*log)[0].find("ALLOW"), std::string::npos);
  EXPECT_NE((*log)[0].find("insert"), std::string::npos);
}

TEST_F(PdsNodeTest, ExportGatedByShareAction) {
  ASSERT_TRUE(InsertRecord(1, "medical", "flu", 40).ok());
  ASSERT_TRUE(InsertRecord(2, "medical", "xray", 120).ok());

  std::vector<std::pair<std::string, double>> exported;
  ASSERT_TRUE(node_
                  ->ExportAs({"stats-agency", "insee"}, "records", "category",
                             "cost", &exported)
                  .ok());
  ASSERT_EQ(exported.size(), 2u);
  EXPECT_EQ(exported[0].first, "medical");
  EXPECT_DOUBLE_EQ(exported[0].second, 40.0);

  // The owner has no share rule: even the owner cannot export.
  EXPECT_EQ(node_
                ->ExportAs({"owner", "alice"}, "records", "category", "cost",
                           &exported)
                .code(),
            StatusCode::kPermissionDenied);
}

TEST_F(PdsNodeTest, TamperedTokenBlocksCrypto) {
  node_->token().Tamper();
  EXPECT_FALSE(node_->token().EncryptDet(ByteView(std::string_view("x"))).ok());
}

}  // namespace
}  // namespace pds::node

namespace pds::node {
namespace {

class PdsNodeShareTest : public ::testing::Test {
 protected:
  PdsNodeShareTest() {
    PdsNode::Config cfg;
    cfg.node_id = 2;
    cfg.fleet_key = crypto::KeyFromString("fleet");
    cfg.flash_geometry.page_size = 512;
    cfg.flash_geometry.pages_per_block = 8;
    cfg.flash_geometry.block_count = 512;
    node_ = std::make_unique<PdsNode>(cfg);

    Schema bills("bills", {{"id", ColumnType::kUint64, ""},
                           {"city", ColumnType::kString, ""},
                           {"amount", ColumnType::kDouble, ""},
                           {"year", ColumnType::kInt64, ""}});
    EXPECT_TRUE(node_->DefineTable(bills).ok());
    node_->policies().AddRule(
        {"owner", Action::kInsert, "bills", {}, std::nullopt});
    // The agency may share only recent rows (year >= 2025), and only the
    // (city, amount) columns.
    Predicate recent{3, Predicate::Op::kGe, Value::I64(2025)};
    node_->policies().AddRule(
        {"agency", Action::kShare, "bills", {"city", "amount"}, recent});

    Subject owner{"owner", "bob"};
    for (int64_t year : {2023, 2024, 2025, 2026}) {
      for (uint64_t i = 0; i < 3; ++i) {
        EXPECT_TRUE(node_
                        ->InsertAs(owner, "bills",
                                   {Value::U64(i), Value::Str("lyon"),
                                    Value::F64(100.0 + i), Value::I64(year)})
                        .ok());
      }
    }
  }

  std::unique_ptr<PdsNode> node_;
};

TEST_F(PdsNodeShareTest, RowFilterAppliesToExport) {
  std::vector<std::pair<std::string, double>> exported;
  ASSERT_TRUE(node_
                  ->ExportAs({"agency", "insee"}, "bills", "city", "amount",
                             &exported)
                  .ok());
  // Only the 2025 and 2026 rows (6 of 12) pass the mandatory row filter.
  EXPECT_EQ(exported.size(), 6u);
}

TEST_F(PdsNodeShareTest, ColumnsOutsideGrantDenied) {
  std::vector<std::pair<std::string, double>> exported;
  // "year" is not in the share grant.
  EXPECT_EQ(node_
                ->ExportAs({"agency", "insee"}, "bills", "city", "year",
                           &exported)
                .code(),
            StatusCode::kPermissionDenied);
}

TEST_F(PdsNodeShareTest, ForgottenRowsNeverExported) {
  // The owner deletes a 2026 row; a subsequent export must not contain it.
  ASSERT_TRUE(node_->db().Delete("bills", 9).ok());  // first 2026 row
  std::vector<std::pair<std::string, double>> exported;
  ASSERT_TRUE(node_
                  ->ExportAs({"agency", "insee"}, "bills", "city", "amount",
                             &exported)
                  .ok());
  EXPECT_EQ(exported.size(), 5u);
}

}  // namespace
}  // namespace pds::node

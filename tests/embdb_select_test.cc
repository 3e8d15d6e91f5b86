// Database::Select, the one planned access path, against the full-scan
// baseline: seeded random tables (numeric columns on both sides of a string
// column, long strings that share an index key, tombstones, before and
// after index reorganization) and random predicate conjunctions must give
// exactly the (rowid, tuple) sequence of SelectScan and of a reference that
// decodes every row. Also: policy-checked QueryAs/ExportAs return the same
// rows with and without indexes, and the encoded-record filter of ScanFilter
// agrees with Predicate::Eval, fails cleanly on corrupt records and reads
// the same pages as a plain scan.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "embdb/database.h"
#include "flash/flash.h"
#include "mcu/ram_gauge.h"
#include "pds/pds_node.h"

namespace pds::embdb {
namespace {

using Rows = std::vector<std::pair<uint64_t, Bytes>>;

// 0 id U64 | 1 i I64 | 2 f F64 | 3 s STRING | 4 u U64 | 5 g I64.
// Columns 0-2 sit at fixed record offsets; 4 and 5 follow the string.
Schema MixedSchema(const std::string& name) {
  return Schema(name, {{"id", ColumnType::kUint64, ""},
                       {"i", ColumnType::kInt64, ""},
                       {"f", ColumnType::kDouble, ""},
                       {"s", ColumnType::kString, ""},
                       {"u", ColumnType::kUint64, ""},
                       {"g", ColumnType::kInt64, ""}});
}

const std::string kPrefix(Value::kKeyWidth, 'p');

// Draws cell values from small domains so that equalities hit, with the
// edge values that order-preserving keys and the encoded filter must get
// right: extreme and negative integers, signed zeros, NaN, and strings that
// agree on their first kKeyWidth bytes.
class ValueSource {
 public:
  explicit ValueSource(uint64_t seed) : rng_(seed) {}

  Value Cell(int column, uint64_t id) {
    switch (column) {
      case 0:
        return Value::U64(id);
      case 1:
        if (rng_.Bernoulli(0.05)) {
          return Value::I64(rng_.Bernoulli(0.5)
                                ? std::numeric_limits<int64_t>::min()
                                : std::numeric_limits<int64_t>::max());
        }
        return Value::I64(rng_.UniformRange(-6, 6));
      case 2: {
        static const double kDoubles[] = {
            -1e300, -2.5, -1.0, -0.0, 0.0, 0.5, 1.5, 1e300,
            std::numeric_limits<double>::quiet_NaN()};
        return Value::F64(kDoubles[rng_.Uniform(9)]);
      }
      case 3: {
        static const std::string kStrings[] = {
            kPrefix + "-alice", kPrefix + "-bob", kPrefix, "short", "",
            kPrefix + "-alice-with-a-much-longer-tail"};
        return Value::Str(kStrings[rng_.Uniform(6)]);
      }
      case 4:
        return Value::U64(rng_.Bernoulli(0.05)
                              ? std::numeric_limits<uint64_t>::max()
                              : rng_.Uniform(8));
      default:
        return Value::I64(rng_.UniformRange(-3, 3));
    }
  }

  Tuple Row(uint64_t id) {
    Tuple row;
    for (int c = 0; c < 6; ++c) {
      row.push_back(Cell(c, id));
    }
    return row;
  }

  // A constant for `column`, sometimes of another type than the column's.
  Value Constant(int column, uint64_t num_ids) {
    if (rng_.Bernoulli(0.15)) {
      switch (rng_.Uniform(4)) {
        case 0:
          return Value::U64(rng_.Uniform(8));
        case 1:
          return Value::I64(rng_.UniformRange(-6, 6));
        case 2:
          return Value::F64(rng_.Bernoulli(0.5) ? -0.0 : 1.5);
        default:
          return Value::Str(kPrefix + "-alice");
      }
    }
    if (column == 0) {
      return Value::U64(rng_.Uniform(num_ids + 2));
    }
    return Cell(column < 0 || column > 5 ? 5 : column, 0);
  }

  Predicate RandomPredicate(uint64_t num_ids) {
    Predicate p;
    // Now and then a column the table does not have: never true.
    p.column = rng_.Bernoulli(0.03) ? (rng_.Bernoulli(0.5) ? -1 : 6)
                                    : static_cast<int>(rng_.Uniform(6));
    static const Predicate::Op kOps[] = {Predicate::Op::kNe,
                                         Predicate::Op::kLt,
                                         Predicate::Op::kLe,
                                         Predicate::Op::kGt,
                                         Predicate::Op::kGe};
    p.op = rng_.Bernoulli(0.5) ? Predicate::Op::kEq : kOps[rng_.Uniform(5)];
    p.constant = Constant(p.column, num_ids);
    return p;
  }

  std::vector<Predicate> RandomConjunction(uint64_t num_ids) {
    std::vector<Predicate> out;
    uint64_t n = rng_.Uniform(4);  // 0..3 predicates
    for (uint64_t k = 0; k < n; ++k) {
      out.push_back(RandomPredicate(num_ids));
    }
    return out;
  }

  Rng& rng() { return rng_; }

 private:
  Rng rng_;
};

flash::Geometry TestGeometry() {
  flash::Geometry g;
  g.page_size = 512;
  g.pages_per_block = 8;
  g.block_count = 2048;
  return g;
}

// Collects (rowid, encoded tuple) pairs: byte equality is exact even for
// NaN and signed zeros, which Value::Compare would not tell apart.
std::function<Status(uint64_t, const Tuple&)> Collect(
    const std::vector<ColumnType>& types, Rows* out) {
  return [&types, out](uint64_t rowid, const Tuple& tuple) {
    Bytes encoded;
    EncodeTuple(types, tuple, &encoded);
    out->emplace_back(rowid, std::move(encoded));
    return Status::Ok();
  };
}

// Reference: decode every live row and check each predicate with Eval.
Rows Reference(TableHeap* heap, const std::vector<Predicate>& predicates) {
  Rows out;
  auto collect = Collect(heap->column_types(), &out);
  TableHeap::Scanner scanner = heap->NewScanner();
  uint64_t rowid = 0;
  Tuple tuple;
  while (!scanner.AtEnd()) {
    Status s = scanner.Next(&rowid, &tuple);
    if (s.code() == StatusCode::kOutOfRange) {
      break;
    }
    EXPECT_TRUE(s.ok()) << s.ToString();
    if (!s.ok()) {
      break;
    }
    bool pass = true;
    for (const Predicate& p : predicates) {
      pass = pass && p.Eval(tuple);
    }
    if (pass) {
      EXPECT_TRUE(collect(rowid, tuple).ok());
    }
  }
  return out;
}

std::string Describe(const std::vector<Predicate>& predicates) {
  static const char* kOpNames[] = {"=", "!=", "<", "<=", ">", ">="};
  std::string out;
  for (const Predicate& p : predicates) {
    out += "c" + std::to_string(p.column) + " " +
           kOpNames[static_cast<int>(p.op)] + " " + p.constant.ToString() +
           "(" + std::string(ColumnTypeName(p.constant.type())) + "); ";
  }
  return out;
}

class SelectEquivalenceTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  SelectEquivalenceTest()
      : chip_(TestGeometry()), gauge_(256 * 1024), db_(&chip_, &gauge_) {}

  void SetUp() override {
    Database::TableOptions topts;
    topts.data_blocks = 32;
    topts.directory_blocks = 8;
    ASSERT_TRUE(db_.CreateTable(MixedSchema("t"), topts).ok());
    Database::IndexOptions iopts;
    iopts.keys_blocks = 16;
    for (const char* column : {"i", "f", "s", "u"}) {
      ASSERT_TRUE(db_.CreateKeyIndex("t", column, iopts).ok()) << column;
    }
    heap_ = db_.table("t");
  }

  void InsertAndForget(ValueSource* values, uint64_t rows) {
    for (uint64_t k = 0; k < rows; ++k) {
      uint64_t id = heap_->num_rows();
      ASSERT_TRUE(db_.Insert("t", values->Row(id)).ok());
    }
    for (uint64_t k = 0; k < rows / 10; ++k) {
      ASSERT_TRUE(
          db_.Delete("t", values->rng().Uniform(heap_->num_rows())).ok());
    }
  }

  void CheckRandomQueries(ValueSource* values, int queries) {
    const std::vector<ColumnType>& types = heap_->column_types();
    const size_t resident = gauge_.in_use();
    for (int q = 0; q < queries; ++q) {
      std::vector<Predicate> predicates =
          values->RandomConjunction(heap_->num_rows());
      Rows selected, scanned;
      ASSERT_TRUE(db_.Select("t", predicates, Collect(types, &selected)).ok())
          << Describe(predicates);
      ASSERT_TRUE(
          db_.SelectScan("t", predicates, Collect(types, &scanned)).ok())
          << Describe(predicates);
      Rows want = Reference(heap_, predicates);
      EXPECT_EQ(selected, want) << Describe(predicates);
      EXPECT_EQ(scanned, want) << Describe(predicates);
      EXPECT_EQ(gauge_.in_use(), resident) << "rowid list charge not released";
    }
  }

  flash::FlashChip chip_;
  mcu::RamGauge gauge_;
  Database db_;
  TableHeap* heap_ = nullptr;
};

TEST_P(SelectEquivalenceTest, SelectMatchesScanAcrossReorganization) {
  ValueSource values(GetParam());
  InsertAndForget(&values, 400);
  CheckRandomQueries(&values, 150);

  // Tree + delta on two indexes, key log only on the other two.
  ASSERT_TRUE(db_.ReorganizeIndex("t", "s").ok());
  ASSERT_TRUE(db_.ReorganizeIndex("t", "i").ok());
  InsertAndForget(&values, 300);
  CheckRandomQueries(&values, 150);

  ASSERT_TRUE(db_.ReorganizeIndex("t", "f").ok());
  ASSERT_TRUE(db_.ReorganizeIndex("t", "u").ok());
  InsertAndForget(&values, 100);
  CheckRandomQueries(&values, 150);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SelectEquivalenceTest,
                         ::testing::Values(1u, 2u, 3u));

// ---------------------------------------------------------------------------
// Policy-checked reads on the token.

const ac::Subject kOwner{"owner", "o"};
const ac::Subject kClerk{"clerk", "c"};
const ac::Subject kAgent{"agent", "a"};

std::unique_ptr<node::PdsNode> MakeNode(bool indexed) {
  node::PdsNode::Config cfg;
  cfg.node_id = indexed ? 1 : 2;
  cfg.fleet_key = crypto::KeyFromString("fleet");
  cfg.ram_budget_bytes = 128 * 1024;
  cfg.flash_geometry = TestGeometry();
  auto node = std::make_unique<node::PdsNode>(cfg);
  Database::TableOptions topts;
  topts.data_blocks = 64;
  topts.directory_blocks = 16;
  EXPECT_TRUE(node->DefineTable(MixedSchema("t"), topts).ok());
  if (indexed) {
    Database::IndexOptions iopts;
    iopts.keys_blocks = 16;
    for (const char* column : {"i", "s", "u"}) {
      EXPECT_TRUE(node->db().CreateKeyIndex("t", column, iopts).ok());
    }
  }
  ac::PolicySet& p = node->policies();
  p.AddRule({"owner", ac::Action::kRead, "t", {}, std::nullopt});
  // Mandatory filters on indexed columns, one a long string.
  p.AddRule({"clerk", ac::Action::kRead, "t", {},
             Predicate{3, Predicate::Op::kEq, Value::Str(kPrefix + "-alice")}});
  p.AddRule({"agent", ac::Action::kShare, "t", {"s", "f"},
             Predicate{4, Predicate::Op::kEq, Value::U64(3)}});
  return node;
}

TEST(SelectPolicyTest, QueryAsAndExportAsAgreeWithAndWithoutIndexes) {
  for (uint64_t seed : {11u, 12u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    std::unique_ptr<node::PdsNode> nodes[] = {MakeNode(true),
                                              MakeNode(false)};
    ValueSource values(seed);
    for (uint64_t id = 0; id < 600; ++id) {
      Tuple row = values.Row(id);
      for (auto& n : nodes) {
        ASSERT_TRUE(n->db().Insert("t", row).ok());
      }
      if (id == 300) {
        ASSERT_TRUE(nodes[0]->db().ReorganizeIndex("t", "s").ok());
      }
    }
    for (int k = 0; k < 40; ++k) {
      uint64_t rowid = values.rng().Uniform(600);
      for (auto& n : nodes) {
        ASSERT_TRUE(n->db().Delete("t", rowid).ok());
      }
    }

    const std::vector<ColumnType> types =
        nodes[0]->db().table("t")->column_types();
    static const std::vector<std::string> kProjections[] = {
        {}, {"id"}, {"s", "id"}, {"g", "f", "u"}};
    for (int q = 0; q < 120; ++q) {
      std::vector<Predicate> predicates = values.RandomConjunction(600);
      // Keep to real columns: QueryAs hands them to the planner as given.
      for (Predicate& p : predicates) {
        p.column = std::max(0, std::min(p.column, 5));
      }
      const ac::Subject& who = q % 2 == 0 ? kOwner : kClerk;
      const std::vector<std::string>& columns = kProjections[q % 4];
      std::vector<std::string> got[2];
      for (int n = 0; n < 2; ++n) {
        ASSERT_TRUE(nodes[n]
                        ->QueryAs(who, "t", predicates, columns,
                                  [&](const Tuple& t) {
                                    std::string row;
                                    for (const Value& v : t) {
                                      row += v.ToString() + "|";
                                    }
                                    got[n].push_back(row);
                                    return Status::Ok();
                                  })
                        .ok())
            << Describe(predicates);
      }
      EXPECT_EQ(got[0], got[1]) << who.role << ": " << Describe(predicates);
    }

    std::vector<std::pair<std::string, double>> exported[2];
    for (int n = 0; n < 2; ++n) {
      ASSERT_TRUE(
          nodes[n]->ExportAs(kAgent, "t", "s", "f", &exported[n]).ok());
    }
    ASSERT_EQ(exported[0].size(), exported[1].size());
    ASSERT_FALSE(exported[0].empty());
    for (size_t k = 0; k < exported[0].size(); ++k) {
      EXPECT_EQ(exported[0][k].first, exported[1][k].first);
      // Bitwise: NaN and -0.0 must survive either path unchanged.
      EXPECT_EQ(std::signbit(exported[0][k].second),
                std::signbit(exported[1][k].second));
      EXPECT_TRUE(exported[0][k].second == exported[1][k].second ||
                  (std::isnan(exported[0][k].second) &&
                   std::isnan(exported[1][k].second)));
    }
  }
}

TEST(SelectPolicyTest, IndexedQueryAsReadsFewerPagesThanScan) {
  std::unique_ptr<node::PdsNode> nodes[] = {MakeNode(true), MakeNode(false)};
  for (uint64_t id = 0; id < 2000; ++id) {
    Tuple row = {Value::U64(id),
                 Value::I64(static_cast<int64_t>(id % 7)),
                 Value::F64(0.5),
                 Value::Str("row-" + std::to_string(id)),
                 Value::U64(id % 200),
                 Value::I64(-1)};
    for (auto& n : nodes) {
      ASSERT_TRUE(n->db().Insert("t", row).ok());
    }
  }
  std::vector<Predicate> lookup = {
      Predicate{4, Predicate::Op::kEq, Value::U64(42)}};
  uint64_t reads[2];
  std::vector<uint64_t> ids[2];
  for (int n = 0; n < 2; ++n) {
    nodes[n]->chip().ResetStats();
    ASSERT_TRUE(nodes[n]
                    ->QueryAs(kOwner, "t", lookup, {"id"},
                              [&](const Tuple& t) {
                                ids[n].push_back(t[0].AsU64());
                                return Status::Ok();
                              })
                    .ok());
    reads[n] = nodes[n]->chip().stats().page_reads;
  }
  EXPECT_EQ(ids[0], ids[1]);
  EXPECT_EQ(ids[0].size(), 10u);
  EXPECT_LT(reads[0], reads[1]);
}

// ---------------------------------------------------------------------------
// The encoded-record filter of ScanFilter.

TEST(ScanFilterTest, FixedOffsetsStopAtTheFirstString) {
  std::vector<ColumnType> types = MixedSchema("t").ColumnTypes();
  EXPECT_EQ(FixedColumnOffset(types, 0), 0);
  EXPECT_EQ(FixedColumnOffset(types, 1), 8);
  EXPECT_EQ(FixedColumnOffset(types, 2), 16);
  EXPECT_EQ(FixedColumnOffset(types, 3), -1);  // the string itself
  EXPECT_EQ(FixedColumnOffset(types, 4), -1);  // after the string: decoded
  EXPECT_EQ(FixedColumnOffset(types, 5), -1);
  EXPECT_EQ(FixedColumnOffset(types, -1), -1);
  EXPECT_EQ(FixedColumnOffset(types, 6), -1);
}

TEST(ScanFilterTest, EncodedPredicateAgreesWithEval) {
  std::vector<ColumnType> types = {ColumnType::kUint64, ColumnType::kInt64,
                                   ColumnType::kDouble};
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::vector<Value> samples = {
      Value::U64(0),
      Value::U64(5),
      Value::U64(std::numeric_limits<uint64_t>::max()),
      Value::I64(std::numeric_limits<int64_t>::min()),
      Value::I64(-5),
      Value::I64(-1),
      Value::I64(0),
      Value::I64(5),
      Value::F64(-1e300),
      Value::F64(-2.5),
      Value::F64(-0.0),
      Value::F64(0.0),
      Value::F64(2.5),
      Value::F64(nan),
      Value::Str("5")};
  static const Predicate::Op kOps[] = {
      Predicate::Op::kEq, Predicate::Op::kNe, Predicate::Op::kLt,
      Predicate::Op::kLe, Predicate::Op::kGt, Predicate::Op::kGe};
  for (const Value& u : samples) {
    for (const Value& i : samples) {
      for (const Value& f : samples) {
        if (u.type() != ColumnType::kUint64 ||
            i.type() != ColumnType::kInt64 ||
            f.type() != ColumnType::kDouble) {
          continue;
        }
        Tuple row = {u, i, f};
        Bytes record;
        EncodeTuple(types, row, &record);
        for (int column = 0; column < 3; ++column) {
          Value field;
          ASSERT_TRUE(DecodeFixedColumn(types[static_cast<size_t>(column)],
                                        ByteView(record),
                                        static_cast<size_t>(
                                            FixedColumnOffset(types, column)),
                                        &field)
                          .ok());
          for (Predicate::Op op : kOps) {
            // Constants of every type, the column's own and the others.
            for (const Value& constant : samples) {
              Predicate p{column, op, constant};
              EXPECT_EQ(p.Matches(field), p.Eval(row))
                  << "column " << column << " value "
                  << row[static_cast<size_t>(column)].ToString() << " op "
                  << static_cast<int>(op) << " constant "
                  << constant.ToString();
            }
          }
        }
      }
    }
  }
}

TEST(ScanFilterTest, TruncatedRecordsFailLikeDecodeTuple) {
  std::vector<ColumnType> types = MixedSchema("t").ColumnTypes();
  Tuple row = {Value::U64(1), Value::I64(-2), Value::F64(-0.5),
               Value::Str("hello"), Value::U64(4), Value::I64(-6)};
  Bytes record;
  EncodeTuple(types, row, &record);
  Tuple reused;
  for (size_t cut = 0; cut < record.size(); ++cut) {
    ByteView prefix(record.data(), cut);
    SCOPED_TRACE("cut at " + std::to_string(cut));
    EXPECT_EQ(ValidateRecord(types, prefix).code(), StatusCode::kCorruption);
    EXPECT_EQ(DecodeTuple(types, prefix).status().code(),
              StatusCode::kCorruption);
    EXPECT_EQ(DecodeTupleInto(types, prefix, &reused).code(),
              StatusCode::kCorruption);
    for (int column = 0; column < 3; ++column) {
      size_t offset = static_cast<size_t>(FixedColumnOffset(types, column));
      Value field;
      Status s = DecodeFixedColumn(types[static_cast<size_t>(column)], prefix,
                                   offset, &field);
      EXPECT_EQ(s.ok(), offset + 8 <= cut) << "column " << column;
      if (!s.ok()) {
        EXPECT_EQ(s.code(), StatusCode::kCorruption);
      }
    }
  }
  EXPECT_TRUE(ValidateRecord(types, ByteView(record)).ok());
  ASSERT_TRUE(DecodeTupleInto(types, ByteView(record), &reused).ok());
  Bytes again;
  EncodeTuple(types, reused, &again);
  EXPECT_EQ(again, record);
  // An offset past the end must not wrap around.
  Value field;
  EXPECT_EQ(DecodeFixedColumn(ColumnType::kUint64, ByteView(record),
                              record.size() + 1, &field)
                .code(),
            StatusCode::kCorruption);
}

TEST(ScanFilterTest, DecodeIntoReusedTupleMatchesFreshValues) {
  std::vector<ColumnType> types = MixedSchema("t").ColumnTypes();
  ValueSource values(7);
  Tuple reused;
  for (uint64_t id = 0; id < 200; ++id) {
    Tuple row = values.Row(id);
    Bytes record;
    EncodeTuple(types, row, &record);
    ASSERT_TRUE(DecodeTupleInto(types, ByteView(record), &reused).ok());
    auto fresh = DecodeTuple(types, ByteView(record));
    ASSERT_TRUE(fresh.ok());
    ASSERT_EQ(reused.size(), fresh->size());
    for (size_t c = 0; c < reused.size(); ++c) {
      EXPECT_EQ(reused[c].type(), (*fresh)[c].type());
      EXPECT_EQ(reused[c].ToString(), (*fresh)[c].ToString());
      EXPECT_EQ(reused[c].AsStr(), (*fresh)[c].AsStr());
    }
  }
}

TEST(ScanFilterTest, CorruptRecordFailsWhicheverPathFiltersIt) {
  flash::Geometry g;
  g.page_size = 256;
  g.pages_per_block = 4;
  g.block_count = 64;
  flash::FlashChip chip(g);
  mcu::RamGauge gauge(64 * 1024);
  Database db(&chip, &gauge);
  Schema schema("c", {{"a", ColumnType::kUint64, ""},
                      {"s", ColumnType::kString, ""},
                      {"b", ColumnType::kUint64, ""}});
  ASSERT_TRUE(db.CreateTable(schema, {}).ok());
  for (uint64_t k = 0; k < 50; ++k) {
    ASSERT_TRUE(
        db.Insert("c", {Value::U64(k), Value::Str("abc"), Value::U64(k)})
            .ok());
  }
  auto noop = [](uint64_t, const Tuple&) { return Status::Ok(); };
  ASSERT_TRUE(db.SelectScan("c", {}, noop).ok());

  // Row 0 opens data page 0: [record length u32][a u64][string length u32]
  // ... Raise the top bit of the string length: it now runs past the record.
  const uint32_t string_length_top_byte = 4 + 8 + 3;
  ASSERT_TRUE(chip.CorruptBit(0, 8 * string_length_top_byte + 7).ok());

  std::vector<std::vector<Predicate>> filters = {
      {},                                                 // decode all
      {Predicate{0, Predicate::Op::kEq, Value::U64(7)}},  // row 0 skipped
      {Predicate{0, Predicate::Op::kEq, Value::U64(0)}},  // row 0 passes
      {Predicate{2, Predicate::Op::kEq, Value::U64(7)}},  // after the string
  };
  for (const std::vector<Predicate>& f : filters) {
    EXPECT_EQ(db.SelectScan("c", f, noop).code(), StatusCode::kCorruption)
        << Describe(f);
    EXPECT_EQ(db.Select("c", f, noop).code(), StatusCode::kCorruption)
        << Describe(f);
  }
}

TEST(ScanFilterTest, ScanReadsTheSamePagesWhicheverPathFilters) {
  flash::FlashChip chip(TestGeometry());
  mcu::RamGauge gauge(64 * 1024);
  Database db(&chip, &gauge);
  ASSERT_TRUE(db.CreateTable(MixedSchema("t"), {}).ok());
  ValueSource values(5);
  for (uint64_t id = 0; id < 300; ++id) {
    ASSERT_TRUE(db.Insert("t", values.Row(id)).ok());
  }
  ASSERT_TRUE(db.Delete("t", 17).ok());
  auto noop = [](uint64_t, const Tuple&) { return Status::Ok(); };
  std::vector<std::vector<Predicate>> filters = {
      {},
      {Predicate{1, Predicate::Op::kLt, Value::I64(0)}},     // encoded
      {Predicate{5, Predicate::Op::kGe, Value::I64(1)}},     // decoded
      {Predicate{2, Predicate::Op::kGt, Value::F64(-1.0)},   // both
       Predicate{3, Predicate::Op::kEq, Value::Str("short")}},
  };
  uint64_t first = 0;
  for (size_t k = 0; k < filters.size(); ++k) {
    chip.ResetStats();
    ASSERT_TRUE(db.SelectScan("t", filters[k], noop).ok());
    uint64_t reads = chip.stats().page_reads;
    if (k == 0) {
      first = reads;
      EXPECT_GT(reads, 0u);
    }
    EXPECT_EQ(reads, first) << Describe(filters[k]);
  }
}

}  // namespace
}  // namespace pds::embdb

#include <gtest/gtest.h>

#include "embdb/database.h"
#include "embdb/query_parser.h"
#include "flash/flash.h"
#include "mcu/ram_gauge.h"

namespace pds::embdb {
namespace {

TEST(ParseSelectTest, StarQuery) {
  auto q = ParseSelect("SELECT * FROM people");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_TRUE(q->columns.empty());
  EXPECT_EQ(q->table, "people");
  EXPECT_TRUE(q->where.empty());
}

TEST(ParseSelectTest, ColumnsAndWhere) {
  auto q = ParseSelect(
      "SELECT name, age FROM people WHERE city = 'Lyon' AND age >= 30");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ(q->columns, (std::vector<std::string>{"name", "age"}));
  ASSERT_EQ(q->where.size(), 2u);
  EXPECT_EQ(q->where[0].column, "city");
  EXPECT_EQ(q->where[0].op, Predicate::Op::kEq);
  EXPECT_EQ(q->where[0].literal, "Lyon");
  EXPECT_TRUE(q->where[0].literal_is_string);
  EXPECT_EQ(q->where[1].op, Predicate::Op::kGe);
  EXPECT_EQ(q->where[1].literal, "30");
  EXPECT_FALSE(q->where[1].literal_is_string);
}

TEST(ParseSelectTest, CaseInsensitiveKeywords) {
  auto q = ParseSelect("select * from t where x != 5");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->where[0].op, Predicate::Op::kNe);
}

TEST(ParseSelectTest, AllOperators) {
  for (auto [text, op] : std::vector<std::pair<std::string, Predicate::Op>>{
           {"=", Predicate::Op::kEq},
           {"!=", Predicate::Op::kNe},
           {"<", Predicate::Op::kLt},
           {"<=", Predicate::Op::kLe},
           {">", Predicate::Op::kGt},
           {">=", Predicate::Op::kGe}}) {
    auto q = ParseSelect("SELECT * FROM t WHERE c " + text + " 1");
    ASSERT_TRUE(q.ok()) << text;
    EXPECT_EQ(q->where[0].op, op) << text;
  }
}

TEST(ParseSelectTest, QuoteEscaping) {
  auto q = ParseSelect("SELECT * FROM t WHERE name = 'O''Brien'");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->where[0].literal, "O'Brien");
}

TEST(ParseSelectTest, NegativeAndDecimalLiterals) {
  auto q = ParseSelect("SELECT * FROM t WHERE a = -42 AND b < 3.5");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->where[0].literal, "-42");
  EXPECT_EQ(q->where[1].literal, "3.5");
}

TEST(ParseSelectTest, Errors) {
  EXPECT_FALSE(ParseSelect("").ok());
  EXPECT_FALSE(ParseSelect("INSERT INTO t").ok());
  EXPECT_FALSE(ParseSelect("SELECT FROM t").ok());
  EXPECT_FALSE(ParseSelect("SELECT * FROM").ok());
  EXPECT_FALSE(ParseSelect("SELECT * FROM t WHERE").ok());
  EXPECT_FALSE(ParseSelect("SELECT * FROM t WHERE a").ok());
  EXPECT_FALSE(ParseSelect("SELECT * FROM t WHERE a = ").ok());
  EXPECT_FALSE(ParseSelect("SELECT * FROM t WHERE a = 'unterminated").ok());
  EXPECT_FALSE(ParseSelect("SELECT * FROM t WHERE a = 1 OR b = 2").ok());
  EXPECT_FALSE(ParseSelect("SELECT * FROM t trailing junk").ok());
}

Schema PeopleSchema() {
  return Schema("people", {{"id", ColumnType::kUint64, ""},
                           {"city", ColumnType::kString, ""},
                           {"age", ColumnType::kInt64, ""},
                           {"score", ColumnType::kDouble, ""}});
}

TEST(BindTest, ResolvesColumnsAndTypes) {
  auto q = ParseSelect(
      "SELECT city FROM people WHERE age > 21 AND score <= 0.5 AND "
      "city = 'Lyon' AND id = 7");
  ASSERT_TRUE(q.ok());
  auto b = Bind(*q, PeopleSchema());
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  EXPECT_EQ(b->projection, (std::vector<int>{1}));
  ASSERT_EQ(b->predicates.size(), 4u);
  EXPECT_EQ(b->predicates[0].constant.type(), ColumnType::kInt64);
  EXPECT_EQ(b->predicates[1].constant.type(), ColumnType::kDouble);
  EXPECT_EQ(b->predicates[2].constant.type(), ColumnType::kString);
  EXPECT_EQ(b->predicates[3].constant.type(), ColumnType::kUint64);
}

TEST(BindTest, RejectsTypeMismatches) {
  auto q1 = ParseSelect("SELECT * FROM people WHERE city = 5");
  ASSERT_TRUE(q1.ok());
  EXPECT_FALSE(Bind(*q1, PeopleSchema()).ok());

  auto q2 = ParseSelect("SELECT * FROM people WHERE age = 'young'");
  ASSERT_TRUE(q2.ok());
  EXPECT_FALSE(Bind(*q2, PeopleSchema()).ok());

  auto q3 = ParseSelect("SELECT * FROM people WHERE id = -5");
  ASSERT_TRUE(q3.ok());
  EXPECT_FALSE(Bind(*q3, PeopleSchema()).ok());

  auto q4 = ParseSelect("SELECT ghost FROM people");
  ASSERT_TRUE(q4.ok());
  EXPECT_FALSE(Bind(*q4, PeopleSchema()).ok());
}

class DatabaseQueryTest : public ::testing::Test {
 protected:
  DatabaseQueryTest()
      : chip_(Geometry()), gauge_(128 * 1024), db_(&chip_, &gauge_) {
    Database::TableOptions topts;
    topts.data_blocks = 64;
    topts.directory_blocks = 16;
    EXPECT_TRUE(db_.CreateTable(PeopleSchema(), topts).ok());
    Database::IndexOptions iopts;
    iopts.keys_blocks = 32;
    iopts.bloom_blocks = 8;
    EXPECT_TRUE(db_.CreateKeyIndex("people", "city", iopts).ok());
    const char* cities[] = {"lyon", "paris", "nice"};
    for (uint64_t i = 0; i < 120; ++i) {
      Tuple t = {Value::U64(i), Value::Str(cities[i % 3]),
                 Value::I64(static_cast<int64_t>(20 + i % 40)),
                 Value::F64(static_cast<double>(i) / 10.0)};
      EXPECT_TRUE(db_.Insert("people", t).ok());
    }
    // A bulk of extra rows in many other cities so that equality on one
    // city is selective — the regime where the index route pays off.
    for (uint64_t i = 120; i < 3000; ++i) {
      Tuple t = {Value::U64(i),
                 Value::Str("bulk-city-" + std::to_string(i % 300)),
                 Value::I64(200), Value::F64(0.0)};
      EXPECT_TRUE(db_.Insert("people", t).ok());
    }
  }

  static flash::Geometry Geometry() {
    flash::Geometry g;
    g.page_size = 512;
    g.pages_per_block = 8;
    g.block_count = 1024;
    return g;
  }

  int Count(const std::string& sql) {
    int n = 0;
    Status s = db_.Query(sql, [&](const Tuple&) {
      ++n;
      return Status::Ok();
    });
    EXPECT_TRUE(s.ok()) << sql << ": " << s.ToString();
    return n;
  }

  flash::FlashChip chip_;
  mcu::RamGauge gauge_;
  Database db_;
};

TEST_F(DatabaseQueryTest, FullScanQuery) {
  EXPECT_EQ(Count("SELECT * FROM people"), 3000);
}

TEST_F(DatabaseQueryTest, FilterQuery) {
  EXPECT_EQ(Count("SELECT * FROM people WHERE age < 25"), 15);
  EXPECT_EQ(Count("SELECT * FROM people WHERE score >= 11.9"), 1);
  EXPECT_EQ(Count("SELECT * FROM people WHERE age = 200"), 2880);
}

TEST_F(DatabaseQueryTest, IndexRoutedEqualityMatchesScan) {
  // The same query through the index (city is indexed) and by forcing a
  // scan (predicate order irrelevant) must agree.
  int via_planner = Count("SELECT * FROM people WHERE city = 'lyon'");
  Predicate p{1, Predicate::Op::kEq, Value::Str("lyon")};
  int via_scan = 0;
  ASSERT_TRUE(db_.SelectScan("people", {p},
                             [&](uint64_t, const Tuple&) {
                               ++via_scan;
                               return Status::Ok();
                             })
                  .ok());
  EXPECT_EQ(via_planner, via_scan);
  EXPECT_EQ(via_planner, 40);
}

TEST_F(DatabaseQueryTest, IndexRouteUsesFewerReads) {
  chip_.ResetStats();
  (void)Count("SELECT * FROM people WHERE city = 'nice'");
  uint64_t indexed_reads = chip_.stats().page_reads;
  chip_.ResetStats();
  (void)Count("SELECT * FROM people WHERE age = 25");  // no index on age
  uint64_t scan_reads = chip_.stats().page_reads;
  EXPECT_LT(indexed_reads, scan_reads);
}

TEST_F(DatabaseQueryTest, ResidualPredicatesApplied) {
  int n = Count(
      "SELECT id FROM people WHERE city = 'lyon' AND age < 25");
  // lyon rows are i % 3 == 0; age = 20 + i % 40 < 25 -> i % 40 < 5.
  int expected = 0;
  for (int i = 0; i < 120; ++i) {
    if (i % 3 == 0 && i % 40 < 5) ++expected;
  }
  EXPECT_EQ(n, expected);
}

TEST_F(DatabaseQueryTest, IndexRoutedEqualityRechecksLongStrings) {
  // Index keys keep only the first Value::kKeyWidth (24) bytes of a string,
  // so the index lists both rows below under either name; the routed
  // equality itself must still be checked on every fetched tuple.
  const std::string prefix(Value::kKeyWidth, 'a');
  ASSERT_TRUE(db_.Insert("people", {Value::U64(5000),
                                    Value::Str(prefix + "-alice"),
                                    Value::I64(30), Value::F64(1.0)})
                  .ok());
  ASSERT_TRUE(db_.Insert("people", {Value::U64(5001),
                                    Value::Str(prefix + "-bob"),
                                    Value::I64(40), Value::F64(2.0)})
                  .ok());
  auto ids = [&](const std::string& sql) {
    std::vector<uint64_t> out;
    Status s = db_.Query(sql, [&](const Tuple& t) {
      out.push_back(t[0].AsU64());
      return Status::Ok();
    });
    EXPECT_TRUE(s.ok()) << sql << ": " << s.ToString();
    return out;
  };
  auto count = [&](const std::string& sql) {
    double n = -1;
    Status s = db_.Query(sql, [&](const Tuple& t) {
      n = t[0].AsF64();
      return Status::Ok();
    });
    EXPECT_TRUE(s.ok()) << sql << ": " << s.ToString();
    return n;
  };
  for (bool reorganized : {false, true}) {
    SCOPED_TRACE(reorganized ? "tree + delta" : "key log");
    EXPECT_EQ(ids("SELECT id FROM people WHERE city = '" + prefix +
                  "-alice'"),
              (std::vector<uint64_t>{5000}));
    EXPECT_EQ(ids("SELECT id FROM people WHERE city = '" + prefix + "-bob'"),
              (std::vector<uint64_t>{5001}));
    EXPECT_EQ(count("SELECT COUNT(*) FROM people WHERE city = '" + prefix +
                    "-bob'"),
              1.0);
    EXPECT_TRUE(ids("SELECT id FROM people WHERE city = '" + prefix + "'")
                    .empty());
    if (!reorganized) {
      ASSERT_TRUE(db_.ReorganizeIndex("people", "city").ok());
    }
  }
}

TEST_F(DatabaseQueryTest, ProjectionShapes) {
  ASSERT_TRUE(db_.Query("SELECT city, id FROM people WHERE id = 7",
                        [&](const Tuple& t) {
                          EXPECT_EQ(t.size(), 2u);
                          EXPECT_EQ(t[0].AsStr(), "paris");
                          EXPECT_EQ(t[1].AsU64(), 7u);
                          return Status::Ok();
                        })
                  .ok());
}

TEST_F(DatabaseQueryTest, ErrorsSurface) {
  auto noop = [](const Tuple&) { return Status::Ok(); };
  EXPECT_EQ(db_.Query("SELECT * FROM ghosts", noop).code(),
            StatusCode::kNotFound);
  EXPECT_EQ(db_.Query("SELECT nope FROM people", noop).code(),
            StatusCode::kNotFound);
  EXPECT_EQ(db_.Query("not sql at all", noop).code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace pds::embdb

#include <gtest/gtest.h>

#include <cstring>

#include "embdb/schema.h"
#include "embdb/value.h"

namespace pds::embdb {
namespace {

TEST(ValueTest, TypeTags) {
  EXPECT_EQ(Value::U64(1).type(), ColumnType::kUint64);
  EXPECT_EQ(Value::I64(-1).type(), ColumnType::kInt64);
  EXPECT_EQ(Value::F64(1.5).type(), ColumnType::kDouble);
  EXPECT_EQ(Value::Str("x").type(), ColumnType::kString);
}

TEST(ValueTest, Accessors) {
  EXPECT_EQ(Value::U64(42).AsU64(), 42u);
  EXPECT_EQ(Value::I64(-42).AsI64(), -42);
  EXPECT_DOUBLE_EQ(Value::F64(3.25).AsF64(), 3.25);
  EXPECT_EQ(Value::Str("lyon").AsStr(), "lyon");
}

TEST(ValueTest, CompareWithinTypes) {
  EXPECT_LT(Value::Compare(Value::U64(1), Value::U64(2)), 0);
  EXPECT_EQ(Value::Compare(Value::U64(7), Value::U64(7)), 0);
  EXPECT_LT(Value::Compare(Value::I64(-5), Value::I64(3)), 0);
  EXPECT_LT(Value::Compare(Value::F64(-0.5), Value::F64(0.25)), 0);
  EXPECT_LT(Value::Compare(Value::Str("abc"), Value::Str("abd")), 0);
  EXPECT_GT(Value::Compare(Value::Str("b"), Value::Str("abc")), 0);
}

TEST(ValueTest, ToString) {
  EXPECT_EQ(Value::U64(5).ToString(), "5");
  EXPECT_EQ(Value::I64(-5).ToString(), "-5");
  EXPECT_EQ(Value::Str("hi").ToString(), "hi");
}

// Property: EncodeKey preserves order under memcmp, for every type.
template <typename Gen>
void CheckKeyOrder(Gen gen, int n) {
  for (int i = 0; i < n; ++i) {
    Value a = gen(i);
    Value b = gen(i + 1);
    uint8_t ka[Value::kKeyWidth], kb[Value::kKeyWidth];
    a.EncodeKey(ka);
    b.EncodeKey(kb);
    int vcmp = Value::Compare(a, b);
    int kcmp = std::memcmp(ka, kb, Value::kKeyWidth);
    if (vcmp < 0) {
      EXPECT_LT(kcmp, 0) << a.ToString() << " vs " << b.ToString();
    } else if (vcmp == 0) {
      EXPECT_EQ(kcmp, 0);
    } else {
      EXPECT_GT(kcmp, 0);
    }
  }
}

TEST(ValueKeyTest, U64OrderPreserved) {
  uint64_t samples[] = {0, 1, 255, 256, 65535, 1u << 20, 0xFFFFFFFFu,
                        0x100000000ULL, 0xFFFFFFFFFFFFFFFFULL - 1};
  for (size_t i = 0; i + 1 < std::size(samples); ++i) {
    CheckKeyOrder([&](int j) { return Value::U64(samples[i + j]); }, 1);
  }
}

TEST(ValueKeyTest, I64OrderAcrossSign) {
  int64_t samples[] = {INT64_MIN, -1000000, -1, 0, 1, 1000000, INT64_MAX};
  for (size_t i = 0; i + 1 < std::size(samples); ++i) {
    CheckKeyOrder([&](int j) { return Value::I64(samples[i + j]); }, 1);
  }
}

TEST(ValueKeyTest, DoubleOrderAcrossSign) {
  double samples[] = {-1e300, -1.5, -1e-300, 0.0, 1e-300, 1.5, 1e300};
  for (size_t i = 0; i + 1 < std::size(samples); ++i) {
    CheckKeyOrder([&](int j) { return Value::F64(samples[i + j]); }, 1);
  }
}

TEST(ValueKeyTest, StringOrder) {
  const char* samples[] = {"", "a", "ab", "abc", "b", "lyon", "paris"};
  for (size_t i = 0; i + 1 < std::size(samples); ++i) {
    CheckKeyOrder(
        [&](int j) { return Value::Str(samples[i + j]); }, 1);
  }
}

TEST(ValueKeyTest, LongStringsTruncateToPrefix) {
  std::string long1(40, 'x'), long2(40, 'x');
  long2[39] = 'y';  // differ only beyond the key width
  uint8_t k1[Value::kKeyWidth], k2[Value::kKeyWidth];
  Value::Str(long1).EncodeKey(k1);
  Value::Str(long2).EncodeKey(k2);
  EXPECT_EQ(std::memcmp(k1, k2, Value::kKeyWidth), 0);
}

TEST(ValueKeyTest, SignedZerosShareOneKey) {
  // Compare holds -0.0 == +0.0, so an index lookup for either must find
  // rows holding the other.
  ASSERT_EQ(Value::Compare(Value::F64(-0.0), Value::F64(0.0)), 0);
  uint8_t neg[Value::kKeyWidth], pos[Value::kKeyWidth];
  Value::F64(-0.0).EncodeKey(neg);
  Value::F64(0.0).EncodeKey(pos);
  EXPECT_EQ(std::memcmp(neg, pos, Value::kKeyWidth), 0);
  uint8_t below[Value::kKeyWidth];
  Value::F64(-1e-300).EncodeKey(below);
  EXPECT_LT(std::memcmp(below, pos, Value::kKeyWidth), 0);
}

TEST(TupleCodecTest, RoundTripAllTypes) {
  std::vector<ColumnType> types = {ColumnType::kUint64, ColumnType::kInt64,
                                   ColumnType::kDouble, ColumnType::kString};
  Tuple in = {Value::U64(7), Value::I64(-9), Value::F64(2.5),
              Value::Str("hello world")};
  Bytes encoded;
  EncodeTuple(types, in, &encoded);
  auto out = DecodeTuple(types, ByteView(encoded));
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->size(), 4u);
  EXPECT_EQ((*out)[0].AsU64(), 7u);
  EXPECT_EQ((*out)[1].AsI64(), -9);
  EXPECT_DOUBLE_EQ((*out)[2].AsF64(), 2.5);
  EXPECT_EQ((*out)[3].AsStr(), "hello world");
}

TEST(TupleCodecTest, EmptyStringAndZeroValues) {
  std::vector<ColumnType> types = {ColumnType::kString, ColumnType::kUint64};
  Tuple in = {Value::Str(""), Value::U64(0)};
  Bytes encoded;
  EncodeTuple(types, in, &encoded);
  auto out = DecodeTuple(types, ByteView(encoded));
  ASSERT_TRUE(out.ok());
  EXPECT_EQ((*out)[0].AsStr(), "");
  EXPECT_EQ((*out)[1].AsU64(), 0u);
}

TEST(TupleCodecTest, DetectsTruncation) {
  std::vector<ColumnType> types = {ColumnType::kUint64, ColumnType::kString};
  Tuple in = {Value::U64(1), Value::Str("abcdef")};
  Bytes encoded;
  EncodeTuple(types, in, &encoded);
  encoded.resize(encoded.size() - 3);
  EXPECT_EQ(DecodeTuple(types, ByteView(encoded)).status().code(),
            StatusCode::kCorruption);
}

Schema PersonSchema() {
  return Schema("person", {{"id", ColumnType::kUint64, ""},
                           {"name", ColumnType::kString, ""},
                           {"age", ColumnType::kInt64, ""}});
}

TEST(SchemaTest, ColumnIndex) {
  Schema s = PersonSchema();
  EXPECT_EQ(s.ColumnIndex("id"), 0);
  EXPECT_EQ(s.ColumnIndex("age"), 2);
  EXPECT_EQ(s.ColumnIndex("missing"), -1);
}

TEST(SchemaTest, ValidateAcceptsMatching) {
  Schema s = PersonSchema();
  Tuple t = {Value::U64(1), Value::Str("ada"), Value::I64(36)};
  EXPECT_TRUE(s.Validate(t).ok());
}

TEST(SchemaTest, ValidateRejectsArity) {
  Schema s = PersonSchema();
  Tuple t = {Value::U64(1)};
  EXPECT_EQ(s.Validate(t).code(), StatusCode::kInvalidArgument);
}

TEST(SchemaTest, ValidateRejectsTypeMismatch) {
  Schema s = PersonSchema();
  Tuple t = {Value::U64(1), Value::U64(2), Value::I64(3)};
  EXPECT_EQ(s.Validate(t).code(), StatusCode::kInvalidArgument);
}

TEST(SchemaTest, ColumnTypesExtracted) {
  auto types = PersonSchema().ColumnTypes();
  ASSERT_EQ(types.size(), 3u);
  EXPECT_EQ(types[1], ColumnType::kString);
}

}  // namespace
}  // namespace pds::embdb

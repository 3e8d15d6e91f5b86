#ifndef PDS_EMBDB_VALUE_H_
#define PDS_EMBDB_VALUE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "common/bytes.h"
#include "common/result.h"
#include "common/status.h"

namespace pds::embdb {

/// Column types supported by the embedded engine.
enum class ColumnType : uint8_t {
  kUint64 = 0,
  kInt64 = 1,
  kDouble = 2,
  kString = 3,
};

std::string_view ColumnTypeName(ColumnType type);

/// A single cell value. Cheap to copy for numerics; strings own their data.
class Value {
 public:
  Value() : type_(ColumnType::kUint64), num_(0) {}

  static Value U64(uint64_t v);
  static Value I64(int64_t v);
  static Value F64(double v);
  static Value Str(std::string v);

  ColumnType type() const { return type_; }

  uint64_t AsU64() const { return num_; }
  int64_t AsI64() const { return static_cast<int64_t>(num_); }
  double AsF64() const { return dbl_; }
  const std::string& AsStr() const { return str_; }
  /// The numeric payload as a double (0 for a string): aggregate input.
  double ToDouble() const;

  /// Total order within one type; comparing across types orders by type tag
  /// (callers normally compare same-typed values).
  static int Compare(const Value& a, const Value& b);

  /// Debug/CSV rendering.
  std::string ToString() const;

  /// Order-preserving fixed-width encoding (kKeyWidth bytes): memcmp order
  /// equals Value order within a type. Strings longer than the key width are
  /// truncated (documented index-prefix behaviour); numerics are exact.
  /// -0.0 and +0.0 share one key, as Compare holds them equal.
  static constexpr size_t kKeyWidth = 24;
  void EncodeKey(uint8_t out[kKeyWidth]) const;

  friend bool operator==(const Value& a, const Value& b) {
    return Compare(a, b) == 0;
  }
  friend bool operator<(const Value& a, const Value& b) {
    return Compare(a, b) < 0;
  }

 private:
  friend Status DecodeTupleInto(const std::vector<ColumnType>& types,
                                ByteView in, std::vector<Value>* tuple);
  friend Status DecodeFixedColumn(ColumnType type, ByteView record,
                                  size_t offset, Value* out);

  /// Turn this value into what U64/I64/F64 (from the 8 encoded bytes
  /// `bits`) or Str would build, keeping the string's capacity for reuse.
  void AssignNumeric(ColumnType type, uint64_t bits);
  void AssignString(ByteView bytes);

  ColumnType type_;
  uint64_t num_ = 0;  // kUint64 / kInt64 payload
  double dbl_ = 0.0;  // kDouble payload
  std::string str_;   // kString payload
};

/// A row: one Value per schema column.
using Tuple = std::vector<Value>;

/// Serializes a tuple as a byte record given the column types.
void EncodeTuple(const std::vector<ColumnType>& types, const Tuple& tuple,
                 Bytes* out);
/// Decodes a record produced by EncodeTuple.
[[nodiscard]] Result<Tuple> DecodeTuple(const std::vector<ColumnType>& types, ByteView in);
/// As DecodeTuple, into `tuple`, reusing its values' storage (a scan decodes
/// every row into one Tuple). On error `tuple` holds a partial row.
[[nodiscard]] Status DecodeTupleInto(const std::vector<ColumnType>& types,
                                     ByteView in, Tuple* tuple);
/// Checks that `in` holds a whole record of `types` (Corruption where
/// DecodeTuple would fail) without building any Value.
[[nodiscard]] Status ValidateRecord(const std::vector<ColumnType>& types,
                                    ByteView in);

/// Byte offset of `column` in every record of `types` when that column is
/// numeric and all columns before it are numeric (8 bytes each); -1 when the
/// column is a string, follows a string, or is out of range.
int FixedColumnOffset(const std::vector<ColumnType>& types, int column);
/// Reads the numeric column of `type` at byte `offset` of an encoded record
/// into `out`. Corruption when the record ends before the column does.
[[nodiscard]] Status DecodeFixedColumn(ColumnType type, ByteView record,
                                       size_t offset, Value* out);

}  // namespace pds::embdb

#endif  // PDS_EMBDB_VALUE_H_

#include "embdb/value.h"

#include <cmath>
#include <cstring>

namespace pds::embdb {

std::string_view ColumnTypeName(ColumnType type) {
  switch (type) {
    case ColumnType::kUint64:
      return "UINT64";
    case ColumnType::kInt64:
      return "INT64";
    case ColumnType::kDouble:
      return "DOUBLE";
    case ColumnType::kString:
      return "STRING";
  }
  return "UNKNOWN";
}

Value Value::U64(uint64_t v) {
  Value out;
  out.type_ = ColumnType::kUint64;
  out.num_ = v;
  return out;
}

Value Value::I64(int64_t v) {
  Value out;
  out.type_ = ColumnType::kInt64;
  out.num_ = static_cast<uint64_t>(v);
  return out;
}

Value Value::F64(double v) {
  Value out;
  out.type_ = ColumnType::kDouble;
  out.dbl_ = v;
  return out;
}

Value Value::Str(std::string v) {
  Value out;
  out.type_ = ColumnType::kString;
  out.str_ = std::move(v);
  return out;
}

int Value::Compare(const Value& a, const Value& b) {
  if (a.type_ != b.type_) {
    return a.type_ < b.type_ ? -1 : 1;
  }
  switch (a.type_) {
    case ColumnType::kUint64:
      if (a.num_ != b.num_) return a.num_ < b.num_ ? -1 : 1;
      return 0;
    case ColumnType::kInt64: {
      int64_t x = a.AsI64(), y = b.AsI64();
      if (x != y) return x < y ? -1 : 1;
      return 0;
    }
    case ColumnType::kDouble:
      if (a.dbl_ != b.dbl_) return a.dbl_ < b.dbl_ ? -1 : 1;
      return 0;
    case ColumnType::kString:
      return a.str_.compare(b.str_) < 0   ? -1
             : a.str_.compare(b.str_) > 0 ? 1
                                          : 0;
  }
  return 0;
}

void Value::AssignNumeric(ColumnType type, uint64_t bits) {
  type_ = type;
  num_ = type == ColumnType::kDouble ? 0 : bits;
  dbl_ = 0.0;
  if (type == ColumnType::kDouble) {
    std::memcpy(&dbl_, &bits, 8);
  }
  str_.clear();
}

void Value::AssignString(ByteView bytes) {
  type_ = ColumnType::kString;
  num_ = 0;
  dbl_ = 0.0;
  str_.assign(reinterpret_cast<const char*>(bytes.data()), bytes.size());
}

double Value::ToDouble() const {
  switch (type_) {
    case ColumnType::kUint64:
      return static_cast<double>(num_);
    case ColumnType::kInt64:
      return static_cast<double>(AsI64());
    case ColumnType::kDouble:
      return dbl_;
    case ColumnType::kString:
      return 0.0;
  }
  return 0.0;
}

std::string Value::ToString() const {
  switch (type_) {
    case ColumnType::kUint64:
      return std::to_string(num_);
    case ColumnType::kInt64:
      return std::to_string(AsI64());
    case ColumnType::kDouble:
      return std::to_string(dbl_);
    case ColumnType::kString:
      return str_;
  }
  return "";
}

void Value::EncodeKey(uint8_t out[kKeyWidth]) const {
  std::memset(out, 0, kKeyWidth);
  switch (type_) {
    case ColumnType::kUint64: {
      // Big-endian in the first 8 bytes.
      for (int i = 0; i < 8; ++i) {
        out[i] = static_cast<uint8_t>(num_ >> (56 - 8 * i));
      }
      break;
    }
    case ColumnType::kInt64: {
      // Flip the sign bit so negative < positive under memcmp.
      uint64_t biased = num_ ^ 0x8000000000000000ULL;
      for (int i = 0; i < 8; ++i) {
        out[i] = static_cast<uint8_t>(biased >> (56 - 8 * i));
      }
      break;
    }
    case ColumnType::kDouble: {
      // IEEE-754 total-order trick: flip all bits of negatives, flip the
      // sign bit of positives.
      double d = dbl_ == 0.0 ? 0.0 : dbl_;  // -0.0 == +0.0
      uint64_t bits;
      std::memcpy(&bits, &d, 8);
      if (bits & 0x8000000000000000ULL) {
        bits = ~bits;
      } else {
        bits |= 0x8000000000000000ULL;
      }
      for (int i = 0; i < 8; ++i) {
        out[i] = static_cast<uint8_t>(bits >> (56 - 8 * i));
      }
      break;
    }
    case ColumnType::kString: {
      size_t n = std::min(str_.size(), kKeyWidth);
      std::memcpy(out, str_.data(), n);
      break;
    }
  }
}

void EncodeTuple(const std::vector<ColumnType>& types, const Tuple& tuple,
                 Bytes* out) {
  for (size_t i = 0; i < types.size() && i < tuple.size(); ++i) {
    const Value& v = tuple[i];
    switch (types[i]) {
      case ColumnType::kUint64:
      case ColumnType::kInt64:
        PutU64(out, v.AsU64());
        break;
      case ColumnType::kDouble: {
        double d = v.AsF64();
        uint64_t bits;
        std::memcpy(&bits, &d, 8);
        PutU64(out, bits);
        break;
      }
      case ColumnType::kString:
        PutLengthPrefixed(out, ByteView(std::string_view(v.AsStr())));
        break;
    }
  }
}

namespace {

Status Truncated(ColumnType type) {
  return Status::Corruption("truncated tuple (" +
                            std::string(ColumnTypeName(type)) + ")");
}

// Walks one encoded record column by column, handing `on_column` each
// column's index and bytes (8 for a numeric, the payload for a string).
// Corruption as soon as a column would run past the end of `in`.
template <typename OnColumn>
Status WalkRecord(const std::vector<ColumnType>& types, ByteView in,
                  OnColumn&& on_column) {
  size_t pos = 0;
  for (size_t i = 0; i < types.size(); ++i) {
    ByteView field;
    if (types[i] == ColumnType::kString) {
      if (!GetLengthPrefixed(in, &pos, &field)) {
        return Truncated(types[i]);
      }
    } else {
      if (pos + 8 > in.size()) {
        return Truncated(types[i]);
      }
      field = in.subview(pos, 8);
      pos += 8;
    }
    on_column(i, field);
  }
  return Status::Ok();
}

}  // namespace

Result<Tuple> DecodeTuple(const std::vector<ColumnType>& types, ByteView in) {
  Tuple tuple;
  PDS_RETURN_IF_ERROR(DecodeTupleInto(types, in, &tuple));
  return tuple;
}

Status DecodeTupleInto(const std::vector<ColumnType>& types, ByteView in,
                       Tuple* tuple) {
  tuple->resize(types.size());
  return WalkRecord(types, in, [&](size_t i, ByteView field) {
    Value& v = (*tuple)[i];
    if (types[i] == ColumnType::kString) {
      v.AssignString(field);
    } else {
      v.AssignNumeric(types[i], GetU64(field.data()));
    }
  });
}

Status ValidateRecord(const std::vector<ColumnType>& types, ByteView in) {
  return WalkRecord(types, in, [](size_t, ByteView) {});
}

int FixedColumnOffset(const std::vector<ColumnType>& types, int column) {
  if (column < 0 || static_cast<size_t>(column) >= types.size()) {
    return -1;
  }
  for (int i = 0; i <= column; ++i) {
    if (types[static_cast<size_t>(i)] == ColumnType::kString) {
      return -1;
    }
  }
  return 8 * column;
}

Status DecodeFixedColumn(ColumnType type, ByteView record, size_t offset,
                         Value* out) {
  if (type == ColumnType::kString) {
    return Status::InvalidArgument("strings have no fixed offset");
  }
  if (offset > record.size() || record.size() - offset < 8) {
    return Truncated(type);
  }
  out->AssignNumeric(type, GetU64(record.data() + offset));
  return Status::Ok();
}

}  // namespace pds::embdb

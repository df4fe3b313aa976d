#include "sql/record.h"

#include <algorithm>
#include <cstring>

#include "common/coding.h"

namespace xftl::sql {

namespace {

// One value of an encoded record, where it lies in the buffer.
struct EncodedValue {
  ValueType type = ValueType::kNull;
  const uint8_t* data = nullptr;  // int/real: 8 bytes; text/blob: the bytes
  uint32_t size = 0;              // text/blob length
};

// Reads the value at data[*off] and advances *off past it. This is the one
// parser of a value's tag and length; it returns null, or what is wrong when
// the value is truncated or its tag is bad. Inline: key compares call it
// for every value.
inline const char* ReadValue(const uint8_t* data, size_t size, size_t* off,
                             EncodedValue* v) {
  if (*off >= size) return "record truncated";
  v->type = ValueType(data[(*off)++]);
  size_t len = 0;
  switch (v->type) {
    case ValueType::kNull:
      break;
    case ValueType::kInt:
    case ValueType::kReal:
      len = 8;
      break;
    case ValueType::kText:
    case ValueType::kBlob:
      if (*off + 4 > size) return "record truncated";
      len = DecodeFixed32(data + *off);
      *off += 4;
      break;
    default:
      return "bad value tag";
  }
  if (len > size - *off) return "record truncated";
  v->data = data + *off;
  v->size = uint32_t(len);
  *off += len;
  return nullptr;
}

int64_t IntOf(const EncodedValue& v) { return int64_t(DecodeFixed64(v.data)); }

double RealOf(const EncodedValue& v) {
  if (v.type == ValueType::kInt) return double(IntOf(v));
  double d;
  std::memcpy(&d, v.data, 8);
  return d;
}

template <typename T>
int Sign(T a, T b) {
  return a < b ? -1 : (a > b ? 1 : 0);
}

// Value::Compare on two encoded values.
int CompareValues(const EncodedValue& x, const EncodedValue& y) {
  if (x.type == ValueType::kInt && y.type == ValueType::kInt) {
    return Sign(IntOf(x), IntOf(y));
  }
  // Type class, indexed by ValueType: null < numeric < text < blob.
  static constexpr int kClass[] = {0, 1, 1, 2, 3};
  const int cx = kClass[int(x.type)], cy = kClass[int(y.type)];
  if (cx != cy) return cx < cy ? -1 : 1;
  switch (cx) {
    case 0:
      return 0;
    case 1:  // mixed numerics compare as doubles
      return Sign(RealOf(x), RealOf(y));
    default: {
      // Text and blob: bytewise unsigned, then shorter first.
      const int c = std::memcmp(x.data, y.data, std::min(x.size, y.size));
      if (c != 0) return c < 0 ? -1 : 1;
      return Sign(x.size, y.size);
    }
  }
}

}  // namespace

std::vector<uint8_t> EncodeRecord(const Row& row) {
  std::vector<uint8_t> out;
  out.resize(2);
  EncodeFixed16(out.data(), uint16_t(row.size()));
  for (const Value& v : row) {
    out.push_back(uint8_t(v.type()));
    switch (v.type()) {
      case ValueType::kNull:
        break;
      case ValueType::kInt: {
        uint8_t buf[8];
        EncodeFixed64(buf, uint64_t(v.AsInt()));
        out.insert(out.end(), buf, buf + 8);
        break;
      }
      case ValueType::kReal: {
        uint8_t buf[8];
        double d = v.AsReal();
        std::memcpy(buf, &d, 8);
        out.insert(out.end(), buf, buf + 8);
        break;
      }
      case ValueType::kText: {
        const std::string& s = v.text();
        uint8_t buf[4];
        EncodeFixed32(buf, uint32_t(s.size()));
        out.insert(out.end(), buf, buf + 4);
        out.insert(out.end(), s.begin(), s.end());
        break;
      }
      case ValueType::kBlob: {
        const auto& b = v.blob();
        uint8_t buf[4];
        EncodeFixed32(buf, uint32_t(b.size()));
        out.insert(out.end(), buf, buf + 4);
        out.insert(out.end(), b.begin(), b.end());
        break;
      }
    }
  }
  return out;
}

StatusOr<Row> DecodeRecord(const uint8_t* data, size_t size) {
  if (size < 2) return Status::Corruption("record too short");
  uint16_t count = DecodeFixed16(data);
  size_t off = 2;
  Row row;
  row.reserve(count);
  for (uint16_t i = 0; i < count; ++i) {
    EncodedValue v;
    if (const char* error = ReadValue(data, size, &off, &v)) {
      return Status::Corruption(error);
    }
    switch (v.type) {
      case ValueType::kNull:
        row.push_back(Value::Null());
        break;
      case ValueType::kInt:
        row.push_back(Value::Int(IntOf(v)));
        break;
      case ValueType::kReal:
        row.push_back(Value::Real(RealOf(v)));
        break;
      case ValueType::kText:
        row.push_back(Value::Text(
            std::string(reinterpret_cast<const char*>(v.data), v.size)));
        break;
      case ValueType::kBlob:
        row.push_back(
            Value::Blob(std::vector<uint8_t>(v.data, v.data + v.size)));
        break;
    }
  }
  return row;
}

int CompareEncodedRecords(const uint8_t* a, size_t a_size, const uint8_t* b,
                          size_t b_size) {
  CHECK(a_size >= 2 && b_size >= 2) << "comparing corrupt records";
  const uint16_t na = DecodeFixed16(a), nb = DecodeFixed16(b);
  // One pass: compare up to the first difference, and read on to the end of
  // both so that each is validated whole.
  size_t off_a = 2, off_b = 2;
  int result = 0;
  for (uint16_t i = 0; i < std::max(na, nb); ++i) {
    EncodedValue x, y;
    const bool has_x = i < na, has_y = i < nb;
    CHECK((!has_x || ReadValue(a, a_size, &off_a, &x) == nullptr) &&
          (!has_y || ReadValue(b, b_size, &off_b, &y) == nullptr))
        << "comparing corrupt records";
    if (result == 0 && has_x && has_y) result = CompareValues(x, y);
  }
  return result != 0 ? result : Sign(na, nb);
}

}  // namespace xftl::sql

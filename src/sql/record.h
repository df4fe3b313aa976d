// Record serialization: a row (or index key) is a vector of Values encoded
// as a compact, order-preserving-enough byte string. Layout:
//
//   u16 count | per value: u8 type tag + payload
//     int  -> 8 bytes LE        real -> 8 bytes LE (IEEE)
//     text -> u32 len + bytes   blob -> u32 len + bytes
//
// Records are compared value by value in Value::Compare order, not by
// memcmp, so the encoding only needs to round-trip.
#ifndef XFTL_SQL_RECORD_H_
#define XFTL_SQL_RECORD_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "sql/value.h"

namespace xftl::sql {

using Row = std::vector<Value>;

// Serializes `row` into bytes.
std::vector<uint8_t> EncodeRecord(const Row& row);

// Parses a record; fails on truncation or bad tags.
StatusOr<Row> DecodeRecord(const uint8_t* data, size_t size);
inline StatusOr<Row> DecodeRecord(const std::vector<uint8_t>& buf) {
  return DecodeRecord(buf.data(), buf.size());
}

// Lexicographic comparison of two encoded records, value by value in
// Value::Compare order, read in place without decoding; shorter record sorts
// first on ties. CHECK-fails when either record is malformed.
int CompareEncodedRecords(const uint8_t* a, size_t a_size, const uint8_t* b,
                          size_t b_size);

}  // namespace xftl::sql

#endif  // XFTL_SQL_RECORD_H_

#ifndef MPPDB_RUNTIME_SPILL_ROW_CODEC_H_
#define MPPDB_RUNTIME_SPILL_ROW_CODEC_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "types/row.h"

namespace mppdb {

/// Binary serialization for rows spilled to disk. The format is
/// self-describing per datum (a one-byte type tag followed by a
/// little-endian fixed-width payload, or a u32-length-prefixed byte string),
/// so a decoded row reproduces the exact Datum — type id included — that was
/// encoded. Spilling must be stats-only-visible (DESIGN.md invariant 14);
/// a codec that widened int32 to int64 or dropped the date/int32 distinction
/// would change downstream hashing and rendering, so the tag preserves the
/// TypeId verbatim.
///
/// Batch framing: u32 row count, u32 payload byte count, then the rows
/// back to back (each row is u32 datum count + datums). The payload length
/// lets a reader pull one batch with two reads and detect truncation.

/// Encodes `count` rows as a batch body (rows only, no framing header) into
/// `out`, replacing its contents: rows[order[i]] for i < count when `order`
/// is given, else rows[0, count).
void EncodeBatchBody(const Row* rows, size_t count, const uint32_t* order,
                     std::string* out);

/// Decodes `num_rows` rows from the `size` bytes at `data`, a batch body
/// produced by EncodeBatchBody, appending them to `rows`. A truncated body,
/// an unknown datum tag or trailing bytes fail with kInternal and leave
/// `rows` as it was.
Status DecodeBatchBody(const char* data, size_t size, uint32_t num_rows,
                       std::vector<Row>* rows);

/// Heap payload bytes of a datum beyond its fixed Datum slot: the string
/// length for strings, zero otherwise. Charge sites add this on top of
/// MemoryBudget::ApproxRowsBytes so wide-varchar builds don't undercharge
/// and defeat the spill trigger.
size_t DatumPayloadBytes(const Datum& value);

/// Sum of DatumPayloadBytes over every datum in `row`.
size_t RowPayloadBytes(const Row& row);

/// Sum of RowPayloadBytes over rows[begin, end).
size_t RowsPayloadBytes(const std::vector<Row>& rows, size_t begin, size_t end);

/// Sum of RowPayloadBytes over all rows.
size_t RowsPayloadBytes(const std::vector<Row>& rows);

}  // namespace mppdb

#endif  // MPPDB_RUNTIME_SPILL_ROW_CODEC_H_

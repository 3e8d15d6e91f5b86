#ifndef PDS_EMBDB_TABLE_HEAP_H_
#define PDS_EMBDB_TABLE_HEAP_H_

#include <cstdint>
#include <set>

#include "common/result.h"
#include "embdb/schema.h"
#include "flash/flash.h"
#include "logstore/sequential_log.h"

namespace pds::embdb {

/// Tuples of one table stored in a sequential record log, with a rowid
/// directory (also a log) for random access.
///
/// rowids are dense, assigned 0,1,2,... at insertion. The directory holds
/// one fixed-width entry per rowid (the record's byte address in the data
/// log), so fetching a tuple by rowid costs one directory page read plus the
/// data page read(s) — the "1 IO per result" access path of Part II.
///
/// Deletion — the PDS owner's "right to be forgotten" — is log-only too:
/// a tombstone (the rowid) is appended to a third log and mirrored in a
/// small RAM set; deleted rows vanish from Get and scans. The data itself
/// is reclaimed when the table's partition is eventually compacted, as with
/// every other structure in Part II.
class TableHeap {
 public:
  TableHeap() = default;
  TableHeap(Schema schema, flash::Partition data_partition,
            flash::Partition directory_partition,
            flash::Partition tombstone_partition = flash::Partition())
      : schema_(std::move(schema)),
        types_(schema_.ColumnTypes()),
        data_(data_partition),
        directory_(directory_partition),
        tombstones_(tombstone_partition),
        has_tombstone_log_(tombstone_partition.valid()) {}

  const Schema& schema() const { return schema_; }
  const std::vector<ColumnType>& column_types() const { return types_; }
  /// Chip holding the table's data log; query profiling uses it to pin
  /// per-stage flash::Stats deltas to the executor's page accesses.
  flash::FlashChip* chip() const { return data_.chip(); }
  uint64_t num_rows() const { return num_rows_; }
  uint64_t num_live_rows() const { return num_rows_ - deleted_.size(); }
  uint32_t num_data_pages() const { return data_.num_pages_used(); }

  /// Appends a tuple; returns its rowid.
  [[nodiscard]] Result<uint64_t> Insert(const Tuple& tuple);

  /// Tombstones a row: Get returns NotFound and scans skip it.
  [[nodiscard]] Status Delete(uint64_t rowid);
  bool IsDeleted(uint64_t rowid) const { return deleted_.count(rowid) != 0; }
  uint64_t num_deleted() const { return deleted_.size(); }

  /// Random access by rowid.
  [[nodiscard]] Result<Tuple> Get(uint64_t rowid);

  /// Streams all live rows in rowid order; full scan costs one read per
  /// data page.
  class Scanner {
   public:
    explicit Scanner(TableHeap* heap)
        : heap_(heap), reader_(heap->data_.NewReader()) {}

    bool AtEnd() const { return next_rowid_ >= heap_->num_rows_; }
    /// Fetches the next row's encoded record (EncodeTuple layout) into a
    /// buffer the scanner reuses: `record` is valid until the next call.
    /// Returns OutOfRange at end.
    [[nodiscard]] Status NextRecord(uint64_t* rowid, ByteView* record);
    /// Fetches and decodes the next row into `tuple`, reusing its storage.
    /// Returns OutOfRange at end.
    [[nodiscard]] Status Next(uint64_t* rowid, Tuple* tuple);

   private:
    TableHeap* heap_;
    logstore::RecordLog::Reader reader_;
    uint64_t next_rowid_ = 0;
    Bytes record_;
  };

  Scanner NewScanner() { return Scanner(this); }

 private:
  // Directory entries are length-prefixed 8-byte addresses: 12 bytes each,
  // so entry i lives at byte offset 12 * i.
  static constexpr uint64_t kDirEntrySize = 12;

  Schema schema_;
  std::vector<ColumnType> types_;
  logstore::RecordLog data_;
  logstore::RecordLog directory_;
  logstore::RecordLog tombstones_;
  bool has_tombstone_log_ = false;
  std::set<uint64_t> deleted_;
  uint64_t num_rows_ = 0;
};

}  // namespace pds::embdb

#endif  // PDS_EMBDB_TABLE_HEAP_H_

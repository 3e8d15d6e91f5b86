#include "embdb/table_heap.h"

namespace pds::embdb {

Result<uint64_t> TableHeap::Insert(const Tuple& tuple) {
  PDS_RETURN_IF_ERROR(schema_.Validate(tuple));
  Bytes record;
  EncodeTuple(types_, tuple, &record);
  PDS_ASSIGN_OR_RETURN(uint64_t address, data_.Append(ByteView(record)));

  Bytes dir_entry;
  PutU64(&dir_entry, address);
  PDS_ASSIGN_OR_RETURN(uint64_t dir_offset,
                       directory_.Append(ByteView(dir_entry)));
  if (dir_offset != num_rows_ * kDirEntrySize) {
    return Status::Internal("directory offset drift");
  }
  return num_rows_++;
}

Status TableHeap::Delete(uint64_t rowid) {
  if (rowid >= num_rows_) {
    return Status::NotFound("rowid " + std::to_string(rowid) +
                            " beyond table " + schema_.name());
  }
  if (deleted_.count(rowid) != 0) {
    return Status::Ok();  // idempotent
  }
  if (has_tombstone_log_) {
    Bytes tomb;
    PutU64(&tomb, rowid);
    PDS_RETURN_IF_ERROR(tombstones_.Append(ByteView(tomb)).status());
  }
  deleted_.insert(rowid);
  return Status::Ok();
}

Result<Tuple> TableHeap::Get(uint64_t rowid) {
  if (rowid >= num_rows_) {
    return Status::NotFound("rowid " + std::to_string(rowid) +
                            " beyond table " + schema_.name());
  }
  if (deleted_.count(rowid) != 0) {
    return Status::NotFound("rowid " + std::to_string(rowid) +
                            " was deleted (right to be forgotten)");
  }
  Bytes dir_entry;
  PDS_RETURN_IF_ERROR(directory_.ReadAt(rowid * kDirEntrySize, &dir_entry));
  if (dir_entry.size() != 8) {
    return Status::Corruption("bad directory entry size");
  }
  uint64_t address = GetU64(dir_entry.data());
  Bytes record;
  PDS_RETURN_IF_ERROR(data_.ReadAt(address, &record));
  return DecodeTuple(types_, ByteView(record));
}

Status TableHeap::Scanner::NextRecord(uint64_t* rowid, ByteView* record) {
  // Skip tombstoned rows (the record log still streams them; the caller
  // never sees forgotten data).
  for (;;) {
    if (AtEnd()) {
      return Status::OutOfRange("end of table");
    }
    PDS_RETURN_IF_ERROR(reader_.Next(&record_));
    uint64_t current = next_rowid_++;
    if (heap_->deleted_.count(current) != 0) {
      continue;
    }
    *rowid = current;
    *record = ByteView(record_);
    return Status::Ok();
  }
}

Status TableHeap::Scanner::Next(uint64_t* rowid, Tuple* tuple) {
  ByteView record;
  PDS_RETURN_IF_ERROR(NextRecord(rowid, &record));
  return DecodeTupleInto(heap_->types_, record, tuple);
}

}  // namespace pds::embdb

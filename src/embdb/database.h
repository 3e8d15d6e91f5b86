#ifndef PDS_EMBDB_DATABASE_H_
#define PDS_EMBDB_DATABASE_H_

#include <map>
#include <memory>
#include <string>

#include "common/result.h"
#include "embdb/executor.h"
#include "embdb/join_index.h"
#include "embdb/key_index.h"
#include "embdb/reorganize.h"
#include "embdb/schema.h"
#include "embdb/table_heap.h"
#include "embdb/tree_index.h"
#include "flash/flash.h"
#include "mcu/ram_gauge.h"

namespace pds::embdb {

/// The embedded relational database of Part II: tables in sequential logs,
/// PBFilter-style key-log indexes maintained at insertion, and on-demand
/// reorganization of an index into a B-tree-like structure. After a
/// reorganization, new insertions flow into a fresh delta key-log and
/// lookups merge tree + delta — the old log simply stops growing, exactly
/// the log-only lifecycle of the tutorial.
class Database {
 public:
  struct TableOptions {
    uint32_t data_blocks = 16;
    uint32_t directory_blocks = 4;
    uint32_t tombstone_blocks = 1;
  };
  struct IndexOptions {
    KeyLogIndex::Options key_log;
    uint32_t keys_blocks = 8;
    uint32_t bloom_blocks = 2;
  };

  Database(flash::FlashChip* chip, mcu::RamGauge* gauge)
      : allocator_(chip), gauge_(gauge) {}

  [[nodiscard]] Status CreateTable(const Schema& schema, const TableOptions& options);
  TableHeap* table(const std::string& name);

  /// Inserts a tuple, maintaining every index registered on the table.
  [[nodiscard]] Result<uint64_t> Insert(const std::string& table_name, const Tuple& tuple);

  /// Tombstones a row — the owner's "right to be forgotten". Index entries
  /// keep the stale rowid (logs are immutable); every read path filters
  /// tombstoned rows out.
  [[nodiscard]] Status Delete(const std::string& table_name, uint64_t rowid);

  /// Registers a key-log index on a column; future inserts maintain it.
  /// (Create indexes before loading data, as on a real PDS.)
  [[nodiscard]] Status CreateKeyIndex(const std::string& table_name,
                        const std::string& column,
                        const IndexOptions& options);

  /// Reorganizes the index on (table, column) into a tree; new inserts go
  /// to a fresh delta key-log.
  [[nodiscard]] Status ReorganizeIndex(const std::string& table_name,
                         const std::string& column,
                         size_t sort_ram_bytes = 16 * 1024);

  /// The one planned access path. The first equality predicate on an
  /// indexed column is answered through that index (tree + delta); with no
  /// such predicate the table is scanned (ScanFilter). Either way every
  /// predicate is checked on every fetched tuple — index keys only hold a
  /// prefix of long strings — so Select emits exactly the (rowid, tuple)
  /// sequence of SelectScan, in ascending rowid order.
  [[nodiscard]] Status Select(
      const std::string& table_name,
      const std::vector<Predicate>& predicates,
      const std::function<Status(uint64_t, const Tuple&)>& emit);

  /// Equality select forced through the index on (table, column): tree (if
  /// reorganized) plus the delta key-log. NotFound without such an index.
  /// Emits (rowid, tuple) with tuple[column] == key.
  [[nodiscard]] Status SelectViaIndex(
      const std::string& table_name, const std::string& column,
      const Value& key,
      const std::function<Status(uint64_t, const Tuple&)>& emit);

  /// Full-scan select with arbitrary predicates: the no-index baseline.
  [[nodiscard]] Status SelectScan(
      const std::string& table_name,
      const std::vector<Predicate>& predicates,
      const std::function<Status(uint64_t, const Tuple&)>& emit);

  /// Textual query entry point for the embedded-SQL subset:
  ///   SELECT cols|* FROM table [WHERE col op literal [AND ...]]
  /// (and the aggregate forms of query_parser.h), answered through Select.
  /// Emits projected tuples.
  [[nodiscard]] Status Query(const std::string& sql,
               const std::function<Status(const Tuple&)>& emit);

  /// Direct access to the index structures (benchmarks, tests).
  KeyLogIndex* key_index(const std::string& table_name,
                         const std::string& column);
  TreeIndex* tree_index(const std::string& table_name,
                        const std::string& column);

  flash::PartitionAllocator* allocator() { return &allocator_; }
  mcu::RamGauge* gauge() { return gauge_; }

 private:
  struct IndexEntry {
    int column = -1;
    IndexOptions options;
    std::unique_ptr<KeyLogIndex> delta;  // receives new inserts
    std::unique_ptr<TreeIndex> tree;     // set after reorganization
  };

  [[nodiscard]] Result<std::unique_ptr<KeyLogIndex>> NewKeyLog(const IndexOptions& options);

  /// Fetches the live rows `entry` lists under `key` and emits those that
  /// satisfy every predicate, in ascending rowid order.
  [[nodiscard]] Status FetchIndexHits(
      TableHeap* heap, IndexEntry& entry, const Value& key,
      const std::vector<Predicate>& predicates,
      const std::function<Status(uint64_t, const Tuple&)>& emit);

  flash::PartitionAllocator allocator_;
  mcu::RamGauge* gauge_;
  std::map<std::string, std::unique_ptr<TableHeap>> tables_;
  // Keyed by "table.column".
  std::map<std::string, IndexEntry> indexes_;
};

}  // namespace pds::embdb

#endif  // PDS_EMBDB_DATABASE_H_

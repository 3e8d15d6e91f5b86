#include "embdb/database.h"

#include <algorithm>
#include <iterator>

#include "embdb/query_parser.h"

namespace pds::embdb {

namespace {
std::string IndexKey(const std::string& table, const std::string& column) {
  return table + "." + column;
}
}  // namespace

Status Database::CreateTable(const Schema& schema,
                             const TableOptions& options) {
  if (tables_.count(schema.name()) != 0) {
    return Status::AlreadyExists("table " + schema.name());
  }
  PDS_ASSIGN_OR_RETURN(flash::Partition data,
                       allocator_.Allocate(options.data_blocks));
  PDS_ASSIGN_OR_RETURN(flash::Partition dir,
                       allocator_.Allocate(options.directory_blocks));
  PDS_ASSIGN_OR_RETURN(flash::Partition tombs,
                       allocator_.Allocate(options.tombstone_blocks));
  tables_[schema.name()] =
      std::make_unique<TableHeap>(schema, data, dir, tombs);
  return Status::Ok();
}

TableHeap* Database::table(const std::string& name) {
  auto it = tables_.find(name);
  return it == tables_.end() ? nullptr : it->second.get();
}

Result<std::unique_ptr<KeyLogIndex>> Database::NewKeyLog(
    const IndexOptions& options) {
  PDS_ASSIGN_OR_RETURN(flash::Partition keys,
                       allocator_.Allocate(options.keys_blocks));
  PDS_ASSIGN_OR_RETURN(flash::Partition bloom,
                       allocator_.Allocate(options.bloom_blocks));
  auto index = std::make_unique<KeyLogIndex>(keys, bloom, gauge_,
                                             options.key_log);
  PDS_RETURN_IF_ERROR(index->Init());
  return index;
}

Status Database::CreateKeyIndex(const std::string& table_name,
                                const std::string& column,
                                const IndexOptions& options) {
  TableHeap* heap = table(table_name);
  if (heap == nullptr) {
    return Status::NotFound("table " + table_name);
  }
  int col = heap->schema().ColumnIndex(column);
  if (col < 0) {
    return Status::NotFound("column " + column + " in " + table_name);
  }
  std::string key = IndexKey(table_name, column);
  if (indexes_.count(key) != 0) {
    return Status::AlreadyExists("index on " + key);
  }
  if (heap->num_rows() != 0) {
    return Status::FailedPrecondition(
        "create indexes before loading data (log-only maintenance)");
  }
  IndexEntry entry;
  entry.column = col;
  entry.options = options;
  PDS_ASSIGN_OR_RETURN(entry.delta, NewKeyLog(options));
  indexes_[key] = std::move(entry);
  return Status::Ok();
}

Result<uint64_t> Database::Insert(const std::string& table_name,
                                  const Tuple& tuple) {
  TableHeap* heap = table(table_name);
  if (heap == nullptr) {
    return Status::NotFound("table " + table_name);
  }
  PDS_ASSIGN_OR_RETURN(uint64_t rowid, heap->Insert(tuple));
  // Maintain registered indexes.
  std::string prefix = table_name + ".";
  for (auto& [key, entry] : indexes_) {
    if (key.rfind(prefix, 0) == 0) {
      PDS_RETURN_IF_ERROR(entry.delta->Insert(
          tuple[static_cast<size_t>(entry.column)], rowid));
    }
  }
  return rowid;
}

Status Database::Delete(const std::string& table_name, uint64_t rowid) {
  TableHeap* heap = table(table_name);
  if (heap == nullptr) {
    return Status::NotFound("table " + table_name);
  }
  return heap->Delete(rowid);
}

Status Database::ReorganizeIndex(const std::string& table_name,
                                 const std::string& column,
                                 size_t sort_ram_bytes) {
  auto it = indexes_.find(IndexKey(table_name, column));
  if (it == indexes_.end()) {
    return Status::NotFound("no index on " + table_name + "." + column);
  }
  IndexEntry& entry = it->second;
  if (entry.tree != nullptr) {
    return Status::FailedPrecondition(
        "index already reorganized (incremental re-reorganization of "
        "tree + delta is future work, as in the paper)");
  }
  Reorganizer::Options opts;
  opts.sort_ram_bytes = sort_ram_bytes;
  PDS_ASSIGN_OR_RETURN(TreeIndex tree,
                       Reorganizer::Reorganize(entry.delta.get(), &allocator_,
                                               gauge_, opts));
  entry.tree = std::make_unique<TreeIndex>(std::move(tree));
  // Fresh delta for subsequent inserts; the old log stops growing.
  PDS_ASSIGN_OR_RETURN(entry.delta, NewKeyLog(entry.options));
  return Status::Ok();
}

Status Database::Select(
    const std::string& table_name, const std::vector<Predicate>& predicates,
    const std::function<Status(uint64_t, const Tuple&)>& emit) {
  TableHeap* heap = table(table_name);
  if (heap == nullptr) {
    return Status::NotFound("table " + table_name);
  }
  const std::vector<Column>& columns = heap->schema().columns();
  for (const Predicate& p : predicates) {
    if (p.op != Predicate::Op::kEq || p.column < 0 ||
        static_cast<size_t>(p.column) >= columns.size()) {
      continue;
    }
    auto it = indexes_.find(
        IndexKey(table_name, columns[static_cast<size_t>(p.column)].name));
    if (it != indexes_.end()) {
      return FetchIndexHits(heap, it->second, p.constant, predicates,
                                emit);
    }
  }
  return ScanFilter(heap, predicates, emit);
}

Status Database::SelectViaIndex(
    const std::string& table_name, const std::string& column,
    const Value& key,
    const std::function<Status(uint64_t, const Tuple&)>& emit) {
  TableHeap* heap = table(table_name);
  if (heap == nullptr) {
    return Status::NotFound("table " + table_name);
  }
  auto it = indexes_.find(IndexKey(table_name, column));
  if (it == indexes_.end()) {
    return Status::NotFound("no index on " + table_name + "." + column);
  }
  return FetchIndexHits(
      heap, it->second, key,
      {Predicate{it->second.column, Predicate::Op::kEq, key}}, emit);
}

Status Database::FetchIndexHits(
    TableHeap* heap, IndexEntry& entry, const Value& key,
    const std::vector<Predicate>& predicates,
    const std::function<Status(uint64_t, const Tuple&)>& emit) {
  // Both lists ascend — tree leaves are sorted by (key, rowid), the delta
  // log holds rowids in insertion order — so their union is a merge. The
  // merged list is data-dependent and is charged while rows are fetched.
  std::vector<uint64_t> rowids;
  {
    std::vector<uint64_t> from_tree;
    if (entry.tree != nullptr) {
      PDS_RETURN_IF_ERROR(entry.tree->Lookup(key, &from_tree, nullptr));
    }
    std::vector<uint64_t> from_delta;
    KeyLogIndex::LookupStats stats;
    PDS_RETURN_IF_ERROR(entry.delta->Lookup(key, &from_delta, &stats));
    rowids.reserve(from_tree.size() + from_delta.size());
    std::set_union(from_tree.begin(), from_tree.end(), from_delta.begin(),
                   from_delta.end(), std::back_inserter(rowids));
  }
  PDS_ASSIGN_OR_RETURN(
      mcu::RamCharge charge,
      mcu::RamCharge::Make(gauge_, rowids.size() * sizeof(uint64_t)));

  for (uint64_t rowid : rowids) {
    if (heap->IsDeleted(rowid)) {
      continue;  // stale index entry for a forgotten row
    }
    PDS_ASSIGN_OR_RETURN(Tuple tuple, heap->Get(rowid));
    bool pass = std::all_of(predicates.begin(), predicates.end(),
                            [&](const Predicate& p) { return p.Eval(tuple); });
    if (pass) {
      PDS_RETURN_IF_ERROR(emit(rowid, tuple));
    }
  }
  return Status::Ok();
}

Status Database::SelectScan(
    const std::string& table_name, const std::vector<Predicate>& predicates,
    const std::function<Status(uint64_t, const Tuple&)>& emit) {
  TableHeap* heap = table(table_name);
  if (heap == nullptr) {
    return Status::NotFound("table " + table_name);
  }
  return ScanFilter(heap, predicates, emit);
}

Status Database::Query(const std::string& sql,
                       const std::function<Status(const Tuple&)>& emit) {
  PDS_ASSIGN_OR_RETURN(ParsedQuery parsed, ParseSelect(sql));
  TableHeap* heap = table(parsed.table);
  if (heap == nullptr) {
    return Status::NotFound("table " + parsed.table);
  }
  PDS_ASSIGN_OR_RETURN(BoundQuery bound, Bind(parsed, heap->schema()));

  if (!bound.has_aggregate) {
    return Select(parsed.table, bound.predicates,
                  [&](uint64_t, const Tuple& tuple) {
                    return EmitProjected(tuple, bound.projection, emit);
                  });
  }

  // Aggregate queries fold the row stream into the streaming Aggregator
  // and emit one (group, value) row per group at the end.
  Aggregator aggregator(bound.agg_func, gauge_);
  PDS_RETURN_IF_ERROR(Select(
      parsed.table, bound.predicates, [&](uint64_t, const Tuple& tuple) {
        Value group = bound.group_column >= 0
                          ? tuple[static_cast<size_t>(bound.group_column)]
                          : Value::Str("*");
        double v = bound.agg_column >= 0
                       ? tuple[static_cast<size_t>(bound.agg_column)]
                             .ToDouble()
                       : 0.0;
        return aggregator.Add(group, v);
      }));
  for (const Aggregator::GroupResult& g : aggregator.Finish()) {
    Tuple row;
    if (bound.group_column >= 0) {
      row.push_back(g.group);
    }
    row.push_back(Value::F64(g.value));
    PDS_RETURN_IF_ERROR(emit(row));
  }
  return Status::Ok();
}

KeyLogIndex* Database::key_index(const std::string& table_name,
                                 const std::string& column) {
  auto it = indexes_.find(IndexKey(table_name, column));
  return it == indexes_.end() ? nullptr : it->second.delta.get();
}

TreeIndex* Database::tree_index(const std::string& table_name,
                                const std::string& column) {
  auto it = indexes_.find(IndexKey(table_name, column));
  return it == indexes_.end() ? nullptr : it->second.tree.get();
}

}  // namespace pds::embdb

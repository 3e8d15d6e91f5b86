#include "embdb/executor.h"

#include <algorithm>
#include <iomanip>
#include <sstream>
#include <unordered_map>

#include "obs/obs.h"

namespace pds::embdb {

uint64_t QueryProfile::total_page_reads() const {
  uint64_t total = 0;
  for (const StageProfile& stage : stages) {
    total += stage.flash.page_reads;
  }
  return total;
}

std::string QueryProfile::ToString() const {
  std::ostringstream out;
  out << std::left << std::setw(12) << "stage" << std::right << std::setw(9)
      << "rows_in" << std::setw(10) << "rows_out" << std::setw(12)
      << "page_reads" << std::setw(16) << "ram_peak_bytes" << "\n";
  for (const StageProfile& stage : stages) {
    out << std::left << std::setw(12) << stage.op << std::right
        << std::setw(9) << stage.rows_in << std::setw(10) << stage.rows_out
        << std::setw(12) << stage.flash.page_reads << std::setw(16)
        << stage.ram_peak_bytes << "\n";
  }
  return out.str();
}

bool Predicate::Eval(const Tuple& tuple) const {
  if (column < 0 || static_cast<size_t>(column) >= tuple.size()) {
    return false;
  }
  return Matches(tuple[static_cast<size_t>(column)]);
}

bool Predicate::Matches(const Value& value) const {
  int cmp = Value::Compare(value, constant);
  switch (op) {
    case Op::kEq:
      return cmp == 0;
    case Op::kNe:
      return cmp != 0;
    case Op::kLt:
      return cmp < 0;
    case Op::kLe:
      return cmp <= 0;
    case Op::kGt:
      return cmp > 0;
    case Op::kGe:
      return cmp >= 0;
  }
  return false;
}

Status ScanFilter(TableHeap* table, const std::vector<Predicate>& predicates,
                  const std::function<Status(uint64_t, const Tuple&)>& emit) {
  const std::vector<ColumnType>& types = table->column_types();
  // Record offset of each predicate's column, or -1 where it must be
  // checked on the decoded tuple.
  std::vector<int> offsets(predicates.size());
  for (size_t i = 0; i < predicates.size(); ++i) {
    offsets[i] = FixedColumnOffset(types, predicates[i].column);
  }

  TableHeap::Scanner scanner = table->NewScanner();
  uint64_t rowid = 0;
  ByteView record;
  Value field;
  Tuple tuple;
  while (!scanner.AtEnd()) {
    Status next = scanner.NextRecord(&rowid, &record);
    if (next.code() == StatusCode::kOutOfRange) {
      break;  // only tombstoned rows remained
    }
    PDS_RETURN_IF_ERROR(next);
    bool pass = true;
    for (size_t i = 0; i < predicates.size() && pass; ++i) {
      if (offsets[i] >= 0) {
        const Predicate& p = predicates[i];
        PDS_RETURN_IF_ERROR(DecodeFixedColumn(
            types[static_cast<size_t>(p.column)], record,
            static_cast<size_t>(offsets[i]), &field));
        pass = p.Matches(field);
      }
    }
    if (!pass) {
      // A skipped row still fails the scan where decoding it would.
      PDS_RETURN_IF_ERROR(ValidateRecord(types, record));
      continue;
    }
    PDS_RETURN_IF_ERROR(DecodeTupleInto(types, record, &tuple));
    for (size_t i = 0; i < predicates.size() && pass; ++i) {
      if (offsets[i] < 0) {
        pass = predicates[i].Eval(tuple);
      }
    }
    if (pass) {
      PDS_RETURN_IF_ERROR(emit(rowid, tuple));
    }
  }
  return Status::Ok();
}

Status EmitProjected(const Tuple& tuple, const std::vector<int>& columns,
                     const std::function<Status(const Tuple&)>& emit) {
  if (columns.empty()) {
    return emit(tuple);
  }
  Tuple projected;
  projected.reserve(columns.size());
  for (int idx : columns) {
    projected.push_back(tuple[static_cast<size_t>(idx)]);
  }
  return emit(projected);
}

std::vector<uint64_t> IntersectSorted(
    const std::vector<std::vector<uint64_t>>& lists) {
  if (lists.empty()) {
    return {};
  }
  std::vector<uint64_t> acc = lists[0];
  for (size_t i = 1; i < lists.size(); ++i) {
    std::vector<uint64_t> next;
    std::set_intersection(acc.begin(), acc.end(), lists[i].begin(),
                          lists[i].end(), std::back_inserter(next));
    acc = std::move(next);
  }
  return acc;
}

namespace {

/// Appends the projected columns of one logical joined row.
Status ProjectRow(const SpjQuery& query, const Tuple& root_tuple,
                  const std::function<Result<const Tuple*>(int)>& node_tuple,
                  Tuple* out) {
  out->clear();
  out->reserve(query.projections.size());
  for (const SpjQuery::Projection& proj : query.projections) {
    const Tuple* source = nullptr;
    if (proj.node < 0) {
      source = &root_tuple;
    } else {
      Result<const Tuple*> fetched = node_tuple(proj.node);
      if (!fetched.ok()) {
        return fetched.status();
      }
      source = *fetched;
    }
    if (proj.column < 0 ||
        static_cast<size_t>(proj.column) >= source->size()) {
      return Status::InvalidArgument("projection column out of range");
    }
    out->push_back((*source)[static_cast<size_t>(proj.column)]);
  }
  return Status::Ok();
}

}  // namespace

Status SpjExecutor::Execute(const SpjQuery& query,
                            const std::function<Status(const Tuple&)>& emit,
                            SpjStats* stats) {
  return Execute(query, emit, stats, nullptr);
}

Status SpjExecutor::Execute(const SpjQuery& query,
                            const std::function<Status(const Tuple&)>& emit,
                            SpjStats* stats, QueryProfile* profile) {
  obs::Span query_span("embdb.spj", "embdb");
  if (stats != nullptr) {
    *stats = SpjStats();
  }
  if (profile != nullptr) {
    profile->stages.clear();
    profile->stages.reserve(3);
  }
  if (tselects_.size() != query.selections.size()) {
    return Status::InvalidArgument(
        "one Tselect index required per selection");
  }

  // Stage profiling: each stage snapshots the chip's cumulative stats at
  // entry and stores the delta at exit; stages are contiguous, so the
  // deltas sum exactly to the chip delta across the whole call.
  flash::FlashChip* chip = path_.root->chip();
  auto chip_stats = [&]() -> flash::Stats {
    return chip != nullptr ? chip->stats() : flash::Stats();
  };
  auto begin_stage = [&](const char* op, uint64_t rows_in) -> StageProfile* {
    if (profile == nullptr) {
      return nullptr;
    }
    profile->stages.emplace_back();
    StageProfile* stage = &profile->stages.back();
    stage->op = op;
    stage->rows_in = rows_in;
    stage->flash = chip_stats();  // entry snapshot, replaced at end_stage
    gauge_->ResetHighWater();
    return stage;
  };
  auto end_stage = [&](StageProfile* stage, uint64_t rows_out) {
    if (stage == nullptr) {
      return;
    }
    stage->rows_out = rows_out;
    stage->flash = chip_stats() - stage->flash;
    stage->ram_peak_bytes = gauge_->high_water();
  };

  // 1. Tselect lookups: sorted root rowid lists (RAM charged).
  std::vector<std::vector<uint64_t>> lists(query.selections.size());
  size_t charged = 0;
  Status status = Status::Ok();
  uint64_t rowids_fetched = 0;
  {
    obs::Span stage_span("embdb.tselect", "embdb");
    StageProfile* stage = begin_stage("tselect", query.selections.size());
    for (size_t i = 0; i < query.selections.size() && status.ok(); ++i) {
      status = tselects_[i]->Lookup(query.selections[i].constant, &lists[i],
                                    nullptr);
      if (status.ok()) {
        size_t bytes = lists[i].size() * sizeof(uint64_t);
        status = gauge_->Acquire(bytes);
        if (status.ok()) {
          charged += bytes;
        }
      }
      if (status.ok()) {
        rowids_fetched += lists[i].size();
        if (stats != nullptr) {
          stats->rowids_from_indexes += lists[i].size();
        }
      }
    }
    end_stage(stage, rowids_fetched);
    stage_span.AddArg("rowids", static_cast<double>(rowids_fetched));
  }

  std::vector<uint64_t> survivors;
  if (status.ok()) {
    // 2. Pipeline merge on sorted rowids.
    obs::Span stage_span("embdb.merge", "embdb");
    StageProfile* stage = begin_stage("merge", rowids_fetched);
    survivors = IntersectSorted(lists);
    end_stage(stage, survivors.size());
    stage_span.AddArg("survivors", static_cast<double>(survivors.size()));
  }

  // 3. Tjoin traversal + tuple fetches, one root row at a time.
  if (status.ok()) {
    obs::Span stage_span("embdb.join_fetch", "embdb");
    StageProfile* stage = begin_stage("join-fetch", survivors.size());
    uint64_t emitted = 0;
    std::vector<uint64_t> node_rowids;
    std::vector<Tuple> node_tuples(path_.nodes.size());
    std::vector<bool> node_loaded(path_.nodes.size(), false);
    Tuple root_tuple, projected;
    for (uint64_t rowid : survivors) {
      status = tjoin_->Lookup(rowid, &node_rowids);
      if (!status.ok()) {
        break;
      }
      Result<Tuple> root = path_.root->Get(rowid);
      if (!root.ok()) {
        status = root.status();
        break;
      }
      root_tuple = std::move(root).value();
      std::fill(node_loaded.begin(), node_loaded.end(), false);

      auto node_tuple = [&](int node) -> Result<const Tuple*> {
        size_t n = static_cast<size_t>(node);
        if (!node_loaded[n]) {
          PDS_ASSIGN_OR_RETURN(node_tuples[n],
                               path_.nodes[n].table->Get(node_rowids[n]));
          node_loaded[n] = true;
        }
        return const_cast<const Tuple*>(&node_tuples[n]);
      };

      status = ProjectRow(query, root_tuple, node_tuple, &projected);
      if (!status.ok()) {
        break;
      }
      status = emit(projected);
      if (!status.ok()) {
        break;
      }
      ++emitted;
      if (stats != nullptr) {
        ++stats->result_rows;
      }
    }
    end_stage(stage, emitted);
    stage_span.AddArg("rows", static_cast<double>(emitted));
  }

  gauge_->Release(charged);
  query_span.AddArg("selections",
                    static_cast<double>(query.selections.size()));
  return status;
}

Status NaiveHashJoinSpj::Execute(
    const SpjQuery& query, const std::function<Status(const Tuple&)>& emit,
    SpjStats* stats) {
  if (stats != nullptr) {
    *stats = SpjStats();
  }

  // Materialize every non-root table into RAM, charging the gauge for the
  // encoded size of each tuple (this is what blows the MCU budget).
  std::vector<std::unordered_map<uint64_t, Tuple>> tables(
      path_.nodes.size());
  size_t charged = 0;
  Status status = Status::Ok();

  for (size_t n = 0; n < path_.nodes.size() && status.ok(); ++n) {
    TableHeap* heap = path_.nodes[n].table;
    TableHeap::Scanner scanner = heap->NewScanner();
    uint64_t rowid = 0;
    Tuple tuple;
    std::vector<ColumnType> types = heap->schema().ColumnTypes();
    while (!scanner.AtEnd()) {
      status = scanner.Next(&rowid, &tuple);
      if (status.code() == StatusCode::kOutOfRange) {
        status = Status::Ok();
        break;  // only tombstoned rows remained
      }
      if (!status.ok()) {
        break;
      }
      Bytes encoded;
      EncodeTuple(types, tuple, &encoded);
      size_t bytes = encoded.size() + sizeof(uint64_t) + 16;  // map overhead
      status = gauge_->Acquire(bytes);
      if (!status.ok()) {
        break;
      }
      charged += bytes;
      tables[n].emplace(rowid, tuple);
    }
  }

  if (status.ok()) {
    // Scan the root and probe the RAM hash tables.
    TableHeap::Scanner scanner = path_.root->NewScanner();
    uint64_t rowid = 0;
    Tuple root_tuple, projected;
    std::vector<uint64_t> node_rowids;
    while (!scanner.AtEnd() && status.ok()) {
      status = scanner.Next(&rowid, &root_tuple);
      if (status.code() == StatusCode::kOutOfRange) {
        status = Status::Ok();
        break;  // only tombstoned rows remained
      }
      if (!status.ok()) {
        break;
      }
      status = path_.ResolveRowidsFromRam(root_tuple, tables, &node_rowids);
      if (!status.ok()) {
        break;
      }

      bool pass = true;
      for (const SpjQuery::Selection& sel : query.selections) {
        const Tuple* t = nullptr;
        if (sel.node < 0) {
          t = &root_tuple;
        } else {
          auto it = tables[static_cast<size_t>(sel.node)].find(
              node_rowids[static_cast<size_t>(sel.node)]);
          if (it == tables[static_cast<size_t>(sel.node)].end()) {
            pass = false;
            break;
          }
          t = &it->second;
        }
        if (Value::Compare((*t)[static_cast<size_t>(sel.column)],
                           sel.constant) != 0) {
          pass = false;
          break;
        }
      }
      if (!pass) {
        continue;
      }

      auto node_tuple = [&](int node) -> Result<const Tuple*> {
        auto it = tables[static_cast<size_t>(node)].find(
            node_rowids[static_cast<size_t>(node)]);
        if (it == tables[static_cast<size_t>(node)].end()) {
          return Status::NotFound("dangling fk in naive join");
        }
        return const_cast<const Tuple*>(&it->second);
      };
      status = ProjectRow(query, root_tuple, node_tuple, &projected);
      if (status.ok()) {
        status = emit(projected);
        if (status.ok() && stats != nullptr) {
          ++stats->result_rows;
        }
      }
    }
  }

  gauge_->Release(charged);
  return status;
}

Aggregator::~Aggregator() { gauge_->Release(charged_); }

Status Aggregator::Add(const Value& group, double value) {
  auto [it, inserted] = groups_.try_emplace(group);
  if (inserted) {
    size_t bytes = sizeof(State) + 48;  // map node + key estimate
    Status status = gauge_->Acquire(bytes);
    if (!status.ok()) {
      groups_.erase(it);
      return status;
    }
    charged_ += bytes;
    it->second.min = value;
    it->second.max = value;
  }
  State& s = it->second;
  s.sum += value;
  s.min = std::min(s.min, value);
  s.max = std::max(s.max, value);
  ++s.count;
  return Status::Ok();
}

std::vector<Aggregator::GroupResult> Aggregator::Finish() {
  std::vector<GroupResult> out;
  out.reserve(groups_.size());
  for (const auto& [group, s] : groups_) {
    GroupResult r;
    r.group = group;
    r.count = s.count;
    switch (func_) {
      case Func::kCount:
        r.value = static_cast<double>(s.count);
        break;
      case Func::kSum:
        r.value = s.sum;
        break;
      case Func::kAvg:
        r.value = s.count == 0 ? 0 : s.sum / static_cast<double>(s.count);
        break;
      case Func::kMin:
        r.value = s.min;
        break;
      case Func::kMax:
        r.value = s.max;
        break;
    }
    out.push_back(std::move(r));
  }
  return out;
}

}  // namespace pds::embdb

#ifndef PDS_EMBDB_EXECUTOR_H_
#define PDS_EMBDB_EXECUTOR_H_

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/result.h"
#include "embdb/join_index.h"
#include "embdb/table_heap.h"
#include "embdb/value.h"
#include "flash/flash.h"
#include "mcu/ram_gauge.h"

namespace pds::embdb {

/// column <op> constant.
struct Predicate {
  enum class Op { kEq, kNe, kLt, kLe, kGt, kGe };

  int column = 0;
  Op op = Op::kEq;
  Value constant;

  bool Eval(const Tuple& tuple) const;
  /// `value <op> constant`, for a value already read from `column`.
  bool Matches(const Value& value) const;
};

/// Streams (rowid, tuple) pairs of `table` satisfying all `predicates`
/// (full scan + filter: the no-index baseline of E1). Predicates on numeric
/// columns at a fixed record offset are checked on the encoded record, so
/// only rows that pass them are decoded; page reads are those of the scan.
[[nodiscard]] Status ScanFilter(TableHeap* table, const std::vector<Predicate>& predicates,
                  const std::function<Status(uint64_t, const Tuple&)>& emit);

/// Emits `tuple` restricted to `columns`, in that order (all columns when
/// `columns` is empty).
[[nodiscard]] Status EmitProjected(const Tuple& tuple, const std::vector<int>& columns,
                     const std::function<Status(const Tuple&)>& emit);

/// Intersection of several ascending rowid lists (the pipeline "merge on
/// sorted row ids" of the tutorial's execution plan).
std::vector<uint64_t> IntersectSorted(
    const std::vector<std::vector<uint64_t>>& lists);

/// A select-project-join query over a JoinPath, in the shape of the
/// tutorial's TPC-D example:
///   SELECT <projections> FROM root ⋈ path
///   WHERE node_a.col = const_a AND node_b.col = const_b ...
struct SpjQuery {
  struct Selection {
    /// Path-node index carrying the predicate column, -1 for the root.
    int node = -1;
    int column = 0;
    Value constant;
  };
  struct Projection {
    int node = -1;  // -1 = root
    int column = 0;
  };

  std::vector<Selection> selections;
  std::vector<Projection> projections;
};

/// Per-query execution counters.
struct SpjStats {
  uint64_t rowids_from_indexes = 0;
  uint64_t result_rows = 0;
};

/// One pipeline stage of a profiled query: row cardinalities, the
/// flash::Stats delta attributable to the stage, and the RAM high-water
/// reached while it ran. `op` is a static literal (no per-query heap).
struct StageProfile {
  const char* op = "";
  uint64_t rows_in = 0;
  uint64_t rows_out = 0;
  flash::Stats flash;
  size_t ram_peak_bytes = 0;
};

/// EXPLAIN ANALYZE surface of the embedded executor: filled by
/// SpjExecutor::Execute when requested. Stages are contiguous — their flash
/// deltas sum exactly to the chip's stats delta over the whole call, which
/// the obs tests assert.
struct QueryProfile {
  std::vector<StageProfile> stages;

  uint64_t total_page_reads() const;
  /// Human-readable table, one line per stage.
  std::string ToString() const;
};

/// Pipeline SPJ executor: one Tselect lookup per selection (sorted root
/// rowids), rowid-merge intersection, then Tjoin + tuple fetches per
/// surviving root row. RAM: the rowid lists (charged) + one row.
class SpjExecutor {
 public:
  SpjExecutor(const JoinPath& path, TjoinIndex* tjoin,
              std::vector<TselectIndex*> tselects, mcu::RamGauge* gauge)
      : path_(path),
        tjoin_(tjoin),
        tselects_(std::move(tselects)),
        gauge_(gauge) {}

  /// `tselects` must align 1:1 with `query.selections`.
  [[nodiscard]] Status Execute(const SpjQuery& query,
                 const std::function<Status(const Tuple&)>& emit,
                 SpjStats* stats);

  /// As above, additionally filling `profile` (may be null) with one
  /// StageProfile per pipeline stage: "tselect", "merge", "join-fetch".
  /// Requesting a profile resets the gauge's high-water mark per stage.
  [[nodiscard]] Status Execute(const SpjQuery& query,
                 const std::function<Status(const Tuple&)>& emit,
                 SpjStats* stats, QueryProfile* profile);

 private:
  const JoinPath& path_;
  TjoinIndex* tjoin_;
  std::vector<TselectIndex*> tselects_;
  mcu::RamGauge* gauge_;
};

/// RAM-hungry baseline ("Join algorithms consume lots of RAM"): hash-joins
/// by materializing every non-root table into RAM, charging the MCU gauge.
/// Fails with ResourceExhausted when the data outgrows the chip's RAM —
/// exactly the failure the Tjoin pipeline avoids.
class NaiveHashJoinSpj {
 public:
  NaiveHashJoinSpj(const JoinPath& path, mcu::RamGauge* gauge)
      : path_(path), gauge_(gauge) {}

  [[nodiscard]] Status Execute(const SpjQuery& query,
                 const std::function<Status(const Tuple&)>& emit,
                 SpjStats* stats);

 private:
  const JoinPath& path_;
  mcu::RamGauge* gauge_;
};

/// Streaming aggregate over (group key, value) pairs; groups are held in
/// RAM and charged to the gauge.
class Aggregator {
 public:
  enum class Func { kCount, kSum, kAvg, kMin, kMax };

  struct GroupResult {
    Value group;
    double value = 0;
    uint64_t count = 0;
  };

  Aggregator(Func func, mcu::RamGauge* gauge) : func_(func), gauge_(gauge) {}
  ~Aggregator();

  [[nodiscard]] Status Add(const Value& group, double value);
  /// Finalizes and returns groups in ascending group order.
  std::vector<GroupResult> Finish();

 private:
  struct State {
    double sum = 0;
    double min = 0;
    double max = 0;
    uint64_t count = 0;
  };

  Func func_;
  mcu::RamGauge* gauge_;
  std::map<Value, State> groups_;
  size_t charged_ = 0;
};

}  // namespace pds::embdb

#endif  // PDS_EMBDB_EXECUTOR_H_

// libpds repo benchmark driver.
//
// Three seeded, closed-loop workloads, each in one process with at most four
// threads (see perfbench/README.md for why each exists and what it moves):
//
//   global-packed  64 PdsNode tokens, 1024-bit packed Paillier SUM over
//                  in-process transports, SSI fanned over 3 executor workers.
//   global-secure  256 tokens x 4 rows, multi-round secure SUM
//                  (partition_capacity 32) over Unix sockets, serial SSI.
//   token-local    one default PdsNode: audited inserts, equality lookups and
//                  range scans, the tutorial SPJ on TPC-D, one index
//                  reorganization per epoch.
//
// Usage:
//   pdsbench --workload W --seed N --seconds S --trace 0|1 [--spans PATH]
//            [--commit ID]
//
// perfbench/run.py builds this binary and passes --spans and --commit.
//
// Tokens never get a thread: every TokenClient runs in pumped mode and is
// driven from inside the SSI-side transport (PumpingTransport), so SsiServer,
// TokenClient, the codec, the transports and the crypto run unmodified.
//
// --trace 0 prints the end-to-end metrics. --trace 1 alternates traced and
// untraced queries (or epochs): traced ones record spans around each call the
// benchmark makes into a layer, give the per-layer metrics, and are checked
// for layer accounting; the untraced ones give the tracing overhead. Spans
// stay in memory and a bounded sample is written to --spans at exit.
//
// Lines starting with '#' are diagnostics; the last stdout line is the
// result object {"correct","attempted","failed","metrics"}.

#include <malloc.h>
#include <pthread.h>
#include <sched.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "ac/policy.h"
#include "common/rng.h"
#include "crypto/cipher.h"
#include "crypto/montgomery_simd.h"
#include "crypto/paillier.h"
#include "embdb/database.h"
#include "embdb/executor.h"
#include "embdb/join_index.h"
#include "flash/flash.h"
#include "global/fleet_executor.h"
#include "net/codec.h"
#include "net/ssi_server.h"
#include "net/token_client.h"
#include "net/transport.h"
#include "obs/obs.h"
#include "pds/pds_node.h"
#include "workloads/tpcd.h"

namespace {

using pds::Bytes;
using pds::ByteView;
using pds::Result;
using pds::Rng;
using pds::Status;
using pds::embdb::Predicate;
using pds::embdb::Tuple;
using pds::embdb::Value;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double PeakRssMb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) {
    return 0;
  }
  char line[256];
  double kb = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kb = std::strtod(line + 6, nullptr);
      break;
    }
  }
  std::fclose(f);
  return kb / 1024.0;
}

/// Diagnostic line: the latency distribution behind the reported quantiles,
/// with its sample count.
void PrintDistribution(const char* what, const std::vector<double>& v) {
  std::printf("# %s n=%zu p10=%.4g p25=%.4g p50=%.4g p75=%.4g p90=%.4g "
              "p99=%.4g max=%.4g\n",
              what, v.size(), Quantile(v, 0.1), Quantile(v, 0.25),
              Quantile(v, 0.5), Quantile(v, 0.75), Quantile(v, 0.9),
              Quantile(v, 0.99), Quantile(v, 1.0));
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

/// Metrics in print order: name -> (value, unit).
class MetricSet {
 public:
  void Set(const std::string& name, double value, const std::string& unit) {
    if (!std::isfinite(value)) {
      value = 0;
    }
    for (auto& m : metrics_) {
      if (m.name == name) {
        m.value = value;
        m.unit = unit;
        return;
      }
    }
    metrics_.push_back({name, value, unit});
  }
  std::string Json() const {
    std::string out = "{";
    char buf[64];
    for (size_t i = 0; i < metrics_.size(); ++i) {
      std::snprintf(buf, sizeof(buf), "%.17g", metrics_[i].value);
      out += (i ? ", \"" : "\"") + metrics_[i].name + "\": {\"value\": " +
             buf + ", \"unit\": \"" + metrics_[i].unit + "\"}";
    }
    return out + "}";
  }

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
};

/// What one run reports besides its metrics.
struct Outcome {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  bool checks_ok = true;
  void Fail(const std::string& what) {
    checks_ok = false;
    std::printf("# CHECK FAILED: %s\n", JsonEscape(what).c_str());
  }
};

// ---------------------------------------------------------------------------
// Spans recorded from the benchmark's own code.

enum SpanKind : uint8_t {
  kQuerySpan,
  kExportSpan,    // TokenClient::StartPumped (policy-checked ExportAs)
  kAcceptSpan,    // SsiServer::AcceptSession
  kRunSpan,       // SsiServer::Run*Aggregation
  kShutdownSpan,  // SsiServer::Shutdown
  kSendSpan,      // SSI-side Transport::Send
  kRecvSpan,      // SSI-side Transport::Recv (contains the token pumps)
  kPumpSpan,      // TokenClient::PumpOnce
  kOpSpan,        // one token-local operation
};
const char* const kSpanNames[] = {
    "query",          "pds.export",     "ssi.accept",
    "ssi.run",        "ssi.shutdown",   "transport.send",
    "transport.recv", "token.handle",   "op"};

struct Span {
  int64_t start = 0;
  int64_t end = 0;
  SpanKind kind = kQuerySpan;
  uint8_t thread = 0;    // 0 = the driver's thread, k = executor worker k
  uint8_t op_class = 0;  // kOpSpan only: the token-local OpClass
  int32_t parent = -1;   // index in the same span vector, -1 = none
};

/// Executor worker threads, registered the first time a session transport
/// runs on them; their CPU clocks give executor.busy_us.
class WorkerRegistry {
 public:
  explicit WorkerRegistry(std::thread::id main) : main_(main) {}

  uint8_t Slot() {
    thread_local WorkerRegistry* owner = nullptr;
    thread_local uint8_t slot = 0;
    if (owner == this) {
      return slot;
    }
    owner = this;
    if (std::this_thread::get_id() == main_) {
      slot = 0;
      return slot;
    }
    std::lock_guard<std::mutex> lock(mu_);
    clockid_t cid;
    if (pthread_getcpuclockid(pthread_self(), &cid) == 0) {
      clocks_.push_back(cid);
    }
    slot = static_cast<uint8_t>(clocks_.size());
    return slot;
  }

  size_t num_workers() {
    std::lock_guard<std::mutex> lock(mu_);
    return clocks_.size();
  }

  /// Total CPU time of all registered workers, ns.
  int64_t CpuNs() {
    std::lock_guard<std::mutex> lock(mu_);
    int64_t total = 0;
    for (clockid_t cid : clocks_) {
      timespec ts{};
      if (clock_gettime(cid, &ts) == 0) {
        total += static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
      }
    }
    return total;
  }

 private:
  std::thread::id main_;
  std::mutex mu_;
  std::vector<clockid_t> clocks_;
};

/// Spans of one session, written only by the thread currently driving it.
struct SessionTrace {
  WorkerRegistry* workers = nullptr;
  std::vector<Span> spans;

  int32_t Open(SpanKind kind) {
    Span s;
    s.kind = kind;
    s.thread = workers->Slot();
    s.start = NowNs();
    spans.push_back(s);
    return static_cast<int32_t>(spans.size() - 1);
  }
  void Close(int32_t idx) { spans[static_cast<size_t>(idx)].end = NowNs(); }
};

// ---------------------------------------------------------------------------
// Fleet harness transports.

/// SSI-side decorator: before each Recv it pumps the peer TokenClient once
/// per frame the SSI has sent and the token has not read yet, so the token's
/// reply is already queued when the real Recv runs. Counts the frames and
/// bytes that cross it exactly as the wrapped transport does.
class PumpingTransport final : public pds::net::Transport {
 public:
  PumpingTransport(std::unique_ptr<pds::net::Transport> inner,
                   pds::net::TokenClient* client, SessionTrace* trace)
      : inner_(std::move(inner)), client_(client), trace_(trace) {}

  Status Send(ByteView frame) override {
    const int32_t span = trace_ != nullptr ? trace_->Open(kSendSpan) : -1;
    Status s = inner_->Send(frame);
    if (s.ok()) {
      ++unread_;
      CountSent(frame.size());
    }
    if (span >= 0) {
      trace_->Close(span);
    }
    return s;
  }

  Result<Bytes> Recv(uint32_t deadline_ms) override {
    const int32_t span = trace_ != nullptr ? trace_->Open(kRecvSpan) : -1;
    while (unread_ > 0) {
      --unread_;
      const int32_t pump = trace_ != nullptr ? trace_->Open(kPumpSpan) : -1;
      Result<bool> r = client_->PumpOnce();
      if (pump >= 0) {
        trace_->spans[static_cast<size_t>(pump)].parent = span;
        trace_->Close(pump);
      }
      ++pumps_;
      if (!r.ok() && pump_status_.ok()) {
        pump_status_ = r.status();
      }
    }
    Result<Bytes> frame = inner_->Recv(deadline_ms);
    if (frame.ok()) {
      CountReceived(frame.value().size());
    }
    if (span >= 0) {
      trace_->Close(span);
    }
    return frame;
  }

  void Close() override { inner_->Close(); }
  bool closed() const override { return inner_->closed(); }

  uint64_t pumps() const { return pumps_; }
  const Status& pump_status() const { return pump_status_; }

 private:
  std::unique_ptr<pds::net::Transport> inner_;
  pds::net::TokenClient* client_;
  SessionTrace* trace_;
  uint64_t unread_ = 0;
  uint64_t pumps_ = 0;
  Status pump_status_ = Status::Ok();
};

/// Token-side shim for socket sessions. SocketTransport::Recv(d) returns
/// DeadlineExceeded without reading when d <= 1 ms, even with a whole frame
/// buffered (its remaining-time computation truncates to whole
/// milliseconds), so PumpOnce's Recv(0) could never consume a frame. The
/// PumpingTransport pumps only after the SSI's Send has put a whole frame in
/// the socket, so this deadline never actually waits. It is generous
/// because the truncation is re-checked before every 4 KiB read: a 2 ms
/// deadline fails when the thread is preempted for a millisecond mid-frame.
class SocketPumpShim final : public pds::net::Transport {
 public:
  static constexpr uint32_t kPumpRecvDeadlineMs = 1000;

  explicit SocketPumpShim(std::unique_ptr<pds::net::Transport> inner)
      : inner_(std::move(inner)) {}

  Status Send(ByteView frame) override {
    Status s = inner_->Send(frame);
    if (s.ok()) {
      CountSent(frame.size());
    }
    return s;
  }
  Result<Bytes> Recv(uint32_t deadline_ms) override {
    Result<Bytes> frame =
        inner_->Recv(std::max<uint32_t>(deadline_ms, kPumpRecvDeadlineMs));
    if (frame.ok()) {
      CountReceived(frame.value().size());
    }
    return frame;
  }
  void Close() override { inner_->Close(); }
  bool closed() const override { return inner_->closed(); }

 private:
  std::unique_ptr<pds::net::Transport> inner_;
};

// ---------------------------------------------------------------------------
// Global workloads.

struct GlobalSpec {
  const char* name;
  size_t tokens;
  uint64_t min_rows;
  uint64_t max_rows;
  bool packed;
  bool sockets;
  size_t partition_capacity;
  size_t workers;  // 0 = serial SSI
};

constexpr GlobalSpec kGlobalPacked{"global-packed", 64, 1, 8, true, false,
                                   256, 3};
constexpr GlobalSpec kGlobalSecure{"global-secure", 256, 4, 4, false, true, 32,
                                   0};
constexpr size_t kDomainSize = 5;
constexpr uint64_t kMaxAmount = 100;
constexpr uint64_t kMaxSlotValue = 4096;

const pds::ac::Subject kAgency{"stats-agency", "insee"};
const pds::ac::Subject kOwner{"owner", "alice"};
// Each fleet token starts with a seeded audit history of fewer than this
// many owner reads. An audit page holds about 47 export records, so with
// equal histories every token would program its audit page on the same
// query, as no real fleet does.
constexpr uint64_t kMaxAuditHistory = 64;

std::string City(uint64_t i) { return "city-" + std::to_string(i); }

std::vector<std::string> Domain() {
  std::vector<std::string> d;
  for (uint64_t i = 0; i < kDomainSize; ++i) {
    d.push_back(City(i));
  }
  return d;
}

struct GlobalFleet {
  std::vector<std::unique_ptr<pds::node::PdsNode>> nodes;
  std::unique_ptr<pds::mcu::SecureToken> verifier;
  std::shared_ptr<pds::crypto::PackedAggregate> packed;  // null: secure
  std::map<std::string, double> expected;  // plaintext GROUP-BY SUM oracle
  double keygen_s = 0;
  double load_s = 0;
};

/// The querier's keypair comes from a fixed seed, not the run's: the time a
/// prime search takes depends on where it starts, and setup_s must measure
/// the key generator, not the luck of one start.
std::shared_ptr<pds::crypto::PackedAggregate> MakePackedKey(size_t tokens) {
  Rng key_rng(0x6b657967656eull);
  auto paillier = pds::crypto::Paillier::Generate(1024, &key_rng);
  if (!paillier.ok()) {
    return nullptr;
  }
  auto agg = pds::crypto::PackedAggregate::Create(
      *paillier, tokens, kMaxSlotValue, 2 * kDomainSize);
  if (!agg.ok()) {
    return nullptr;
  }
  return std::make_shared<pds::crypto::PackedAggregate>(
      std::move(agg).value());
}

/// Builds `tokens` nodes from `seed`; `packed` may be shared between fleets
/// built from one seed (it is the querier's public packing context).
Result<std::unique_ptr<GlobalFleet>> BuildFleet(
    const GlobalSpec& spec, size_t tokens, uint64_t seed,
    std::shared_ptr<pds::crypto::PackedAggregate> packed) {
  auto fleet = std::make_unique<GlobalFleet>();
  const pds::crypto::SymmetricKey key =
      pds::crypto::KeyFromString("perfbench-fleet");
  if (spec.packed) {
    const int64_t k0 = NowNs();
    fleet->packed = packed != nullptr ? packed : MakePackedKey(tokens);
    fleet->keygen_s = static_cast<double>(NowNs() - k0) * 1e-9;
    if (fleet->packed == nullptr) {
      return Status::Internal("packed Paillier keygen failed");
    }
  }
  const int64_t t0 = NowNs();
  pds::mcu::SecureToken::Config vcfg;
  vcfg.token_id = 900000;
  vcfg.fleet_key = key;
  vcfg.rng_seed = seed ^ 0x766572ull;
  fleet->verifier = std::make_unique<pds::mcu::SecureToken>(vcfg);

  const pds::embdb::Schema bills("bills",
                                 {{"id", pds::embdb::ColumnType::kUint64, ""},
                                  {"city", pds::embdb::ColumnType::kString, ""},
                                  {"amount", pds::embdb::ColumnType::kUint64,
                                   ""}});
  pds::embdb::Database::TableOptions topts;
  topts.data_blocks = 1;
  topts.directory_blocks = 1;
  topts.tombstone_blocks = 1;
  Rng rows(seed);
  for (size_t i = 0; i < tokens; ++i) {
    pds::node::PdsNode::Config cfg;
    cfg.node_id = 1 + i;
    cfg.fleet_key = key;
    cfg.rng_seed = seed * 1000003 + i;
    // Default page geometry and audit partition; only enough blocks for
    // the audit log plus one small table.
    cfg.flash_geometry.block_count = 8;
    auto node = std::make_unique<pds::node::PdsNode>(cfg);
    PDS_RETURN_IF_ERROR(node->DefineTable(bills, topts));
    node->policies().AddRule({kAgency.role, pds::ac::Action::kShare, "bills",
                              {"city", "amount"}, std::nullopt});
    const uint64_t n =
        spec.min_rows + rows.Uniform(spec.max_rows - spec.min_rows + 1);
    for (uint64_t r = 0; r < n; ++r) {
      const std::string city = City(rows.Uniform(kDomainSize));
      const uint64_t amount = rows.Uniform(kMaxAmount);
      PDS_RETURN_IF_ERROR(
          node->db()
              .Insert("bills", {Value::U64(r), Value::Str(city),
                                Value::U64(amount)})
              .status());
      fleet->expected[city] += static_cast<double>(amount);
    }
    node->policies().AddRule(
        {kOwner.role, pds::ac::Action::kRead, "bills", {}, std::nullopt});
    const uint64_t history = rows.Uniform(kMaxAuditHistory);
    for (uint64_t h = 0; h < history; ++h) {
      PDS_RETURN_IF_ERROR(node->QueryAs(
          kOwner, "bills", {}, {}, [](const Tuple&) { return Status::Ok(); }));
    }
    fleet->nodes.push_back(std::move(node));
  }
  fleet->load_s = static_cast<double>(NowNs() - t0) * 1e-9;
  return fleet;
}

/// Per-query layer self times (ns) from the spans of one traced query.
struct Accounting {
  int64_t wall = 0;
  int64_t export_ns = 0;
  int64_t token = 0;  // all threads
  int64_t send = 0;   // all threads
  int64_t recv = 0;   // all threads, pumps excluded
  int64_t handshake = 0;
  int64_t round_self = 0;
  int64_t combine = 0;
  int64_t shutdown = 0;
  int64_t unattributed = 0;
  int64_t main_children = 0;  // token + transport time on the driver thread
  int64_t busy = 0;           // executor workers' CPU time
  int64_t idle = 0;
  bool nested = true;  // every span inside its parent, every self time >= 0

  Accounting& operator+=(const Accounting& o) {
    wall += o.wall;
    export_ns += o.export_ns;
    token += o.token;
    send += o.send;
    recv += o.recv;
    handshake += o.handshake;
    round_self += o.round_self;
    combine += o.combine;
    shutdown += o.shutdown;
    unattributed += o.unattributed;
    main_children += o.main_children;
    busy += o.busy;
    idle += o.idle;
    nested = nested && o.nested;
    return *this;
  }
  /// Driver-thread identity: these parts tile the query's wall time.
  int64_t MainSum() const {
    return export_ns + handshake + round_self + combine + shutdown +
           main_children + unattributed;
  }
};

bool Inside(const Span& s, int64_t lo, int64_t hi) {
  return s.start >= lo && s.end <= hi && s.start <= s.end;
}

/// Self-time decomposition. `main` holds query/export/accept/run/shutdown
/// spans of the driver thread; `sessions` the transport spans.
Accounting Account(const std::vector<Span>& main,
                   const std::vector<SessionTrace>& sessions) {
  Accounting a;
  const Span& query = main.front();
  a.wall = query.end - query.start;
  const Span* run = nullptr;
  int64_t top = 0;
  for (size_t i = 1; i < main.size(); ++i) {
    const Span& s = main[i];
    a.nested = a.nested && Inside(s, query.start, query.end) &&
               (i == 1 || s.start >= main[i - 1].end);
    top += s.end - s.start;
    if (s.kind == kExportSpan) {
      a.export_ns += s.end - s.start;
    } else if (s.kind == kAcceptSpan) {
      a.handshake += s.end - s.start;
    } else if (s.kind == kShutdownSpan) {
      a.shutdown += s.end - s.start;
    } else if (s.kind == kRunSpan) {
      run = &s;
    }
  }
  a.unattributed = a.wall - top;
  if (run == nullptr) {
    a.nested = false;
    return a;
  }
  // The last reply the SSI received during the run splits it into the
  // round phase and the combine phase.
  int64_t last_reply = run->start;
  for (const SessionTrace& st : sessions) {
    for (const Span& s : st.spans) {
      if (s.kind == kRecvSpan && Inside(s, run->start, run->end)) {
        last_reply = std::max(last_reply, s.end);
      }
    }
  }
  int64_t run_round = last_reply - run->start;
  int64_t run_combine = run->end - last_reply;
  for (const SessionTrace& st : sessions) {
    for (const Span& s : st.spans) {
      const int64_t d = s.end - s.start;
      if (s.kind == kPumpSpan) {
        a.token += d;
        const Span& parent = st.spans[static_cast<size_t>(s.parent)];
        a.nested = a.nested && Inside(s, parent.start, parent.end);
        a.recv -= d;
      } else if (s.kind == kSendSpan) {
        a.send += d;
      } else if (s.kind == kRecvSpan) {
        a.recv += d;
      }
      if (s.thread != 0 || s.kind == kPumpSpan) {
        continue;  // pumps are inside recv; worker time is executor busy
      }
      // A top-level transport call on the driver thread: charge it to the
      // SSI call that contains it.
      a.main_children += d;
      bool placed = false;
      for (size_t i = 1; i < main.size() && !placed; ++i) {
        const Span& m = main[i];
        if (!Inside(s, m.start, m.end)) {
          continue;
        }
        placed = true;
        if (m.kind == kAcceptSpan) {
          a.handshake -= d;
        } else if (m.kind == kShutdownSpan) {
          a.shutdown -= d;
        } else if (m.kind == kRunSpan && s.end <= last_reply) {
          run_round -= d;
        } else if (m.kind == kRunSpan) {
          run_combine -= d;
        } else {
          placed = false;
        }
      }
      a.nested = a.nested && placed;
    }
  }
  a.round_self = run_round;
  a.combine = run_combine;
  for (int64_t v : {a.export_ns, a.token, a.send, a.recv, a.handshake,
                    a.round_self, a.combine, a.shutdown, a.unattributed}) {
    a.nested = a.nested && v >= 0;
  }
  return a;
}

/// Deterministic per-query counts (identical across runs with one seed).
struct QuerySignature {
  uint64_t wire_bytes = 0;
  uint64_t wire_frames = 0;
  uint64_t token_frames = 0;
  uint64_t messages = 0;
  uint64_t metric_bytes = 0;
  uint64_t rounds = 0;
  uint64_t token_crypto_ops = 0;
  uint64_t ssi_ops = 0;
  uint64_t page_reads = 0;
  uint64_t page_programs = 0;
  uint64_t block_erases = 0;
  std::map<std::string, double> groups;
  bool operator==(const QuerySignature&) const = default;

  /// flash::CostModel time of the query's page counts, all tokens.
  double DeviceUs() const {
    return pds::flash::Stats{page_reads, page_programs, block_erases}.TimeUs(
        pds::flash::CostModel{});
  }
};

struct QueryResult {
  Status status = Status::Ok();
  bool oracle_ok = false;
  int64_t wall_ns = 0;
  QuerySignature sig;
  pds::net::SsiServer::RoundReport report;
  uint64_t round_trips = 0;
  uint64_t ram_high_water = 0;
  uint64_t audit_entries = 0;  // appended fleet-wide during the query
  Accounting acc;
};

struct QueryTracer {
  WorkerRegistry* workers = nullptr;
  std::vector<Span> main;
  std::vector<SessionTrace> sessions;
};

bool SameGroups(const std::map<std::string, double>& got,
                const std::map<std::string, double>& want) {
  // Groups absent on one side must be zero on the other (a packed run may
  // report every domain value).
  for (const auto& [g, v] : got) {
    auto it = want.find(g);
    if (v != (it == want.end() ? 0.0 : it->second)) {
      return false;
    }
  }
  for (const auto& [g, v] : want) {
    auto it = got.find(g);
    if (v != (it == got.end() ? 0.0 : it->second)) {
      return false;
    }
  }
  return true;
}

pds::net::SsiServer::Config ServerConfig(const GlobalSpec& spec,
                                        const GlobalFleet& fleet,
                                        pds::global::FleetExecutor* exec) {
  pds::net::SsiServer::Config cfg;
  cfg.partition_capacity = spec.partition_capacity;
  cfg.executor = exec;
  cfg.verifier = fleet.verifier.get();
  return cfg;
}

pds::net::TokenClient::Config ClientConfig(const GlobalFleet& fleet,
                                           size_t i) {
  pds::net::TokenClient::Config cfg;
  cfg.pds_node = fleet.nodes[i].get();
  cfg.subject = kAgency;
  cfg.table = "bills";
  cfg.group_column = "city";
  cfg.value_column = "amount";
  cfg.packed = fleet.packed.get();
  return cfg;
}

Result<pds::global::AggOutput> RunProtocol(pds::net::SsiServer* server,
                                           const GlobalSpec& spec,
                                           const GlobalFleet& fleet) {
  return spec.packed
             ? server->RunPackedAggregation(pds::global::AggFunc::kSum,
                                            *fleet.packed, Domain())
             : server->RunSecureAggregation(pds::global::AggFunc::kSum);
}

void RecordOutput(const pds::global::AggOutput& output, QuerySignature* sig) {
  const pds::global::Metrics& m = output.metrics;
  sig->messages = m.messages;
  sig->metric_bytes = m.bytes;
  sig->rounds = m.rounds;
  sig->token_crypto_ops = m.token_crypto_ops;
  sig->ssi_ops = m.ssi_ops;
  sig->groups = output.groups;
}

/// One whole contribution cycle: fresh sessions, handshake + attestation,
/// policy-checked ExportAs on every token, one protocol run, Shutdown.
QueryResult RunGlobalQuery(GlobalFleet* fleet, const GlobalSpec& spec,
                           pds::global::FleetExecutor* exec,
                           QueryTracer* tracer) {
  QueryResult out;
  const size_t n = fleet->nodes.size();
  pds::flash::Stats flash_before;
  for (const auto& node : fleet->nodes) {
    const pds::flash::Stats& s = node->chip().stats();
    flash_before.page_reads += s.page_reads;
    flash_before.page_programs += s.page_programs;
    flash_before.block_erases += s.block_erases;
    out.audit_entries -= node->audit_entries();
  }
  if (tracer != nullptr) {
    tracer->main.clear();
    tracer->sessions.assign(n, SessionTrace{tracer->workers, {}});
  }
  auto open = [&](SpanKind kind) {
    if (tracer != nullptr) {
      tracer->main.push_back({NowNs(), 0, kind, 0, 0, -1});
    }
  };
  auto close = [&] {
    if (tracer != nullptr) {
      tracer->main.back().end = NowNs();
    }
  };
  const int64_t busy0 = tracer != nullptr ? tracer->workers->CpuNs() : 0;
  const int64_t t0 = NowNs();
  if (tracer != nullptr) {
    tracer->main.push_back({t0, 0, kQuerySpan, 0, 0, -1});
  }
  {
    pds::net::SsiServer server(ServerConfig(spec, *fleet, exec));
    std::vector<std::unique_ptr<pds::net::TokenClient>> clients(n);
    std::vector<PumpingTransport*> pumps(n, nullptr);
    Status st = Status::Ok();
    for (size_t i = 0; i < n && st.ok(); ++i) {
      std::unique_ptr<pds::net::Transport> server_end;
      std::unique_ptr<pds::net::Transport> client_end;
      if (spec.sockets) {
        auto pair = pds::net::SocketTransport::CreateUnixPair();
        if (!pair.ok()) {
          st = pair.status();
          break;
        }
        server_end = std::move(pair.value().first);
        client_end =
            std::make_unique<SocketPumpShim>(std::move(pair.value().second));
      } else {
        auto pair = pds::net::InProcessTransport::CreatePair();
        server_end = std::move(pair.first);
        client_end = std::move(pair.second);
      }
      clients[i] = std::make_unique<pds::net::TokenClient>(
          std::move(client_end), ClientConfig(*fleet, i));
      open(kExportSpan);
      st = clients[i]->StartPumped();
      close();
      if (!st.ok()) {
        break;
      }
      auto pumping = std::make_unique<PumpingTransport>(
          std::move(server_end), clients[i].get(),
          tracer != nullptr ? &tracer->sessions[i] : nullptr);
      pumps[i] = pumping.get();
      open(kAcceptSpan);
      Result<size_t> idx = server.AcceptSession(std::move(pumping));
      close();
      if (!idx.ok()) {
        st = idx.status();
      }
    }
    if (st.ok()) {
      open(kRunSpan);
      Result<pds::global::AggOutput> output =
          RunProtocol(&server, spec, *fleet);
      close();
      out.report = server.last_report();
      if (output.ok()) {
        RecordOutput(output.value(), &out.sig);
        out.oracle_ok = SameGroups(out.sig.groups, fleet->expected);
      } else {
        st = output.status();
      }
      if (tracer != nullptr) {
        for (const auto& t : server.Telemetry()) {
          out.round_trips += t.round_trips;
        }
      }
      open(kShutdownSpan);
      server.Shutdown();
      close();
    }
    for (PumpingTransport* p : pumps) {
      if (p == nullptr) {
        continue;
      }
      out.sig.wire_bytes += p->bytes_sent() + p->bytes_received();
      out.sig.wire_frames += p->frames_sent() + p->frames_received();
      out.sig.token_frames += p->pumps();
      if (st.ok() && !p->pump_status().ok()) {
        st = p->pump_status();
      }
    }
    out.status = st;
    // The server owns the pumping transports, which point at the clients:
    // it goes first.
  }
  const int64_t t1 = NowNs();
  out.wall_ns = t1 - t0;
  for (const auto& node : fleet->nodes) {
    const pds::flash::Stats& s = node->chip().stats();
    out.sig.page_reads += s.page_reads;
    out.sig.page_programs += s.page_programs;
    out.sig.block_erases += s.block_erases;
    out.ram_high_water =
        std::max<uint64_t>(out.ram_high_water, node->ram().high_water());
    out.audit_entries += node->audit_entries();
  }
  out.sig.page_reads -= flash_before.page_reads;
  out.sig.page_programs -= flash_before.page_programs;
  out.sig.block_erases -= flash_before.block_erases;
  if (tracer != nullptr) {
    tracer->main.front().end = t1;
    out.acc = Account(tracer->main, tracer->sessions);
    out.acc.busy = tracer->workers->CpuNs() - busy0;
    out.acc.idle = out.acc.wall * static_cast<int64_t>(spec.workers) -
                   out.acc.busy;
  }
  return out;
}

/// Threaded reference run (one OS thread per token, TokenClient::Start) over
/// in-process transports, for the harness fidelity check.
Result<QuerySignature> RunThreadedQuery(GlobalFleet* fleet,
                                        const GlobalSpec& spec) {
  pds::net::SsiServer server(ServerConfig(spec, *fleet, nullptr));
  std::vector<std::unique_ptr<pds::net::TokenClient>> clients;
  std::vector<pds::net::Transport*> ends;
  Status st = Status::Ok();
  for (size_t i = 0; i < fleet->nodes.size(); ++i) {
    auto [server_end, client_end] = pds::net::InProcessTransport::CreatePair();
    auto client = std::make_unique<pds::net::TokenClient>(
        std::move(client_end), ClientConfig(*fleet, i));
    client->Start();
    ends.push_back(server_end.get());
    clients.push_back(std::move(client));
    Result<size_t> idx = server.AcceptSession(std::move(server_end));
    if (!idx.ok()) {
      st = idx.status();
      break;
    }
  }
  QuerySignature sig;
  if (st.ok()) {
    Result<pds::global::AggOutput> output = RunProtocol(&server, spec, *fleet);
    if (output.ok()) {
      RecordOutput(output.value(), &sig);
    } else {
      st = output.status();
    }
  }
  server.Shutdown();
  for (pds::net::Transport* t : ends) {  // Bye frames included
    sig.wire_bytes += t->bytes_sent() + t->bytes_received();
    sig.wire_frames += t->frames_sent() + t->frames_received();
  }
  for (auto& c : clients) {
    c->Stop();
    Status joined = c->Join();
    if (st.ok() && !joined.ok()) {
      st = joined;
    }
  }
  if (!st.ok()) {
    return st;
  }
  return sig;
}

/// Pumped (sockets and in-process) and threaded runs of one seeded fleet
/// must agree on the AggOutput and on the wire bytes.
void CheckFidelity(const GlobalSpec& spec, uint64_t seed,
                   std::shared_ptr<pds::crypto::PackedAggregate> packed,
                   Outcome* outcome) {
  constexpr size_t kTokens = 16;
  std::optional<QuerySignature> ref;
  const char* names[] = {"threaded-inproc", "pumped-inproc", "pumped-socket"};
  for (int mode = 0; mode < 3; ++mode) {
    auto fleet = BuildFleet(spec, kTokens, seed, packed);
    if (!fleet.ok()) {
      outcome->Fail("fidelity fleet: " + fleet.status().ToString());
      return;
    }
    QuerySignature sig;
    if (mode == 0) {
      auto r = RunThreadedQuery(fleet.value().get(), spec);
      if (!r.ok()) {
        outcome->Fail("fidelity threaded run: " + r.status().ToString());
        return;
      }
      sig = r.value();
    } else {
      GlobalSpec s = spec;
      s.sockets = mode == 2;
      QueryResult q = RunGlobalQuery(fleet.value().get(), s, nullptr, nullptr);
      if (!q.status.ok() || !q.oracle_ok) {
        outcome->Fail(std::string("fidelity ") + names[mode] + ": " +
                      q.status.ToString());
        return;
      }
      sig = q.sig;
      sig.token_frames = 0;  // the threaded run has no pump count
      sig.page_reads = sig.page_programs = sig.block_erases = 0;
    }
    if (!ref) {
      ref = sig;
    } else if (!(sig == *ref)) {
      outcome->Fail(std::string("fidelity: ") + names[mode] +
                    " differs from threaded-inproc (wire bytes " +
                    std::to_string(sig.wire_bytes) + " vs " +
                    std::to_string(ref->wire_bytes) + ")");
      return;
    }
  }
  std::printf("# fidelity ok: %zu tokens, threaded-inproc == pumped-inproc == "
              "pumped-socket, wire_bytes=%llu\n",
              kTokens, static_cast<unsigned long long>(ref->wire_bytes));
}

/// Reproducer for the SocketTransport::Recv deadline truncation that makes
/// SocketPumpShim necessary. Prints what Recv(0), Recv(1), Recv(2) return
/// with one whole frame already buffered.
void ReproduceSocketRecvDeadline() {
  auto pair = pds::net::SocketTransport::CreateUnixPair();
  if (!pair.ok()) {
    std::printf("# socket-recv reproducer: no socketpair (%s)\n",
                pair.status().ToString().c_str());
    return;
  }
  auto& [a, b] = pair.value();
  std::string line = "# socket-recv reproducer (frame buffered):";
  for (uint32_t d : {0u, 1u, 2u}) {
    if (!a->Send(ByteView(pds::net::EncodeBye())).ok()) {
      return;
    }
    Result<Bytes> r = b->Recv(d);
    line += " Recv(" + std::to_string(d) + ")=" +
            (r.ok() ? std::string("frame") : r.status().ToString());
    if (!r.ok()) {
      // Drain it so the next probe starts from one buffered frame.
      (void)b->Recv(100);
    }
  }
  std::printf("%s\n", JsonEscape(line).c_str());
}

int RunGlobal(const GlobalSpec& spec, uint64_t seed, double seconds,
              bool trace, MetricSet* metrics, Outcome* outcome,
              QueryTracer* span_sample) {
  constexpr int kWarmupQueries = 2;
  // The fleet is rebuilt every kQueriesPerFleet queries of the timed loop,
  // so setup_s is a median over set-ups spread across the run like its
  // queries, not a sample of the host's speed during one second. A run ends
  // at a fleet boundary: every fleet then serves the same queries, and the
  // per-query flash counts (device_us_per_op) are exact for a seed.
  constexpr uint64_t kQueriesPerFleet = 128;
  // Largest share of a traced query's wall time that may lie outside every
  // timed layer: transport and TokenClient construction, and the teardown
  // of the sessions. Measured about 0.15 on global-secure (a socket pair
  // per token) and 0.005 on global-packed; a lost span shows above this.
  constexpr double kMaxUnattributedShare = 0.30;
  std::vector<double> setup_s, load_s, keygen_s;
  std::unique_ptr<GlobalFleet> fleet;
  auto rebuild = [&]() -> Status {
    fleet.reset();
    const int64_t t0 = NowNs();
    auto built = BuildFleet(spec, spec.tokens, seed, nullptr);
    if (!built.ok()) {
      return built.status();
    }
    setup_s.push_back(static_cast<double>(NowNs() - t0) * 1e-9);
    fleet = std::move(built).value();
    load_s.push_back(fleet->load_s);
    keygen_s.push_back(fleet->keygen_s);
    return Status::Ok();
  };

  std::unique_ptr<pds::global::FleetExecutor> exec;
  if (spec.workers > 0) {
    exec = std::make_unique<pds::global::FleetExecutor>(spec.workers);
  }
  WorkerRegistry workers(std::this_thread::get_id());
  QueryTracer tracer;
  tracer.workers = &workers;

  // Warm-up. In traced runs the warm-up queries are traced (which registers
  // every executor worker) and also serve the determinism check: two fleets
  // built from one seed must give identical counts and results.
  std::optional<std::vector<QuerySignature>> first_sigs;
  for (int build = 0; build < (trace ? 2 : 1); ++build) {
    Status st = rebuild();
    if (!st.ok()) {
      std::printf("# setup failed: %s\n", JsonEscape(st.ToString()).c_str());
      return 1;
    }
    std::vector<QuerySignature> sigs;
    for (int q = 0; q < kWarmupQueries; ++q) {
      QueryResult r = RunGlobalQuery(fleet.get(), spec, exec.get(),
                                     trace ? &tracer : nullptr);
      if (!r.status.ok() || !r.oracle_ok) {
        outcome->Fail("warm-up query: " + r.status.ToString());
      }
      sigs.push_back(r.sig);
    }
    if (!first_sigs) {
      first_sigs = sigs;
    } else if (sigs != *first_sigs) {
      outcome->Fail("deterministic counts differ between two fleets built "
                    "from one seed");
    }
  }

  std::vector<double> latency_ms, traced_ms, untraced_ms;
  double device_us = 0;
  Accounting total;
  uint64_t traced = 0;
  QuerySignature traced_sum;
  uint64_t round_trips = 0, retries = 0, deadline_hits = 0, frame_rejects = 0;
  uint64_t ram_high_water = 0, audit_entries = 0;
  std::vector<Span> sample_main;
  std::vector<SessionTrace> sample_sessions;
  const int64_t start = NowNs();
  const int64_t end = start + static_cast<int64_t>(seconds * 1e9);
  // Slow queries may not hold a run past twice its time to reach a fleet
  // boundary.
  const int64_t hard_end = start + static_cast<int64_t>(2 * seconds * 1e9);
  for (uint64_t i = 0;; ++i) {
    const int64_t now = NowNs();
    const bool boundary = i > 0 && i % kQueriesPerFleet == 0;
    if ((boundary && now >= end) || now >= hard_end) {
      break;
    }
    if (boundary) {
      Status st = rebuild();
      if (!st.ok()) {
        std::printf("# setup failed: %s\n",
                    JsonEscape(st.ToString()).c_str());
        return 1;
      }
      for (int q = 0; q < kWarmupQueries; ++q) {
        QueryResult warm =
            RunGlobalQuery(fleet.get(), spec, exec.get(), nullptr);
        if (!warm.status.ok() || !warm.oracle_ok) {
          outcome->Fail("warm-up query after rebuild: " +
                        warm.status.ToString());
        }
      }
    }
    const bool traced_query = trace && (i % 2 == 1);
    QueryResult r = RunGlobalQuery(fleet.get(), spec, exec.get(),
                                   traced_query ? &tracer : nullptr);
    ++outcome->attempted;
    if (!r.status.ok() || !r.oracle_ok) {
      ++outcome->failed;
      if (outcome->failed <= 3) {
        std::printf("# query %llu failed: %s oracle=%d\n",
                    static_cast<unsigned long long>(i),
                    JsonEscape(r.status.ToString()).c_str(), r.oracle_ok);
      }
      continue;
    }
    const double ms = static_cast<double>(r.wall_ns) * 1e-6;
    latency_ms.push_back(ms);
    device_us += r.sig.DeviceUs();
    if (!trace) {
      continue;
    }
    if (!traced_query) {
      untraced_ms.push_back(ms);
      continue;
    }
    traced_ms.push_back(ms);
    ++traced;
    total += r.acc;
    if (r.acc.MainSum() != r.acc.wall) {
      total.nested = false;
    }
    traced_sum.wire_bytes += r.sig.wire_bytes;
    traced_sum.wire_frames += r.sig.wire_frames;
    traced_sum.token_frames += r.sig.token_frames;
    traced_sum.rounds += r.sig.rounds;
    traced_sum.token_crypto_ops += r.sig.token_crypto_ops;
    traced_sum.ssi_ops += r.sig.ssi_ops;
    traced_sum.page_reads += r.sig.page_reads;
    traced_sum.page_programs += r.sig.page_programs;
    round_trips += r.round_trips;
    retries += r.report.retries;
    deadline_hits += r.report.deadline_hits;
    frame_rejects += r.report.frame_rejects;
    ram_high_water = std::max(ram_high_water, r.ram_high_water);
    audit_entries += r.audit_entries;
    if (sample_main.empty()) {
      sample_main = tracer.main;
      sample_sessions = tracer.sessions;
    }
  }

  if (!trace) {
    double sum_ms = 0;
    for (double v : latency_ms) {
      sum_ms += v;
    }
    metrics->Set("setup_s", Quantile(setup_s, 0.5), "s");
    metrics->Set("peak_rss_mb", PeakRssMb(), "MB");
    metrics->Set("ops_per_s",
                 sum_ms > 0 ? 1000.0 * static_cast<double>(latency_ms.size()) /
                                  sum_ms
                            : 0,
                 "1/s");
    PrintDistribution("query_ms", latency_ms);
    metrics->Set("op_ms_p50", Quantile(latency_ms, 0.5), "ms");
    metrics->Set("device_us_per_op",
                 latency_ms.empty()
                     ? 0
                     : device_us / static_cast<double>(latency_ms.size()),
                 "us");
    return 0;
  }

  if (traced == 0) {
    outcome->Fail("no traced query succeeded");
  }
  CheckFidelity(spec, seed, fleet->packed, outcome);
  if (spec.sockets) {
    ReproduceSocketRecvDeadline();
  }

  // Layer-accounting self-check. Unattributed time is wall time minus the
  // top-level spans, and each SSI phase is its span minus the transport
  // spans placed inside it, so once every span is placed the sums below
  // equal wall time by construction: they guard the decomposition code, not
  // the program. The checks that can fail on a run are the nesting and
  // non-negative self times (in `nested`) and the bound on unattributed time.
  const double q = static_cast<double>(std::max<uint64_t>(traced, 1));
  auto per_q_us = [&](int64_t ns) { return static_cast<double>(ns) / q / 1e3; };
  if (!total.nested) {
    outcome->Fail("layer accounting: a span lies outside its parent, cannot "
                  "be placed, or leaves a negative self time");
  }
  if (static_cast<double>(total.unattributed) >
      kMaxUnattributedShare * static_cast<double>(total.wall)) {
    outcome->Fail("layer accounting: unattributed time " +
                  std::to_string(total.unattributed) + " ns exceeds " +
                  std::to_string(kMaxUnattributedShare) + " of wall " +
                  std::to_string(total.wall) + " ns");
  }
  if (spec.workers == 0 &&
      total.export_ns + total.token + total.send + total.recv +
              total.handshake + total.round_self + total.combine +
              total.shutdown + total.unattributed !=
          total.wall) {
    outcome->Fail("layer accounting: self times + unattributed != wall");
  }
  constexpr double kBusyTolerance = 0.02;
  if (spec.workers > 0) {
    const double capacity =
        static_cast<double>(total.wall) * static_cast<double>(spec.workers);
    if (workers.num_workers() != spec.workers ||
        static_cast<double>(total.busy) > capacity * (1 + kBusyTolerance)) {
      outcome->Fail("executor accounting: " +
                    std::to_string(workers.num_workers()) +
                    " workers seen, busy " + std::to_string(total.busy) +
                    " ns > wall x workers " + std::to_string(capacity));
    }
  }
  std::printf("# accounting: %llu traced queries; every span nested, every "
              "self time >= 0, unattributed %.4f of wall (bound %.2f); "
              "driver-thread parts sum to wall (integer ns, by "
              "construction)%s\n",
              static_cast<unsigned long long>(traced),
              total.wall > 0 ? static_cast<double>(total.unattributed) /
                                   static_cast<double>(total.wall)
                             : 0.0,
              kMaxUnattributedShare,
              spec.workers > 0
                  ? "; executor busy (worker CPU) + idle = wall x workers, "
                    "busy within 2% of capacity"
                  : "; all layers on one thread, so layer self times + "
                    "unattributed = wall (by construction)");

  const double med_traced = Quantile(traced_ms, 0.5);
  const double med_untraced = Quantile(untraced_ms, 0.5);
  metrics->Set("pds.export_us", per_q_us(total.export_ns), "us");
  metrics->Set("pds.export_page_reads",
               static_cast<double>(traced_sum.page_reads) / q, "count");
  metrics->Set("pds.export_page_programs",
               static_cast<double>(traced_sum.page_programs) / q, "count");
  metrics->Set("token.handle_us", per_q_us(total.token), "us");
  metrics->Set("token.frames", static_cast<double>(traced_sum.token_frames) / q,
               "count");
  metrics->Set("transport.send_us", per_q_us(total.send), "us");
  metrics->Set("transport.recv_us", per_q_us(total.recv), "us");
  metrics->Set("transport.frames",
               static_cast<double>(traced_sum.wire_frames) / q, "count");
  metrics->Set("transport.bytes",
               static_cast<double>(traced_sum.wire_bytes) / q, "B");
  metrics->Set("ssi.handshake_us", per_q_us(total.handshake), "us");
  metrics->Set("ssi.round_self_us", per_q_us(total.round_self), "us");
  metrics->Set("ssi.combine_us", per_q_us(total.combine), "us");
  metrics->Set("ssi.shutdown_us", per_q_us(total.shutdown), "us");
  metrics->Set("ssi.round_trips", static_cast<double>(round_trips) / q,
               "count");
  metrics->Set("ssi.retries", static_cast<double>(retries) / q, "count");
  metrics->Set("ssi.deadline_hits", static_cast<double>(deadline_hits) / q,
               "count");
  metrics->Set("ssi.frame_rejects", static_cast<double>(frame_rejects) / q,
               "count");
  metrics->Set("ssi.useful_reply_ratio",
               round_trips + retries > 0
                   ? static_cast<double>(round_trips) /
                         static_cast<double>(round_trips + retries)
                   : 0,
               "ratio");
  metrics->Set("global.rounds", static_cast<double>(traced_sum.rounds) / q,
               "count");
  metrics->Set("global.token_crypto_ops",
               static_cast<double>(traced_sum.token_crypto_ops) / q, "count");
  metrics->Set("global.ssi_ops", static_cast<double>(traced_sum.ssi_ops) / q,
               "count");
  metrics->Set("executor.busy_us", per_q_us(total.busy), "us");
  metrics->Set("executor.idle_us", per_q_us(total.idle), "us");
  metrics->Set("unattributed_us", per_q_us(total.unattributed), "us");
  metrics->Set("trace.wall_us", per_q_us(total.wall), "us");
  metrics->Set("trace.ops", static_cast<double>(traced), "count");
  metrics->Set("trace.overhead_pct",
               med_untraced > 0 ? 100.0 * (med_traced - med_untraced) /
                                      med_untraced
                                : 0,
               "%");
  metrics->Set("logstore.audit_entries",
               static_cast<double>(audit_entries) / q, "count");
  metrics->Set("mcu.ram_high_water_bytes", static_cast<double>(ram_high_water),
               "B");
  metrics->Set("setup.fleet_load_s", Quantile(load_s, 0.5), "s");
  metrics->Set("setup.keygen_s", Quantile(keygen_s, 0.5), "s");

  // Bounded span sample: the first timed traced query.
  span_sample->main = std::move(sample_main);
  span_sample->sessions = std::move(sample_sessions);
  return 0;
}

// ---------------------------------------------------------------------------
// token-local workload.

constexpr uint64_t kPreloadRows = 2000;
constexpr uint64_t kPatients = 256;
constexpr uint64_t kDays = 3650;
constexpr uint64_t kRangeDays = 30;
constexpr int kOpsPerEpoch = 3000;
// Reorganizing an already reorganized index is unsupported
// (FailedPrecondition), so each epoch reorganizes the patient index once,
// halfway through; later lookups and inserts see tree + delta.
constexpr int kReorgAt = kOpsPerEpoch / 2;

enum OpClass : int { kInsert, kLookup, kScan, kSpj, kReorg, kNumClasses };
const char* const kClassNames[] = {"insert", "lookup", "scan", "spj", "reorg"};

struct Op {
  OpClass cls;
  uint64_t a = 0;
  uint64_t b = 0;
  uint64_t c = 0;
};

/// The fixed op sequence of one epoch: a pure function of the seed.
std::vector<Op> MakeOps(uint64_t seed) {
  Rng rng(seed ^ 0x6f7073ull);
  std::vector<uint64_t> spj_pairs(5 * 10);
  for (uint64_t i = 0; i < spj_pairs.size(); ++i) {
    spj_pairs[i] = i;
  }
  rng.Shuffle(&spj_pairs);
  size_t next_pair = 0;
  std::vector<Op> ops;
  for (int j = 0; j < kOpsPerEpoch; ++j) {
    Op op;
    if (j == kReorgAt) {
      op.cls = kReorg;
    } else {
      const uint64_t r = rng.Uniform(100);
      op.cls = r < 30 ? kInsert : r < 70 ? kLookup : r < 85 ? kScan : kSpj;
    }
    switch (op.cls) {
      case kInsert:
        op.a = rng.Uniform(kPatients);
        op.b = rng.Uniform(kDays);
        op.c = rng.Uniform(10000);
        break;
      case kLookup:
        op.a = rng.Uniform(kPatients);
        break;
      case kScan:
        op.a = rng.Uniform(kDays - kRangeDays);
        break;
      case kSpj:
        // Cycle through every (segment, supplier) pair: each lineitem
        // matches exactly one pair, so an epoch's SPJ work does not depend
        // on which selections the seed picks.
        op.a = spj_pairs[next_pair % spj_pairs.size()] / 10;
        op.b = spj_pairs[next_pair % spj_pairs.size()] % 10;
        ++next_pair;
        break;
      default:
        break;
    }
    ops.push_back(op);
  }
  return ops;
}

Tuple VisitRow(uint64_t id, uint64_t patient, uint64_t day, uint64_t cost) {
  return {Value::U64(id), Value::U64(patient), Value::U64(day),
          Value::U64(cost), Value::Str("dr-" + std::to_string(patient % 17))};
}

uint64_t UserBytes(const Tuple& t) {
  uint64_t n = 0;
  for (const Value& v : t) {
    n += v.type() == pds::embdb::ColumnType::kString ? v.AsStr().size() : 8;
  }
  return n;
}

struct LocalToken {
  std::unique_ptr<pds::node::PdsNode> node;
  pds::workloads::TpcdInstance tpcd;
  std::unique_ptr<pds::embdb::TjoinIndex> tjoin;
  std::unique_ptr<pds::embdb::TselectIndex> tsel_customer;
  std::unique_ptr<pds::embdb::TselectIndex> tsel_supplier;
  std::vector<Tuple> shadow;  // every row of `visits`, in id order
};

/// Result rows of the tutorial SPJ per (segment, supplier).
using SpjCounts = std::map<std::pair<uint64_t, uint64_t>, uint64_t>;

/// Naive join over rows read back with full scans: the SPJ oracle. The ops
/// never write the TPC-D tables, so one count per seed serves every epoch.
Result<SpjCounts> NaiveSpjCounts(const LocalToken& t) {
  auto scan = [](pds::embdb::TableHeap* heap, std::vector<Tuple>* rows) {
    return pds::embdb::ScanFilter(heap, {},
                                  [&](uint64_t, const Tuple& row) {
                                    rows->push_back(row);
                                    return Status::Ok();
                                  });
  };
  std::vector<Tuple> supplier, customer, orders, partsupp, lineitem;
  PDS_RETURN_IF_ERROR(scan(t.tpcd.supplier, &supplier));
  PDS_RETURN_IF_ERROR(scan(t.tpcd.customer, &customer));
  PDS_RETURN_IF_ERROR(scan(t.tpcd.orders, &orders));
  PDS_RETURN_IF_ERROR(scan(t.tpcd.partsupp, &partsupp));
  PDS_RETURN_IF_ERROR(scan(t.tpcd.lineitem, &lineitem));
  std::map<uint64_t, std::string> segment_of_customer, name_of_supplier;
  for (const Tuple& c : customer) {
    segment_of_customer[c[0].AsU64()] = c[2].AsStr();
  }
  for (const Tuple& s : supplier) {
    name_of_supplier[s[0].AsU64()] = s[1].AsStr();
  }
  std::map<uint64_t, uint64_t> customer_of_order, supplier_of_ps;
  for (const Tuple& o : orders) {
    customer_of_order[o[0].AsU64()] = o[1].AsU64();
  }
  for (const Tuple& p : partsupp) {
    supplier_of_ps[p[0].AsU64()] = p[1].AsU64();
  }
  SpjCounts counts;
  for (uint64_t seg = 0; seg < 5; ++seg) {
    for (uint64_t sup = 0; sup < 10; ++sup) {
      const std::string want_seg =
          pds::workloads::SegmentName(static_cast<uint32_t>(seg));
      const std::string want_sup = pds::workloads::SupplierName(sup);
      uint64_t count = 0;
      for (const Tuple& l : lineitem) {
        const uint64_t cust = customer_of_order[l[1].AsU64()];
        const uint64_t supp = supplier_of_ps[l[2].AsU64()];
        if (segment_of_customer[cust] == want_seg &&
            name_of_supplier[supp] == want_sup) {
          ++count;
        }
      }
      counts[{seg, sup}] = count;
    }
  }
  return counts;
}

Result<std::unique_ptr<LocalToken>> BuildLocalToken(uint64_t seed) {
  auto t = std::make_unique<LocalToken>();
  pds::node::PdsNode::Config cfg;  // defaults: 64 KB RAM, 128 MB flash
  cfg.node_id = 1;
  cfg.fleet_key = pds::crypto::KeyFromString("perfbench-local");
  cfg.rng_seed = seed;
  t->node = std::make_unique<pds::node::PdsNode>(cfg);
  pds::node::PdsNode& node = *t->node;
  const pds::embdb::Schema visits(
      "visits", {{"id", pds::embdb::ColumnType::kUint64, ""},
                 {"patient", pds::embdb::ColumnType::kUint64, ""},
                 {"day", pds::embdb::ColumnType::kUint64, ""},
                 {"cost", pds::embdb::ColumnType::kUint64, ""},
                 {"doctor", pds::embdb::ColumnType::kString, ""}});
  PDS_RETURN_IF_ERROR(node.DefineTable(visits));
  PDS_RETURN_IF_ERROR(
      node.db().CreateKeyIndex("visits", "patient", {}));
  node.policies().AddRule(
      {kOwner.role, pds::ac::Action::kInsert, "visits", {}, std::nullopt});
  node.policies().AddRule(
      {kOwner.role, pds::ac::Action::kRead, "visits", {}, std::nullopt});
  Rng rows(seed);
  for (uint64_t id = 0; id < kPreloadRows; ++id) {
    Tuple row = VisitRow(id, rows.Uniform(kPatients), rows.Uniform(kDays),
                         rows.Uniform(10000));
    PDS_RETURN_IF_ERROR(node.db().Insert("visits", row).status());
    t->shadow.push_back(std::move(row));
  }
  pds::workloads::TpcdConfig tcfg;
  tcfg.seed = seed;
  tcfg.table_options.data_blocks = 4;
  tcfg.table_options.directory_blocks = 2;
  PDS_ASSIGN_OR_RETURN(t->tpcd, pds::workloads::LoadTpcd(&node.db(), tcfg));
  PDS_ASSIGN_OR_RETURN(pds::embdb::TjoinIndex tjoin,
                       pds::embdb::TjoinIndex::Build(t->tpcd.path,
                                                     node.db().allocator()));
  PDS_ASSIGN_OR_RETURN(
      pds::embdb::TselectIndex tc,
      pds::embdb::TselectIndex::Build(t->tpcd.path,
                                      pds::workloads::kCustomer, 2,
                                      node.db().allocator(), &node.ram()));
  PDS_ASSIGN_OR_RETURN(
      pds::embdb::TselectIndex ts,
      pds::embdb::TselectIndex::Build(t->tpcd.path,
                                      pds::workloads::kSupplier, 1,
                                      node.db().allocator(), &node.ram()));
  t->tjoin = std::make_unique<pds::embdb::TjoinIndex>(std::move(tjoin));
  t->tsel_customer = std::make_unique<pds::embdb::TselectIndex>(std::move(tc));
  t->tsel_supplier = std::make_unique<pds::embdb::TselectIndex>(std::move(ts));
  node.chip().ResetStats();
  node.ram().ResetHighWater();
  return t;
}

/// Counts and results of one epoch: identical for every epoch of a seed.
struct EpochSignature {
  pds::flash::Stats flash;
  uint64_t rows_returned = 0;
  uint64_t spj_rows = 0;
  uint64_t audit_entries = 0;
  bool operator==(const EpochSignature& o) const {
    return flash.page_reads == o.flash.page_reads &&
           flash.page_programs == o.flash.page_programs &&
           flash.block_erases == o.flash.block_erases &&
           rows_returned == o.rows_returned && spj_rows == o.spj_rows &&
           audit_entries == o.audit_entries;
  }
};

struct EpochResult {
  double setup_s = 0;
  std::vector<double> op_us[kNumClasses];
  pds::flash::Stats class_flash[kNumClasses];
  uint64_t class_ops[kNumClasses] = {};
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t user_bytes = 0;
  uint64_t spj_examined = 0;
  uint64_t spj_results = 0;
  pds::flash::Stats spj_stage[3];
  EpochSignature sig;
  uint64_t ram_high_water = 0;
  double audit_fill = 0;
  std::vector<Span> spans;  // traced epochs: one span per op
};

pds::flash::Stats operator+(const pds::flash::Stats& a,
                            const pds::flash::Stats& b) {
  return {a.page_reads + b.page_reads, a.page_programs + b.page_programs,
          a.block_erases + b.block_erases};
}

EpochResult RunEpoch(uint64_t seed, const std::vector<Op>& ops,
                     const SpjCounts& spj_expected, bool traced,
                     Outcome* outcome) {
  EpochResult e;
  const int64_t s0 = NowNs();
  auto built = BuildLocalToken(seed);
  e.setup_s = static_cast<double>(NowNs() - s0) * 1e-9;
  if (!built.ok()) {
    outcome->Fail("token-local setup: " + built.status().ToString());
    e.failed = e.attempted = 1;
    return e;
  }
  LocalToken& t = *built.value();
  pds::node::PdsNode& node = *t.node;
  pds::embdb::SpjExecutor spj(t.tpcd.path, t.tjoin.get(),
                              {t.tsel_customer.get(), t.tsel_supplier.get()},
                              &node.ram());
  // Shadow secondary structures for the oracle.
  std::map<uint64_t, std::vector<uint64_t>> ids_of_patient;
  for (const Tuple& row : t.shadow) {
    ids_of_patient[row[1].AsU64()].push_back(row[0].AsU64());
  }
  uint64_t next_id = t.shadow.size();
  auto fail = [&](const std::string& why) {
    ++e.failed;
    if (e.failed <= 3) {
      std::printf("# op failed: %s\n", JsonEscape(why).c_str());
    }
  };
  for (const Op& op : ops) {
    ++e.attempted;
    const pds::flash::Stats before = node.chip().stats();
    std::vector<uint64_t> got_ids;
    auto collect = [&](const Tuple& row) {
      got_ids.push_back(row[0].AsU64());
      return Status::Ok();
    };
    Status st = Status::Ok();
    Tuple inserted;
    pds::embdb::SpjStats spj_stats;
    pds::embdb::QueryProfile profile;
    uint64_t spj_rows = 0;
    const int64_t t0 = NowNs();
    switch (op.cls) {
      case kInsert:
        inserted = VisitRow(next_id, op.a, op.b, op.c);
        st = node.InsertAs(kOwner, "visits", inserted).status();
        break;
      case kLookup:
        st = node.QueryAs(kOwner, "visits",
                          {Predicate{1, Predicate::Op::kEq, Value::U64(op.a)}},
                          {}, collect);
        break;
      case kScan:
        st = node.QueryAs(
            kOwner, "visits",
            {Predicate{2, Predicate::Op::kGe, Value::U64(op.a)},
             Predicate{2, Predicate::Op::kLt, Value::U64(op.a + kRangeDays)}},
            {}, collect);
        break;
      case kSpj:
        st = spj.Execute(
            pds::workloads::TutorialQuery(static_cast<uint32_t>(op.a), op.b),
            [&](const Tuple&) {
              ++spj_rows;
              return Status::Ok();
            },
            &spj_stats, traced ? &profile : nullptr);
        break;
      case kReorg:
        st = node.db().ReorganizeIndex("visits", "patient");
        break;
      default:
        break;
    }
    const int64_t t1 = NowNs();
    const pds::flash::Stats delta = node.chip().stats() - before;
    e.op_us[op.cls].push_back(static_cast<double>(t1 - t0) * 1e-3);
    e.class_flash[op.cls] = e.class_flash[op.cls] + delta;
    ++e.class_ops[op.cls];
    if (traced) {
      e.spans.push_back({t0, t1, kOpSpan, 0, static_cast<uint8_t>(op.cls), -1});
    }
    if (!st.ok()) {
      fail(std::string(kClassNames[op.cls]) + ": " + st.ToString());
      continue;
    }
    // Oracle against the benchmark-side shadow (outside the timed region).
    switch (op.cls) {
      case kInsert: {
        e.user_bytes += UserBytes(inserted);
        ids_of_patient[op.a].push_back(next_id);
        t.shadow.push_back(std::move(inserted));
        ++next_id;
        break;
      }
      case kLookup: {
        std::vector<uint64_t> want = ids_of_patient[op.a];
        std::sort(got_ids.begin(), got_ids.end());
        if (got_ids != want) {
          fail("lookup patient " + std::to_string(op.a) + " returned " +
               std::to_string(got_ids.size()) + " rows, want " +
               std::to_string(want.size()));
        }
        e.sig.rows_returned += got_ids.size();
        break;
      }
      case kScan: {
        std::vector<uint64_t> want;
        for (const Tuple& row : t.shadow) {
          const uint64_t day = row[2].AsU64();
          if (day >= op.a && day < op.a + kRangeDays) {
            want.push_back(row[0].AsU64());
          }
        }
        std::sort(got_ids.begin(), got_ids.end());
        if (got_ids != want) {
          fail("range scan returned " + std::to_string(got_ids.size()) +
               " rows, want " + std::to_string(want.size()));
        }
        e.sig.rows_returned += got_ids.size();
        break;
      }
      case kSpj: {
        const auto it = spj_expected.find({op.a, op.b});
        const uint64_t want = it == spj_expected.end() ? 0 : it->second;
        if (spj_rows != want || spj_stats.result_rows != want) {
          fail("spj returned " + std::to_string(spj_rows) + " rows, want " +
               std::to_string(want));
        }
        e.sig.spj_rows += spj_rows;
        e.spj_examined += spj_stats.rowids_from_indexes;
        e.spj_results += spj_stats.result_rows;
        for (const pds::embdb::StageProfile& stage : profile.stages) {
          const std::string name = stage.op;
          const int k = name == "tselect" ? 0 : name == "merge" ? 1 : 2;
          e.spj_stage[k] = e.spj_stage[k] + stage.flash;
        }
        break;
      }
      default:
        break;
    }
  }
  e.sig.flash = node.chip().stats();
  e.sig.audit_entries = node.audit_entries();
  e.ram_high_water = node.ram().high_water();
  if (traced) {
    // Audit partition fill: framed record bytes over partition bytes.
    auto log = node.ReadAuditLog();
    if (log.ok()) {
      uint64_t bytes = 0;
      for (const std::string& rec : log.value()) {
        bytes += 4 + rec.size();
      }
      const pds::flash::Geometry& g = node.chip().geometry();
      const uint64_t partition =
          uint64_t{pds::node::PdsNode::Config{}.audit_blocks} *
          g.pages_per_block * g.page_size;
      e.audit_fill =
          static_cast<double>(bytes) / static_cast<double>(partition);
    }
  }
  return e;
}

/// Audited inserts into a fresh default node until one fails: the number of
/// policy-checked ops the default audit partition holds.
uint64_t MeasureAuditCliff(uint64_t seed, std::string* status) {
  auto built = BuildLocalToken(seed);
  if (!built.ok()) {
    *status = built.status().ToString();
    return 0;
  }
  pds::node::PdsNode& node = *built.value()->node;
  for (uint64_t i = 0; i < 1000000; ++i) {
    Status st =
        node.InsertAs(kOwner, "visits", VisitRow(kPreloadRows + i, 1, 1, 1))
            .status();
    if (!st.ok()) {
      *status = st.ToString();
      return node.audit_entries();
    }
  }
  *status = "no failure";
  return node.audit_entries();
}

int RunLocal(uint64_t seed, double seconds, bool trace, MetricSet* metrics,
             Outcome* outcome, std::vector<Span>* span_sample) {
  const std::vector<Op> ops = MakeOps(seed);
  // The SPJ oracle, from a token of its own, outside every timed set-up.
  SpjCounts spj_expected;
  {
    auto built = BuildLocalToken(seed);
    Result<SpjCounts> counts = built.ok()
                                   ? NaiveSpjCounts(*built.value())
                                   : Result<SpjCounts>(built.status());
    if (!counts.ok()) {
      std::printf("# setup failed: %s\n",
                  JsonEscape(counts.status().ToString()).c_str());
      return 1;
    }
    spj_expected = std::move(counts.value());
  }
  // Warm-up epoch: allocator and page cache; not reported.
  (void)RunEpoch(seed, ops, spj_expected, false, outcome);
  std::vector<EpochResult> epochs;
  const int64_t end = NowNs() + static_cast<int64_t>(seconds * 1e9);
  const size_t min_epochs = trace ? 2 : 1;
  for (size_t i = 0; epochs.size() < min_epochs || NowNs() < end; ++i) {
    epochs.push_back(
        RunEpoch(seed, ops, spj_expected, trace && i % 2 == 1, outcome));
    const EpochResult& e = epochs.back();
    outcome->attempted += e.attempted;
    outcome->failed += e.failed;
    if (!(e.sig == epochs.front().sig)) {
      outcome->Fail("token-local epochs of one seed differ in counts");
    }
  }

  std::vector<double> setup_s, all_us, traced_us, untraced_us;
  std::vector<double> class_us[kNumClasses];
  pds::flash::Stats class_flash[kNumClasses];
  uint64_t class_ops[kNumClasses] = {};
  uint64_t user_bytes = 0, spj_examined = 0, spj_results = 0, ram_hw = 0;
  pds::flash::Stats spj_stage[3];
  uint64_t traced_epochs = 0;
  double audit_fill = 0;
  double device_us = 0;
  int64_t traced_wall_ns = 0;
  for (const EpochResult& e : epochs) {
    setup_s.push_back(e.setup_s);
    const bool traced = !e.spans.empty();
    for (int c = 0; c < kNumClasses; ++c) {
      for (double v : e.op_us[c]) {
        (traced ? traced_us : untraced_us).push_back(v);
        if (!trace) {
          all_us.push_back(v);
        }
        if (traced) {
          class_us[c].push_back(v);
        }
      }
    }
    for (int c = 0; c < kNumClasses; ++c) {
      device_us += e.class_flash[c].TimeUs(pds::flash::CostModel{});
    }
    if (!traced) {
      continue;
    }
    ++traced_epochs;
    for (int c = 0; c < kNumClasses; ++c) {
      class_flash[c] = class_flash[c] + e.class_flash[c];
      class_ops[c] += e.class_ops[c];
    }
    for (const Span& s : e.spans) {
      traced_wall_ns += s.end - s.start;
    }
    user_bytes += e.user_bytes;
    spj_examined += e.spj_examined;
    spj_results += e.spj_results;
    for (int k = 0; k < 3; ++k) {
      spj_stage[k] = spj_stage[k] + e.spj_stage[k];
    }
    ram_hw = std::max(ram_hw, e.ram_high_water);
    audit_fill = e.audit_fill;
    if (span_sample->empty()) {
      *span_sample = e.spans;
    }
  }

  if (!trace) {
    double sum_us = 0;
    for (double v : all_us) {
      sum_us += v;
    }
    metrics->Set("setup_s", Quantile(setup_s, 0.5), "s");
    metrics->Set("peak_rss_mb", PeakRssMb(), "MB");
    metrics->Set("ops_per_s",
                 sum_us > 0 ? 1e6 * static_cast<double>(all_us.size()) / sum_us
                            : 0,
                 "1/s");
    PrintDistribution("op_us", all_us);
    metrics->Set("op_ms_p50", Quantile(all_us, 0.5) * 1e-3, "ms");
    metrics->Set(
        "device_us_per_op",
        all_us.empty() ? 0 : device_us / static_cast<double>(all_us.size()),
        "us");
    return 0;
  }

  std::string cliff_status;
  const uint64_t cliff = MeasureAuditCliff(seed, &cliff_status);
  std::printf("# audit cliff: %llu audited ops, then %s\n",
              static_cast<unsigned long long>(cliff),
              JsonEscape(cliff_status).c_str());

  const double eps = static_cast<double>(std::max<uint64_t>(traced_epochs, 1));
  uint64_t total_ops = 0;
  pds::flash::Stats total_flash;
  for (int c = 0; c < kNumClasses; ++c) {
    total_ops += class_ops[c];
    total_flash = total_flash + class_flash[c];
  }
  auto per = [](uint64_t num, uint64_t den) {
    return den > 0 ? static_cast<double>(num) / static_cast<double>(den) : 0.0;
  };
  double reorg_sum = 0;
  for (double v : class_us[kReorg]) {
    reorg_sum += v;
  }
  const pds::flash::Geometry geometry;
  metrics->Set("embdb.insert_us", Quantile(class_us[kInsert], 0.5), "us");
  metrics->Set("embdb.lookup_us", Quantile(class_us[kLookup], 0.5), "us");
  metrics->Set("embdb.scan_us", Quantile(class_us[kScan], 0.5), "us");
  metrics->Set("embdb.spj_us", Quantile(class_us[kSpj], 0.5), "us");
  metrics->Set("embdb.reorg_us",
               class_us[kReorg].empty()
                   ? 0
                   : reorg_sum / static_cast<double>(class_us[kReorg].size()),
               "us");
  metrics->Set("embdb.reorg_count",
               static_cast<double>(class_ops[kReorg]) / eps, "count");
  metrics->Set("embdb.spj_rows_examined_per_result",
               per(spj_examined, spj_results), "ratio");
  metrics->Set("embdb.spj_tselect_page_reads",
               per(spj_stage[0].page_reads, class_ops[kSpj]), "count");
  metrics->Set("embdb.spj_merge_page_reads",
               per(spj_stage[1].page_reads, class_ops[kSpj]), "count");
  metrics->Set("embdb.spj_join_fetch_page_reads",
               per(spj_stage[2].page_reads, class_ops[kSpj]), "count");
  metrics->Set("flash.page_reads_per_lookup",
               per(class_flash[kLookup].page_reads, class_ops[kLookup]),
               "count");
  metrics->Set("flash.page_reads_per_spj",
               per(class_flash[kSpj].page_reads, class_ops[kSpj]), "count");
  metrics->Set("flash.page_programs_per_insert",
               per(class_flash[kInsert].page_programs, class_ops[kInsert]),
               "count");
  metrics->Set("flash.block_erases",
               static_cast<double>(total_flash.block_erases) / eps, "count");
  metrics->Set("flash.bytes_per_user_byte",
               per(total_flash.page_programs * geometry.page_size, user_bytes),
               "ratio");
  metrics->Set("logstore.audit_entries",
               static_cast<double>(epochs.front().sig.audit_entries), "count");
  metrics->Set("logstore.audit_fill_ratio", audit_fill, "ratio");
  metrics->Set("logstore.audit_cliff_ops", static_cast<double>(cliff),
               "count");
  metrics->Set("mcu.ram_high_water_bytes", static_cast<double>(ram_hw), "B");
  metrics->Set("setup.fleet_load_s", Quantile(setup_s, 0.5), "s");
  metrics->Set("trace.wall_us",
               total_ops > 0 ? static_cast<double>(traced_wall_ns) * 1e-3 /
                                   static_cast<double>(total_ops)
                             : 0,
               "us");
  metrics->Set("trace.ops", static_cast<double>(total_ops), "count");
  const double med_traced = Quantile(traced_us, 0.5);
  const double med_untraced = Quantile(untraced_us, 0.5);
  metrics->Set("trace.overhead_pct",
               med_untraced > 0
                   ? 100.0 * (med_traced - med_untraced) / med_untraced
                   : 0,
               "%");
  return 0;
}

// ---------------------------------------------------------------------------

void WriteSpans(const std::string& path, const std::string& workload,
                const QueryTracer& tracer, const std::vector<Span>& local) {
  std::ofstream out(path);
  if (!out) {
    std::printf("# cannot write spans to %s\n", path.c_str());
    return;
  }
  int64_t origin = 0;
  if (!tracer.main.empty()) {
    origin = tracer.main.front().start;
  } else if (!local.empty()) {
    origin = local.front().start;
  }
  out << "{\"workload\": \"" << workload << "\", \"traceEvents\": [";
  bool first = true;
  auto emit = [&](const Span& s, const char* name, int tid, int session) {
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": %d,"
                  " \"ts\": %.3f, \"dur\": %.3f, \"args\": {\"session\": %d}}",
                  first ? "" : ",\n", name, tid,
                  static_cast<double>(s.start - origin) * 1e-3,
                  static_cast<double>(s.end - s.start) * 1e-3, session);
    out << buf;
    first = false;
  };
  for (const Span& s : tracer.main) {
    emit(s, kSpanNames[s.kind], 0, -1);
  }
  for (size_t i = 0; i < tracer.sessions.size(); ++i) {
    for (const Span& s : tracer.sessions[i].spans) {
      emit(s, kSpanNames[s.kind], s.thread, static_cast<int>(i));
    }
  }
  for (const Span& s : local) {
    emit(s, kClassNames[s.op_class], 0, -1);
  }
  out << "]}\n";
}

/// Pins the process (and the threads it starts later) to the `count`
/// highest-numbered CPUs it may use, one per thread that runs at a time.
/// Migrations between cores, and CPU 0's interrupt and housekeeping load,
/// otherwise make latency bimodal from one run to the next. Returns the CPUs
/// as a list, or "none" when the affinity cannot be read or set.
std::string PinToLastCpus(int count) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) {
    return "none";
  }
  cpu_set_t chosen;
  CPU_ZERO(&chosen);
  std::string list;
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0 && count > 0; --cpu) {
    if (CPU_ISSET(cpu, &allowed)) {
      CPU_SET(cpu, &chosen);
      list = std::to_string(cpu) + (list.empty() ? "" : ",") + list;
      --count;
    }
  }
  if (list.empty() || sched_setaffinity(0, sizeof(chosen), &chosen) != 0) {
    return "none";
  }
  return list;
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  }
  return "unknown";
}

int Usage() {
  std::fprintf(stderr,
               "usage: pdsbench --workload global-packed|global-secure|"
               "token-local --seed N --seconds S --trace 0|1 [--spans PATH] "
               "[--commit ID]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  // Keep freed memory in the process. With glibc's adaptive thresholds a
  // torn-down fleet's pages went back to the kernel on some rebuilds and not
  // on others, and a rebuild that faults its 256 MB in again takes 4x as
  // long, so setup_s of one seed read 0.05 s or 0.2 s from run to run.
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
  std::string workload, spans_path, commit = "unknown";
  uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    if (key == "--workload") {
      workload = val;
    } else if (key == "--seed") {
      seed = std::strtoull(val.c_str(), nullptr, 10);
      have_seed = true;
    } else if (key == "--seconds") {
      seconds = std::strtod(val.c_str(), nullptr);
    } else if (key == "--trace") {
      trace = std::atoi(val.c_str());
    } else if (key == "--spans") {
      spans_path = val;
    } else if (key == "--commit") {
      commit = val;
    } else {
      return Usage();
    }
  }
  if (workload.empty() || !have_seed || seconds <= 0 ||
      (trace != 0 && trace != 1) || argc % 2 == 0) {
    return Usage();
  }

  const std::string build_type = PERFBENCH_BUILD_TYPE;
#if defined(__OPTIMIZE__) && defined(NDEBUG)
  const bool optimized = true;
#else
  const bool optimized = false;
#endif
  if (build_type != "Release" || !optimized) {
    std::fprintf(stderr, "pdsbench: refusing to time a %s build\n",
                 build_type.c_str());
    return 3;
  }
  // Timed runs never use the program's own obs tracer.
  pds::obs::Tracer::Global().SetEnabled(false);
  // On global-packed the driver thread waits while the 3 workers run.
  const std::string pinned_cpus = PinToLastCpus(
      workload == kGlobalPacked.name ? static_cast<int>(kGlobalPacked.workers)
                                     : 1);

  std::printf(
      "# env {\"nproc\": %u, \"cpu\": \"%s\", \"kernel\": \"%s\", "
      "\"build_type\": \"%s\", \"pds_obs\": %d, \"obs_tracer\": %d, "
      "\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, \"trace\": %d, "
      "\"pinned_cpus\": \"%s\", \"commit\": \"%s\"}\n",
      std::thread::hardware_concurrency(), JsonEscape(CpuModel()).c_str(),
      pds::crypto::simd::KernelName(), build_type.c_str(), PDS_OBS_ENABLED,
      pds::obs::Tracer::Global().enabled() ? 1 : 0, workload.c_str(),
      static_cast<unsigned long long>(seed), seconds, trace,
      pinned_cpus.c_str(),
      JsonEscape(commit).c_str());
  std::fflush(stdout);

  MetricSet metrics;
  Outcome outcome;
  QueryTracer global_spans;
  std::vector<Span> local_spans;
  int rc = 0;
  if (workload == kGlobalPacked.name || workload == kGlobalSecure.name) {
    const GlobalSpec& spec =
        workload == kGlobalPacked.name ? kGlobalPacked : kGlobalSecure;
    rc = RunGlobal(spec, seed, seconds, trace == 1, &metrics, &outcome,
                   &global_spans);
  } else if (workload == "token-local") {
    rc = RunLocal(seed, seconds, trace == 1, &metrics, &outcome, &local_spans);
  } else {
    return Usage();
  }
  if (rc != 0) {
    return rc;
  }
  if (trace == 1 && !spans_path.empty()) {
    WriteSpans(spans_path, workload, global_spans, local_spans);
  }
  const bool correct =
      outcome.checks_ok && outcome.failed == 0 && outcome.attempted > 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(outcome.attempted),
              static_cast<unsigned long long>(outcome.failed),
              metrics.Json().c_str());
  return 0;
}

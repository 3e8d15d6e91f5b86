// crypto_round_bench — the documented driver for the batched/packed crypto
// hot-path numbers:
//
//   build/bench/crypto_round_bench --out rounds.json
//
// It times one [TNP14] fleet aggregation round at fleet size 64 with 8
// counters per site, two ways:
//
//   fleet_round_per_op — the PR 1 baseline: one Paillier encryption per
//     site per counter, k homomorphic folds, k decryptions
//     (fleet * k + k asymmetric ops per round);
//   fleet_round_packed — slot packing + the lockstep batch-window ladder
//     over the multi-lane Montgomery kernel: one ciphertext per site, one
//     fold, ONE decrypt-unpack (fleet + 1 asymmetric ops per round).
//
// Every timed round's totals are cross-checked against the plaintext sums,
// and the packed path is additionally re-run with the SIMD kernel forced
// to its scalar fallback to prove the ciphertexts are byte-identical on
// both dispatch paths. Any mismatch — or a packed speedup below the 3x
// acceptance floor — exits non-zero, which is what the CI schema check
// builds on. Each path warms up once untimed, then reports the median of
// kReps timed rounds.

#include <algorithm>
#include <chrono>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "crypto/montgomery_simd.h"
#include "crypto/paillier.h"

namespace {

using pds::Rng;
using pds::crypto::BigInt;
using pds::crypto::PackedAggregate;
using pds::crypto::Paillier;
using Totals = pds::Result<std::vector<uint64_t>>;

constexpr size_t kFleet = 64;
constexpr size_t kCounters = 8;
constexpr uint64_t kMaxValue = 255;
constexpr size_t kKeyBits = 512;
constexpr int kReps = 5;

int Fail(const std::string& what) {
  std::cerr << "crypto_round_bench: FAILED: " << what << "\n";
  return 1;
}

std::vector<std::vector<uint64_t>> MakeSiteCounters() {
  Rng rng(91);
  std::vector<std::vector<uint64_t>> rows(kFleet,
                                          std::vector<uint64_t>(kCounters));
  for (auto& row : rows) {
    for (auto& v : row) {
      v = rng.Uniform(kMaxValue + 1);
    }
  }
  return rows;
}

std::vector<uint64_t> PlainTotals(
    const std::vector<std::vector<uint64_t>>& rows) {
  std::vector<uint64_t> totals(kCounters, 0);
  for (const auto& row : rows) {
    for (size_t i = 0; i < kCounters; ++i) {
      totals[i] += row[i];
    }
  }
  return totals;
}

/// The per-op round: for each counter, every site encrypts its value
/// under a sub-stream seeded serially off `rng`, the SSI folds the column
/// and the querier decrypts it.
Totals PerOpRound(const Paillier& paillier,
                  const std::vector<std::vector<uint64_t>>& rows, Rng* rng) {
  std::vector<uint64_t> totals(kCounters);
  for (size_t j = 0; j < kCounters; ++j) {
    BigInt acc;
    for (size_t i = 0; i < rows.size(); ++i) {
      Rng site(rng->Next());
      auto ct = paillier.EncryptU64(rows[i][j], &site);
      if (!ct.ok()) {
        return ct.status();
      }
      acc = i == 0 ? std::move(*ct) : paillier.AddCiphertexts(acc, *ct);
    }
    auto total = paillier.DecryptU64(acc);
    if (!total.ok()) {
      return total.status();
    }
    totals[j] = *total;
  }
  return totals;
}

/// The packed round: one lockstep batch encrypts every site's packed
/// counters, the SSI folds the fleet, and ONE decrypt-unpack yields every
/// total.
Totals PackedRound(const PackedAggregate& agg,
                   const std::vector<std::vector<uint64_t>>& rows, Rng* rng) {
  if (auto st = agg.CheckAddBudget(rows.size()); !st.ok()) {
    return st;
  }
  auto cts = agg.EncryptPackedBatch(rows, rng);
  if (!cts.ok()) {
    return cts.status();
  }
  BigInt acc = (*cts)[0];
  for (size_t i = 1; i < cts->size(); ++i) {
    acc = agg.Add(acc, (*cts)[i]);
  }
  return agg.DecryptUnpack(acc);
}

double MedianNs(std::vector<double> ns) {
  std::sort(ns.begin(), ns.end());
  return ns[ns.size() / 2];
}

/// Runs `round` once untimed (warmup), then kReps timed rounds, verifying
/// every round's totals against the plaintext sums. Returns the median
/// round time in ns, or a negative value on failure.
template <typename RoundFn>
double TimeRounds(const char* what, const std::vector<uint64_t>& expected,
                  RoundFn round) {
  auto check = [&](const Totals& out) {
    if (!out.ok()) {
      std::cerr << "crypto_round_bench: " << what << ": "
                << out.status().ToString() << "\n";
      return false;
    }
    if (*out != expected) {
      std::cerr << "crypto_round_bench: " << what
                << ": totals do not match plaintext sums\n";
      return false;
    }
    return true;
  };
  if (!check(round())) {
    return -1.0;
  }
  std::vector<double> ns;
  for (int rep = 0; rep < kReps; ++rep) {
    auto t0 = std::chrono::steady_clock::now();
    auto out = round();
    auto t1 = std::chrono::steady_clock::now();
    if (!check(out)) {
      return -1.0;
    }
    ns.push_back(std::chrono::duration<double, std::nano>(t1 - t0).count());
  }
  return MedianNs(std::move(ns));
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "rounds.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::cerr << "usage: crypto_round_bench [--out FILE]\n";
      return 1;
    }
  }

  Rng key_rng(42);
  auto paillier = Paillier::Generate(kKeyBits, &key_rng);
  if (!paillier.ok()) {
    return Fail("Paillier::Generate: " + paillier.status().ToString());
  }
  auto agg = PackedAggregate::Create(*paillier, kFleet, kMaxValue, kCounters);
  if (!agg.ok()) {
    return Fail("PackedAggregate::Create: " + agg.status().ToString());
  }
  const auto rows = MakeSiteCounters();
  const auto expected = PlainTotals(rows);

  Rng rng(73);
  double per_op_ns = TimeRounds("per-op round", expected, [&] {
    return PerOpRound(*paillier, rows, &rng);
  });
  if (per_op_ns < 0) {
    return Fail("per-op round did not verify");
  }
  double packed_ns = TimeRounds("packed round", expected, [&] {
    return PackedRound(*agg, rows, &rng);
  });
  if (packed_ns < 0) {
    return Fail("packed round did not verify");
  }

  // Dispatch cross-check: identical RNG seed, SIMD vs forced-scalar
  // kernel, ciphertexts must match bit for bit.
  const bool had_avx2 =
      std::string(pds::crypto::simd::KernelName()) == "avx2";
  std::vector<pds::Bytes> simd_cts;
  std::vector<pds::Bytes> scalar_cts;
  for (bool force : {false, true}) {
    pds::crypto::simd::SetForceScalar(force);
    Rng enc_rng(7);
    auto cts = agg->EncryptPackedBatch(rows, &enc_rng);
    if (!cts.ok()) {
      pds::crypto::simd::SetForceScalar(false);
      return Fail("EncryptPackedBatch: " + cts.status().ToString());
    }
    auto& dst = force ? scalar_cts : simd_cts;
    for (const BigInt& ct : *cts) {
      dst.push_back(ct.ToBytes());
    }
  }
  pds::crypto::simd::SetForceScalar(false);
  if (simd_cts != scalar_cts) {
    return Fail("SIMD and forced-scalar ciphertexts differ");
  }

  const double speedup = per_op_ns / packed_ns;
  if (speedup < 3.0) {
    return Fail("packed round speedup " + std::to_string(speedup) +
                "x is below the 3x acceptance floor");
  }

  const double per_op_rps = 1e9 / per_op_ns;
  const double packed_rps = 1e9 / packed_ns;
  std::ofstream out(out_path, std::ios::binary);
  out << "{\n  \"records\": [\n";
  out << "    {\"op\": \"fleet_round_per_op\""
      << ", \"fleet_size\": " << kFleet
      << ", \"num_counters\": " << kCounters
      << ", \"key_bits\": " << kKeyBits
      << ", \"reps\": " << kReps
      << ", \"cipher_ops_per_round\": " << (kFleet * kCounters + kCounters)
      << ", \"ns_per_round\": " << per_op_ns
      << ", \"rounds_per_sec\": " << per_op_rps
      << ", \"verified\": true},\n";
  out << "    {\"op\": \"fleet_round_packed\""
      << ", \"fleet_size\": " << kFleet
      << ", \"num_counters\": " << kCounters
      << ", \"key_bits\": " << kKeyBits
      << ", \"reps\": " << kReps
      << ", \"cipher_ops_per_round\": " << (kFleet + 1)
      << ", \"ns_per_round\": " << packed_ns
      << ", \"rounds_per_sec\": " << packed_rps
      << ", \"speedup_vs_per_op\": " << speedup
      << ", \"simd_kernel\": \"" << (had_avx2 ? "avx2" : "scalar") << "\""
      << ", \"scalar_fallback_identical\": true"
      << ", \"verified\": true}\n";
  out << "  ]\n}\n";
  if (!out) {
    return Fail("writing " + out_path);
  }
  std::cout << "crypto_round_bench: per-op " << per_op_ns / 1e6
            << " ms/round, packed " << packed_ns / 1e6 << " ms/round ("
            << speedup << "x), wrote " << out_path << "\n";
  return 0;
}

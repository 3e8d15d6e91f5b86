// E9 — weakly-malicious SSI detection (tutorial threat model B: "WM +
// Broken -> must be prevented via security primitives, see [ANP13]").
//
// The SSI drops/duplicates/alters sealed tuples at a configurable rate
// (global::ApplySealedTampering, the same actions the wire adversary
// uses); the verifier token checks per-tuple MACs + per-participant
// manifests.
// Paper shape: detection probability is 1 whenever at least one action
// occurred (deterministic primitives), so a covert adversary is deterred;
// the bench also reports the token-side verification cost that buys it.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <memory>

#include "common/rng.h"
#include "global/integrity.h"

namespace {

using pds::global::MakeManifest;
using pds::global::Manifest;
using pds::global::SealedTuple;
using pds::global::ApplySealedTampering;
using pds::global::EncodeSealedTuple;
using pds::global::SealTuples;
using pds::global::SealedTampering;
using pds::global::VerifyBatch;
using pds::mcu::SecureToken;

struct Setup {
  std::unique_ptr<SecureToken> producer;
  std::unique_ptr<SecureToken> verifier;
  std::vector<SealedTuple> batch;
  Manifest manifest;
};

std::unique_ptr<Setup> Build(size_t n) {
  auto s = std::make_unique<Setup>();
  SecureToken::Config cfg;
  cfg.fleet_key = pds::crypto::KeyFromString("integrity-bench");
  cfg.token_id = 1;
  s->producer = std::make_unique<SecureToken>(cfg);
  cfg.token_id = 2;
  s->verifier = std::make_unique<SecureToken>(cfg);

  std::vector<pds::Bytes> cts;
  for (size_t i = 0; i < n; ++i) {
    std::string payload = "tuple-payload-" + std::to_string(i);
    auto ct = s->producer->EncryptNonDet(
        pds::ByteView(std::string_view(payload)));
    cts.push_back(std::move(ct).value());
  }
  s->batch = std::move(SealTuples(s->producer.get(), 1, cts)).value();
  s->manifest = std::move(MakeManifest(s->producer.get(), 1, n)).value();
  return s;
}

/// The pool as a multiset of encodings: two pools the querier cannot tell
/// apart compare equal.
std::vector<pds::Bytes> PoolKey(const std::vector<SealedTuple>& pool) {
  std::vector<pds::Bytes> key;
  key.reserve(pool.size());
  for (const SealedTuple& t : pool) {
    key.push_back(EncodeSealedTuple(t));
  }
  std::sort(key.begin(), key.end());
  return key;
}

// Detection probability vs tamper rate: run many tampered batches and
// count how often verification flags them. Each batch gets one single
// action per Bernoulli(rate) hit over its tuples — drop, duplicate and
// alter in equal shares, freely mixed, so count-preserving drop+duplicate
// combinations occur too. A batch counts as tampered when its pool differs
// from the honest one (an omit can undo a replay).
void BM_DetectionRate(benchmark::State& state) {
  const double rate = static_cast<double>(state.range(0)) / 1000.0;
  auto setup = Build(200);
  const std::vector<pds::Bytes> honest = PoolKey(setup->batch);
  constexpr SealedTampering kActions[] = {SealedTampering::kOmit,
                                          SealedTampering::kReplay,
                                          SealedTampering::kSubstitute};
  pds::Rng rng(1);
  uint64_t tampered_batches = 0, detected = 0, trials = 0;
  for (auto _ : state) {
    std::vector<SealedTuple> batch = setup->batch;
    std::vector<Manifest> manifests = {setup->manifest};
    for (size_t i = 0; i < setup->batch.size(); ++i) {
      if (rng.Bernoulli(rate)) {
        ApplySealedTampering(kActions[rng.Uniform(3)], &rng, &batch,
                             &manifests);
      }
    }
    auto verdict = VerifyBatch(setup->verifier.get(), batch, manifests);
    benchmark::DoNotOptimize(verdict);
    ++trials;
    if (PoolKey(batch) != honest) {
      ++tampered_batches;
      if (verdict.ok() && !verdict->ok) {
        ++detected;
      }
    }
  }
  state.counters["tamper_rate_permille"] =
      static_cast<double>(state.range(0));
  state.counters["detection_rate"] =
      tampered_batches == 0
          ? 1.0
          : static_cast<double>(detected) /
                static_cast<double>(tampered_batches);
  state.counters["tampered_batches"] =
      static_cast<double>(tampered_batches);
  state.counters["trials"] = static_cast<double>(trials);
}
BENCHMARK(BM_DetectionRate)->Arg(1)->Arg(10)->Arg(100)->Arg(300);

// Cost of the defence: sealing and verifying per tuple.
void BM_SealTuples(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  auto setup = Build(1);
  std::vector<pds::Bytes> cts;
  for (size_t i = 0; i < n; ++i) {
    cts.push_back(std::move(setup->producer
                                ->EncryptNonDet(pds::ByteView(
                                    std::string_view("payload")))
                                .value()));
  }
  for (auto _ : state) {
    auto sealed = SealTuples(setup->producer.get(), 1, cts);
    benchmark::DoNotOptimize(sealed);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_SealTuples)->Arg(100)->Arg(1000);

void BM_VerifyCleanBatch(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  auto setup = Build(n);
  for (auto _ : state) {
    auto verdict = VerifyBatch(setup->verifier.get(), setup->batch,
                               {setup->manifest});
    benchmark::DoNotOptimize(verdict);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_VerifyCleanBatch)->Arg(100)->Arg(1000);

}  // namespace

BENCHMARK_MAIN();

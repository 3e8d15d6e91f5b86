// Planted leak: a trace-id "generator" that folds fleet-key bytes (a
// built-in SymmetricKey seed — no annotation needed) into the trace_id of
// an outgoing trace-context block. Trace ids travel in cleartext on every
// traced frame, so ExtendFrame is a secret-flow sink exactly like
// the payload encoders. ctest asserts the secret-flow rule catches this.

#include <cstdint>
#include <vector>

using Bytes = std::vector<uint8_t>;

struct SymmetricKey {
  Bytes bytes;
};

struct TraceContext {
  uint64_t trace_id = 0;
  uint64_t parent_span_id = 0;
  bool sampled = false;
};

// pdslint: sink(ExtendFrame)
Bytes ExtendFrame(Bytes frame, const TraceContext& trace, bool checksum);

struct TokenConfig {
  SymmetricKey fleet_key;
};

Bytes TraceFrameWithKeyedId(const TokenConfig& cfg, const Bytes& frame) {
  uint64_t trace_id = 0;
  for (uint8_t b : cfg.fleet_key.bytes) {
    trace_id = (trace_id << 8) ^ b;
  }
  TraceContext ctx;
  ctx.trace_id = trace_id;
  ctx.parent_span_id = 1;
  ctx.sampled = true;
  return ExtendFrame(frame, ctx, false);  // FLAG: key material in a trace id
}

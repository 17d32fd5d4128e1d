// Gradient compression for the collective engine: top-k dropping and
// bfloat16 bodies, both with error-feedback residuals.
//
// The paper's bottleneck is master-side gradient traffic; after the
// algorithmic collective rewrites the remaining multiplier is sending
// fewer bytes (Strom 2015 / Dryden 2016 lineage). The codecs here are
// lossy per call but unbiased over time through error feedback:
// the *carrier* buffer a rank compresses holds contribution + residual on
// entry, and whatever the decoder will NOT reconstruct stays behind in the
// carrier as the next call's residual. With top-k the selected entries are
// zeroed and the rest are untouched — the carrier IS the residual store,
// so one sweep does selection, packing and residual update (no separate
// residual array, no extra memory pass).
//
// Wire format (little-endian, see DESIGN.md):
//   WireHeader { magic 'BQCZ', mode u8, pad[3], total_values u64, aux u64 }
//   mode kRaw    aux = 0             payload: total f32 (passthrough)
//   mode kTopK   aux = k             payload: k u32 indices, then k f32
//   mode kBf16   aux = 0             payload: total u16 bfloat16 (dense)
//   mode kTopK16 aux = k             payload: k u32 indices, then k u16
//                                    bfloat16 values
//   Mode byte 2 (a retired 1-bit body) is rejected like any unknown mode.
//
// The two bf16 body types halve (dense) or shrink (top-k values) the wire
// payload; the rounding error v - bf16(v) stays behind in the carrier, so
// bf16 bodies ride the same error-feedback contract as top-k.
// Decoders widen back to fp32 and every fold accumulates in fp32.
//
// Every compressed collective keeps a *fixed* combine order (blobs fold in
// rank order), so compressed runs are bitwise deterministic at a given
// rank count, and SerialCompute can mirror the arithmetic exactly — the
// same contract the exact tree reductions honour via PairwiseFold.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "simmpi/communicator.h"
#include "simmpi/message.h"

namespace bgqhf::simmpi {

enum class CompressMode {
  kOff = 0,  // exact payloads (today's bitwise path)
  kTopK,     // threshold top-k value dropping, error feedback
  kBf16,     // dense bfloat16 payloads, rounding error fed back
};

const char* to_string(CompressMode m);
/// "", "off" -> kOff; "topk" -> kTopK; "bf16" -> kBf16; anything else
/// throws util::ConfigError naming BGQHF_COMPRESS (typos must be loud).
CompressMode parse_compress_mode(const std::string& s);

struct CompressOptions {
  CompressMode mode = CompressMode::kOff;
  /// Target fraction of values a top-k pass keeps (the adaptive threshold
  /// steers the realized fraction toward this between calls).
  double topk_fraction = 0.01;
  /// Vectors shorter than this ship raw (passthrough): scalar stats and
  /// tiny layers are not worth a header + index stream.
  std::size_t min_values = 1024;
  /// bf16 wire bodies, derived from BGQHF_PRECISION=bf16: upgrades kOff to
  /// dense bf16 payloads and kTopK to bf16 value streams (kTopK16 bodies).
  /// Composes with the error-feedback carriers: the bf16 rounding error
  /// stays behind as residual, and folds still accumulate in fp32.
  bool bf16_wire = false;

  bool active() const { return mode != CompressMode::kOff || bf16_wire; }

  /// BGQHF_COMPRESS / BGQHF_COMPRESS_TOPK (plus BGQHF_PRECISION for
  /// bf16_wire) via util::RuntimeEnv.
  static CompressOptions from_env();
};

/// Per-stream compression state: the adaptive top-k threshold, selection
/// scratch, the root's downlink residual (allreduce), and wire-byte
/// accounting. One state per (rank, logical stream) — e.g. one per layer
/// segment — persisted across iterations; the error-feedback contract is
/// only honest if the same state sees every call of its stream.
class CompressState {
 public:
  CompressState() = default;
  // The downlink sub-state is heap-held; keep states movable, not copyable
  // (copying would fork a residual history, which is always a bug).
  CompressState(CompressState&&) = default;
  CompressState& operator=(CompressState&&) = default;

  std::size_t last_raw_bytes() const { return last_raw_; }
  std::size_t last_wire_bytes() const { return last_wire_; }
  std::size_t total_raw_bytes() const { return total_raw_; }
  std::size_t total_wire_bytes() const { return total_wire_; }
  /// Raw/wire ratio over the state's lifetime (1.0 until first use).
  double compression_ratio() const {
    return total_wire_ == 0 ? 1.0
                            : static_cast<double>(total_raw_) /
                                  static_cast<double>(total_wire_);
  }
  double threshold() const { return threshold_; }

  /// The root's state for re-compressing the folded allreduce total (its
  /// own error-feedback stream, magnitudes ~P times the uplink's).
  CompressState& downlink();
  /// Dense residual carrier for the allreduce downlink (root only).
  std::vector<float>& residual(std::size_t n);
  /// Zero-filled fold accumulator reused across calls (root only).
  std::vector<float>& zeroed_scratch(std::size_t n);

 private:
  friend Payload compress(std::span<float>, const CompressOptions&,
                          CompressState&);

  double threshold_ = 0.0;  // 0 = estimate from data on first call
  std::vector<std::uint32_t> idx_;  // top-k selection scratch
  std::vector<float> val_;
  std::vector<float> residual_;  // allreduce downlink carrier (root)
  std::vector<float> acc_;       // allreduce fold accumulator (root)
  std::unique_ptr<CompressState> down_;
  std::size_t last_raw_ = 0;
  std::size_t last_wire_ = 0;
  std::size_t total_raw_ = 0;
  std::size_t total_wire_ = 0;
};

// ---- codec ----

/// Compress `carrier` (contribution + residual) into a wire blob; on
/// return the carrier holds the new residual (top-k: unselected entries
/// untouched, selected zeroed; bf16: the rounding error; raw passthrough:
/// zeroed). Deterministic in (carrier contents, state).
Payload compress(std::span<float> carrier, const CompressOptions& options,
                 CompressState& state);

/// Number of values a blob decodes to (validates the header).
std::size_t decoded_values(std::span<const std::byte> blob);

/// acc += decode(blob). acc.size() must equal decoded_values(blob).
void decode_add(std::span<const std::byte> blob, std::span<float> acc);

/// out = decode(blob) (dense overwrite; top-k zero-fills the gaps).
void decode_overwrite(std::span<const std::byte> blob, std::span<float> out);

// ---- compressed collectives ----
//
// Reserved collective tags below communicator.h's (base - 1 ... base - 5).
inline constexpr int kTagCompressedUp = kCollectiveTagBase - 12;
inline constexpr int kTagCompressedDown = kCollectiveTagBase - 13;
inline constexpr int kTagCompressedReduce = kCollectiveTagBase - 14;

/// Blocking compressed reduce: every rank compresses its carrier (which
/// becomes its residual), non-roots send their blob to `root`, and the
/// root decodes the blobs in rank order into `out` (zeroed first; empty
/// elsewhere). The fixed fold order keeps compressed runs bitwise
/// deterministic. Requires options.active().
void compressed_reduce_sum(Comm& comm, std::span<float> carrier,
                           std::span<float> out, int root,
                           const CompressOptions& options,
                           CompressState& state);

/// Compressed allreduce, blob delivery: uplink star to rank 0, rank-order
/// fold, downlink re-compression through rank 0's own error-feedback
/// residual, then a shared-payload star broadcast. Every rank returns the
/// *same* blob; consumers fold it with decode_add / decode_overwrite
/// (O(wire) — the HF consumers never materialize a dense copy per rank).
struct CompressedTotal {
  Payload blob;               // compressed global sum (shared buffer)
  std::size_t raw_bytes = 0;  // n * sizeof(float)
  std::size_t wire_bytes = 0; // this rank's uplink + downlink wire bytes
};
CompressedTotal compressed_allreduce_blob(Comm& comm,
                                          std::span<float> carrier,
                                          const CompressOptions& options,
                                          CompressState& state);

/// Compressed allreduce, dense delivery: blob variant + decode_overwrite
/// into `out` on every rank (all ranks end bitwise identical; rank 0 also
/// uses the decoded value, not its exact fold, so there is one truth).
void compressed_allreduce_sum(Comm& comm, std::span<float> carrier,
                              std::span<float> out,
                              const CompressOptions& options,
                              CompressState& state);

}  // namespace bgqhf::simmpi

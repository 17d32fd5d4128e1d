#include "simmpi/compress.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <stdexcept>
#include <string>

#include "blas/dispatch.h"
#include "blas/precision.h"
#include "obs/span.h"
#include "util/config.h"
#include "util/timer.h"

namespace bgqhf::simmpi {

namespace {

constexpr std::uint32_t kMagic = 0x5A434251u;  // "BQCZ" little-endian

enum WireMode : std::uint8_t {
  kWireRaw = 0,
  kWireTopK = 1,
  // 2 was the retired 1-bit body; parse() rejects it as unknown.
  kWireBf16 = 3,    // dense bfloat16 body, widened to fp32 on decode
  kWireTopK16 = 4,  // top-k with bfloat16 value stream
};

struct WireHeader {
  std::uint32_t magic = kMagic;
  std::uint8_t mode = kWireRaw;
  std::uint8_t pad[3] = {};
  std::uint64_t total = 0;
  std::uint64_t aux = 0;
};
static_assert(sizeof(WireHeader) == 24, "wire header layout drifted");

/// Validated view of one blob: header plus the body bounds. Every decoder
/// goes through here so a truncated or mislabelled blob fails loudly
/// instead of reading out of bounds.
struct BlobView {
  WireHeader header;
  const std::byte* body = nullptr;
};

BlobView parse(std::span<const std::byte> blob) {
  if (blob.size() < sizeof(WireHeader)) {
    throw std::length_error("simmpi: compressed blob shorter than header");
  }
  BlobView v;
  std::memcpy(&v.header, blob.data(), sizeof(WireHeader));
  if (v.header.magic != kMagic) {
    throw std::invalid_argument("simmpi: not a compressed blob (bad magic)");
  }
  v.body = blob.data() + sizeof(WireHeader);
  const std::size_t body_bytes = blob.size() - sizeof(WireHeader);
  std::size_t expect = 0;
  switch (v.header.mode) {
    case kWireRaw:
      expect = v.header.total * sizeof(float);
      break;
    case kWireTopK:
      if (v.header.aux > v.header.total) {
        throw std::length_error("simmpi: top-k count exceeds total");
      }
      expect = v.header.aux * (sizeof(std::uint32_t) + sizeof(float));
      break;
    case kWireBf16:
      expect = v.header.total * sizeof(std::uint16_t);
      break;
    case kWireTopK16:
      if (v.header.aux > v.header.total) {
        throw std::length_error("simmpi: top-k count exceeds total");
      }
      expect =
          v.header.aux * (sizeof(std::uint32_t) + sizeof(std::uint16_t));
      break;
    default:
      throw std::invalid_argument("simmpi: unknown compression wire mode");
  }
  if (body_bytes != expect) {
    throw std::length_error("simmpi: compressed blob body size mismatch");
  }
  return v;
}

std::span<const std::byte> blob_span(const Payload& p) {
  return std::span<const std::byte>(p.data(), p.size());
}

}  // namespace

const char* to_string(CompressMode m) {
  switch (m) {
    case CompressMode::kOff: return "off";
    case CompressMode::kTopK: return "topk";
    case CompressMode::kBf16: return "bf16";
  }
  return "?";
}

CompressMode parse_compress_mode(const std::string& s) {
  if (s.empty() || s == "off") return CompressMode::kOff;
  if (s == "topk") return CompressMode::kTopK;
  if (s == "bf16") return CompressMode::kBf16;
  throw util::ConfigError("BGQHF_COMPRESS", s, "off|topk|bf16");
}

CompressOptions CompressOptions::from_env() {
  const util::RuntimeEnv& env = util::RuntimeEnv::get();
  CompressOptions o;
  o.mode = parse_compress_mode(env.compress);
  // RuntimeEnv rejects anything but 0 or a finite fraction in (0, 1].
  if (env.compress_topk != 0) o.topk_fraction = env.compress_topk;
  // bf16 mode narrows the gradient wire only: GEMM stays fp32 (on AVX-512
  // the fp32 kernel runs the same FMAs a bf16-storage one would, without
  // the widen), while the wire bodies halve the bytes per value.
  o.bf16_wire = !env.precision.empty() &&
                blas::parse_precision(env.precision) == blas::Precision::kBf16;
  return o;
}

CompressState& CompressState::downlink() {
  if (down_ == nullptr) down_ = std::make_unique<CompressState>();
  return *down_;
}

std::vector<float>& CompressState::residual(std::size_t n) {
  if (residual_.size() != n) residual_.assign(n, 0.0f);
  return residual_;
}

std::vector<float>& CompressState::zeroed_scratch(std::size_t n) {
  acc_.assign(n, 0.0f);
  return acc_;
}

Payload compress(std::span<float> carrier, const CompressOptions& options,
                 CompressState& state) {
  const std::size_t n = carrier.size();
  const std::size_t raw_bytes = n * sizeof(float);
  std::vector<std::byte> ws;
  WireHeader hdr;
  hdr.total = n;

  if (!options.active() || n < options.min_values) {
    // Passthrough: exact payload, but same residual contract (the carrier
    // empties), so tiny segments behave like compressed ones.
    BGQHF_SPAN("compress", "pack");
    hdr.mode = kWireRaw;
    ws.resize(sizeof(WireHeader) + raw_bytes);
    std::memcpy(ws.data(), &hdr, sizeof(WireHeader));
    if (n > 0) {
      std::memcpy(ws.data() + sizeof(WireHeader), carrier.data(), raw_bytes);
      std::fill(carrier.begin(), carrier.end(), 0.0f);
    }
  } else if (options.mode == CompressMode::kBf16 ||
             (options.bf16_wire && options.mode == CompressMode::kOff)) {
    // Dense bf16 body: half the raw bytes. One sweep rounds, packs, and
    // leaves the rounding error v - bf16(v) behind as the residual, so the
    // dropped low bits are not lost, they are delayed (error feedback).
    BGQHF_SPAN("compress", "pack");
    hdr.mode = kWireBf16;
    ws.resize(sizeof(WireHeader) + n * sizeof(std::uint16_t));
    std::memcpy(ws.data(), &hdr, sizeof(WireHeader));
    auto* out16 =
        reinterpret_cast<std::uint16_t*>(ws.data() + sizeof(WireHeader));
    for (std::size_t i = 0; i < n; ++i) {
      const float v = carrier[i];
      const std::uint16_t h = blas::float_to_bf16(v);
      out16[i] = h;
      carrier[i] = v - blas::bf16_to_float(h);
    }
  } else {
    BGQHF_SPAN("compress", "pack");
    if (n > std::numeric_limits<std::uint32_t>::max()) {
      throw std::length_error("simmpi: top-k indices limited to 2^32 values");
    }
    const std::size_t target = std::max<std::size_t>(
        1,
        static_cast<std::size_t>(options.topk_fraction *
                                 static_cast<double>(n)));
    if (state.threshold_ <= 0.0) {
      // First call: seed the keep threshold with the target-fraction
      // quantile of a strided magnitude sample — far cheaper than a full
      // select over the carrier; the controller below tracks drift.
      std::vector<float>& sample = state.val_;
      sample.clear();
      const std::size_t stride = std::max<std::size_t>(1, n / 8192);
      for (std::size_t i = 0; i < n; i += stride) {
        sample.push_back(std::fabs(carrier[i]));
      }
      const std::size_t q = std::min(
          sample.size() - 1,
          static_cast<std::size_t>(options.topk_fraction *
                                   static_cast<double>(sample.size())));
      std::nth_element(sample.begin(),
                       sample.begin() + static_cast<std::ptrdiff_t>(q),
                       sample.end(), std::greater<float>());
      state.threshold_ =
          std::max(static_cast<double>(sample[q]),
                   static_cast<double>(std::numeric_limits<float>::min()));
    }
    // One sweep does selection, packing source, and residual update: a
    // selected value is recorded and zeroed in place; everything below
    // the threshold IS the residual and is never touched again.
    // The sweep runs through the dispatched SIMD kernel block by block:
    // each block grows the output buffers by at most one block's worth,
    // so scratch stays O(k + block) rather than O(n) per state.
    state.idx_.clear();
    state.val_.clear();
    const float tau = static_cast<float>(state.threshold_);
    const blas::TopkSelectFn select = blas::active_kernels().topk_select;
    constexpr std::size_t kBlock = std::size_t{1} << 16;
    std::size_t k = 0;
    for (std::size_t base = 0; base < n; base += kBlock) {
      const std::size_t len = std::min(kBlock, n - base);
      state.idx_.resize(k + len);
      state.val_.resize(k + len);
      k += select(carrier.data() + base, len, tau,
                  static_cast<std::uint32_t>(base), state.idx_.data() + k,
                  state.val_.data() + k);
    }
    state.idx_.resize(k);
    state.val_.resize(k);
    // Multiplicative controller steers the realized k toward the target
    // without ever scanning the carrier twice. Deterministic in (data,
    // state), so compressed runs stay reproducible. The doubling tier
    // climbs geometrically when k is far over target — a downlink state
    // at P ranks sees P-fold the per-rank flux and its seed threshold
    // starts orders of magnitude below equilibrium; at x1.25 it would
    // ship fat blobs for dozens of calls. Shrinking stays gentle: an
    // aggressive step down amplifies accumulate-release avalanches.
    if (k > 4 * target) {
      state.threshold_ *= 2.0;
    } else if (k > target + target / 4) {
      state.threshold_ *= 1.25;
    } else if (k < (target * 4) / 5) {
      state.threshold_ = std::max(
          state.threshold_ * (k == 0 ? 0.5 : 0.8),
          static_cast<double>(std::numeric_limits<float>::min()));
    }
    hdr.aux = k;
    if (options.bf16_wire) {
      // Composed carrier: top-k picks the entries, bf16 shrinks their
      // value stream from 4 to 2 bytes. The selection sweep zeroed each
      // selected slot; writing back v - bf16(v) restores the rounding
      // error to the residual, so the composition keeps both contracts.
      hdr.mode = kWireTopK16;
      ws.resize(sizeof(WireHeader) +
                k * (sizeof(std::uint32_t) + sizeof(std::uint16_t)));
      std::memcpy(ws.data(), &hdr, sizeof(WireHeader));
      if (k > 0) {
        std::memcpy(ws.data() + sizeof(WireHeader), state.idx_.data(),
                    k * sizeof(std::uint32_t));
        auto* val16 = reinterpret_cast<std::uint16_t*>(
            ws.data() + sizeof(WireHeader) + k * sizeof(std::uint32_t));
        for (std::size_t j = 0; j < k; ++j) {
          const float v = state.val_[j];
          const std::uint16_t h = blas::float_to_bf16(v);
          val16[j] = h;
          carrier[state.idx_[j]] = v - blas::bf16_to_float(h);
        }
      }
    } else {
      hdr.mode = kWireTopK;
      ws.resize(sizeof(WireHeader) +
                k * (sizeof(std::uint32_t) + sizeof(float)));
      std::memcpy(ws.data(), &hdr, sizeof(WireHeader));
      if (k > 0) {
        std::memcpy(ws.data() + sizeof(WireHeader), state.idx_.data(),
                    k * sizeof(std::uint32_t));
        std::memcpy(
            ws.data() + sizeof(WireHeader) + k * sizeof(std::uint32_t),
            state.val_.data(), k * sizeof(float));
      }
    }
  }

  state.last_raw_ = raw_bytes;
  state.last_wire_ = ws.size();
  state.total_raw_ += raw_bytes;
  state.total_wire_ += ws.size();
  return Payload(std::move(ws));
}

std::size_t decoded_values(std::span<const std::byte> blob) {
  return parse(blob).header.total;
}

void decode_add(std::span<const std::byte> blob, std::span<float> acc) {
  const BlobView v = parse(blob);
  const std::size_t n = acc.size();
  if (n != v.header.total) {
    throw std::length_error("simmpi: decode_add size mismatch");
  }
  switch (v.header.mode) {
    case kWireRaw:
      if (n > 0) {
        SumOp::combine(acc.data(), reinterpret_cast<const float*>(v.body),
                       n);
      }
      break;
    case kWireTopK: {
      const std::size_t k = v.header.aux;
      const auto* idx = reinterpret_cast<const std::uint32_t*>(v.body);
      const auto* val = reinterpret_cast<const float*>(
          v.body + k * sizeof(std::uint32_t));
      for (std::size_t j = 0; j < k; ++j) {
        const std::uint32_t i = idx[j];
        if (i >= n) {
          throw std::out_of_range("simmpi: top-k index out of range");
        }
        acc[i] += val[j];
      }
      break;
    }
    case kWireBf16: {
      // Widen and accumulate in fp32: the sum itself never loses precision
      // beyond what the bf16 payload already dropped.
      const auto* h = reinterpret_cast<const std::uint16_t*>(v.body);
      for (std::size_t i = 0; i < n; ++i) {
        acc[i] += blas::bf16_to_float(h[i]);
      }
      break;
    }
    case kWireTopK16: {
      const std::size_t k = v.header.aux;
      const auto* idx = reinterpret_cast<const std::uint32_t*>(v.body);
      const auto* val = reinterpret_cast<const std::uint16_t*>(
          v.body + k * sizeof(std::uint32_t));
      for (std::size_t j = 0; j < k; ++j) {
        const std::uint32_t i = idx[j];
        if (i >= n) {
          throw std::out_of_range("simmpi: top-k index out of range");
        }
        acc[i] += blas::bf16_to_float(val[j]);
      }
      break;
    }
  }
}

void decode_overwrite(std::span<const std::byte> blob, std::span<float> out) {
  const BlobView v = parse(blob);
  const std::size_t n = out.size();
  if (n != v.header.total) {
    throw std::length_error("simmpi: decode_overwrite size mismatch");
  }
  switch (v.header.mode) {
    case kWireRaw:
      if (n > 0) std::memcpy(out.data(), v.body, n * sizeof(float));
      break;
    case kWireTopK: {
      std::fill(out.begin(), out.end(), 0.0f);
      const std::size_t k = v.header.aux;
      const auto* idx = reinterpret_cast<const std::uint32_t*>(v.body);
      const auto* val = reinterpret_cast<const float*>(
          v.body + k * sizeof(std::uint32_t));
      for (std::size_t j = 0; j < k; ++j) {
        const std::uint32_t i = idx[j];
        if (i >= n) {
          throw std::out_of_range("simmpi: top-k index out of range");
        }
        out[i] = val[j];
      }
      break;
    }
    case kWireBf16: {
      const auto* h = reinterpret_cast<const std::uint16_t*>(v.body);
      for (std::size_t i = 0; i < n; ++i) out[i] = blas::bf16_to_float(h[i]);
      break;
    }
    case kWireTopK16: {
      std::fill(out.begin(), out.end(), 0.0f);
      const std::size_t k = v.header.aux;
      const auto* idx = reinterpret_cast<const std::uint32_t*>(v.body);
      const auto* val = reinterpret_cast<const std::uint16_t*>(
          v.body + k * sizeof(std::uint32_t));
      for (std::size_t j = 0; j < k; ++j) {
        const std::uint32_t i = idx[j];
        if (i >= n) {
          throw std::out_of_range("simmpi: top-k index out of range");
        }
        out[i] = blas::bf16_to_float(val[j]);
      }
      break;
    }
  }
}

// ---- collectives ----

void compressed_reduce_sum(Comm& comm, std::span<float> carrier,
                           std::span<float> out, int root,
                           const CompressOptions& options,
                           CompressState& state) {
  if (!options.active()) {
    throw std::invalid_argument(
        "simmpi: compressed_reduce_sum needs an active compression mode");
  }
  if (comm.rank() == root && out.size() != carrier.size()) {
    throw std::length_error("simmpi: reduce out/in size mismatch");
  }
  BGQHF_SPAN("collective", "reduce");
  util::Timer t;
  const std::size_t raw_bytes = carrier.size() * sizeof(float);
  Payload mine = compress(carrier, options, state);
  std::size_t wire = mine.size();
  if (comm.rank() != root) {
    comm.coll_send_payload(std::move(mine), root, kTagCompressedReduce);
  } else {
    // Fold the blobs in rank order (the root's own at its slot): fixed
    // order, so compressed aggregation is bitwise deterministic and
    // SerialCompute can mirror it exactly.
    std::fill(out.begin(), out.end(), 0.0f);
    for (int r = 0; r < comm.size(); ++r) {
      if (r == root) {
        decode_add(blob_span(mine), out);
        continue;
      }
      const Message m = comm.coll_recv(r, kTagCompressedReduce);
      wire += m.size_bytes();
      decode_add(blob_span(m.payload), out);
    }
  }
  comm.stats().add_op_wire(CollOp::kReduce, raw_bytes, wire, t.seconds());
}

CompressedTotal compressed_allreduce_blob(Comm& comm,
                                          std::span<float> carrier,
                                          const CompressOptions& options,
                                          CompressState& state) {
  if (!options.active()) {
    throw std::invalid_argument(
        "simmpi: compressed_allreduce needs an active compression mode");
  }
  BGQHF_SPAN("collective", "allreduce");
  util::Timer t;
  const std::size_t n = carrier.size();
  CompressedTotal out;
  out.raw_bytes = n * sizeof(float);
  const int p = comm.size();
  Payload up = compress(carrier, options, state);
  std::size_t wire = up.size();
  if (comm.rank() == 0) {
    std::vector<float>& acc = state.zeroed_scratch(n);
    decode_add(blob_span(up), acc);
    for (int r = 1; r < p; ++r) {
      const Message m = comm.coll_recv(r, kTagCompressedUp);
      decode_add(blob_span(m.payload), acc);
    }
    // Fold the aggregate into the root's persistent downlink carrier and
    // re-compress: what the downlink codec drops stays behind as residual
    // for the next round (error feedback on the aggregated stream, which
    // runs ~P times hotter than any single rank's uplink — hence its own
    // sub-state and threshold).
    std::vector<float>& res = state.residual(n);
    if (n > 0) SumOp::combine(res.data(), acc.data(), n);
    Payload down =
        compress(std::span<float>(res), options, state.downlink());
    for (int r = 1; r < p; ++r) {
      comm.coll_send_payload(down, r, kTagCompressedDown);
    }
    wire += down.size();
    out.blob = std::move(down);
  } else {
    comm.coll_send_payload(std::move(up), 0, kTagCompressedUp);
    const Message m = comm.coll_recv(0, kTagCompressedDown);
    wire += m.size_bytes();
    out.blob = m.payload;
  }
  out.wire_bytes = wire;
  comm.stats().add_op_wire(CollOp::kAllreduce, out.raw_bytes, wire,
                           t.seconds());
  return out;
}

void compressed_allreduce_sum(Comm& comm, std::span<float> carrier,
                              std::span<float> out,
                              const CompressOptions& options,
                              CompressState& state) {
  if (out.size() != carrier.size()) {
    throw std::length_error("simmpi: allreduce out/in size mismatch");
  }
  const CompressedTotal total =
      compressed_allreduce_blob(comm, carrier, options, state);
  // Every rank — the root included — consumes the *decoded downlink*, so
  // there is exactly one truth and all ranks end bitwise identical.
  decode_overwrite(blob_span(total.blob), out);
}

}  // namespace bgqhf::simmpi

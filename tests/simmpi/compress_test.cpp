// Codec-level contracts for the gradient compressor: kept values ship
// bitwise-exactly, whatever is dropped stays behind in the carrier
// (error feedback), and blobs are deterministic functions of
// (carrier, state) so compressed collectives can be mirrored serially.
#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <vector>

#include "blas/precision.h"
#include "simmpi/compress.h"
#include "util/config.h"

namespace bgqhf::simmpi {
namespace {

std::span<const std::byte> as_blob(const Payload& p) {
  return {p.data(), p.size()};
}

// Deterministic pseudo-random fill in roughly [-1, 1], never exactly zero.
std::vector<float> random_values(std::size_t n, std::uint64_t seed) {
  std::vector<float> v(n);
  std::uint64_t s = seed * 6364136223846793005ULL + 1442695040888963407ULL;
  for (std::size_t i = 0; i < n; ++i) {
    s = s * 6364136223846793005ULL + 1442695040888963407ULL;
    const double u = static_cast<double>(s >> 11) / 9007199254740992.0;
    v[i] = static_cast<float>(2.0 * u - 1.0);
    if (v[i] == 0.0f) v[i] = 0.125f;
  }
  return v;
}

CompressOptions topk(double fraction) {
  CompressOptions o;
  o.mode = CompressMode::kTopK;
  o.topk_fraction = fraction;
  o.min_values = 1;
  return o;
}

TEST(CompressMode_, ParseAndToString) {
  EXPECT_EQ(parse_compress_mode(""), CompressMode::kOff);
  EXPECT_EQ(parse_compress_mode("off"), CompressMode::kOff);
  EXPECT_EQ(parse_compress_mode("topk"), CompressMode::kTopK);
  EXPECT_THROW(parse_compress_mode("onebit"), util::ConfigError);
  EXPECT_EQ(parse_compress_mode("bf16"), CompressMode::kBf16);
  EXPECT_THROW(parse_compress_mode("zstd"), util::ConfigError);
  EXPECT_STREQ(to_string(CompressMode::kTopK), "topk");
  EXPECT_STREQ(to_string(CompressMode::kBf16), "bf16");
}

TEST(CompressCodec, OffModeIsExactPassthroughAndZeroesCarrier) {
  const std::vector<float> orig = random_values(200, 1);
  std::vector<float> carrier = orig;
  CompressOptions opts;  // kOff
  CompressState state;
  const Payload blob = compress(carrier, opts, state);
  for (float c : carrier) EXPECT_EQ(c, 0.0f);
  ASSERT_EQ(decoded_values(as_blob(blob)), orig.size());
  std::vector<float> out(orig.size());
  decode_overwrite(as_blob(blob), out);
  for (std::size_t i = 0; i < orig.size(); ++i) {
    ASSERT_EQ(out[i], orig[i]) << i;
  }
  // Passthrough ships every byte: wire = payload + header.
  EXPECT_EQ(state.last_raw_bytes(), orig.size() * sizeof(float));
  EXPECT_GT(state.last_wire_bytes(), state.last_raw_bytes());
}

TEST(CompressCodec, ShortVectorsShipRawEvenWhenTopkActive) {
  CompressOptions opts = topk(0.5);
  opts.min_values = 100;
  const std::vector<float> orig = random_values(10, 2);
  std::vector<float> carrier = orig;
  CompressState state;
  const Payload blob = compress(carrier, opts, state);
  for (float c : carrier) EXPECT_EQ(c, 0.0f);
  std::vector<float> out(orig.size());
  decode_overwrite(as_blob(blob), out);
  for (std::size_t i = 0; i < orig.size(); ++i) {
    ASSERT_EQ(out[i], orig[i]) << i;
  }
}

TEST(CompressCodec, TopkShipsLargeEntriesExactlyLeavesRestUntouched) {
  // 8 large entries among zeros, fraction sized so the sampled threshold
  // lands between them: the large ones ship bitwise and are zeroed in the
  // carrier; the zero entries select nothing (threshold floors at
  // FLT_MIN, not 0).
  const std::size_t n = 64;
  std::vector<float> orig(n, 0.0f);
  for (std::size_t i = 0; i < 8; ++i) {
    orig[i * 7] = (i % 2 ? -10.0f : 10.0f) * static_cast<float>(i + 1);
  }
  std::vector<float> carrier = orig;
  CompressState state;
  const Payload blob = compress(carrier, topk(8.0 / 64.0), state);
  std::vector<float> out(n, -1.0f);
  decode_overwrite(as_blob(blob), out);
  for (std::size_t i = 0; i < n; ++i) {
    if (orig[i] != 0.0f) {
      EXPECT_EQ(out[i], orig[i]) << i;   // shipped whole
      EXPECT_EQ(carrier[i], 0.0f) << i;  // and removed from the residual
    } else {
      EXPECT_EQ(out[i], 0.0f) << i;
      EXPECT_EQ(carrier[i], 0.0f) << i;
    }
  }
  EXPECT_LT(state.last_wire_bytes(), state.last_raw_bytes());
}

TEST(CompressCodec, TopkConservation) {
  // Error-feedback invariant, per call: every entry is either shipped
  // whole (decoded == original, residual 0) or kept whole (decoded 0,
  // residual == original). Nothing is scaled or split.
  const std::size_t n = 8192;
  const std::vector<float> orig = random_values(n, 3);
  std::vector<float> carrier = orig;
  CompressState state;
  const Payload blob = compress(carrier, topk(0.05), state);
  std::vector<float> out(n);
  decode_overwrite(as_blob(blob), out);
  std::size_t shipped = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (out[i] != 0.0f) {
      ++shipped;
      ASSERT_EQ(out[i], orig[i]) << i;
      ASSERT_EQ(carrier[i], 0.0f) << i;
    } else {
      ASSERT_EQ(carrier[i], orig[i]) << i;
    }
  }
  EXPECT_GT(shipped, 0u);
  EXPECT_LT(shipped, n);
}

TEST(CompressCodec, TopkResidualAccumulatesAndShipsLate) {
  // Values below the adapted threshold survive in the carrier across
  // calls and ship once accumulated — late, but exact (powers of two keep
  // the float arithmetic lossless here).
  const std::size_t n = 1024;
  const CompressOptions opts = topk(16.0 / 1024.0);
  CompressState state;
  std::vector<float> carrier(n, 4.0f);
  std::vector<float> out(n);

  // Call 1: uniform data selects everything and drives the threshold up.
  Payload blob = compress(carrier, opts, state);
  decode_overwrite(as_blob(blob), out);
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(out[i], 4.0f) << i;
    ASSERT_EQ(carrier[i], 0.0f) << i;
  }
  EXPECT_GT(state.threshold(), 4.0);

  // Small contributions now sit below the threshold: nothing ships, the
  // carrier keeps the full value, and the controller decays the
  // threshold toward the target rate.
  std::size_t quiet_calls = 0;
  while (true) {
    for (auto& c : carrier) c += 0.25f;
    blob = compress(carrier, opts, state);
    decode_overwrite(as_blob(blob), out);
    if (out[0] != 0.0f) break;
    ++quiet_calls;
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(out[i], 0.0f) << i;
      ASSERT_EQ(carrier[i], 0.25f * static_cast<float>(quiet_calls)) << i;
    }
    ASSERT_LT(quiet_calls, 100u) << "threshold never decayed";
  }
  // The late blob carries the whole accumulated residual, exactly.
  const float expected = 0.25f * static_cast<float>(quiet_calls + 1);
  EXPECT_GT(quiet_calls, 0u);
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(out[i], expected) << i;
    ASSERT_EQ(carrier[i], 0.0f) << i;
  }
}

TEST(CompressCodec, TopkBlobsAreDeterministic) {
  const std::vector<float> orig = random_values(4096, 7);
  std::vector<float> a = orig;
  std::vector<float> b = orig;
  CompressState sa;
  CompressState sb;
  const Payload pa = compress(a, topk(0.03), sa);
  const Payload pb = compress(b, topk(0.03), sb);
  ASSERT_EQ(pa.size(), pb.size());
  EXPECT_EQ(std::memcmp(pa.data(), pb.data(), pa.size()), 0);
  EXPECT_EQ(a, b);  // identical residuals too
}

TEST(CompressCodec, TopkRatioConvergesTowardTarget) {
  // After a few controller steps the realized wire volume sits well below
  // raw; this is the property the bench gate relies on.
  const std::size_t n = 65536;
  CompressState state;
  std::vector<float> carrier(n, 0.0f);
  for (std::uint64_t call = 0; call < 10; ++call) {
    const std::vector<float> fresh = random_values(n, 100 + call);
    for (std::size_t i = 0; i < n; ++i) carrier[i] += fresh[i];
    compress(carrier, topk(0.01), state);
  }
  EXPECT_GT(state.compression_ratio(), 5.0);
  EXPECT_LT(state.total_wire_bytes(), state.total_raw_bytes());
}

TEST(CompressCodec, DecodeAddAccumulates) {
  const std::vector<float> orig = random_values(2048, 13);
  std::vector<float> carrier = orig;
  CompressState state;
  const Payload blob = compress(carrier, topk(1.0), state);
  std::vector<float> acc(orig.size(), 0.0f);
  decode_add(as_blob(blob), acc);
  decode_add(as_blob(blob), acc);
  for (std::size_t i = 0; i < orig.size(); ++i) {
    ASSERT_EQ(acc[i], orig[i] + orig[i]) << i;
  }
}

TEST(CompressCodec, MalformedBlobsAreRejected) {
  std::vector<float> carrier = random_values(256, 17);
  CompressState state;
  const Payload blob = compress(carrier, topk(0.5), state);
  std::vector<std::byte> bytes(blob.data(), blob.data() + blob.size());
  std::vector<float> out(256);

  std::vector<std::byte> bad_magic = bytes;
  bad_magic[0] = std::byte{0x00};
  EXPECT_THROW(decoded_values(bad_magic), std::invalid_argument);

  const std::span<const std::byte> truncated(bytes.data(), bytes.size() - 1);
  EXPECT_THROW(decoded_values(truncated), std::length_error);
  EXPECT_THROW(decode_add(truncated, out), std::length_error);

  std::vector<float> wrong_size(255);
  EXPECT_THROW(decode_add(bytes, wrong_size), std::length_error);

  // Mode byte 2 is the retired 1-bit body: unknown, like any other.
  std::vector<std::byte> retired_mode = bytes;
  retired_mode[4] = std::byte{2};
  EXPECT_THROW(decoded_values(retired_mode), std::invalid_argument);
  EXPECT_THROW(decode_add(retired_mode, out), std::invalid_argument);
}

// ---- bf16 wire bodies ----

CompressOptions bf16_dense() {
  CompressOptions o;
  o.mode = CompressMode::kBf16;
  o.min_values = 1;
  return o;
}

TEST(CompressBf16, DenseRoundsPacksAndFeedsBackResidual) {
  const std::vector<float> orig = random_values(512, 21);
  std::vector<float> carrier = orig;
  CompressState state;
  const Payload blob = compress(carrier, bf16_dense(), state);
  std::vector<float> out(orig.size());
  decode_overwrite(as_blob(blob), out);
  for (std::size_t i = 0; i < orig.size(); ++i) {
    ASSERT_EQ(out[i], blas::bf16_round(orig[i])) << i;
    // The bf16 delta is within a factor of two of the value, so the
    // residual subtraction is exact (Sterbenz) and decode + residual
    // reconstructs the original bitwise.
    ASSERT_EQ(out[i] + carrier[i], orig[i]) << i;
  }
}

TEST(CompressBf16, DenseWireIsHalfOfRaw) {
  std::vector<float> carrier = random_values(4096, 22);
  CompressState state;
  const Payload blob = compress(carrier, bf16_dense(), state);
  EXPECT_EQ(state.last_raw_bytes(), 4096u * sizeof(float));
  // Header + 2 bytes/value: just over half the fp32 payload.
  EXPECT_LT(blob.size(), state.last_raw_bytes() * 0.51 + 64);
  EXPECT_GT(state.compression_ratio(), 1.9);
}

TEST(CompressBf16, PrecisionFlagUpgradesOffModeToDenseBf16) {
  CompressOptions opts;  // kOff
  opts.bf16_wire = true;
  opts.min_values = 1;
  EXPECT_TRUE(opts.active());
  const std::vector<float> orig = random_values(256, 23);
  std::vector<float> carrier = orig;
  CompressState state;
  const Payload blob = compress(carrier, opts, state);
  std::vector<float> out(orig.size());
  decode_overwrite(as_blob(blob), out);
  for (std::size_t i = 0; i < orig.size(); ++i) {
    ASSERT_EQ(out[i], blas::bf16_round(orig[i])) << i;
  }
}

TEST(CompressBf16, FromEnvDerivesWireFlagFromPrecision) {
  util::RuntimeEnv env;
  env.precision = "bf16";
  util::RuntimeEnv::set_for_tests(env);
  EXPECT_TRUE(CompressOptions::from_env().bf16_wire);
  env.precision = "int8";
  util::RuntimeEnv::set_for_tests(env);
  EXPECT_FALSE(CompressOptions::from_env().bf16_wire);
  env.precision = "";
  util::RuntimeEnv::set_for_tests(env);
  EXPECT_FALSE(CompressOptions::from_env().bf16_wire);
  util::RuntimeEnv::reset_for_tests();
}

TEST(CompressBf16, TopK16ComposesSelectionWithBf16Values) {
  // Two big entries over a zero floor (the threshold floors at FLT_MIN,
  // so zeros never select): selection keeps the big ones, the value
  // stream ships them as bf16, and the carrier keeps the bf16 rounding
  // error at the selected slots.
  std::vector<float> carrier(2048, 0.0f);
  carrier[100] = 1.375f;    // exact in bf16: residual must be 0
  carrier[1000] = -2.03f;   // inexact in bf16: residual = v - bf16(v)
  const std::vector<float> orig = carrier;
  CompressOptions opts = topk(2.0 / 2048.0);
  opts.bf16_wire = true;
  CompressState state;
  const Payload blob = compress(carrier, opts, state);
  std::vector<float> out(carrier.size());
  decode_overwrite(as_blob(blob), out);
  EXPECT_EQ(out[100], 1.375f);
  EXPECT_EQ(out[1000], blas::bf16_round(-2.03f));
  EXPECT_EQ(carrier[100], 0.0f);
  EXPECT_EQ(carrier[1000], orig[1000] - blas::bf16_round(-2.03f));
  EXPECT_EQ(carrier[5], 0.0f);  // unselected: untouched residual
  // 6 bytes per kept entry instead of 8.
  const Payload blob32 = [&] {
    std::vector<float> c2 = orig;
    CompressState s2;
    return compress(c2, topk(2.0 / 2048.0), s2);
  }();
  EXPECT_LT(blob.size(), blob32.size());
}

TEST(CompressBf16, MalformedBf16BlobsAreRejected) {
  std::vector<float> carrier = random_values(256, 24);
  CompressState state;
  const Payload blob = compress(carrier, bf16_dense(), state);
  std::vector<std::byte> bytes(blob.data(), blob.data() + blob.size());
  std::vector<float> out(256);

  const std::span<const std::byte> truncated(bytes.data(), bytes.size() - 2);
  EXPECT_THROW(decode_add(truncated, out), std::length_error);

  // A top-k16 header claiming more kept values than the total.
  std::vector<float> c2 = random_values(2048, 25);
  CompressOptions opts = topk(0.01);
  opts.bf16_wire = true;
  CompressState s2;
  const Payload tk = compress(c2, opts, s2);
  std::vector<std::byte> tkb(tk.data(), tk.data() + tk.size());
  std::uint64_t huge = 1u << 20;
  std::memcpy(tkb.data() + 16, &huge, sizeof(huge));  // aux field
  EXPECT_THROW(decoded_values(tkb), std::length_error);
}

}  // namespace
}  // namespace bgqhf::simmpi

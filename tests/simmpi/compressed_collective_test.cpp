// Contracts for the compressed collectives: they fold in fixed rank order
// so every run — and every rank, for allreduce — agrees bitwise.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "simmpi/compress.h"

namespace bgqhf::simmpi {
namespace {

std::vector<float> rank_values(int rank, std::size_t n, std::uint64_t seed) {
  std::vector<float> v(n);
  std::uint64_t s = (seed + static_cast<std::uint64_t>(rank) * 977) *
                        6364136223846793005ULL +
                    1442695040888963407ULL;
  for (std::size_t i = 0; i < n; ++i) {
    s = s * 6364136223846793005ULL + 1442695040888963407ULL;
    const double u = static_cast<double>(s >> 11) / 9007199254740992.0;
    v[i] = static_cast<float>(2.0 * u - 1.0);
    if (v[i] == 0.0f) v[i] = 0.5f;
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

TEST(CompressedReduce, FractionOneEqualsRankOrderSumExactly) {
  // With fraction 1.0 every entry ships, so the compressed reduce is an
  // exact elementwise sum folded in rank order 0..P-1 — computable
  // locally for a bitwise comparison.
  const int size = 4;
  run_world(size, [size](Comm& comm) {
    const std::size_t n = 512;
    std::vector<float> carrier = rank_values(comm.rank(), n, 9);
    std::vector<float> out(n);
    CompressState state;
    compressed_reduce_sum(comm, carrier, out, 0, topk(1.0), state);
    for (float c : carrier) EXPECT_EQ(c, 0.0f);  // everything shipped
    if (comm.rank() == 0) {
      std::vector<float> expect(n, 0.0f);
      for (int r = 0; r < size; ++r) {
        const std::vector<float> v = rank_values(r, n, 9);
        for (std::size_t i = 0; i < n; ++i) expect[i] += v[i];
      }
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(out[i], expect[i]) << i;
      }
    }
  });
}

TEST(CompressedReduce, RecordsWireBytesBelowRaw) {
  run_world(3, [](Comm& comm) {
    const std::size_t n = 16384;
    std::vector<float> carrier = rank_values(comm.rank(), n, 21);
    std::vector<float> out(n);
    CompressState state;
    compressed_reduce_sum(comm, carrier, out, 0, topk(0.01), state);
    const OpStats op = comm.stats().op(CollOp::kReduce);
    EXPECT_EQ(op.calls, 1u);
    EXPECT_EQ(op.bytes, n * sizeof(float));
    EXPECT_GT(op.wire_bytes, 0u);
    EXPECT_LT(op.wire_bytes, op.bytes / 4);
  });
}

class CompressedReduceSizeTest : public ::testing::TestWithParam<int> {};

TEST_P(CompressedReduceSizeTest, AnyRootFoldsInRankOrder) {
  // Fraction 1.0 ships every entry, so the root's total is the rank-order
  // sum 0..P-1 whichever rank the root is.
  const int size = GetParam();
  for (const int root : {0, size - 1}) {
    run_world(size, [root, size](Comm& comm) {
      const std::size_t n = 257;  // odd length
      std::vector<float> carrier = rank_values(comm.rank(), n, 5);
      std::vector<float> out(comm.rank() == root ? n : 0, -7.0f);
      CompressState state;
      compressed_reduce_sum(comm, carrier, out, root, topk(1.0), state);
      if (comm.rank() != root) return;
      std::vector<float> expect(n, 0.0f);
      for (int r = 0; r < size; ++r) {
        const std::vector<float> v = rank_values(r, n, 5);
        for (std::size_t i = 0; i < n; ++i) expect[i] += v[i];
      }
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(out[i], expect[i]) << "i=" << i << " root=" << root;
      }
    });
  }
}

TEST_P(CompressedReduceSizeTest, BackToBackReducesKeepTheirOrder) {
  // Every compressed reduce rides one tag; consecutive segments must
  // still pair up by FIFO order.
  const int size = GetParam();
  run_world(size, [size](Comm& comm) {
    const std::size_t n = 96;
    std::vector<std::vector<float>> outs(3, std::vector<float>(n));
    std::vector<CompressState> states(3);
    for (int s = 0; s < 3; ++s) {
      std::vector<float> carrier = rank_values(comm.rank(), n, 40 + s);
      compressed_reduce_sum(comm, carrier, outs[s], 0, topk(1.0), states[s]);
    }
    if (comm.rank() != 0) return;
    for (int s = 0; s < 3; ++s) {
      std::vector<float> expect(n, 0.0f);
      for (int r = 0; r < size; ++r) {
        const std::vector<float> v = rank_values(r, n, 40 + s);
        for (std::size_t i = 0; i < n; ++i) expect[i] += v[i];
      }
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(outs[s][i], expect[i]) << "segment " << s;
      }
    }
  });
}

INSTANTIATE_TEST_SUITE_P(WorldSizes, CompressedReduceSizeTest,
                         ::testing::Values(1, 2, 3, 5));

TEST(CompressedReduce, RejectsInactiveOptionsAndShortRootOutput) {
  run_world(1, [](Comm& comm) {
    std::vector<float> v(8, 1.0f);
    std::vector<float> out(8);
    CompressState state;
    EXPECT_THROW(compressed_reduce_sum(comm, v, out, 0, CompressOptions{},
                                       state),
                 std::invalid_argument);
    std::vector<float> short_out(7);
    EXPECT_THROW(
        compressed_reduce_sum(comm, v, short_out, 0, topk(0.5), state),
        std::length_error);
  });
}

class CompressedAllreduceSizeTest : public ::testing::TestWithParam<int> {};

TEST_P(CompressedAllreduceSizeTest, EveryRankGetsTheSameBitwiseResult) {
  const int size = GetParam();
  run_world(size, [](Comm& comm) {
    const std::size_t n = 2048;
    std::vector<float> carrier = rank_values(comm.rank(), n, 33);
    std::vector<float> out(n, -1.0f);
    CompressState state;
    compressed_allreduce_sum(comm, carrier, out, topk(0.25), state);
    const auto all = comm.gather<float>(out, 0);
    if (comm.rank() == 0) {
      ASSERT_EQ(all.size(), n * static_cast<std::size_t>(comm.size()));
      for (int r = 1; r < comm.size(); ++r) {
        EXPECT_EQ(std::memcmp(all.data(),
                              all.data() + static_cast<std::size_t>(r) * n,
                              n * sizeof(float)),
                  0)
            << "rank " << r << " diverged";
      }
    }
  });
}

INSTANTIATE_TEST_SUITE_P(WorldSizes, CompressedAllreduceSizeTest,
                         ::testing::Values(1, 2, 4, 5));

TEST(CompressedAllreduce, Bf16WireHalvesTrafficAndIsExactOnBf16Values) {
  // BGQHF_PRECISION=bf16 with compression off upgrades the collectives to
  // dense bf16 bodies. 1.25 and the fold total 4 * 1.25 = 5.0 are both
  // exact in bf16, so the allreduce is lossless here, every residual is
  // fully consumed, and the shared blob is half the fp32 payload.
  const int size = 4;
  run_world(size, [size](Comm& comm) {
    const std::size_t n = 4096;
    CompressOptions opts;
    opts.bf16_wire = true;
    opts.min_values = 1;
    ASSERT_EQ(opts.mode, CompressMode::kOff);
    ASSERT_TRUE(opts.active());
    std::vector<float> carrier(n, 1.25f);
    std::vector<float> out(n);
    CompressState state;
    compressed_allreduce_sum(comm, carrier, out, opts, state);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(out[i], static_cast<float>(size) * 1.25f) << i;
      ASSERT_EQ(carrier[i], 0.0f) << i;  // bf16 was exact: no residual
    }
    // The uplink blob this state packed is ~n u16: about half the raw
    // fp32 bytes the exact path would move.
    EXPECT_LT(state.total_wire_bytes(),
              static_cast<std::size_t>(0.6 * n * sizeof(float)));
    EXPECT_GT(state.compression_ratio(), 1.9);
  });
}

TEST(CompressedAllreduce, BlobDeliveryMatchesDenseDelivery) {
  run_world(3, [](Comm& comm) {
    const std::size_t n = 1024;
    const CompressOptions opts = topk(0.25);
    // Dense path.
    std::vector<float> dense_carrier = rank_values(comm.rank(), n, 55);
    std::vector<float> dense(n);
    CompressState dense_state;
    compressed_allreduce_sum(comm, dense_carrier, dense, opts, dense_state);
    // Blob path with identical inputs and a fresh state mirrors it.
    std::vector<float> blob_carrier = rank_values(comm.rank(), n, 55);
    CompressState blob_state;
    const CompressedTotal total =
        compressed_allreduce_blob(comm, blob_carrier, opts, blob_state);
    EXPECT_EQ(total.raw_bytes, n * sizeof(float));
    EXPECT_GT(total.wire_bytes, 0u);
    EXPECT_LT(total.wire_bytes, 2 * total.raw_bytes);
    std::vector<float> decoded(n);
    decode_overwrite({total.blob.data(), total.blob.size()}, decoded);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(decoded[i], dense[i]) << i;
    }
  });
}

}  // namespace
}  // namespace bgqhf::simmpi

#include "util/checksum.h"

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "util/rng.h"

namespace bgqhf::util {
namespace {

std::vector<unsigned char> random_bytes(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<unsigned char> out(n);
  for (auto& b : out) b = static_cast<unsigned char>(rng.next_u64());
  return out;
}

TEST(Checksum, MatchesKnownCrc32Vector) {
  // The canonical IEEE 802.3 check value.
  const std::string data = "123456789";
  EXPECT_EQ(crc32(data.data(), data.size()), 0xCBF43926u);
  EXPECT_EQ(crc32_portable(data.data(), data.size()), 0xCBF43926u);
}

TEST(Checksum, EmptyBufferIsZero) {
  EXPECT_EQ(crc32(nullptr, 0), 0u);
  EXPECT_EQ(crc32_portable(nullptr, 0), 0u);
}

TEST(Checksum, IncrementalEqualsOneShot) {
  const std::string data = "the quick brown fox jumps over the lazy dog";
  const std::uint32_t whole = crc32(data.data(), data.size());
  for (std::size_t split = 0; split <= data.size(); ++split) {
    const std::uint32_t first = crc32(data.data(), split);
    const std::uint32_t resumed =
        crc32(data.data() + split, data.size() - split, first);
    EXPECT_EQ(resumed, whole) << "split at " << split;
  }
}

TEST(Checksum, DetectsSingleBitFlip) {
  std::string data = "checkpoint payload bytes";
  const std::uint32_t clean = crc32(data.data(), data.size());
  for (std::size_t byte = 0; byte < data.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      data[byte] = static_cast<char>(data[byte] ^ (1 << bit));
      EXPECT_NE(crc32(data.data(), data.size()), clean)
          << "byte " << byte << " bit " << bit;
      data[byte] = static_cast<char>(data[byte] ^ (1 << bit));
    }
  }
}

// ---- parity of the dispatched (folded on PCLMULQDQ hosts) path with the
// byte-table reference ----

TEST(ChecksumParity, ReportsWhichPathRuns) {
#if defined(__x86_64__) || defined(__i386__)
  EXPECT_EQ(crc32_folded(), __builtin_cpu_supports("pclmul") &&
                                __builtin_cpu_supports("sse4.2"));
#else
  EXPECT_FALSE(crc32_folded());
#endif
  RecordProperty("crc32_folded", crc32_folded() ? "true" : "false");
}

TEST(ChecksumParity, EveryLengthUpTo1024AtEveryOffset) {
  const auto buf = random_bytes(1024 + 16, 1);
  for (std::size_t offset = 0; offset < 16; ++offset) {
    for (std::size_t len = 0; len <= 1024; ++len) {
      ASSERT_EQ(crc32(buf.data() + offset, len),
                crc32_portable(buf.data() + offset, len))
          << "offset " << offset << " len " << len;
    }
  }
}

TEST(ChecksumParity, NonZeroSeedCrcMatches) {
  const auto buf = random_bytes(4096, 2);
  for (const std::uint32_t seed : {0x1u, 0xFFFFFFFFu, 0xDEADBEEFu}) {
    for (const std::size_t len : {63u, 64u, 65u, 80u, 127u, 128u, 4096u}) {
      EXPECT_EQ(crc32(buf.data(), len, seed),
                crc32_portable(buf.data(), len, seed))
          << "seed " << seed << " len " << len;
    }
  }
}

TEST(ChecksumParity, RandomBuffersUpTo2MB) {
  Rng rng(3);
  const std::size_t max_len = std::size_t{2} << 20;
  const auto buf = random_bytes(max_len + 16, 4);
  // Include the exact sizes the FT protocol frames: a 480,320-float θ.
  std::vector<std::size_t> lengths{max_len, 480320 * sizeof(float) + 8};
  for (int i = 0; i < 40; ++i) {
    lengths.push_back(static_cast<std::size_t>(rng.next_u64() % max_len));
  }
  for (const std::size_t len : lengths) {
    const std::size_t offset = static_cast<std::size_t>(rng.next_u64() % 16);
    ASSERT_EQ(crc32(buf.data() + offset, len),
              crc32_portable(buf.data() + offset, len))
        << "offset " << offset << " len " << len;
  }
}

TEST(ChecksumParity, IncrementalSplitsStraddlingFoldBoundaries) {
  const auto buf = random_bytes(1024, 5);
  const std::uint32_t whole = crc32_portable(buf.data(), buf.size());
  // Splits at, just before and just after each 16- and 64-byte boundary,
  // so both halves land on every remainder class of the folding kernel.
  for (std::size_t boundary = 16; boundary < buf.size(); boundary += 16) {
    for (const std::size_t split : {boundary - 1, boundary, boundary + 1}) {
      const std::uint32_t first = crc32(buf.data(), split);
      ASSERT_EQ(crc32(buf.data() + split, buf.size() - split, first), whole)
          << "split " << split;
    }
  }
  // Three-way splits of a long buffer at random points.
  Rng rng(6);
  const auto big = random_bytes(1 << 16, 7);
  const std::uint32_t big_whole = crc32_portable(big.data(), big.size());
  for (int i = 0; i < 200; ++i) {
    std::size_t a = static_cast<std::size_t>(rng.next_u64() % big.size());
    std::size_t b = static_cast<std::size_t>(rng.next_u64() % big.size());
    if (a > b) std::swap(a, b);
    std::uint32_t crc = crc32(big.data(), a);
    crc = crc32(big.data() + a, b - a, crc);
    crc = crc32(big.data() + b, big.size() - b, crc);
    ASSERT_EQ(crc, big_whole) << "splits " << a << ", " << b;
  }
}

TEST(ChecksumParity, PortableIncrementalEqualsOneShot) {
  const auto buf = random_bytes(300, 8);
  const std::uint32_t whole = crc32_portable(buf.data(), buf.size());
  for (std::size_t split = 0; split <= buf.size(); ++split) {
    ASSERT_EQ(crc32_portable(buf.data() + split, buf.size() - split,
                             crc32_portable(buf.data(), split)),
              whole)
        << "split " << split;
  }
}

}  // namespace
}  // namespace bgqhf::util

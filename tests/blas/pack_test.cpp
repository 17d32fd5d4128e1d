#include "blas/pack.h"

#include <gtest/gtest.h>

#include <vector>

namespace bgqhf::blas {
namespace {

Matrix<float> iota_matrix(std::size_t r, std::size_t c) {
  Matrix<float> m(r, c);
  for (std::size_t i = 0; i < r; ++i) {
    for (std::size_t j = 0; j < c; ++j) {
      m(i, j) = static_cast<float>(i * 100 + j);
    }
  }
  return m;
}

TEST(Pack, PackAFullPanelLayout) {
  // One full MR panel: buf[k*MR + i] == A(row0+i, col0+k).
  const Matrix<float> a = iota_matrix(16, 16);
  std::vector<float> buf(packed_a_elems(kMR, 4));
  pack_a<float>(a.view(), false, 2, 3, kMR, 4, buf.data());
  for (std::size_t k = 0; k < 4; ++k) {
    for (std::size_t i = 0; i < kMR; ++i) {
      EXPECT_EQ(buf[k * kMR + i], a(2 + i, 3 + k));
    }
  }
}

TEST(Pack, PackAZeroPadsFringeRows) {
  const Matrix<float> a = iota_matrix(5, 4);
  std::vector<float> buf(packed_a_elems(5, 4), -1.0f);
  pack_a<float>(a.view(), false, 0, 0, 5, 4, buf.data());
  // Rows 5..7 of the single panel must be zero.
  for (std::size_t k = 0; k < 4; ++k) {
    for (std::size_t i = 5; i < kMR; ++i) {
      EXPECT_EQ(buf[k * kMR + i], 0.0f);
    }
  }
}

TEST(Pack, PackATransposedReadsColumns) {
  const Matrix<float> a = iota_matrix(6, 10);
  // Logical operand is A^T (10 x 6); pack a 4x3 block at (1, 2).
  std::vector<float> buf(packed_a_elems(4, 3));
  pack_a<float>(a.view(), true, 1, 2, 4, 3, buf.data());
  for (std::size_t k = 0; k < 3; ++k) {
    for (std::size_t i = 0; i < 4; ++i) {
      // logical (1+i, 2+k) of A^T == stored A(2+k, 1+i)
      EXPECT_EQ(buf[k * kMR + i], a(2 + k, 1 + i));
    }
  }
}

TEST(Pack, PackBFullPanelLayout) {
  const Matrix<float> b = iota_matrix(12, 2 + kNR);
  std::vector<float> buf(packed_b_elems(5, kNR));
  pack_b<float>(b.view(), false, 1, 2, 5, kNR, buf.data());
  for (std::size_t k = 0; k < 5; ++k) {
    for (std::size_t j = 0; j < kNR; ++j) {
      EXPECT_EQ(buf[k * kNR + j], b(1 + k, 2 + j));
    }
  }
}

TEST(Pack, PackBZeroPadsFringeCols) {
  const Matrix<float> b = iota_matrix(4, 3);
  std::vector<float> buf(packed_b_elems(4, 3), -1.0f);
  pack_b<float>(b.view(), false, 0, 0, 4, 3, buf.data());
  for (std::size_t k = 0; k < 4; ++k) {
    for (std::size_t j = 3; j < kNR; ++j) {
      EXPECT_EQ(buf[k * kNR + j], 0.0f);
    }
  }
}

TEST(Pack, PackedSizesRoundUpToPanelMultiples) {
  EXPECT_EQ(packed_a_elems(8, 10), 8u * 10u);
  EXPECT_EQ(packed_a_elems(9, 10), 16u * 10u);
  EXPECT_EQ(packed_b_elems(10, 16), 10u * 16u);
  EXPECT_EQ(packed_b_elems(10, 9), 10u * 16u);
  EXPECT_EQ(packed_b_elems(10, 17), 10u * 32u);
}

TEST(Pack, MultiPanelPackACoversAllRows) {
  const Matrix<float> a = iota_matrix(20, 6);
  std::vector<float> buf(packed_a_elems(20, 6));
  pack_a<float>(a.view(), false, 0, 0, 20, 6, buf.data());
  // Panel p, row-in-panel i, column k:
  for (std::size_t p = 0; p < 20; p += kMR) {
    const std::size_t mr = std::min(kMR, 20 - p);
    for (std::size_t k = 0; k < 6; ++k) {
      for (std::size_t i = 0; i < mr; ++i) {
        EXPECT_EQ(buf[(p / kMR) * 6 * kMR + k * kMR + i], a(p + i, k));
      }
    }
  }
}

}  // namespace
}  // namespace bgqhf::blas

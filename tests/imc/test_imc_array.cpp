#include "src/imc/imc_array.hpp"

#include <gtest/gtest.h>

#include "src/common/rng.hpp"

namespace memhd::imc {
namespace {

using common::BitMatrix;
using common::BitVector;
using common::Rng;

TEST(ImcArray, GeometryAndInitialState) {
  ImcArray a(ArrayGeometry{4, 8});
  EXPECT_EQ(a.geometry().rows, 4u);
  EXPECT_EQ(a.geometry().cols, 8u);
  EXPECT_EQ(a.activations(), 0u);
  EXPECT_EQ(a.write_passes(), 0u);
  EXPECT_FALSE(a.weight(0, 0));
}

TEST(ImcArray, ProgramSmallerTileLeavesRestZero) {
  Rng rng(1);
  ImcArray a(ArrayGeometry{8, 8});
  BitMatrix tile(3, 5);
  tile.set(0, 0, true);
  tile.set(2, 4, true);
  a.program(tile);
  EXPECT_TRUE(a.weight(0, 0));
  EXPECT_TRUE(a.weight(2, 4));
  EXPECT_FALSE(a.weight(7, 7));
  EXPECT_EQ(a.used_rows(), 3u);
  EXPECT_EQ(a.used_cols(), 5u);
  EXPECT_EQ(a.write_passes(), 1u);
}

TEST(ImcArray, BinaryMvmMatchesNaive) {
  Rng rng(2);
  ImcArray a(ArrayGeometry{16, 12});
  const BitMatrix tile = BitMatrix::random(16, 12, rng);
  a.program(tile);
  const auto input = BitVector::random(16, rng);
  const auto out = a.mvm_binary(input);
  ASSERT_EQ(out.size(), 12u);
  for (std::size_t c = 0; c < 12; ++c) {
    std::uint32_t naive = 0;
    for (std::size_t r = 0; r < 16; ++r)
      if (input.get(r) && tile.get(r, c)) ++naive;
    EXPECT_EQ(out[c], naive) << "column " << c;
  }
  EXPECT_EQ(a.activations(), 1u);
}

TEST(ImcArray, RealMvmMatchesNaive) {
  Rng rng(3);
  ImcArray a(ArrayGeometry{8, 6});
  const BitMatrix tile = BitMatrix::random(8, 6, rng);
  a.program(tile);
  std::vector<float> x(8);
  for (auto& v : x) v = static_cast<float>(rng.uniform());
  const auto out = a.mvm_real(x);
  for (std::size_t c = 0; c < 6; ++c) {
    float naive = 0.0f;
    for (std::size_t r = 0; r < 8; ++r)
      if (tile.get(r, c)) naive += x[r];
    EXPECT_NEAR(out[c], naive, 1e-6f);
  }
}

TEST(ImcArray, PartialInputDrivesOnlyGivenRows) {
  ImcArray a(ArrayGeometry{8, 2});
  BitMatrix tile(8, 2);
  for (std::size_t r = 0; r < 8; ++r) tile.set(r, 0, true);
  a.program(tile);
  BitVector input(3);  // only first three wordlines driven
  input.fill(true);
  const auto out = a.mvm_binary(input);
  EXPECT_EQ(out[0], 3u);
  EXPECT_EQ(out[1], 0u);
}

TEST(ImcArray, CountersAccumulateAndReset) {
  Rng rng(4);
  ImcArray a(ArrayGeometry{4, 4});
  a.program(BitMatrix(2, 2));
  const auto input = BitVector::random(4, rng);
  a.mvm_binary(input);
  a.mvm_binary(input);
  std::vector<float> x(4, 0.5f);
  a.mvm_real(x);
  EXPECT_EQ(a.activations(), 3u);
  EXPECT_EQ(a.write_passes(), 1u);
  a.reset_counters();
  EXPECT_EQ(a.activations(), 0u);
  EXPECT_EQ(a.write_passes(), 0u);
}

TEST(ImcArray, ProgramCellUpdatesUsage) {
  ImcArray a(ArrayGeometry{8, 8});
  a.program_cell(5, 6, true);
  EXPECT_TRUE(a.weight(5, 6));
  EXPECT_EQ(a.used_rows(), 6u);
  EXPECT_EQ(a.used_cols(), 7u);
}

TEST(ImcArray, PaperGeometryDefault) {
  ArrayGeometry g;
  EXPECT_EQ(g.rows, 128u);
  EXPECT_EQ(g.cols, 128u);
  EXPECT_EQ(g.cells(), 16384u);
}

TEST(ImcArray, BatchMvmMatchesDenseOracle) {
  // The wordline-parallel block path against the dense BitMatrix::mvm of
  // the transposed tile (row c = column c over the wordlines), including
  // odd geometries that straddle word boundaries.
  Rng rng(10);
  for (const auto g : {ArrayGeometry{16, 16}, ArrayGeometry{100, 36},
                       ArrayGeometry{128, 128}, ArrayGeometry{65, 130}}) {
    ImcArray a(g);
    const BitMatrix tile = BitMatrix::random(g.rows, g.cols, rng);
    a.program(tile);
    const BitMatrix columns = tile.transposed();

    const std::size_t batch = 13;
    const BitMatrix inputs = BitMatrix::random(batch, g.rows, rng);
    const auto out = a.mvm_binary_batch(inputs);
    ASSERT_EQ(out.size(), batch * g.cols);
    std::vector<std::uint32_t> dense;
    for (std::size_t q = 0; q < batch; ++q) {
      columns.mvm(inputs.row_vector(q), dense);
      for (std::size_t c = 0; c < g.cols; ++c)
        ASSERT_EQ(out[q * g.cols + c], dense[c])
            << g.rows << "x" << g.cols << " q=" << q << " c=" << c;
    }
    // One activation per driven pattern.
    EXPECT_EQ(a.activations(), batch);
  }
}

TEST(ImcArray, BatchMvmSpanOverloadHandlesShortInputs) {
  // Per-query vectors shorter than the wordline count leave the missing
  // rows undriven: each equals its zero-extended full-width pattern.
  Rng rng(11);
  const BitMatrix tile = BitMatrix::random(32, 8, rng);
  const BitMatrix columns = tile.transposed();
  ImcArray a(ArrayGeometry{32, 8});
  a.program(tile);
  std::vector<BitVector> inputs;
  inputs.push_back(BitVector::random(5, rng));
  inputs.push_back(BitVector::random(32, rng));
  inputs.push_back(BitVector(0));
  const auto out = a.mvm_binary_batch(std::span<const BitVector>(inputs));
  std::vector<std::uint32_t> dense;
  for (std::size_t q = 0; q < inputs.size(); ++q) {
    BitVector padded(32);
    for (std::size_t r = 0; r < inputs[q].size(); ++r)
      padded.set(r, inputs[q].get(r));
    columns.mvm(padded, dense);
    for (std::size_t c = 0; c < 8; ++c)
      ASSERT_EQ(out[q * 8 + c], dense[c]) << "q=" << q;
  }
  EXPECT_EQ(a.activations(), inputs.size());
}

TEST(ImcArray, ReprogrammingInvalidatesBatchPath) {
  // The batch path caches a repack of the weight plane; program() and
  // program_cell() must invalidate it.
  Rng rng(12);
  ImcArray a(ArrayGeometry{16, 16});
  a.program(BitMatrix::random(16, 16, rng));
  const BitMatrix inputs = BitMatrix::random(4, 16, rng);
  a.mvm_binary_batch(inputs);  // builds the cache

  const BitMatrix tile2 = BitMatrix::random(16, 16, rng);
  a.program(tile2);
  const auto out = a.mvm_binary_batch(inputs);
  for (std::size_t q = 0; q < 4; ++q)
    for (std::size_t c = 0; c < 16; ++c) {
      std::uint32_t naive = 0;
      for (std::size_t r = 0; r < 16; ++r)
        if (inputs.get(q, r) && tile2.get(r, c)) ++naive;
      ASSERT_EQ(out[q * 16 + c], naive) << "q=" << q << " c=" << c;
    }

  a.program_cell(0, 0, !a.weight(0, 0));
  const auto out2 = a.mvm_binary_batch(inputs);
  for (std::size_t q = 0; q < 4; ++q)
    for (std::size_t c = 0; c < 16; ++c) {
      std::uint32_t naive = 0;
      for (std::size_t r = 0; r < 16; ++r)
        if (inputs.get(q, r) && a.weight(r, c)) ++naive;
      ASSERT_EQ(out2[q * 16 + c], naive) << "q=" << q << " c=" << c;
    }
}

}  // namespace
}  // namespace memhd::imc

// The partitioning baseline's defining property: a pure layout transform.
// Scores and predictions must be bit-identical to the dense dot search for
// every partition count; only the array/cycle accounting changes.
#include "src/imc/partitioned_search.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>
#include <utility>

#include "src/common/rng.hpp"
#include "src/common/stats.hpp"
#include "src/imc/mapping.hpp"
#include "src/imc/noise.hpp"

namespace memhd::imc {
namespace {

using common::BitMatrix;
using common::BitVector;
using common::Rng;

std::vector<std::uint32_t> dense_scores(const BitMatrix& am,
                                        const BitVector& query) {
  std::vector<std::uint32_t> out;
  am.mvm(query, out);
  return out;
}

TEST(PartitionedSearch, OnePartitionEqualsDense) {
  Rng rng(1);
  const BitMatrix am = BitMatrix::random(10, 1024, rng);
  PartitionedAm part(am, 1, ArrayGeometry{128, 128});
  const auto q = BitVector::random(1024, rng);
  EXPECT_EQ(part.scores(q), dense_scores(am, q));
}

class PartitionSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(PartitionSweep, ScoresIdenticalToDenseSearch) {
  const std::size_t p = GetParam();
  Rng rng(10 + p);
  const BitMatrix am = BitMatrix::random(10, 1024, rng);
  PartitionedAm part(am, p, ArrayGeometry{128, 128});
  for (int trial = 0; trial < 10; ++trial) {
    const auto q = BitVector::random(1024, rng);
    ASSERT_EQ(part.scores(q), dense_scores(am, q)) << "P=" << p;
  }
}

TEST_P(PartitionSweep, PredictMatchesArgmax) {
  const std::size_t p = GetParam();
  Rng rng(20 + p);
  const BitMatrix am = BitMatrix::random(26, 512, rng);
  PartitionedAm part(am, p, ArrayGeometry{128, 128});
  for (int trial = 0; trial < 5; ++trial) {
    const auto q = BitVector::random(512, rng);
    const auto dense = dense_scores(am, q);
    ASSERT_EQ(part.predict(q), common::argmax_u32(dense));
  }
}

INSTANTIATE_TEST_SUITE_P(Partitions, PartitionSweep,
                         ::testing::Values(1u, 2u, 4u, 5u, 8u, 10u));

TEST(PartitionedSearch, NonDividingPartitionCount) {
  // P = 3 does not divide D = 1000: the tail partition is short; results
  // must still match the dense search exactly.
  Rng rng(3);
  const BitMatrix am = BitMatrix::random(7, 1000, rng);
  PartitionedAm part(am, 3, ArrayGeometry{128, 128});
  for (int trial = 0; trial < 10; ++trial) {
    const auto q = BitVector::random(1000, rng);
    ASSERT_EQ(part.scores(q), dense_scores(am, q));
  }
}

TEST(PartitionedSearch, BatchScoresMatchDenseWithExactActivations) {
  // The batch path preserves the partitioned-search equivalence invariant
  // (scores_batch == dense dot search), including non-dividing P (short
  // tail partition) and an odd batch size. D = 1000, 9 classes on 128x128
  // arrays, one column tile throughout (9 * P <= 128):
  //   P = 1: 1000 wordlines -> 8 row tiles                  -> 8 per query
  //   P = 3: 334 per partition (tail 332) -> 3 row tiles x 3 -> 9
  //   P = 7: 143 per partition (tail 142) -> 2 row tiles x 7 -> 14
  Rng rng(6);
  const BitMatrix am = BitMatrix::random(9, 1000, rng);
  std::vector<BitVector> queries;
  for (int i = 0; i < 23; ++i) queries.push_back(BitVector::random(1000, rng));

  for (const auto& [p, per_query] :
       {std::pair{1UL, 8UL}, std::pair{3UL, 9UL}, std::pair{7UL, 14UL}}) {
    PartitionedAm part(am, p, ArrayGeometry{128, 128});
    const auto batch = part.scores_batch(queries);
    ASSERT_EQ(batch.size(), queries.size() * am.rows());
    for (std::size_t q = 0; q < queries.size(); ++q) {
      const auto dense = dense_scores(am, queries[q]);
      for (std::size_t c = 0; c < am.rows(); ++c)
        ASSERT_EQ(batch[q * am.rows() + c], dense[c])
            << "P=" << p << " q=" << q;
    }
    EXPECT_EQ(part.activations(), per_query * queries.size()) << "P=" << p;
  }
}

TEST(PartitionedSearch, ShortTailPartitionSkipsItsEmptyRowTile) {
  // D = 257, P = 2, 10 classes on 128x128 arrays: 129 wordlines per
  // partition, so 2 row tiles. Partition 0 drives both; partition 1 holds
  // only 128 dimensions and never reaches row tile 1, which is skipped:
  // 3 activations per query. The cost model counts the same tile plan, so
  // its cycles equal the functional activations per query.
  Rng rng(8);
  const BitMatrix am = BitMatrix::random(10, 257, rng);
  std::vector<BitVector> queries;
  for (int i = 0; i < 5; ++i) queries.push_back(BitVector::random(257, rng));

  PartitionedAm part(am, 2, ArrayGeometry{128, 128});
  const auto batch = part.scores_batch(queries);
  for (std::size_t q = 0; q < queries.size(); ++q) {
    const auto dense = dense_scores(am, queries[q]);
    for (std::size_t c = 0; c < am.rows(); ++c)
      ASSERT_EQ(batch[q * am.rows() + c], dense[c]) << "q=" << q;
  }
  EXPECT_EQ(part.activations(), 15u);
  EXPECT_EQ(map_partitioned(257, 10, 2, ArrayGeometry{128, 128}).cycles,
            part.activations() / queries.size());

  // A one-row call costs one query's worth.
  part.scores(queries[0]);
  EXPECT_EQ(part.activations(), 18u);
}

TEST(PartitionedSearch, PredictMatchesDenseArgmax) {
  Rng rng(7);
  const BitMatrix am = BitMatrix::random(12, 512, rng);
  std::vector<BitVector> queries;
  for (int i = 0; i < 11; ++i) queries.push_back(BitVector::random(512, rng));
  // A stored class row as a query (a self-match).
  queries.push_back(am.row_vector(5));

  PartitionedAm part(am, 4, ArrayGeometry{128, 128});
  const auto batch = part.predict_batch(queries);
  ASSERT_EQ(batch.size(), queries.size());
  for (std::size_t q = 0; q < queries.size(); ++q) {
    const auto want = common::argmax_u32(dense_scores(am, queries[q]));
    ASSERT_EQ(batch[q], want) << "q=" << q;
    ASSERT_EQ(part.predict(queries[q]), want) << "q=" << q;
  }
}

TEST(PartitionedSearch, ArrayCountMatchesMappingEngine) {
  // The functional deployment must occupy exactly the arrays the
  // architectural mapping predicts (MNIST P=10 case: 8 arrays).
  Rng rng(4);
  const BitMatrix am = BitMatrix::random(10, 10240, rng);
  PartitionedAm part(am, 10, ArrayGeometry{128, 128});
  const auto cost = map_partitioned(10240, 10, 10, ArrayGeometry{128, 128});
  EXPECT_EQ(part.num_arrays(), cost.arrays);
  EXPECT_EQ(part.num_arrays(), 8u);
}

// Property sweep for the wordline-parallel batch path: (dim, classes,
// partitions, geometry) combinations chosen to hit partitions that do not
// divide dim, segments that straddle word boundaries, and tile-boundary
// geometries (both dividing and non-dividing row/column tile splits).
class BatchShapeSweep
    : public ::testing::TestWithParam<
          std::tuple<std::size_t, std::size_t, std::size_t, ArrayGeometry>> {};

// Activations one query costs, counted from the layout rather than the
// walk: partition p holds len_p = min(D, (p+1)*ceil(D/P)) - p*ceil(D/P)
// wordlines, so it drives ceil(len_p / rows) row tiles, each across the
// column tiles its k-column group [p*k, (p+1)*k) touches.
std::size_t expected_activations_per_query(std::size_t dim,
                                           std::size_t classes,
                                           std::size_t partitions,
                                           ArrayGeometry g) {
  const std::size_t rpp = (dim + partitions - 1) / partitions;
  std::size_t total = 0;
  for (std::size_t p = 0; p < partitions; ++p) {
    const std::size_t begin = p * rpp;
    const std::size_t len = begin < dim ? std::min(dim, begin + rpp) - begin
                                        : 0;
    const std::size_t row_tiles = (len + g.rows - 1) / g.rows;
    const std::size_t col_tiles =
        ((p + 1) * classes - 1) / g.cols - (p * classes) / g.cols + 1;
    total += row_tiles * col_tiles;
  }
  return total;
}

TEST_P(BatchShapeSweep, BatchMatchesDenseAcrossOddShapes) {
  const auto [dim, classes, partitions, geometry] = GetParam();
  Rng rng(100 + dim + partitions);
  const BitMatrix am = BitMatrix::random(classes, dim, rng);
  std::vector<BitVector> queries;
  for (int i = 0; i < 17; ++i) queries.push_back(BitVector::random(dim, rng));

  PartitionedAm part(am, partitions, geometry);
  const auto batch = part.scores_batch(queries);
  ASSERT_EQ(batch.size(), queries.size() * classes);
  for (std::size_t q = 0; q < queries.size(); ++q) {
    const auto dense = dense_scores(am, queries[q]);
    for (std::size_t c = 0; c < classes; ++c)
      ASSERT_EQ(batch[q * classes + c], dense[c])
          << "D=" << dim << " P=" << partitions << " g=" << geometry.rows
          << "x" << geometry.cols << " q=" << q;
  }
  // The block path bumps each driven array by the batch size, and the cost
  // model's cycles are the same per-query count.
  const std::size_t per_query =
      expected_activations_per_query(dim, classes, partitions, geometry);
  EXPECT_EQ(part.activations(), queries.size() * per_query);
  EXPECT_EQ(map_partitioned(dim, classes, partitions, geometry).cycles,
            per_query);
}

TEST_P(BatchShapeSweep, NoisyBatchReproducesPerQuerySeededDenseReads) {
  // Under readout noise the contract is stream-level: digitizing the batch
  // score matrix with a per-query-seeded AdcModel stream must equal
  // digitizing each query's dense score vector with that query's stream.
  const auto [dim, classes, partitions, geometry] = GetParam();
  Rng rng(200 + dim + partitions);
  const BitMatrix am = BitMatrix::random(classes, dim, rng);
  std::vector<BitVector> queries;
  for (int i = 0; i < 9; ++i) queries.push_back(BitVector::random(dim, rng));

  PartitionedAm batch_am(am, partitions, geometry);
  const AdcModel adc(4, /*noise_sigma=*/1.5);
  const std::uint64_t stream_seed = 0xF00D;

  auto batch = batch_am.scores_batch(queries);
  std::vector<std::uint32_t> full_scales(queries.size());
  for (std::size_t q = 0; q < queries.size(); ++q)
    full_scales[q] = static_cast<std::uint32_t>(
        std::max<std::size_t>(1, queries[q].popcount()));
  adc.read_columns_batch(batch, queries.size(), full_scales, stream_seed);

  for (std::size_t q = 0; q < queries.size(); ++q) {
    auto single = dense_scores(am, queries[q]);
    common::Rng qrng(AdcModel::query_stream(stream_seed, q));
    adc.read_columns(single, full_scales[q], qrng);
    for (std::size_t c = 0; c < classes; ++c)
      ASSERT_EQ(batch[q * classes + c], single[c])
          << "D=" << dim << " P=" << partitions << " q=" << q;
  }
}

INSTANTIATE_TEST_SUITE_P(
    OddShapes, BatchShapeSweep,
    ::testing::Values(
        // P divides D, geometry divides everything (the clean case).
        std::make_tuple(1024u, 10u, 4u, ArrayGeometry{128, 128}),
        // P does not divide D: short tail partition.
        std::make_tuple(1000u, 9u, 3u, ArrayGeometry{128, 128}),
        std::make_tuple(1000u, 9u, 7u, ArrayGeometry{128, 128}),
        // Tiny arrays: many row/column tiles, tile-boundary accumulation.
        std::make_tuple(260u, 5u, 2u, ArrayGeometry{16, 16}),
        std::make_tuple(260u, 5u, 3u, ArrayGeometry{32, 8}),
        std::make_tuple(130u, 26u, 5u, ArrayGeometry{8, 32}),
        // Word-straddling geometry rows (65 wordlines = one word + 1 bit).
        std::make_tuple(512u, 12u, 4u, ArrayGeometry{65, 33})));

TEST(PartitionedSearch, ActivationsScaleWithPartitions) {
  // Each query costs P passes over the row tiles whose columns intersect
  // the partition group — the cycle pathology of Fig. 1-(b).
  Rng rng(5);
  const BitMatrix am = BitMatrix::random(10, 1024, rng);

  PartitionedAm p1(am, 1, ArrayGeometry{128, 128});
  const auto q = BitVector::random(1024, rng);
  p1.scores(q);
  EXPECT_EQ(p1.activations(), 8u);  // 1024 wordlines = 8 row tiles

  // 128 wordlines x 80 columns: one tile, driven once per partition.
  PartitionedAm p8(am, 8, ArrayGeometry{128, 128});
  p8.scores(q);
  EXPECT_EQ(p8.activations(), 8u);
  EXPECT_LE(p8.num_arrays(), p1.num_arrays());
}

}  // namespace
}  // namespace memhd::imc

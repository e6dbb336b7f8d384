// The §III-D equivalence property: inference executed tile-by-tile on the
// functional IMC arrays must match the software model bit-exactly.
// Features are 8-bit quantized (multiples of 1/256, as a DAC would deliver)
// so every float partial sum is exactly representable — see pipeline.hpp.
#include "src/imc/pipeline.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <span>

#include "src/common/rng.hpp"
#include "src/common/stats.hpp"
#include "src/core/initializer.hpp"
#include "test_util.hpp"

namespace memhd::imc {
namespace {

using common::BitVector;
using common::Rng;

/// Feature vector with 8-bit quantized entries.
std::vector<float> dac_features(std::size_t f, Rng& rng) {
  std::vector<float> x(f);
  for (auto& v : x)
    v = static_cast<float>(rng.uniform_index(256)) / 256.0f;
  return x;
}

struct Deployed {
  hdc::ProjectionEncoder encoder;
  core::MultiCentroidAM am;
};

Deployed make_deployed(std::size_t f, std::size_t dim, std::size_t columns,
                       std::size_t classes, std::uint64_t seed) {
  hdc::ProjectionEncoderConfig ec;
  ec.num_features = f;
  ec.dim = dim;
  ec.seed = seed;
  hdc::ProjectionEncoder encoder(ec);

  core::MultiCentroidAM am(classes, dim, columns);
  Rng rng(seed ^ 0xA11);
  std::vector<float> bip;
  for (std::size_t col = 0; col < columns; ++col) {
    const auto proto = BitVector::random(dim, rng);
    bip.clear();
    proto.to_bipolar(bip);
    am.set_centroid(col, static_cast<data::Label>(col % classes), bip);
  }
  am.binarize();
  return Deployed{std::move(encoder), std::move(am)};
}

TEST(TiledMatrix, BinaryMvmMatchesLogicalMatrix) {
  Rng rng(1);
  const auto logical = common::BitMatrix::random(300, 150, rng);
  TiledMatrix tiled(logical, ArrayGeometry{128, 128});
  EXPECT_EQ(tiled.row_tiles(), 3u);
  EXPECT_EQ(tiled.col_tiles(), 2u);
  EXPECT_EQ(tiled.num_arrays(), 6u);

  const auto input = BitVector::random(300, rng);
  const auto out =
      tiled.mvm_binary_batch(std::span<const BitVector>(&input, 1));
  ASSERT_EQ(out.size(), 150u);
  for (std::size_t c = 0; c < 150; ++c) {
    std::uint32_t naive = 0;
    for (std::size_t r = 0; r < 300; ++r)
      if (input.get(r) && logical.get(r, c)) ++naive;
    ASSERT_EQ(out[c], naive) << "col " << c;
  }
  // One full MVM = row_tiles * col_tiles array activations.
  EXPECT_EQ(tiled.activations(), 6u);
}

TEST(TiledMatrix, RealMvmMatchesNaive) {
  Rng rng(2);
  const auto logical = common::BitMatrix::random(100, 40, rng);
  TiledMatrix tiled(logical, ArrayGeometry{32, 32});
  const auto x = dac_features(100, rng);
  const auto out = tiled.mvm_real(x);
  for (std::size_t c = 0; c < 40; ++c) {
    float naive = 0.0f;
    for (std::size_t r = 0; r < 100; ++r)
      if (logical.get(r, c)) naive += x[r];
    ASSERT_NEAR(out[c], naive, 1e-5f);
  }
}

TEST(Pipeline, EncodeBitExactAgainstSoftware) {
  const auto d = make_deployed(100, 256, 16, 4, 33);
  InMemoryPipeline pipe(d.encoder, d.am, ArrayGeometry{128, 128});
  Rng rng(5);
  for (int trial = 0; trial < 20; ++trial) {
    const auto x = dac_features(100, rng);
    const auto hw = pipe.encode(x);
    const auto sw = d.encoder.encode(x);
    ASSERT_TRUE(hw == sw) << "trial " << trial;
  }
}

TEST(Pipeline, SearchBitExactAgainstSoftware) {
  const auto d = make_deployed(64, 512, 24, 6, 44);
  InMemoryPipeline pipe(d.encoder, d.am, ArrayGeometry{128, 128});
  Rng rng(6);
  for (int trial = 0; trial < 50; ++trial) {
    const auto q = BitVector::random(512, rng);
    ASSERT_EQ(pipe.search(q), d.am.predict_binary(q)) << "trial " << trial;
  }
}

TEST(Pipeline, EndToEndPredictionEquivalence) {
  const auto d = make_deployed(100, 128, 12, 3, 55);
  InMemoryPipeline pipe(d.encoder, d.am, ArrayGeometry{128, 128});
  Rng rng(7);
  for (int trial = 0; trial < 30; ++trial) {
    const auto x = dac_features(100, rng);
    ASSERT_EQ(pipe.predict(x), d.am.predict_binary(d.encoder.encode(x)));
  }
}

TEST(Pipeline, TrainedModelEquivalenceOnRealWorkload) {
  // Full path: synthetic data -> clustering init -> deployment on arrays.
  auto split = testing::tiny_multimodal(/*seed=*/3, 30, 10);
  // Quantize features to DAC precision for exact equivalence.
  for (auto* ds : {&split.train, &split.test})
    for (std::size_t i = 0; i < ds->size(); ++i)
      for (auto& v : ds->features().row(i))
        v = std::floor(v * 256.0f) / 256.0f;

  core::MemhdConfig cfg;
  cfg.dim = 128;
  cfg.columns = 8;
  cfg.epochs = 3;
  cfg.seed = 9;
  hdc::ProjectionEncoderConfig ec;
  ec.num_features = split.train.num_features();
  ec.dim = cfg.dim;
  ec.seed = 21;
  const hdc::ProjectionEncoder encoder(ec);
  const auto encoded = encoder.encode_dataset(split.train);
  auto am = core::initialize_clustering(encoded, cfg, nullptr);

  InMemoryPipeline pipe(encoder, am, ArrayGeometry{128, 128});
  for (std::size_t i = 0; i < split.test.size(); ++i) {
    const auto sw = am.predict_binary(encoder.encode(split.test.sample(i)));
    ASSERT_EQ(pipe.predict(split.test.sample(i)), sw) << "sample " << i;
  }
}

TEST(Pipeline, StatsMatchMappingEngine) {
  // MEMHD MNIST config: EM 784x128 -> 7 arrays, AM 128x128 -> 1 array.
  const auto d = make_deployed(784, 128, 128, 10, 66);
  InMemoryPipeline pipe(d.encoder, d.am, ArrayGeometry{128, 128});
  const auto s = pipe.stats();
  EXPECT_EQ(s.em_arrays, 7u);
  EXPECT_EQ(s.am_arrays, 1u);
  EXPECT_EQ(s.em_cycles_per_inference, 7u);
  EXPECT_EQ(s.am_cycles_per_inference, 1u);
  EXPECT_EQ(s.total_cycles(), 8u);
  EXPECT_DOUBLE_EQ(s.am_utilization, 1.0);

  const auto mapped = map_memhd_model(784, 128, 128, ArrayGeometry{128, 128});
  EXPECT_EQ(s.em_arrays, mapped.em_cost.arrays);
  EXPECT_EQ(s.am_arrays, mapped.am_cost.arrays);
}

TEST(Pipeline, ActivationCountsPerInference) {
  const auto d = make_deployed(784, 128, 128, 10, 77);
  InMemoryPipeline pipe(d.encoder, d.am, ArrayGeometry{128, 128});
  Rng rng(8);
  pipe.reset_counters();
  const auto x = dac_features(784, rng);
  pipe.predict(x);
  // 7 EM tiles + 1 AM tile = 8 activations, matching Table II's per-query
  // cycle count.
  EXPECT_EQ(pipe.activations(), 8u);
  pipe.predict(x);
  EXPECT_EQ(pipe.activations(), 16u);
}

TEST(TiledMatrix, BatchMvmMatchesDenseOracle) {
  // Wordline-parallel tile drive against the dense BitMatrix::mvm of the
  // transposed logical matrix (row c = column c over the wordlines), on a
  // logical shape that does not divide the geometry in either direction.
  Rng rng(20);
  const auto logical = common::BitMatrix::random(300, 150, rng);
  const auto columns = logical.transposed();
  TiledMatrix tiles(logical, ArrayGeometry{128, 128});
  std::vector<BitVector> inputs;
  for (int i = 0; i < 9; ++i) inputs.push_back(BitVector::random(300, rng));
  const auto out = tiles.mvm_binary_batch(inputs);
  ASSERT_EQ(out.size(), inputs.size() * 150u);
  std::vector<std::uint32_t> dense;
  for (std::size_t q = 0; q < inputs.size(); ++q) {
    columns.mvm(inputs[q], dense);
    for (std::size_t c = 0; c < 150; ++c)
      ASSERT_EQ(out[q * 150 + c], dense[c]) << "q=" << q << " c=" << c;
  }
  // 3 row tiles x 2 column tiles, each driven once per input.
  EXPECT_EQ(tiles.activations(), 6u * inputs.size());
}

TEST(Pipeline, SearchBatchMatchesDenseOracle) {
  // 512 x 24 AM: 4 row tiles x 1 column tile of 128x128 arrays.
  const auto d = make_deployed(64, 512, 24, 6, 99);
  InMemoryPipeline pipe(d.encoder, d.am, ArrayGeometry{128, 128});
  Rng rng(10);
  std::vector<BitVector> queries;
  for (int i = 0; i < 25; ++i) queries.push_back(BitVector::random(512, rng));
  queries.push_back(d.am.binary().row_vector(7));  // a self-match
  const auto batch = pipe.search_batch(queries);
  ASSERT_EQ(batch.size(), queries.size());
  std::vector<std::uint32_t> dense;
  for (std::size_t q = 0; q < queries.size(); ++q) {
    d.am.binary().mvm(queries[q], dense);
    ASSERT_EQ(batch[q], d.am.owner(common::argmax_u32(dense))) << "q=" << q;
  }
  EXPECT_EQ(pipe.activations(), 4u * queries.size());
  // search() is a one-row call: same label, one query's worth of cycles.
  EXPECT_EQ(pipe.search(queries[3]), batch[3]);
  EXPECT_EQ(pipe.activations(), 4u * (queries.size() + 1));
}

TEST(Pipeline, OneShotSearchProperty) {
  // The paper's headline: when D and C both fit one array, associative
  // search is a single activation.
  const auto d = make_deployed(64, 128, 128, 10, 88);
  InMemoryPipeline pipe(d.encoder, d.am, ArrayGeometry{128, 128});
  pipe.reset_counters();
  Rng rng(9);
  pipe.search(BitVector::random(128, rng));
  EXPECT_EQ(pipe.activations(), 1u);
}

}  // namespace
}  // namespace memhd::imc

// Batch-vs-scalar equivalence at the hdc layer: the blocked
// projection-encoder batch path.
#include <gtest/gtest.h>

#include "src/common/rng.hpp"
#include "src/hdc/projection_encoder.hpp"
#include "test_util.hpp"

namespace memhd::hdc {
namespace {

// The blocked batch encoder must produce bit-identical hypervectors to the
// per-sample path: it issues the same common::dot calls per (dim, sample)
// pair, only reordered across samples.
TEST(ProjectionEncoderBatch, BatchEncodeBitIdenticalToPerSample) {
  for (const auto binarize :
       {BinarizeMode::kSampleMean, BinarizeMode::kZeroThreshold}) {
    ProjectionEncoderConfig cfg;
    cfg.num_features = 37;  // odd: exercises ragged dot lengths
    cfg.dim = 195;          // odd: tail word in the packed output
    cfg.binarize = binarize;
    cfg.seed = 5;
    const ProjectionEncoder enc(cfg);

    common::Rng rng(17);
    const auto features =
        common::Matrix::random_uniform(29, cfg.num_features, rng);

    const auto batch = enc.encode_batch(features);
    ASSERT_EQ(batch.size(), features.rows());
    for (std::size_t i = 0; i < features.rows(); ++i)
      ASSERT_TRUE(batch[i] == enc.encode(features.row(i))) << "sample " << i;
  }
}

TEST(ProjectionEncoderBatch, SubrangeMatchesFullBatch) {
  ProjectionEncoderConfig cfg;
  cfg.num_features = 16;
  cfg.dim = 64;
  cfg.seed = 9;
  const ProjectionEncoder enc(cfg);

  common::Rng rng(23);
  const auto features = common::Matrix::random_uniform(20, 16, rng);

  const auto full = enc.encode_batch(features);
  const auto sub = enc.encode_batch(features, 5, 11);
  ASSERT_EQ(sub.size(), 11u);
  for (std::size_t i = 0; i < sub.size(); ++i)
    EXPECT_TRUE(sub[i] == full[5 + i]) << "sample " << i;
}

TEST(ProjectionEncoderBatch, EncodeDatasetMatchesPerSampleEncode) {
  const auto split = testing::tiny_separable(31);
  ProjectionEncoderConfig cfg;
  cfg.num_features = split.train.num_features();
  cfg.dim = 97;
  cfg.seed = 2;
  const ProjectionEncoder enc(cfg);

  const auto encoded = enc.encode_dataset(split.train);
  ASSERT_EQ(encoded.size(), split.train.size());
  EXPECT_EQ(encoded.dim, cfg.dim);
  for (std::size_t i = 0; i < split.train.size(); ++i)
    ASSERT_TRUE(encoded.hypervectors[i] == enc.encode(split.train.sample(i)))
        << "sample " << i;
}

}  // namespace
}  // namespace memhd::hdc

#include "src/core/multi_centroid_am.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "src/common/rng.hpp"
#include "test_util.hpp"

namespace memhd::core {
namespace {

using common::BitVector;
using common::Rng;

std::vector<float> constant_row(std::size_t dim, float v) {
  return std::vector<float>(dim, v);
}

TEST(MultiCentroidAM, OwnershipBookkeeping) {
  MultiCentroidAM am(3, 16, 8);
  EXPECT_FALSE(am.fully_assigned());
  am.set_centroid(0, 1, constant_row(16, 0.5f));
  am.set_centroid(1, 1, constant_row(16, -0.5f));
  am.set_centroid(2, 0, constant_row(16, 0.1f));
  EXPECT_EQ(am.owner(0), 1);
  EXPECT_EQ(am.centroids_per_class(1), 2u);
  EXPECT_EQ(am.centroids_per_class(0), 1u);
  EXPECT_EQ(am.centroids_per_class(2), 0u);
  EXPECT_EQ(am.centroids_of_class(1), (std::vector<std::size_t>{0, 1}));
}

TEST(MultiCentroidAM, ReassignmentMovesSlot) {
  MultiCentroidAM am(2, 8, 4);
  am.set_centroid(0, 0, constant_row(8, 1.0f));
  am.set_centroid(0, 1, constant_row(8, 2.0f));  // reassign slot 0
  EXPECT_EQ(am.owner(0), 1);
  EXPECT_EQ(am.centroids_per_class(0), 0u);
  EXPECT_EQ(am.centroids_per_class(1), 1u);
  EXPECT_FLOAT_EQ(am.fp()(0, 3), 2.0f);
}

TEST(MultiCentroidAM, FullyAssignedDetection) {
  MultiCentroidAM am(2, 8, 3);
  am.set_centroid(0, 0, constant_row(8, 0.0f));
  am.set_centroid(1, 1, constant_row(8, 0.0f));
  EXPECT_FALSE(am.fully_assigned());
  am.set_centroid(2, 0, constant_row(8, 0.0f));
  EXPECT_TRUE(am.fully_assigned());
}

TEST(MultiCentroidAM, BinarizeThresholdIsGlobalMean) {
  MultiCentroidAM am(2, 2, 2);
  am.set_centroid(0, 0, std::vector<float>{4.0f, 0.0f});
  am.set_centroid(1, 1, std::vector<float>{0.0f, 0.0f});  // mean = 1.0
  am.binarize();
  EXPECT_TRUE(am.binary().get(0, 0));
  EXPECT_FALSE(am.binary().get(0, 1));
  EXPECT_FALSE(am.binary().get(1, 0));
}

TEST(MultiCentroidAM, NormalizeL2MakesUnitRows) {
  MultiCentroidAM am(2, 4, 2);
  am.set_centroid(0, 0, std::vector<float>{3.0f, 4.0f, 0.0f, 0.0f});
  am.set_centroid(1, 1, std::vector<float>{0.0f, 0.0f, 0.0f, 0.0f});  // zero row unchanged
  am.normalize(NormalizationMode::kL2);
  EXPECT_NEAR(common::norm(am.fp().row(0)), 1.0f, 1e-6f);
  EXPECT_FLOAT_EQ(am.fp()(0, 0), 0.6f);
  EXPECT_FLOAT_EQ(am.fp()(1, 0), 0.0f);
}

TEST(MultiCentroidAM, NormalizeZScoreCentersRows) {
  MultiCentroidAM am(2, 4, 2);
  am.set_centroid(0, 0, std::vector<float>{1.0f, 2.0f, 3.0f, 4.0f});
  am.set_centroid(1, 1, std::vector<float>{5.0f, 5.0f, 5.0f, 5.0f});  // zero variance -> zeros
  am.normalize(NormalizationMode::kZScore);
  double mean = 0.0, var = 0.0;
  for (const float v : am.fp().row(0)) mean += v;
  mean /= 4.0;
  for (const float v : am.fp().row(0)) var += (v - mean) * (v - mean);
  EXPECT_NEAR(mean, 0.0, 1e-6);
  EXPECT_NEAR(std::sqrt(var / 4.0), 1.0, 1e-5);
  for (const float v : am.fp().row(1)) EXPECT_FLOAT_EQ(v, 0.0f);
}

TEST(MultiCentroidAM, NormalizeNoneIsIdentity) {
  MultiCentroidAM am(2, 2, 2);
  am.set_centroid(0, 0, std::vector<float>{7.0f, -3.0f});
  am.set_centroid(1, 1, std::vector<float>{1.0f, 2.0f});
  am.normalize(NormalizationMode::kNone);
  EXPECT_FLOAT_EQ(am.fp()(0, 0), 7.0f);
}

TEST(MultiCentroidAM, BestCentroidSelection) {
  MultiCentroidAM am(2, 64, 4);
  Rng rng(3);
  // Two centroids per class with known prototypes.
  std::vector<BitVector> protos;
  std::vector<float> bip;
  for (std::size_t i = 0; i < 4; ++i) {
    protos.push_back(BitVector::random(64, rng));
    bip.clear();
    protos.back().to_bipolar(bip);
    am.set_centroid(i, static_cast<data::Label>(i / 2), bip);
  }
  am.binarize();

  std::vector<std::uint32_t> scores;
  am.scores_binary(protos[3], scores);
  // Eq. 4: global best is the matching slot.
  EXPECT_EQ(am.best_centroid(scores), 3u);
  // Eq. 5: within-class best for class 0 must be one of slots {0, 1}.
  const std::size_t within = am.best_centroid_of_class(scores, 0);
  EXPECT_TRUE(within == 0 || within == 1);
  EXPECT_EQ(am.predict_binary(protos[3]), 1);
}

TEST(MultiCentroidAM, PredictFpSkipsUnassignedSlots) {
  MultiCentroidAM am(2, 8, 4);
  am.set_centroid(0, 0, constant_row(8, 1.0f));
  am.set_centroid(1, 1, constant_row(8, -1.0f));
  // Slots 2, 3 unassigned; predict_fp must not return garbage.
  BitVector q(8);
  q.fill(true);
  EXPECT_EQ(am.predict_fp(q), 0);
}

TEST(MultiCentroidAM, RestoreBinarySnapshot) {
  MultiCentroidAM am(2, 8, 2);
  am.set_centroid(0, 0, constant_row(8, 1.0f));
  am.set_centroid(1, 1, constant_row(8, -1.0f));
  am.binarize();
  const common::BitMatrix snapshot = am.binary();
  am.fp().fill(0.0f);
  am.binarize();
  EXPECT_FALSE(am.binary() == snapshot);
  am.restore_binary(snapshot);
  EXPECT_TRUE(am.binary() == snapshot);
}

TEST(MultiCentroidAM, ScoresFpEqualsNaiveBipolarDot) {
  Rng rng(3);
  MultiCentroidAM am(3, 64, 3);
  std::vector<float> row(64);
  for (std::size_t c = 0; c < 3; ++c) {
    for (auto& v : row) v = static_cast<float>(rng.normal());
    am.set_centroid(c, static_cast<data::Label>(c), row);
  }
  const auto q = BitVector::random(64, rng);
  std::vector<float> scores;
  am.scores_fp(q, scores);
  ASSERT_EQ(scores.size(), 3u);
  for (std::size_t c = 0; c < 3; ++c) {
    float naive = 0.0f;
    for (std::size_t j = 0; j < 64; ++j)
      naive += am.fp()(c, j) * (q.get(j) ? 1.0f : -1.0f);
    EXPECT_NEAR(scores[c], naive, 1e-3f);
  }
}

TEST(MultiCentroidAM, ScoresBinaryIsPopcountDot) {
  Rng rng(4);
  MultiCentroidAM am(2, 128, 2);
  std::vector<float> even(128, -1.0f), fourth(128, -1.0f);
  for (std::size_t j = 0; j < 128; j += 2) even[j] = 1.0f;
  for (std::size_t j = 0; j < 128; j += 4) fourth[j] = 1.0f;
  am.set_centroid(0, 0, even);
  am.set_centroid(1, 1, fourth);
  am.binarize();
  const auto q = BitVector::random(128, rng);
  std::vector<std::uint32_t> scores;
  am.scores_binary(q, scores);
  EXPECT_EQ(scores[0], am.binary().row_vector(0).dot(q));
  EXPECT_EQ(scores[1], am.binary().row_vector(1).dot(q));
  EXPECT_EQ(am.binary().row_vector(0).popcount(), 64u);
  EXPECT_EQ(am.binary().row_vector(1).popcount(), 32u);
}

TEST(MultiCentroidAM, MemoryBitsIsCxD) {
  MultiCentroidAM am(10, 128, 128);
  EXPECT_EQ(am.memory_bits(), 128u * 128u);
}

TEST(MultiCentroidAM, MetricVariantsAgreeOnCleanPrototypes) {
  // With balanced random prototypes and the query equal to one of them,
  // every similarity measure must retrieve the owner.
  Rng rng(17);
  const std::size_t dim = 256;
  MultiCentroidAM am(3, dim, 6);
  std::vector<BitVector> protos;
  std::vector<float> bip;
  for (std::size_t s = 0; s < 6; ++s) {
    protos.push_back(BitVector::random(dim, rng));
    bip.clear();
    protos.back().to_bipolar(bip);
    am.set_centroid(s, static_cast<data::Label>(s / 2), bip);
  }
  am.binarize();
  for (std::size_t s = 0; s < 6; ++s) {
    const data::Label expect = static_cast<data::Label>(s / 2);
    EXPECT_EQ(am.predict_with_metric(protos[s],
                                     MultiCentroidAM::SearchMetric::kDot),
              expect);
    EXPECT_EQ(am.predict_with_metric(protos[s],
                                     MultiCentroidAM::SearchMetric::kHamming),
              expect);
    EXPECT_EQ(am.predict_with_metric(protos[s],
                                     MultiCentroidAM::SearchMetric::kCosine),
              expect);
  }
}

TEST(MultiCentroidAM, DotMetricMatchesPredictBinary) {
  Rng rng(19);
  MultiCentroidAM am(2, 128, 4);
  std::vector<float> bip;
  for (std::size_t s = 0; s < 4; ++s) {
    const auto proto = BitVector::random(128, rng);
    bip.clear();
    proto.to_bipolar(bip);
    am.set_centroid(s, static_cast<data::Label>(s % 2), bip);
  }
  am.binarize();
  for (int i = 0; i < 20; ++i) {
    const auto q = BitVector::random(128, rng);
    EXPECT_EQ(
        am.predict_with_metric(q, MultiCentroidAM::SearchMetric::kDot),
        am.predict_binary(q));
  }
}

TEST(MultiCentroidAM, EvaluateOnClusteredData) {
  const auto data = testing::clustered_encoded(20, 256, 3, 2, 10);
  MultiCentroidAM am(3, 256, 6);
  // Assign two centroids per class from the first samples of each class.
  std::vector<float> bip;
  std::size_t col = 0;
  for (data::Label c = 0; c < 3; ++c) {
    const auto idx = data.indices_of_class(c);
    for (std::size_t m = 0; m < 2; ++m, ++col) {
      bip.clear();
      data.hypervectors[idx[m]].to_bipolar(bip);
      am.set_centroid(col, c, bip);
    }
  }
  am.binarize();
  EXPECT_GT(evaluate_binary(am, data), 0.5);
  EXPECT_GT(evaluate_fp(am, data), 0.5);
}

TEST(MultiCentroidAM, EvaluateEmptySetYieldsZero) {
  MultiCentroidAM am(2, 64, 2);
  am.set_centroid(0, 0, constant_row(64, 1.0f));
  am.set_centroid(1, 1, constant_row(64, -1.0f));
  am.binarize();
  hdc::EncodedDataset empty;
  empty.dim = 64;
  empty.num_classes = 2;
  EXPECT_EQ(evaluate_binary(am, empty), 0.0);
  EXPECT_EQ(evaluate_fp(am, empty), 0.0);
  am.freeze();
  EXPECT_EQ(evaluate_binary(am, empty), 0.0);
}

}  // namespace
}  // namespace memhd::core

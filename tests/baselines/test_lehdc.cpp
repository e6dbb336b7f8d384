#include "src/baselines/lehdc.hpp"

#include <gtest/gtest.h>

#include "src/common/rng.hpp"
#include "test_util.hpp"

namespace memhd::baselines {
namespace {

BaselineConfig small_config() {
  BaselineConfig cfg;
  cfg.dim = 256;
  cfg.epochs = 8;
  cfg.learning_rate = 0.05f;
  cfg.num_levels = 32;
  return cfg;
}

TEST(LeHdc, LearnsSeparableTask) {
  const auto split = testing::tiny_separable();
  LeHdc model(split.train.num_features(), split.train.num_classes(),
              small_config());
  model.fit(split.train);
  EXPECT_GT(model.evaluate(split.test), 0.85);
}

TEST(LeHdc, NameAndKind) {
  LeHdc model(8, 2, small_config());
  EXPECT_STREQ(model.name(), "LeHDC");
  EXPECT_EQ(model.kind(), core::ModelKind::kLeHDC);
}

TEST(LeHdc, MemoryMatchesTableOne) {
  BaselineConfig cfg;
  cfg.dim = 400;
  cfg.num_levels = 256;
  LeHdc model(784, 10, cfg);
  const auto mem = model.memory();
  EXPECT_EQ(mem.encoder_bits, (784u + 256u) * 400u);
  EXPECT_EQ(mem.am_bits, 10u * 400u);
}

TEST(LeHdc, BinaryWeightsPopulatedAfterFit) {
  const auto split = testing::tiny_separable(/*seed=*/23);
  LeHdc model(split.train.num_features(), split.train.num_classes(),
              small_config());
  model.fit(split.train);
  const auto& w = model.binary_weights();
  EXPECT_EQ(w.rows(), split.train.num_classes());
  EXPECT_EQ(w.cols(), 256u);
  EXPECT_GT(w.popcount(), 0u);
}

TEST(LeHdc, BnnTrainingBeatsWarmStartOnTrain) {
  // The gradient phase must not destroy the warm start; on the training set
  // it should match or improve it.
  const auto split = testing::tiny_multimodal(/*seed=*/19);
  auto cfg = small_config();
  cfg.epochs = 0;
  LeHdc warm(split.train.num_features(), split.train.num_classes(), cfg);
  warm.fit(split.train);
  const double base = warm.evaluate(split.train);

  cfg.epochs = 12;
  LeHdc trained(split.train.num_features(), split.train.num_classes(), cfg);
  trained.fit(split.train);
  EXPECT_GE(trained.evaluate(split.train), base - 0.02);
}

TEST(LeHdc, BatchPredictMatchesBipolarDotOracle) {
  // The batch path ranks by the corrected popcount score 2*dot - pc(row);
  // the oracle is the definition: the first maximal bipolar dot
  // sign(W) . bipolar(h), including on the tie-heavy regime of random
  // queries far from every class vector.
  const auto split = testing::tiny_separable(23);
  LeHdc model(split.train.num_features(), split.train.num_classes(),
              small_config());
  model.fit(split.train);

  common::Rng rng(41);
  std::vector<common::BitVector> queries;
  for (int i = 0; i < 40; ++i)
    queries.push_back(common::BitVector::random(model.dim(), rng));

  const auto batch = model.predict_batch(queries);
  ASSERT_EQ(batch.size(), queries.size());
  const auto& w = model.binary_weights();
  for (std::size_t q = 0; q < queries.size(); ++q) {
    std::size_t best = 0;
    long best_dot = 0;
    for (std::size_t c = 0; c < w.rows(); ++c) {
      long dot = 0;
      for (std::size_t j = 0; j < model.dim(); ++j)
        dot += (w.get(c, j) == queries[q].get(j)) ? 1 : -1;
      if (c == 0 || dot > best_dot) {
        best_dot = dot;
        best = c;
      }
    }
    ASSERT_EQ(batch[q], best) << "q=" << q;
    ASSERT_EQ(model.predict(queries[q]), best) << "q=" << q;
  }
}

TEST(LeHdc, FactoryBuildsItAndRejectsMemhd) {
  const auto model =
      make_baseline(core::ModelKind::kLeHDC, 16, 3, small_config());
  EXPECT_STREQ(model->name(), "LeHDC");
  EXPECT_THROW(make_baseline(core::ModelKind::kMemhd, 16, 3, small_config()),
               std::invalid_argument);
}

}  // namespace
}  // namespace memhd::baselines

#include "src/baselines/searchd.hpp"

#include <gtest/gtest.h>

#include "src/common/rng.hpp"
#include "src/common/stats.hpp"
#include "test_util.hpp"

namespace memhd::baselines {
namespace {

BaselineConfig small_config() {
  BaselineConfig cfg;
  cfg.dim = 512;
  cfg.n_models = 8;
  cfg.num_levels = 32;
  return cfg;
}

TEST(SearcHd, LearnsSeparableTask) {
  const auto split = testing::tiny_separable();
  SearcHd model(split.train.num_features(), split.train.num_classes(),
                small_config());
  model.fit(split.train);
  EXPECT_GT(model.evaluate(split.test), 0.8);
}

TEST(SearcHd, NameKindAndN) {
  SearcHd model(8, 2, small_config());
  EXPECT_STREQ(model.name(), "SearcHD");
  EXPECT_EQ(model.kind(), core::ModelKind::kSearcHD);
  EXPECT_EQ(model.n_models(), 8u);
}

TEST(SearcHd, MemoryMatchesTableOneWithN) {
  BaselineConfig cfg;
  cfg.dim = 8000;
  cfg.n_models = 64;  // the paper's N
  cfg.num_levels = 256;
  SearcHd model(784, 10, cfg);
  const auto mem = model.memory();
  EXPECT_EQ(mem.encoder_bits, (784u + 256u) * 8000u);
  EXPECT_EQ(mem.am_bits, 10u * 8000u * 64u);
}

TEST(SearcHd, ModelVectorsInitializedFromClassSamples) {
  const auto split = testing::tiny_separable(/*seed=*/31);
  SearcHd model(split.train.num_features(), split.train.num_classes(),
                small_config());
  model.fit(split.train);
  // After fitting, model vectors must not be all-zero (they started from
  // encoded class samples and were updated stochastically).
  const auto v = model.model_vector(0, 0);
  EXPECT_GT(v.popcount(), 0u);
  EXPECT_LT(v.popcount(), v.size());
}

TEST(SearcHd, MultiModelBeatsSingleModelOnMultiModalData) {
  // The motivation SearcHD shares with MEMHD: one vector per class cannot
  // capture multi-modal classes; N > 1 should not be worse.
  const auto split = testing::tiny_multimodal(/*seed=*/17, 80, 40);
  auto cfg = small_config();
  cfg.n_models = 1;
  SearcHd one(split.train.num_features(), split.train.num_classes(), cfg);
  one.fit(split.train);
  const double acc1 = one.evaluate(split.test);

  cfg.n_models = 8;
  SearcHd many(split.train.num_features(), split.train.num_classes(), cfg);
  many.fit(split.train);
  const double acc8 = many.evaluate(split.test);
  EXPECT_GE(acc8 + 0.05, acc1);
}

// Independent oracle: the scalar MVM over all k*N rows, its first-wins
// argmax, and the owning class row / N.
TEST(SearcHd, BatchPredictMatchesScalarMvmOracle) {
  const auto split = testing::tiny_separable(29);
  auto cfg = small_config();
  cfg.n_models = 4;
  SearcHd model(split.train.num_features(), split.train.num_classes(), cfg);
  model.fit(split.train);

  common::Rng rng(43);
  std::vector<common::BitVector> queries;
  for (int i = 0; i < 40; ++i)
    queries.push_back(common::BitVector::random(model.dim(), rng));

  const auto batch = model.predict_batch(queries);
  ASSERT_EQ(batch.size(), queries.size());
  std::vector<std::uint32_t> scores;
  for (std::size_t q = 0; q < queries.size(); ++q) {
    model.models().mvm(queries[q], scores);
    ASSERT_EQ(scores.size(), model.score_rows());
    const auto want =
        static_cast<data::Label>(common::argmax_u32(scores) / cfg.n_models);
    ASSERT_EQ(batch[q], want) << "q=" << q;
    ASSERT_EQ(model.predict(queries[q]), want) << "q=" << q;
  }
}

TEST(SearcHd, FactoryBuildsIt) {
  const auto model =
      make_baseline(core::ModelKind::kSearcHD, 16, 3, small_config());
  EXPECT_STREQ(model->name(), "SearcHD");
}

}  // namespace
}  // namespace memhd::baselines

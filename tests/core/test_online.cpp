// Online learning API: single-sample updates (one-row partial_fit) and
// post-deployment adaptation (library extension beyond the paper's offline
// training).
#include <gtest/gtest.h>

#include <algorithm>

#include "src/core/model.hpp"
#include "test_util.hpp"

namespace memhd::core {
namespace {

MemhdConfig small_config() {
  MemhdConfig cfg;
  cfg.dim = 128;
  cfg.columns = 16;
  cfg.epochs = 8;
  cfg.learning_rate = 0.1f;
  cfg.seed = 3;
  return cfg;
}

// One labeled sample through a one-row partial_fit; true on a miss (an
// update was applied).
bool learn_one(MemhdModel& model, std::span<const float> sample,
               data::Label label) {
  common::Matrix one(1, sample.size());
  std::copy(sample.begin(), sample.end(), one.row(0).begin());
  return model.partial_fit(one, std::span(&label, 1)).mispredicted == 1;
}

TEST(OnlineUpdate, CorrectPredictionIsNoop) {
  const auto split = testing::tiny_separable();
  MemhdModel model(small_config(), split.train.num_features(),
                   split.train.num_classes());
  model.fit(split.train);
  // Find a correctly classified sample; learning it must apply no update
  // and leave the binary AM untouched.
  for (std::size_t i = 0; i < split.test.size(); ++i) {
    if (model.predict(split.test.sample(i)) != split.test.label(i)) continue;
    const common::BitMatrix before = model.am().binary();
    EXPECT_FALSE(learn_one(model, split.test.sample(i), split.test.label(i)));
    EXPECT_TRUE(model.am().binary() == before);
    return;
  }
  FAIL() << "no correctly classified sample found";
}

TEST(OnlineUpdate, MispredictionTriggersUpdate) {
  const auto split = testing::tiny_hard_multimodal(/*seed=*/5, 60, 30);
  MemhdModel model(small_config(), split.train.num_features(),
                   split.train.num_classes());
  model.fit(split.train);
  bool updated = false;
  for (std::size_t i = 0; i < split.test.size() && !updated; ++i) {
    if (model.predict(split.test.sample(i)) == split.test.label(i)) continue;
    updated = learn_one(model, split.test.sample(i), split.test.label(i));
  }
  EXPECT_TRUE(updated) << "expected at least one misprediction to update on";
}

TEST(OnlineUpdate, RepeatedUpdatesLearnTheSample) {
  const auto split = testing::tiny_hard_multimodal(/*seed=*/7, 60, 30);
  MemhdModel model(small_config(), split.train.num_features(),
                   split.train.num_classes());
  model.fit(split.train);
  // Hammer one mispredicted sample; within a few steps the model must
  // predict it correctly.
  for (std::size_t i = 0; i < split.test.size(); ++i) {
    if (model.predict(split.test.sample(i)) == split.test.label(i)) continue;
    for (int step = 0; step < 25; ++step)
      if (!learn_one(model, split.test.sample(i), split.test.label(i))) break;
    EXPECT_EQ(model.predict(split.test.sample(i)), split.test.label(i));
    return;
  }
  GTEST_SKIP() << "model was already perfect on the test set";
}

TEST(Adapt, ImprovesOnDriftedData) {
  // Train on one draw of the mixture, then adapt to a second draw (same
  // latent structure, fresh noise): accuracy on the new data must not drop.
  const auto original = testing::tiny_multimodal(/*seed=*/11, 60, 30);
  const auto drifted = testing::tiny_multimodal(/*seed=*/11, 40, 40);
  MemhdModel model(small_config(), original.train.num_features(),
                   original.train.num_classes());
  model.fit(original.train);
  const double before = model.evaluate(drifted.test);
  const auto trace = model.adapt(drifted.train, 5);
  EXPECT_EQ(trace.epochs_run, 5u);
  EXPECT_GE(model.evaluate(drifted.test), before - 0.05);
}

TEST(Adapt, ZeroEpochsIsIdentity) {
  const auto split = testing::tiny_separable();
  MemhdModel model(small_config(), split.train.num_features(),
                   split.train.num_classes());
  model.fit(split.train);
  const common::BitMatrix before = model.am().binary();
  model.adapt(split.train, 0);
  EXPECT_TRUE(model.am().binary() == before);
}

TEST(OnlineUpdate, RequiresFittedModel) {
  MemhdModel model(small_config(), 16, 4);
  const std::vector<float> x(16, 0.5f);
  EXPECT_DEATH(learn_one(model, x, 0), "precondition");
}

}  // namespace
}  // namespace memhd::core

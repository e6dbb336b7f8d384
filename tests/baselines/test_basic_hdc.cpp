#include "src/baselines/basic_hdc.hpp"

#include <gtest/gtest.h>

#include "test_util.hpp"

namespace memhd::baselines {
namespace {

BaselineConfig small_config() {
  BaselineConfig cfg;
  cfg.dim = 512;
  cfg.epochs = 0;  // the paper's BasicHDC is single-pass
  return cfg;
}

TEST(BasicHdc, LearnsSeparableTask) {
  const auto split = testing::tiny_separable();
  BasicHdc model(split.train.num_features(), split.train.num_classes(),
                 small_config());
  model.fit(split.train);
  EXPECT_GT(model.evaluate(split.test), 0.9);
}

TEST(BasicHdc, NameAndKind) {
  BasicHdc model(8, 2, small_config());
  EXPECT_STREQ(model.name(), "BasicHDC");
  EXPECT_EQ(model.kind(), core::ModelKind::kBasicHDC);
  EXPECT_EQ(model.dim(), 512u);
}

TEST(BasicHdc, MemoryMatchesTableOne) {
  BaselineConfig cfg;
  cfg.dim = 10240;
  BasicHdc model(784, 10, cfg);
  const auto mem = model.memory();
  EXPECT_EQ(mem.encoder_bits, 784u * 10240u);
  EXPECT_EQ(mem.am_bits, 10u * 10240u);
}

TEST(BasicHdc, IterativeRefinementDoesNotHurtTraining) {
  const auto split = testing::tiny_multimodal();
  auto cfg = small_config();
  BasicHdc single(split.train.num_features(), split.train.num_classes(), cfg);
  single.fit(split.train);
  const double base = single.evaluate(split.train);

  cfg.epochs = 10;
  BasicHdc refined(split.train.num_features(), split.train.num_classes(), cfg);
  refined.fit(split.train);
  EXPECT_GE(refined.evaluate(split.train), base - 0.05);
}

TEST(BasicHdc, FactoryBuildsIt) {
  const auto model =
      make_baseline(core::ModelKind::kBasicHDC, 16, 3, small_config());
  EXPECT_STREQ(model->name(), "BasicHDC");
}

TEST(BasicHdc, HigherDimensionHelpsOrMatches) {
  // The HDC scaling property the paper leans on: more dimensions, better
  // (or equal) separation. Compare a tiny and a comfortable D.
  const auto split = testing::tiny_separable(/*seed=*/21);
  BaselineConfig small;
  small.dim = 32;
  small.epochs = 0;
  BaselineConfig big;
  big.dim = 1024;
  big.epochs = 0;
  BasicHdc a(split.train.num_features(), split.train.num_classes(), small);
  BasicHdc b(split.train.num_features(), split.train.num_classes(), big);
  a.fit(split.train);
  b.fit(split.train);
  EXPECT_GE(b.evaluate(split.test) + 0.05, a.evaluate(split.test));
}

TEST(BasicHdc, FpRefinementLearnsMultiModalTask) {
  // epochs > 0 runs classic FP iterative HDC: predictions from the FP
  // shadow, binarized once at the end.
  const auto split = testing::tiny_multimodal(/*seed=*/5);
  auto cfg = small_config();
  BasicHdc single(split.train.num_features(), split.train.num_classes(), cfg);
  single.fit(split.train);
  cfg.epochs = 10;
  BasicHdc model(split.train.num_features(), split.train.num_classes(), cfg);
  model.fit(split.train);
  EXPECT_GT(model.evaluate(split.train), 0.7);
  EXPECT_FALSE(model.am().fp() == single.am().fp());  // updates were applied
  EXPECT_TRUE(model.am().frozen());
}

}  // namespace
}  // namespace memhd::baselines

#include "src/core/qat_trainer.hpp"

#include <gtest/gtest.h>

#include "src/common/rng.hpp"
#include "src/core/initializer.hpp"
#include "test_util.hpp"

namespace memhd::core {
namespace {

MemhdConfig base_config() {
  MemhdConfig cfg;
  cfg.dim = 256;
  cfg.columns = 12;
  cfg.initial_ratio = 0.75;
  cfg.kmeans_max_iterations = 10;
  cfg.seed = 5;
  return cfg;
}

QatConfig qat_config(std::size_t epochs = 15) {
  QatConfig cfg;
  cfg.epochs = epochs;
  cfg.learning_rate = 0.1f;
  cfg.seed = 5;
  return cfg;
}

TEST(QatTrainer, ImprovesOrHoldsTrainingAccuracy) {
  const auto train = testing::clustered_encoded(
      /*per_class=*/50, /*dim=*/256, /*num_classes=*/4, /*modes=*/3,
      /*noise_bits=*/30);
  auto am = initialize_clustering(train, base_config(), nullptr);
  const double before = evaluate_binary(am, train);
  const auto trace = train_qat(am, train, nullptr, qat_config());
  const double after = evaluate_binary(am, train);
  EXPECT_GE(after, before - 0.02);
  EXPECT_EQ(trace.epochs_run, 15u);
}

TEST(QatTrainer, TraceShapesAndBounds) {
  const auto train = testing::clustered_encoded(20, 128, 3, 2, 10);
  auto cfg = base_config();
  cfg.dim = 128;
  cfg.columns = 9;
  auto am = initialize_clustering(train, cfg, nullptr);
  const auto eval = testing::clustered_encoded(10, 128, 3, 2, 10, /*seed=*/9);
  const auto trace = train_qat(am, train, &eval, qat_config(8));
  EXPECT_EQ(trace.train_accuracy.size(), 8u);
  EXPECT_EQ(trace.eval_accuracy.size(), 8u);
  for (const double a : trace.train_accuracy) {
    EXPECT_GE(a, 0.0);
    EXPECT_LE(a, 1.0);
  }
  EXPECT_LT(trace.best_epoch, 8u);
}

TEST(QatTrainer, KeepBestRestoresBestSnapshot) {
  const auto train = testing::clustered_encoded(40, 128, 4, 3, 25);
  const auto eval = testing::clustered_encoded(20, 128, 4, 3, 25, /*seed=*/13);
  auto cfg = base_config();
  cfg.dim = 128;
  auto am = initialize_clustering(train, cfg, nullptr);
  auto qc = qat_config(12);
  qc.keep_best = true;
  const auto trace = train_qat(am, train, &eval, qc);
  // After restore, the deployed binary AM must score exactly the reported
  // best eval accuracy.
  EXPECT_NEAR(evaluate_binary(am, eval), trace.best_eval_accuracy, 1e-12);
  // And best >= every per-epoch accuracy by definition.
  for (const double a : trace.eval_accuracy)
    EXPECT_GE(trace.best_eval_accuracy + 1e-12, a);
}

TEST(QatTrainer, UpdatesOnlyOnMisprediction) {
  // Zero-noise single-mode data is classified perfectly right after
  // clustering init, so QAT must apply zero updates.
  const auto train = testing::clustered_encoded(10, 128, 3, 1, 0);
  auto cfg = base_config();
  cfg.dim = 128;
  cfg.columns = 3;
  cfg.initial_ratio = 1.0;
  auto am = initialize_clustering(train, cfg, nullptr);
  ASSERT_EQ(evaluate_binary(am, train), 1.0);
  const auto trace = train_qat(am, train, nullptr, qat_config(3));
  EXPECT_EQ(trace.updates, 0u);
  EXPECT_EQ(evaluate_binary(am, train), 1.0);
}

TEST(QatTrainer, UpdateTargetsRespectOwnership) {
  // Construct a 2-class AM where class 0's best slot is known, force one
  // misprediction, and verify only the Eq.4/Eq.5 slots moved.
  const std::size_t dim = 64;
  MultiCentroidAM am(2, dim, 4);
  common::Rng rng(7);
  std::vector<common::BitVector> protos;
  std::vector<float> bip;
  for (std::size_t s = 0; s < 4; ++s) {
    protos.push_back(common::BitVector::random(dim, rng));
    bip.clear();
    protos.back().to_bipolar(bip);
    am.set_centroid(s, static_cast<data::Label>(s / 2), bip);
  }
  am.binarize();

  // One training sample: looks exactly like slot 2 (class 1) but labeled 0.
  hdc::EncodedDataset train;
  train.dim = dim;
  train.num_classes = 2;
  train.hypervectors.push_back(protos[2]);
  train.labels.push_back(0);

  const common::Matrix fp_before = am.fp();
  QatConfig qc;
  qc.epochs = 1;
  qc.learning_rate = 0.5f;
  qc.normalization = NormalizationMode::kNone;
  qc.shuffle = false;
  const auto trace = train_qat(am, train, nullptr, qc);
  ASSERT_EQ(trace.updates, 2u);

  // Slot 2 (mispredicted, Eq. 4) moved away; one of slots {0,1} (true
  // class, Eq. 5) moved toward; the remaining slot untouched.
  std::size_t changed = 0;
  for (std::size_t s = 0; s < 4; ++s) {
    bool moved = false;
    for (std::size_t j = 0; j < dim; ++j)
      if (am.fp()(s, j) != fp_before(s, j)) moved = true;
    if (moved) ++changed;
    if (s == 3) {
      EXPECT_FALSE(moved) << "slot 3 must be untouched";
    }
  }
  EXPECT_EQ(changed, 2u);
  // The mispredicted slot's similarity to the sample must have dropped.
  float before_dot = 0.0f, after_dot = 0.0f;
  for (std::size_t j = 0; j < dim; ++j) {
    const float b = protos[2].get(j) ? 1.0f : -1.0f;
    before_dot += fp_before(2, j) * b;
    after_dot += am.fp()(2, j) * b;
  }
  EXPECT_LT(after_dot, before_dot);
}

}  // namespace
}  // namespace memhd::core

// Incremental training: mispredict-driven updates recover drifted accuracy,
// never-seen classes are learnable post-deployment, and only touched
// centroid rows change (the bit-identity property COW versioning relies on).
#include <algorithm>
#include <memory>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "src/api/adapters.hpp"
#include "src/api/registry.hpp"
#include "src/common/rng.hpp"
#include "src/core/model.hpp"
#include "src/data/synthetic.hpp"
#include "test_util.hpp"

namespace memhd::core {
namespace {

MemhdConfig small_config() {
  MemhdConfig cfg;
  cfg.dim = 256;
  cfg.columns = 16;
  cfg.epochs = 3;
  cfg.seed = 5;
  return cfg;
}

/// A drifted copy of `base`: features shift by `shift` with alternating
/// sign per dimension (clamped back into range). Strong enough to hurt a
/// frozen model, weak enough that the class structure survives.
data::Dataset drifted(const data::Dataset& base, float shift) {
  common::Matrix features = base.features();
  for (std::size_t i = 0; i < features.rows(); ++i) {
    auto row = features.row(i);
    for (std::size_t j = 0; j < row.size(); ++j) {
      const float delta = (j % 2 == 0) ? shift : -shift;
      row[j] = std::clamp(row[j] + delta, 0.0f, 1.0f);
    }
  }
  return data::Dataset(base.name() + "-drift", std::move(features),
                       base.labels(), base.num_classes());
}

TEST(PartialFit, RecoversAccuracyUnderDrift) {
  const auto split = testing::tiny_multimodal(/*seed=*/17,
                                              /*train_per_class=*/60,
                                              /*test_per_class=*/40);
  MemhdModel model(small_config(), split.train.num_features(),
                   split.train.num_classes());
  model.fit(split.train);

  constexpr float kShift = 0.40f;
  const data::Dataset drift_train = drifted(split.train, kShift);
  const data::Dataset drift_test = drifted(split.test, kShift);

  const double frozen = model.evaluate(drift_test);

  MemhdModel adapted(model);  // train a copy; `model` stays the baseline
  PartialFitReport report;
  for (int pass = 0; pass < 5; ++pass) {
    const auto r =
        adapted.partial_fit(drift_train.features(), drift_train.labels());
    report.mispredicted += r.mispredicted;
    report.samples += r.samples;
  }
  const double recovered = adapted.evaluate(drift_test);

  EXPECT_GT(report.mispredicted, 0u);
  // The ISSUE's learning margin: incremental training must beat the frozen
  // model decisively on the drifted distribution.
  EXPECT_GT(recovered, frozen + 0.10)
      << "frozen=" << frozen << " recovered=" << recovered;
  // And the frozen copy must not have moved (COW: updates on the copy).
  EXPECT_DOUBLE_EQ(model.evaluate(drift_test), frozen);
}

TEST(PartialFit, LearnsNeverSeenClassAboveChance) {
  const auto split = testing::tiny_multimodal(/*seed=*/23,
                                              /*train_per_class=*/60,
                                              /*test_per_class=*/40);
  const std::size_t old_classes = split.train.num_classes();
  // Deployment never saw the top class id: train on classes [0, n-1).
  const data::Label held_out = static_cast<data::Label>(old_classes - 1);
  std::vector<std::size_t> known;
  for (std::size_t i = 0; i < split.train.size(); ++i)
    if (split.train.label(i) != held_out) known.push_back(i);
  // Rebuild with the narrower class space [0, n-1) (labels are unchanged:
  // the held-out class is the top id).
  const data::Dataset known_subset = split.train.subset(known, "deploy");
  data::Dataset deploy_train("deploy", known_subset.features(),
                             known_subset.labels(), old_classes - 1);

  MemhdModel model(small_config(), deploy_train.num_features(),
                   deploy_train.num_classes());
  model.fit(deploy_train);
  EXPECT_EQ(model.num_classes(), old_classes - 1);

  // The unseen class arrives online, labeled with the NEXT id.
  std::vector<std::size_t> unseen_train;
  for (std::size_t i = 0; i < split.train.size(); ++i)
    if (split.train.label(i) == held_out) unseen_train.push_back(i);
  common::Matrix samples(unseen_train.size(),
                         split.train.num_features());
  for (std::size_t i = 0; i < unseen_train.size(); ++i) {
    const auto row = split.train.sample(unseen_train[i]);
    std::copy(row.begin(), row.end(), samples.row(i).begin());
  }
  const std::size_t columns_before = model.config().columns;
  std::vector<data::Label> labels(unseen_train.size(),
                                  static_cast<data::Label>(old_classes - 1));
  const auto report = model.partial_fit(samples, labels);

  EXPECT_EQ(report.new_classes, 1u);
  EXPECT_GT(report.new_columns, 0u);
  EXPECT_EQ(model.num_classes(), old_classes);
  EXPECT_EQ(model.config().columns, columns_before + report.new_columns);

  // Recall on held-out samples of the appended class must beat chance.
  std::size_t correct = 0;
  std::size_t total = 0;
  for (std::size_t i = 0; i < split.test.size(); ++i) {
    if (split.test.label(i) != held_out) continue;
    ++total;
    if (model.predict(split.test.sample(i)) == held_out) ++correct;
  }
  ASSERT_GT(total, 0u);
  const double recall = static_cast<double>(correct) /
                        static_cast<double>(total);
  const double chance = 1.0 / static_cast<double>(old_classes);
  EXPECT_GT(recall, 2.0 * chance) << "recall=" << recall;
  // Extended learning must not destroy the deployed classes either: overall
  // accuracy stays well above chance.
  EXPECT_GT(model.evaluate(split.test), 0.5);
}

TEST(PartialFit, OnlyTouchedBinaryRowsChange) {
  const auto split = testing::tiny_multimodal(/*seed=*/31);
  MemhdModel parent(small_config(), split.train.num_features(),
                    split.train.num_classes());
  parent.fit(split.train);

  MemhdModel child(parent);
  const auto report = child.partial_fit(split.test.features(),
                                        split.test.labels());
  ASSERT_GT(report.touched_centroids, 0u);
  ASSERT_LT(report.touched_centroids, parent.config().columns)
      << "fixture too hard: every centroid touched, nothing to compare";

  std::size_t changed = 0;
  for (std::size_t col = 0; col < parent.config().columns; ++col) {
    const auto before = parent.am().binary().row_vector(col);
    const auto after = child.am().binary().row_vector(col);
    if (!(before == after)) ++changed;
  }
  // Every changed row must be accounted for by the touched set; untouched
  // rows are bit-identical (what lets COW versions share the plane).
  EXPECT_LE(changed, report.touched_centroids);
  EXPECT_LT(changed, parent.config().columns);
}

TEST(PartialFit, EmptyBatchIsANoOp) {
  const auto split = testing::tiny_separable();
  MemhdModel model(small_config(), split.train.num_features(),
                   split.train.num_classes());
  model.fit(split.train);
  const auto before = model.predict_batch(split.test.features());
  const auto report =
      model.partial_fit(common::Matrix(0, model.num_features()), {});
  EXPECT_EQ(report.samples, 0u);
  EXPECT_EQ(report.touched_centroids, 0u);
  EXPECT_EQ(model.predict_batch(split.test.features()), before);
}

TEST(PartialFit, ClassPastTheLimitThrowsBeforeAnyChange) {
  const auto split = testing::tiny_separable();
  MemhdModel model(small_config(), split.train.num_features(),
                   split.train.num_classes());
  model.fit(split.train);
  const auto before = model.predict_batch(split.test.features());
  const common::BitMatrix binary = model.am().binary();
  const common::Matrix fp = model.am().fp();
  const auto plane = model.am().plane();

  // A batch whose other rows are ordinary misses and growth: nothing of it
  // may land when one label is past the class limit.
  const common::Matrix batch = split.train.features();
  std::vector<data::Label> labels(batch.rows(), 1);
  labels[0] = static_cast<data::Label>(model.num_classes());
  labels.back() = data::Label{0xFFFF};
  EXPECT_THROW(model.partial_fit(batch, labels), std::invalid_argument);

  EXPECT_EQ(model.num_classes(), split.train.num_classes());
  EXPECT_EQ(model.am().plane(), plane);
  EXPECT_TRUE(model.am().binary() == binary);
  EXPECT_TRUE(model.am().fp() == fp);
  EXPECT_EQ(model.predict_batch(split.test.features()), before);
}

TEST(PartialFit, ClassifierSurfaceForwardsAndBaselinesDecline) {
  const auto split = testing::tiny_separable();
  api::ModelOptions opts;
  opts.dim = 128;
  opts.columns = 8;
  opts.epochs = 2;
  auto memhd = api::make("memhd", split.train.num_features(),
                         split.train.num_classes(), opts);
  memhd->fit(split.train);
  EXPECT_TRUE(memhd->supports_partial_fit());
  const auto report = memhd->partial_fit(split.test.features(),
                                         split.test.labels());
  EXPECT_EQ(report.samples, split.test.size());

  auto baseline = api::make("basichdc", split.train.num_features(),
                            split.train.num_classes(), opts);
  baseline->fit(split.train);
  EXPECT_FALSE(baseline->supports_partial_fit());
  EXPECT_THROW(baseline->partial_fit(split.test.features(),
                                     split.test.labels()),
               std::logic_error);
}

TEST(PartialFit, CloneIsIndependentAndBitExact) {
  const auto split = testing::tiny_multimodal(/*seed=*/43);
  api::ModelOptions opts;
  opts.dim = 256;
  opts.columns = 16;
  opts.epochs = 2;
  auto original = api::make("memhd", split.train.num_features(),
                            split.train.num_classes(), opts);
  original->fit(split.train);
  const auto before = original->predict_batch(split.test.features());

  auto copy = original->clone();
  EXPECT_EQ(copy->predict_batch(split.test.features()), before);

  // Training the clone must not disturb the original (COW building block).
  copy->partial_fit(split.test.features(), split.test.labels());
  EXPECT_EQ(original->predict_batch(split.test.features()), before);
}

}  // namespace
}  // namespace memhd::core

// Property tests for the batch inference engine at the core layer: the
// blocked scores_batch / predict_batch paths must be bit-identical to the
// per-query scalar paths, and the batched QAT epoch must reproduce the
// streaming reference loop exactly.
#include <gtest/gtest.h>

#include "src/common/rng.hpp"
#include "src/core/initializer.hpp"
#include "src/core/qat_trainer.hpp"
#include "src/hdc/bundling.hpp"  // add_bipolar
#include "test_util.hpp"

namespace memhd::core {
namespace {

MultiCentroidAM make_trained_am(const hdc::EncodedDataset& train,
                                std::size_t dim, std::size_t columns) {
  MemhdConfig cfg;
  cfg.dim = dim;
  cfg.columns = columns;
  cfg.kmeans_max_iterations = 3;
  return initialize_clustering(train, cfg, nullptr);
}

// Odd dimension (tail word) and odd column count (partial kernel tiles).
class McamBatchSweep
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {};

TEST_P(McamBatchSweep, ScoresAndPredictionsMatchScalarPath) {
  const auto [dim, columns] = GetParam();
  const auto train = testing::clustered_encoded(
      /*per_class=*/20, dim, /*num_classes=*/4, /*modes=*/2,
      /*noise_bits=*/dim / 16, /*seed=*/dim + columns);
  const auto am = make_trained_am(train, dim, columns);

  const auto queries = testing::random_encoded(/*n=*/77, dim,
                                               /*num_classes=*/4,
                                               /*seed=*/99).hypervectors;

  std::vector<std::uint32_t> batch;
  am.scores_batch(queries, batch);
  ASSERT_EQ(batch.size(), queries.size() * am.columns());

  std::vector<std::uint32_t> single;
  for (std::size_t q = 0; q < queries.size(); ++q) {
    am.scores_binary(queries[q], single);
    for (std::size_t c = 0; c < am.columns(); ++c)
      ASSERT_EQ(batch[q * am.columns() + c], single[c])
          << "dim=" << dim << " columns=" << columns << " q=" << q;
  }

  const auto predicted = am.predict_batch(queries);
  for (std::size_t q = 0; q < queries.size(); ++q)
    ASSERT_EQ(predicted[q], am.predict_binary(queries[q])) << "q=" << q;
}

INSTANTIATE_TEST_SUITE_P(Shapes, McamBatchSweep,
                         ::testing::Combine(::testing::Values(65, 127, 128,
                                                              193),
                                            ::testing::Values(5, 8, 19)));

TEST(BatchEquivalence, EvaluateBinaryMatchesPerQueryLoop) {
  const std::size_t dim = 129;
  const auto train = testing::clustered_encoded(30, dim, 4, 2, 6, 3);
  const auto test = testing::clustered_encoded(25, dim, 4, 2, 6, 17);
  const auto am = make_trained_am(train, dim, 12);

  std::size_t correct = 0;
  for (std::size_t i = 0; i < test.size(); ++i)
    if (am.predict_binary(test.hypervectors[i]) == test.labels[i]) ++correct;
  const double expected =
      static_cast<double>(correct) / static_cast<double>(test.size());

  EXPECT_DOUBLE_EQ(evaluate_binary(am, test), expected);
}

// Reference re-implementation of the pre-batching QAT epoch loop: stream
// every sample in (shuffled) order, scoring it at its turn. train_qat must
// reproduce this exactly — same trace, same updates, same binary AM — since
// its batched scoring reads the same constant per-epoch binary AM.
QatTrace reference_train_qat(MultiCentroidAM& am,
                             const hdc::EncodedDataset& train,
                             const hdc::EncodedDataset* eval,
                             const QatConfig& cfg) {
  QatTrace trace;
  common::Rng rng(cfg.seed ^ 0x9A70001ULL);

  std::vector<std::size_t> order(train.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;

  common::BitMatrix best_binary = am.binary();
  const bool track_best = cfg.keep_best && eval != nullptr;

  std::vector<std::uint32_t> scores;
  for (std::size_t epoch = 0; epoch < cfg.epochs; ++epoch) {
    if (cfg.shuffle) rng.shuffle(order);

    std::size_t correct = 0;
    for (const std::size_t i : order) {
      const auto& hv = train.hypervectors[i];
      const data::Label truth = train.labels[i];

      am.scores_binary(hv, scores);
      const std::size_t predicted_slot = am.best_centroid(scores);
      if (am.owner(predicted_slot) == truth) {
        ++correct;
        continue;
      }
      const std::size_t true_slot = am.best_centroid_of_class(scores, truth);
      hdc::add_bipolar(am.fp().row(true_slot), hv, cfg.learning_rate);
      hdc::add_bipolar(am.fp().row(predicted_slot), hv, -cfg.learning_rate);
      trace.updates += 2;
    }
    am.normalize(cfg.normalization);
    am.binarize();
    trace.train_accuracy.push_back(static_cast<double>(correct) /
                                   static_cast<double>(train.size()));
    trace.epochs_run = epoch + 1;

    if (eval != nullptr) {
      const double acc = evaluate_binary(am, *eval);
      trace.eval_accuracy.push_back(acc);
      if (track_best && acc > trace.best_eval_accuracy) {
        trace.best_eval_accuracy = acc;
        trace.best_epoch = epoch;
        best_binary = am.binary();
      }
    }
  }
  if (track_best && trace.best_eval_accuracy > 0.0)
    am.restore_binary(best_binary);
  return trace;
}

TEST(BatchEquivalence, QatTrainerMatchesStreamingReference) {
  const std::size_t dim = 130;  // two words + tail
  const auto train = testing::clustered_encoded(40, dim, 4, 3, 8, 5);
  const auto eval = testing::clustered_encoded(20, dim, 4, 3, 8, 6);

  QatConfig cfg;
  cfg.epochs = 5;
  cfg.shuffle = true;
  cfg.keep_best = true;
  cfg.seed = 21;

  auto am_batched = make_trained_am(train, dim, 10);
  auto am_reference = am_batched;  // identical starting state

  const QatTrace got = train_qat(am_batched, train, &eval, cfg);
  const QatTrace want = reference_train_qat(am_reference, train, &eval, cfg);

  EXPECT_EQ(got.train_accuracy, want.train_accuracy);
  EXPECT_EQ(got.eval_accuracy, want.eval_accuracy);
  EXPECT_EQ(got.updates, want.updates);
  EXPECT_EQ(got.best_epoch, want.best_epoch);
  EXPECT_DOUBLE_EQ(got.best_eval_accuracy, want.best_eval_accuracy);
  EXPECT_TRUE(am_batched.binary() == am_reference.binary());
  EXPECT_TRUE(am_batched.fp() == am_reference.fp());
}

}  // namespace
}  // namespace memhd::core

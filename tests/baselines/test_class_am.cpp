// The single-centroid AM that BasicHDC and QuantHD share: class_am (one
// core::MultiCentroidAM column per class), single_pass_am, and the two
// models' search and persistence through it.
#include <gtest/gtest.h>

#include <sstream>

#include "src/baselines/basic_hdc.hpp"
#include "src/baselines/quanthd.hpp"
#include "src/common/rng.hpp"
#include "src/core/multi_centroid_am.hpp"
#include "test_util.hpp"

namespace memhd::baselines {
namespace {

using common::BitVector;

BaselineConfig small_config(std::size_t dim, std::size_t epochs) {
  BaselineConfig cfg;
  cfg.dim = dim;
  cfg.epochs = epochs;
  cfg.learning_rate = 0.1f;
  cfg.num_levels = 32;
  return cfg;
}

// Independent oracle for the batch path: the AM's own per-query binary
// search (scores_binary + first-wins argmax), over odd dims that leave a
// ragged tail word and over single-pass and refined fits.
template <typename Model>
void expect_batch_matches_am_oracle() {
  const auto split = testing::tiny_multimodal(/*seed=*/7, 30, 15);
  for (const std::size_t dim : {65UL, 128UL, 257UL}) {
    for (const std::size_t epochs : {0UL, 3UL}) {
      Model model(split.train.num_features(), split.train.num_classes(),
                  small_config(dim, epochs));
      model.fit(split.train);
      EXPECT_TRUE(model.am().frozen());
      auto queries = model.encode_dataset(split.test).hypervectors;
      common::Rng rng(dim);
      for (int i = 0; i < 20; ++i)
        queries.push_back(BitVector::random(dim, rng));

      const auto batch = model.predict_batch(queries);
      std::vector<std::uint32_t> table;
      model.scores_batch(queries, table);
      ASSERT_EQ(table.size(), queries.size() * model.score_rows());
      std::vector<std::uint32_t> single;
      for (std::size_t q = 0; q < queries.size(); ++q) {
        ASSERT_EQ(batch[q], model.am().predict_binary(queries[q]))
            << model.name() << " dim=" << dim << " q=" << q;
        ASSERT_EQ(model.predict(queries[q]), batch[q]);
        model.am().scores_binary(queries[q], single);
        for (std::size_t c = 0; c < model.num_classes(); ++c)
          ASSERT_EQ(table[q * model.num_classes() + c], single[c])
              << model.name() << " dim=" << dim << " q=" << q;
      }
    }
  }
}

TEST(ClassAmModels, BatchMatchesPerQueryAmOracle) {
  expect_batch_matches_am_oracle<BasicHdc>();
  expect_batch_matches_am_oracle<QuantHd>();
}

template <typename Model>
void expect_load_state_restores_and_freezes() {
  const auto split = testing::tiny_separable(/*seed=*/3);
  const auto cfg = small_config(512, 4);
  Model model(split.train.num_features(), split.train.num_classes(), cfg);
  model.fit(split.train);
  std::stringstream state;
  model.save_state(state);
  Model loaded(split.train.num_features(), split.train.num_classes(), cfg);
  // Frozen from construction (over the untrained rows): plane() is always
  // present. load_state deploys a new plane over the restored rows.
  ASSERT_TRUE(loaded.am().frozen());
  const auto untrained = loaded.am().plane();
  loaded.load_state(state);
  ASSERT_TRUE(loaded.am().frozen());
  EXPECT_NE(loaded.am().plane(), untrained);
  EXPECT_EQ(&loaded.plane(), loaded.am().plane().get());
  EXPECT_TRUE(loaded.plane().matrix() == model.am().binary());
  EXPECT_TRUE(loaded.am().fp() == model.am().fp());
  EXPECT_TRUE(loaded.am().binary() == model.am().binary());
  for (std::size_t c = 0; c < loaded.num_classes(); ++c)
    EXPECT_EQ(loaded.am().owner(c), c);
}

TEST(ClassAmModels, LoadStateRestoresAndFreezes) {
  expect_load_state_restores_and_freezes<BasicHdc>();
  expect_load_state_restores_and_freezes<QuantHd>();
}

hdc::EncodedDataset encoded_set(std::vector<BitVector> hvs,
                                std::vector<data::Label> labels,
                                std::size_t num_classes) {
  hdc::EncodedDataset set;
  set.dim = hvs.front().size();
  set.num_classes = num_classes;
  set.hypervectors = std::move(hvs);
  set.labels = std::move(labels);
  return set;
}

TEST(SinglePassAm, SumsBipolarSamplesPerClass) {
  const auto hv = BitVector::from_bools({true, false, true, false});
  const auto other = BitVector::from_bools({true, true, false, false});
  const auto am = single_pass_am(encoded_set({hv, hv, other}, {0, 0, 2}, 3),
                                 /*num_classes=*/3);
  ASSERT_EQ(am.columns(), 3u);
  const float want0[] = {2.0f, -2.0f, 2.0f, -2.0f};
  const float want2[] = {1.0f, 1.0f, -1.0f, -1.0f};
  for (std::size_t j = 0; j < 4; ++j) {
    EXPECT_FLOAT_EQ(am.fp()(0, j), want0[j]);
    EXPECT_FLOAT_EQ(am.fp()(1, j), 0.0f);  // class 1 untouched
    EXPECT_FLOAT_EQ(am.fp()(2, j), want2[j]);
  }
  for (std::size_t c = 0; c < 3; ++c) EXPECT_EQ(am.owner(c), c);
}

TEST(SinglePassAm, ClassAmIsOneColumnPerClass) {
  const auto am = class_am(common::Matrix(26, 10240, 0.0f));
  EXPECT_EQ(am.num_classes(), 26u);
  EXPECT_EQ(am.columns(), 26u);
  EXPECT_TRUE(am.fully_assigned());
  for (data::Label c = 0; c < 26; ++c)
    EXPECT_EQ(am.centroids_of_class(c), (std::vector<std::size_t>{c}));
  EXPECT_EQ(am.memory_bits(), 26u * 10240u);  // k * D (Table I)
}

TEST(SinglePassAm, PredictsNearestPrototype) {
  common::Rng rng(5);
  const std::size_t d = 512;
  const auto proto0 = BitVector::random(d, rng);
  const auto proto1 = BitVector::random(d, rng);
  const auto am = single_pass_am(encoded_set({proto0, proto1}, {0, 1}, 2), 2);

  auto noisy = proto1;
  for (std::size_t i = 0; i < d / 16; ++i) noisy.flip(rng.uniform_index(d));
  EXPECT_EQ(am.predict_binary(noisy), 1);
  EXPECT_EQ(am.predict_fp(noisy), 1);
  EXPECT_EQ(am.predict_binary(proto0), 0);
}

TEST(SinglePassAm, LearnsPrototypeClusters) {
  // One prototype per class, light noise: single-pass must be near-perfect.
  const auto train = testing::clustered_encoded(
      /*per_class=*/40, /*dim=*/512, /*num_classes=*/4, /*modes=*/1,
      /*noise_bits=*/30);
  const auto am = single_pass_am(train, 4);
  EXPECT_GT(core::evaluate_binary(am, train), 0.95);
}

TEST(SinglePassAm, PopulatesBothRepresentations) {
  const auto train = testing::clustered_encoded(10, 128, 3, 1, 8);
  const auto am = single_pass_am(train, 3);
  // FP rows must be non-zero and binary rows roughly half dense.
  bool nonzero = false;
  for (const float v : am.fp().row(0))
    if (v != 0.0f) nonzero = true;
  EXPECT_TRUE(nonzero);
  const double density =
      static_cast<double>(am.binary().popcount()) / (3.0 * 128.0);
  EXPECT_GT(density, 0.2);
  EXPECT_LT(density, 0.8);
}

TEST(SinglePassAm, PerfectMemoryScoresOne) {
  // AM rows = exact prototypes; test samples = the prototypes themselves.
  const auto data = testing::clustered_encoded(5, 128, 3, 1, 0);
  const auto am = single_pass_am(data, 3);
  EXPECT_EQ(core::evaluate_binary(am, data), 1.0);
}

}  // namespace
}  // namespace memhd::baselines

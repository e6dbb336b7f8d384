#include "src/hdc/bundling.hpp"

#include <gtest/gtest.h>

#include "src/common/rng.hpp"
#include "src/hdc/similarity.hpp"

namespace memhd::hdc {
namespace {

using common::BitVector;
using common::Rng;

TEST(AddBipolar, WeightSign) {
  std::vector<float> row(3, 0.0f);
  const auto hv = BitVector::from_bools({true, false, true});
  add_bipolar(row, hv, -2.0f);
  EXPECT_FLOAT_EQ(row[0], -2.0f);
  EXPECT_FLOAT_EQ(row[1], 2.0f);
  EXPECT_FLOAT_EQ(row[2], -2.0f);
  add_bipolar(row, hv, 0.5f);
  EXPECT_FLOAT_EQ(row[0], -1.5f);
  EXPECT_FLOAT_EQ(row[1], 1.5f);
  EXPECT_FLOAT_EQ(row[2], -1.5f);
}

TEST(Bundling, MajorityOfThreeVectors) {
  const auto a = BitVector::from_bools({1, 1, 0, 0});
  const auto b = BitVector::from_bools({1, 0, 1, 0});
  const auto c = BitVector::from_bools({1, 0, 0, 0});
  const auto m = bundle_majority({a, b, c});
  // Bit 0: 3/3 -> 1. Bit 1: 1/3 -> 0. Bit 2: 1/3 -> 0. Bit 3: 0/3 -> 0.
  EXPECT_EQ(m.to_bools(), (std::vector<bool>{1, 0, 0, 0}));
}

TEST(Bundling, TiesBreakToZero) {
  const auto a = BitVector::from_bools({1, 0});
  const auto b = BitVector::from_bools({0, 1});
  const auto m = bundle_majority({a, b});
  // Each bit has exactly half the weight: strict majority -> 0.
  EXPECT_EQ(m.popcount(), 0u);
}

TEST(Bundling, SingleVectorIsIdentity) {
  Rng rng(1);
  const auto v = BitVector::random(200, rng);
  EXPECT_TRUE(bundle_majority({v}) == v);
}

TEST(Bundling, BundleIsSimilarToEveryInput) {
  // The defining property of superposition: the bundle of a few random HVs
  // is much closer to each of them than chance (~D/4 for random pairs).
  Rng rng(2);
  const std::size_t d = 2048;
  std::vector<BitVector> inputs;
  for (int i = 0; i < 5; ++i) inputs.push_back(BitVector::random(d, rng));
  const auto m = bundle_majority(inputs);
  const auto outsider = BitVector::random(d, rng);
  for (const auto& in : inputs)
    EXPECT_GT(dot_similarity(m, in), dot_similarity(m, outsider));
}

TEST(Bundling, WeightedAddBiasesResult) {
  BundleAccumulator acc(2);
  acc.add(BitVector::from_bools({1, 0}), 3.0);
  acc.add(BitVector::from_bools({0, 1}), 1.0);
  const auto m = acc.majority();  // cutoff = 2.0
  EXPECT_TRUE(m.get(0));   // 3 > 2
  EXPECT_FALSE(m.get(1));  // 1 < 2
}

TEST(Bundling, NegativeWeightSubtracts) {
  BundleAccumulator acc(1);
  acc.add(BitVector::from_bools({1}), 2.0);
  acc.add(BitVector::from_bools({1}), -1.0);
  EXPECT_DOUBLE_EQ(acc.counts()[0], 1.0);
  EXPECT_DOUBLE_EQ(acc.weight(), 1.0);
  EXPECT_TRUE(acc.majority().get(0));  // 1 > 0.5
}

TEST(Bundling, ExplicitThreshold) {
  BundleAccumulator acc(3);
  acc.add(BitVector::from_bools({1, 1, 0}));
  acc.add(BitVector::from_bools({1, 0, 0}));
  EXPECT_EQ(acc.threshold(0.5).popcount(), 2u);   // counts 2,1,0 > 0.5
  EXPECT_EQ(acc.threshold(1.5).popcount(), 1u);
}

TEST(Bundling, ResetClearsState) {
  BundleAccumulator acc(4);
  acc.add(BitVector::from_bools({1, 1, 1, 1}));
  acc.reset();
  EXPECT_DOUBLE_EQ(acc.weight(), 0.0);
  EXPECT_EQ(acc.majority().popcount(), 0u);
}

TEST(Bundling, IncrementalEqualsOneShot) {
  Rng rng(3);
  std::vector<BitVector> inputs;
  for (int i = 0; i < 7; ++i) inputs.push_back(BitVector::random(128, rng));
  BundleAccumulator acc(128);
  for (const auto& v : inputs) acc.add(v);
  EXPECT_TRUE(acc.majority() == bundle_majority(inputs));
}

class BundleCapacitySweep : public ::testing::TestWithParam<int> {};

TEST_P(BundleCapacitySweep, RetrievalSurvivesBundlingNVectors) {
  // Capacity property: even bundling N vectors, each input stays the
  // nearest among {inputs + distractors} to itself via the bundle's help?
  // Weaker, robust form: bundle similarity to inputs exceeds similarity to
  // fresh random vectors on average.
  const int n = GetParam();
  Rng rng(100 + n);
  const std::size_t d = 4096;
  std::vector<BitVector> inputs;
  for (int i = 0; i < n; ++i) inputs.push_back(BitVector::random(d, rng));
  const auto m = bundle_majority(inputs);

  double in_sim = 0.0, out_sim = 0.0;
  for (const auto& v : inputs)
    in_sim += static_cast<double>(dot_similarity(m, v)) / n;
  for (int i = 0; i < n; ++i)
    out_sim += static_cast<double>(
                   dot_similarity(m, BitVector::random(d, rng))) / n;
  EXPECT_GT(in_sim, out_sim);
}

INSTANTIATE_TEST_SUITE_P(Capacity, BundleCapacitySweep,
                         ::testing::Values(3, 9, 33, 101));

}  // namespace
}  // namespace memhd::hdc

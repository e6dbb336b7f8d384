#include "src/hdc/ngram_encoder.hpp"

#include <gtest/gtest.h>

#include "src/common/rng.hpp"
#include "src/hdc/similarity.hpp"

namespace memhd::hdc {
namespace {

using common::Rng;

NgramEncoderConfig config(std::size_t n = 3, std::size_t dim = 1024) {
  NgramEncoderConfig cfg;
  cfg.alphabet_size = 8;
  cfg.dim = dim;
  cfg.n = n;
  cfg.seed = 7;
  return cfg;
}

TEST(NgramEncoder, Deterministic) {
  const NgramEncoder a(config());
  const NgramEncoder b(config());
  const std::vector<std::size_t> seq = {1, 2, 3, 4, 5, 6, 7, 0, 1, 2};
  EXPECT_TRUE(a.encode(seq) == b.encode(seq));
}

TEST(NgramEncoder, OrderMatters) {
  // "abc" and "cba" share symbols but not order; their gram vectors must
  // be quasi-orthogonal thanks to positional permutation.
  const NgramEncoder enc(config(3, 4096));
  const std::vector<std::size_t> abc = {0, 1, 2};
  const std::vector<std::size_t> cba = {2, 1, 0};
  const auto ga = enc.encode_gram(abc);
  const auto gc = enc.encode_gram(cba);
  EXPECT_NEAR(static_cast<double>(ga.hamming(gc)) / 4096.0, 0.5, 0.05);
}

TEST(NgramEncoder, RepeatedSymbolInDifferentPositionsDiffers) {
  const NgramEncoder enc(config(2, 2048));
  const std::vector<std::size_t> ab = {0, 1};
  const std::vector<std::size_t> ba = {1, 0};
  EXPECT_GT(enc.encode_gram(ab).hamming(enc.encode_gram(ba)), 2048u / 3);
}

TEST(NgramEncoder, SimilarStatisticsGiveSimilarVectors) {
  // Two long draws from the same token distribution are much closer than
  // draws from different distributions.
  const auto cfg = config(3, 2048);
  const NgramEncoder enc(cfg);
  Rng rng(3);
  // Source A favours tokens {0..3}, source B favours {4..7}.
  const auto draw = [&](std::size_t lo) {
    std::vector<std::size_t> s(400);
    for (auto& t : s) t = lo + rng.uniform_index(4);
    return s;
  };
  const auto a1 = enc.encode(draw(0));
  const auto a2 = enc.encode(draw(0));
  const auto b1 = enc.encode(draw(4));
  EXPECT_LT(a1.hamming(a2), a1.hamming(b1));
}

TEST(NgramEncoder, UnigramIsPermutationFreeBundle) {
  // n = 1: the sequence vector is just the majority of item vectors.
  const NgramEncoder enc(config(1, 1024));
  const std::vector<std::size_t> seq = {3, 3, 3, 3, 3};
  // Majority of five copies of the same item == the item itself.
  EXPECT_TRUE(enc.encode(seq) == enc.item(3));
}

TEST(NgramEncoder, SequenceSimilarToItsDominantGram) {
  const NgramEncoder enc(config(3, 4096));
  Rng rng(4);
  std::vector<std::size_t> seq;
  for (int rep = 0; rep < 30; ++rep) {
    seq.push_back(0);
    seq.push_back(1);
    seq.push_back(2);
  }
  const std::vector<std::size_t> gram = {0, 1, 2};
  const auto hv = enc.encode(seq);
  const auto g = enc.encode_gram(gram);
  const auto random_ref = common::BitVector::random(4096, rng);
  EXPECT_GT(dot_similarity(hv, g), dot_similarity(hv, random_ref));
}

TEST(NgramEncoder, MemoryBitsIsItemMemory) {
  const NgramEncoder enc(config(3, 1024));
  EXPECT_EQ(enc.memory_bits(), 8u * 1024u);
}

TEST(NgramEncoder, RejectsTooShortSequence) {
  const NgramEncoder enc(config(3));
  const std::vector<std::size_t> tiny = {0, 1};
  EXPECT_DEATH(enc.encode(tiny), "precondition");
}

class NgramLengthSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(NgramLengthSweep, DistinguishesSourcesAtEveryN) {
  NgramEncoderConfig cfg;
  cfg.alphabet_size = 6;
  cfg.dim = 2048;
  cfg.n = GetParam();
  const NgramEncoder enc(cfg);
  Rng rng(50 + GetParam());
  // Source X cycles 0,1,2; source Y cycles 3,4,5.
  std::vector<std::size_t> x, y;
  for (int i = 0; i < 120; ++i) {
    x.push_back(i % 3);
    y.push_back(3 + i % 3);
  }
  const auto hx1 = enc.encode(x);
  const auto hy1 = enc.encode(y);
  std::vector<std::size_t> x2(x.begin() + 3, x.end());
  const auto hx2 = enc.encode(x2);
  EXPECT_LT(hx1.hamming(hx2), hx1.hamming(hy1));
}

INSTANTIATE_TEST_SUITE_P(GramLengths, NgramLengthSweep,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u));

}  // namespace
}  // namespace memhd::hdc

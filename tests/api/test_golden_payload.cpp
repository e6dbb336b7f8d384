// Golden digests of the api::save bytes of seeded baseline fits.
//
// QuantHD's and SearcHD's training uses only float adds, integer popcounts
// and compares, and the fixture's features are exact multiples of 1/256
// (so level quantization is exact), so their payloads do not depend on FMA
// contraction, -march or the kernel backend. A digest change means the
// trained model or the MHDAPI03 payload layout (FP matrix, then bit
// matrix) changed: old files would no longer reproduce. Update the pins
// only for an intended, documented format or training change.
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/api/registry.hpp"
#include "src/common/matrix.hpp"
#include "src/common/rng.hpp"

namespace memhd::api {
namespace {

/// 4 classes x 3 modes over 32 features; every feature value is k / 256.
data::Dataset exact_dataset(std::uint64_t seed, std::size_t per_class) {
  constexpr std::size_t kClasses = 4, kModes = 3, kFeatures = 32;
  common::Rng rng(seed);
  std::vector<std::vector<int>> protos(kClasses * kModes,
                                       std::vector<int>(kFeatures));
  for (auto& p : protos)
    for (auto& v : p) v = static_cast<int>(rng.uniform_index(257));
  const std::size_t n = kClasses * per_class;
  common::Matrix features(n, kFeatures, 0.0f);
  std::vector<data::Label> labels(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t c = i % kClasses;
    const auto& p = protos[c * kModes + rng.uniform_index(kModes)];
    for (std::size_t j = 0; j < kFeatures; ++j) {
      int v = p[j] + static_cast<int>(rng.uniform_index(49)) - 24;
      v = v < 0 ? 0 : (v > 256 ? 256 : v);
      features(i, j) = static_cast<float>(v) / 256.0f;
    }
    labels[i] = static_cast<data::Label>(c);
  }
  return data::Dataset("exact", std::move(features), std::move(labels),
                       kClasses);
}

std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const unsigned char ch : bytes) {
    h ^= ch;
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string saved_bytes(const char* name, const ModelOptions& opts) {
  const auto train = exact_dataset(/*seed=*/5, /*per_class=*/50);
  auto clf = make(name, train.num_features(), train.num_classes(), opts);
  clf->fit(train);
  std::ostringstream out;
  save(*clf, out);
  return out.str();
}

ModelOptions golden_options() {
  ModelOptions opts;
  opts.dim = 256;
  opts.num_levels = 16;
  opts.n_models = 4;
  opts.seed = 9;
  return opts;
}

TEST(GoldenPayload, QuantHdSaveBytesArePinned) {
  auto opts = golden_options();
  opts.epochs = 6;
  opts.learning_rate = 0.1f;
  const std::string bytes = saved_bytes("quanthd", opts);
  EXPECT_EQ(bytes.size(), 4295u);
  EXPECT_EQ(fnv1a(bytes), 0x7921e6cc0928987cULL);
}

TEST(GoldenPayload, SearcHdSaveBytesArePinned) {
  auto opts = golden_options();
  opts.epochs = 3;
  const std::string bytes = saved_bytes("searchd", opts);
  EXPECT_EQ(bytes.size(), 591u);
  EXPECT_EQ(fnv1a(bytes), 0xfe95c772dc9a62e7ULL);
}

}  // namespace
}  // namespace memhd::api

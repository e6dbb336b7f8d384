#include "src/baselines/lehdc.hpp"

#include <algorithm>
#include <cmath>

#include "src/common/assert.hpp"
#include "src/common/io.hpp"
#include "src/common/rng.hpp"
#include "src/hdc/bundling.hpp"

namespace memhd::baselines {

namespace {
hdc::IdLevelEncoderConfig make_encoder_config(std::size_t num_features,
                                              const BaselineConfig& cfg) {
  hdc::IdLevelEncoderConfig ec;
  ec.num_features = num_features;
  ec.dim = cfg.dim;
  ec.num_levels = cfg.num_levels;
  ec.seed = cfg.seed ^ 0x1E4DCULL;
  return ec;
}
}  // namespace

LeHdc::LeHdc(std::size_t num_features, std::size_t num_classes,
             const BaselineConfig& config)
    : BaselineModel(config, num_features, num_classes),
      encoder_(make_encoder_config(num_features, config)),
      weights_(num_classes, config.dim, 0.0f) {
  hyper_.learning_rate = config.learning_rate;
  freeze(common::BitMatrix(num_classes, config.dim));
}

void LeHdc::freeze(const common::BitMatrix& binary) {
  plane_ = std::make_shared<const search::CentroidPlane>(
      binary, block_owners(num_classes_, 1), search::Ranking::kBipolar);
}

common::BitVector LeHdc::encode(std::span<const float> features) const {
  return encoder_.encode(features);
}

hdc::EncodedDataset LeHdc::encode_dataset(const data::Dataset& dataset) const {
  return encoder_.encode_dataset(dataset);
}

void LeHdc::fit(const data::Dataset& train) {
  const auto encoded = encoder_.encode_dataset(train);
  common::Rng rng(config_.seed ^ 0x1E4DC0DEULL);

  // Warm start from the single-pass class vectors, rescaled into the
  // clip box [-1, 1] (LeHDC initializes from the bundled prototypes).
  weights_.fill(0.0f);
  for (std::size_t i = 0; i < encoded.size(); ++i)
    hdc::add_bipolar(weights_.row(encoded.labels[i]), encoded.hypervectors[i],
                     1.0f);
  float max_abs = 1e-6f;
  for (std::size_t c = 0; c < num_classes_; ++c)
    for (const float v : weights_.row(c))
      max_abs = std::max(max_abs, std::abs(v));
  for (std::size_t c = 0; c < num_classes_; ++c)
    for (float& v : weights_.row(c)) v /= max_abs;

  const float inv_sqrt_d = 1.0f / std::sqrt(static_cast<float>(config_.dim));
  const std::size_t n = encoded.size();
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;

  common::Matrix velocity(num_classes_, config_.dim, 0.0f);
  std::vector<float> bipolar(config_.dim);
  std::vector<float> logits(num_classes_);
  std::vector<float> probs(num_classes_);
  common::Matrix grad(num_classes_, config_.dim, 0.0f);
  common::BitMatrix binary(num_classes_, config_.dim);  // sign(weights_)

  const auto refresh_binary = [&] {
    for (std::size_t c = 0; c < num_classes_; ++c) {
      const auto row = weights_.row(c);
      binary.set_row(c, common::BitVector::from_threshold(
                             row.data(), row.size(), 0.0f));
    }
  };
  refresh_binary();

  for (std::size_t epoch = 0; epoch < config_.epochs; ++epoch) {
    rng.shuffle(order);
    for (std::size_t start = 0; start < n; start += hyper_.batch_size) {
      const std::size_t stop = std::min(n, start + hyper_.batch_size);
      grad.fill(0.0f);

      for (std::size_t s = start; s < stop; ++s) {
        const std::size_t i = order[s];
        const auto& hv = encoded.hypervectors[i];
        const data::Label truth = encoded.labels[i];

        bipolar.clear();
        bipolar.resize(0);
        hv.to_bipolar(bipolar);

        // Forward through the binarized weights (STE forward pass).
        for (std::size_t c = 0; c < num_classes_; ++c) {
          float acc = 0.0f;
          for (std::size_t j = 0; j < config_.dim; ++j)
            acc += (binary.get(c, j) ? 1.0f : -1.0f) * bipolar[j];
          logits[c] = acc * inv_sqrt_d;
        }

        // Softmax with max-shift for stability.
        const float mx = *std::max_element(logits.begin(), logits.end());
        float z = 0.0f;
        for (std::size_t c = 0; c < num_classes_; ++c) {
          probs[c] = std::exp(logits[c] - mx);
          z += probs[c];
        }
        for (auto& p : probs) p /= z;

        // dL/dlogit_c = p_c - [c == truth]; dlogit/dWb = bipolar * 1/sqrt(D).
        for (std::size_t c = 0; c < num_classes_; ++c) {
          const float delta =
              (probs[c] - (c == truth ? 1.0f : 0.0f)) * inv_sqrt_d;
          if (delta == 0.0f) continue;
          auto g = grad.row(c);
          for (std::size_t j = 0; j < config_.dim; ++j)
            g[j] += delta * bipolar[j];
        }
      }

      // SGD + momentum + weight decay, straight-through onto W; clip.
      const float scale = 1.0f / static_cast<float>(stop - start);
      for (std::size_t c = 0; c < num_classes_; ++c) {
        auto w = weights_.row(c);
        auto v = velocity.row(c);
        const auto g = grad.row(c);
        for (std::size_t j = 0; j < config_.dim; ++j) {
          v[j] = hyper_.momentum * v[j] -
                 hyper_.learning_rate *
                     (g[j] * scale + hyper_.weight_decay * w[j]);
          w[j] = std::clamp(w[j] + v[j], -1.0f, 1.0f);
        }
      }
      refresh_binary();
    }
  }
  freeze(binary);
}

void LeHdc::save_state(std::ostream& out) const {
  common::write_pod<float>(out, hyper_.learning_rate);
  common::write_pod<float>(out, hyper_.momentum);
  common::write_pod<float>(out, hyper_.weight_decay);
  common::write_pod<std::uint64_t>(out, hyper_.batch_size);
  common::write_matrix(out, weights_);
  common::write_bit_matrix(out, binary_weights());
}

void LeHdc::load_state(std::istream& in) {
  hyper_.learning_rate = common::read_pod<float>(in);
  hyper_.momentum = common::read_pod<float>(in);
  hyper_.weight_decay = common::read_pod<float>(in);
  hyper_.batch_size =
      static_cast<std::size_t>(common::read_pod<std::uint64_t>(in));
  weights_ = common::read_matrix(in, num_classes_, config_.dim);
  freeze(common::read_bit_matrix(in, num_classes_, config_.dim));
}

}  // namespace memhd::baselines

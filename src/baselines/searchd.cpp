#include "src/baselines/searchd.hpp"

#include "src/common/assert.hpp"
#include "src/common/io.hpp"
#include "src/common/rng.hpp"

namespace memhd::baselines {

namespace {
hdc::IdLevelEncoderConfig make_encoder_config(std::size_t num_features,
                                              const BaselineConfig& cfg) {
  hdc::IdLevelEncoderConfig ec;
  ec.num_features = num_features;
  ec.dim = cfg.dim;
  ec.num_levels = cfg.num_levels;
  ec.seed = cfg.seed ^ 0x5EA2CULL;
  return ec;
}
}  // namespace

SearcHd::SearcHd(std::size_t num_features, std::size_t num_classes,
                 const BaselineConfig& config)
    : BaselineModel(config, num_features, num_classes),
      encoder_(make_encoder_config(num_features, config)) {
  MEMHD_EXPECTS(config.n_models >= 1);
  freeze(common::BitMatrix(num_classes * config.n_models, config.dim));
}

void SearcHd::freeze(const common::BitMatrix& models) {
  plane_ = std::make_shared<const search::CentroidPlane>(
      models, block_owners(num_classes_, config_.n_models));
}

common::BitVector SearcHd::encode(std::span<const float> features) const {
  return encoder_.encode(features);
}

hdc::EncodedDataset SearcHd::encode_dataset(
    const data::Dataset& dataset) const {
  return encoder_.encode_dataset(dataset);
}

std::size_t SearcHd::row_of(std::size_t c, std::size_t j) const {
  MEMHD_EXPECTS(c < num_classes_ && j < config_.n_models);
  return c * config_.n_models + j;
}

common::BitVector SearcHd::model_vector(std::size_t c, std::size_t j) const {
  return models().row_vector(row_of(c, j));
}

void SearcHd::fit(const data::Dataset& train) {
  const auto encoded = encoder_.encode_dataset(train);
  common::Rng rng(config_.seed ^ 0x5EA2C0DEULL);
  common::BitMatrix models(num_classes_ * config_.n_models, config_.dim);

  // Initialize each class's N models from random samples of that class
  // (SearcHD's multi-model initialization); classes with fewer than N
  // samples wrap around.
  for (std::size_t c = 0; c < num_classes_; ++c) {
    const auto idx = encoded.indices_of_class(static_cast<data::Label>(c));
    MEMHD_EXPECTS(!idx.empty());
    for (std::size_t j = 0; j < config_.n_models; ++j) {
      const std::size_t pick = idx[rng.uniform_index(idx.size())];
      models.set_row(row_of(c, j), encoded.hypervectors[pick]);
    }
  }

  // Single-pass stochastic training.
  for (std::size_t i = 0; i < encoded.size(); ++i) {
    const auto& hv = encoded.hypervectors[i];
    const std::size_t c = encoded.labels[i];

    // Route to the most similar model of the sample's own class.
    std::size_t best_j = 0;
    std::size_t best_score = 0;
    for (std::size_t j = 0; j < config_.n_models; ++j) {
      const std::size_t s = models.row_dot(row_of(c, j), hv);
      if (j == 0 || s > best_score) {
        best_score = s;
        best_j = j;
      }
    }

    // Stochastic bit copy: each disagreeing bit moves toward the sample
    // with probability flip_rate_.
    const std::size_t row = row_of(c, best_j);
    for (std::size_t b = 0; b < config_.dim; ++b) {
      const bool mb = models.get(row, b);
      const bool hb = hv.get(b);
      if (mb != hb && rng.bernoulli(flip_rate_))
        models.set(row, b, hb);
    }
  }
  freeze(models);
}

void SearcHd::save_state(std::ostream& out) const {
  common::write_pod<double>(out, flip_rate_);
  common::write_bit_matrix(out, models());
}

void SearcHd::load_state(std::istream& in) {
  flip_rate_ = common::read_pod<double>(in);
  freeze(common::read_bit_matrix(in, num_classes_ * config_.n_models,
                                 config_.dim));
}

}  // namespace memhd::baselines

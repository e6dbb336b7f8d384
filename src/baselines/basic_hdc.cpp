#include "src/baselines/basic_hdc.hpp"

#include "src/common/io.hpp"
#include "src/hdc/bundling.hpp"

namespace memhd::baselines {

namespace {
hdc::ProjectionEncoderConfig make_encoder_config(std::size_t num_features,
                                                 const BaselineConfig& cfg) {
  hdc::ProjectionEncoderConfig ec;
  ec.num_features = num_features;
  ec.dim = cfg.dim;
  ec.seed = cfg.seed ^ 0xBA51CULL;
  ec.basis = cfg.basis;
  ec.derivation = cfg.basis_derivation;
  return ec;
}
}  // namespace

BasicHdc::BasicHdc(std::size_t num_features, std::size_t num_classes,
                   const BaselineConfig& config)
    : BaselineModel(config, num_features, num_classes),
      encoder_(make_encoder_config(num_features, config)),
      am_(class_am(common::Matrix(num_classes, config.dim, 0.0f))) {
  am_.freeze();
}

void BasicHdc::fit(const data::Dataset& train) {
  const auto encoded = encoder_.encode_dataset(train);
  am_ = single_pass_am(encoded, num_classes_);
  if (config_.epochs > 0) {
    // Optional FP iterative refinement (Eq. 2) followed by binarization;
    // the paper's BasicHDC row is single-pass, so benches pass epochs = 0.
    for (std::size_t epoch = 0; epoch < config_.epochs; ++epoch) {
      for (std::size_t i = 0; i < encoded.size(); ++i) {
        const auto& hv = encoded.hypervectors[i];
        const data::Label truth = encoded.labels[i];
        const data::Label predicted = am_.predict_fp(hv);
        if (predicted == truth) continue;
        hdc::add_bipolar(am_.fp().row(truth), hv, config_.learning_rate);
        hdc::add_bipolar(am_.fp().row(predicted), hv, -config_.learning_rate);
      }
    }
    am_.binarize();
  }
  am_.freeze();
}

common::BitVector BasicHdc::encode(std::span<const float> features) const {
  return encoder_.encode(features);
}

std::vector<common::BitVector> BasicHdc::encode_batch(
    const common::Matrix& features) const {
  return encoder_.encode_batch(features);
}

hdc::EncodedDataset BasicHdc::encode_dataset(
    const data::Dataset& dataset) const {
  return encoder_.encode_dataset(dataset);
}

void BasicHdc::save_state(std::ostream& out) const {
  common::write_matrix(out, am_.fp());
  common::write_bit_matrix(out, am_.binary());
}

void BasicHdc::load_state(std::istream& in) {
  am_ = class_am(common::read_matrix(in, num_classes_, config_.dim));
  am_.restore_binary(common::read_bit_matrix(in, num_classes_, config_.dim));
  am_.freeze();
}

}  // namespace memhd::baselines

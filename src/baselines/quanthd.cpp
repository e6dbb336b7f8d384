#include "src/baselines/quanthd.hpp"

#include "src/common/io.hpp"
#include "src/core/qat_trainer.hpp"

namespace memhd::baselines {

namespace {
hdc::IdLevelEncoderConfig make_encoder_config(std::size_t num_features,
                                              const BaselineConfig& cfg) {
  hdc::IdLevelEncoderConfig ec;
  ec.num_features = num_features;
  ec.dim = cfg.dim;
  ec.num_levels = cfg.num_levels;
  ec.seed = cfg.seed ^ 0x0AA7DULL;
  return ec;
}
}  // namespace

QuantHd::QuantHd(std::size_t num_features, std::size_t num_classes,
                 const BaselineConfig& config)
    : BaselineModel(config, num_features, num_classes),
      encoder_(make_encoder_config(num_features, config)),
      am_(class_am(common::Matrix(num_classes, config.dim, 0.0f))) {
  am_.freeze();
}

void QuantHd::fit(const data::Dataset& train) {
  const auto encoded = encoder_.encode_dataset(train);
  am_ = single_pass_am(encoded, num_classes_);
  // Quantization-aware iterative learning (the defining QuantHD property):
  // MEMHD's loop at one centroid per class, in sample order, without
  // MEMHD's per-centroid normalization or best-epoch restore.
  core::QatConfig qc;
  qc.epochs = config_.epochs;
  qc.learning_rate = config_.learning_rate;
  qc.normalization = core::NormalizationMode::kNone;
  qc.shuffle = false;
  qc.keep_best = false;
  core::train_qat(am_, encoded, /*eval=*/nullptr, qc);
  am_.freeze();
}

common::BitVector QuantHd::encode(std::span<const float> features) const {
  return encoder_.encode(features);
}

hdc::EncodedDataset QuantHd::encode_dataset(
    const data::Dataset& dataset) const {
  return encoder_.encode_dataset(dataset);
}

void QuantHd::save_state(std::ostream& out) const {
  common::write_matrix(out, am_.fp());
  common::write_bit_matrix(out, am_.binary());
}

void QuantHd::load_state(std::istream& in) {
  am_ = class_am(common::read_matrix(in, num_classes_, config_.dim));
  am_.restore_binary(common::read_bit_matrix(in, num_classes_, config_.dim));
  am_.freeze();
}

}  // namespace memhd::baselines

// QuantHD baseline (Imani et al., TCAD 2019; Table I row 2): ID-Level
// encoding + one class vector per class + quantization-aware iterative
// learning — predictions during training come from the *binary* AM while
// updates land on the FP shadow, which is re-binarized every epoch. MEMHD
// §III-C generalizes exactly this scheme to multiple centroids per class,
// so QuantHD is core::train_qat on a one-column-per-class
// core::MultiCentroidAM (baselines::class_am) with no normalization, no
// shuffling and no best-epoch restore. The AM is frozen at construction,
// after fit() and after load_state(); its frozen plane is the model's
// plane().
#pragma once

#include "src/baselines/baseline.hpp"
#include "src/core/multi_centroid_am.hpp"
#include "src/hdc/id_level_encoder.hpp"

namespace memhd::baselines {

class QuantHd final : public BaselineModel {
 public:
  QuantHd(std::size_t num_features, std::size_t num_classes,
          const BaselineConfig& config);

  core::ModelKind kind() const override { return core::ModelKind::kQuantHD; }

  void fit(const data::Dataset& train) override;

  common::BitVector encode(std::span<const float> features) const override;
  hdc::EncodedDataset encode_dataset(
      const data::Dataset& dataset) const override;

  /// The class AM's frozen plane.
  const search::CentroidPlane& plane() const override { return *am_.plane(); }

  void save_state(std::ostream& out) const override;
  void load_state(std::istream& in) override;

  const core::MultiCentroidAM& am() const { return am_; }
  const hdc::IdLevelEncoder& encoder() const { return encoder_; }

 private:
  hdc::IdLevelEncoder encoder_;
  core::MultiCentroidAM am_;
};

}  // namespace memhd::baselines

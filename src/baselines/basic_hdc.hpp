// BasicHDC (Table I): random-projection encoding + one class vector per
// class, single-pass training. Directly IMC-mappable (both its encoding and
// associative search are MVMs), which is why the paper uses it as the IMC
// baseline in Table II and Fig. 7. The class vectors are a
// core::MultiCentroidAM with one column per class (baselines::class_am),
// frozen at construction, after fit() and after load_state(); its frozen
// plane is the model's plane().
#pragma once

#include "src/baselines/baseline.hpp"
#include "src/core/multi_centroid_am.hpp"
#include "src/hdc/projection_encoder.hpp"

namespace memhd::baselines {

class BasicHdc final : public BaselineModel {
 public:
  BasicHdc(std::size_t num_features, std::size_t num_classes,
           const BaselineConfig& config);

  core::ModelKind kind() const override { return core::ModelKind::kBasicHDC; }

  /// Single-pass bundling; with config.epochs > 0, FP iterative refinement
  /// (Eq. 2, predictions from the FP shadow) before the final binarize.
  void fit(const data::Dataset& train) override;

  common::BitVector encode(std::span<const float> features) const override;
  /// Sample-blocked projection matmul (bit-identical to per-row encode()).
  std::vector<common::BitVector> encode_batch(
      const common::Matrix& features) const override;
  hdc::EncodedDataset encode_dataset(
      const data::Dataset& dataset) const override;

  /// The class AM's frozen plane.
  const search::CentroidPlane& plane() const override { return *am_.plane(); }

  void save_state(std::ostream& out) const override;
  void load_state(std::istream& in) override;

  const core::MultiCentroidAM& am() const { return am_; }
  const hdc::ProjectionEncoder& encoder() const { return encoder_; }

 private:
  hdc::ProjectionEncoder encoder_;
  core::MultiCentroidAM am_;
};

}  // namespace memhd::baselines

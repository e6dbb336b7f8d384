// BasicHDC (Table I): random-projection encoding + one class vector per
// class, single-pass training. Directly IMC-mappable (both its encoding and
// associative search are MVMs), which is why the paper uses it as the IMC
// baseline in Table II and Fig. 7. The class vectors are a
// core::MultiCentroidAM with one column per class (baselines::class_am),
// frozen after fit() and load_state() so every search reads its packed
// plane.
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

  std::vector<data::Label> predict_batch(
      std::span<const common::BitVector> queries) const override;
  std::size_t score_rows() const override { return num_classes_; }
  void scores_batch(std::span<const common::BitVector> queries,
                    std::vector<std::uint32_t>& out) const override;

  void save_state(std::ostream& out) const override;
  void load_state(std::istream& in) override;

  const core::MultiCentroidAM& am() const { return am_; }
  const hdc::ProjectionEncoder& encoder() const { return encoder_; }

 private:
  hdc::ProjectionEncoder encoder_;
  core::MultiCentroidAM am_;
};

}  // namespace memhd::baselines

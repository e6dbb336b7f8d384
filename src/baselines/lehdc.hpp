// LeHDC baseline (Duan et al., DAC 2022; Table I row 3): the
// state-of-the-art-accuracy binary HDC model. The associative memory is
// re-cast as a Binary Neural Network layer and trained with gradients:
//
//   logits  = (1/sqrt(D)) * sign(W) . bipolar(h)
//   loss    = softmax cross-entropy
//   update  = SGD + momentum + weight decay on the latent FP weights W,
//             gradients passed through sign() by the straight-through
//             estimator with the usual |w| <= 1 clip.
//
// Deployment binarizes W once; inference is the same binary MVM dot search
// as every other baseline, through a search::CentroidPlane with bipolar
// ranking (2 * dot - popcount(row), which orders classes exactly as the
// bipolar dot sign(W) . bipolar(h) does). The binary weights live only in
// that plane, rebuilt whenever they settle: construction, fit, load_state.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "src/baselines/baseline.hpp"
#include "src/common/matrix.hpp"
#include "src/hdc/id_level_encoder.hpp"

namespace memhd::baselines {

struct LeHdcHyperParams {
  float learning_rate = 0.01f;
  float momentum = 0.9f;
  float weight_decay = 1e-4f;
  std::size_t batch_size = 32;
};

class LeHdc final : public BaselineModel {
 public:
  LeHdc(std::size_t num_features, std::size_t num_classes,
        const BaselineConfig& config);

  core::ModelKind kind() const override { return core::ModelKind::kLeHDC; }

  void fit(const data::Dataset& train) override;

  common::BitVector encode(std::span<const float> features) const override;
  hdc::EncodedDataset encode_dataset(
      const data::Dataset& dataset) const override;

  /// The k binary class rows, one per class, ranked bipolar.
  const search::CentroidPlane& plane() const override { return *plane_; }

  void save_state(std::ostream& out) const override;
  void load_state(std::istream& in) override;

  LeHdcHyperParams& hyper() { return hyper_; }
  /// Deployed binary class matrix (k x D), valid after fit().
  const common::BitMatrix& binary_weights() const {
    return plane_->matrix();
  }
  /// Latent FP weights W (clip box [-1, 1]); the training state.
  const common::Matrix& latent_weights() const { return weights_; }

 private:
  /// Deploys `binary` (k x D, sign(weights_)) as plane_.
  void freeze(const common::BitMatrix& binary);

  hdc::IdLevelEncoder encoder_;
  LeHdcHyperParams hyper_;
  common::Matrix weights_;  // latent FP weights, clipped to [-1, 1]
  std::shared_ptr<const search::CentroidPlane> plane_;
};

}  // namespace memhd::baselines

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
// as every other baseline, through a packed search plane (plus the row
// popcounts of the ranking correction) built whenever the binary weights
// settle: construction, fit, load_state.
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

  /// Batched inference over pre-encoded queries: AND-popcount MVM over the
  /// packed plane, ranked by the corrected score 2*dot - popcount(row),
  /// which orders classes exactly as the bipolar dot sign(W) . bipolar(h)
  /// does (first maximum wins).
  std::vector<data::Label> predict_batch(
      std::span<const common::BitVector> queries) const override;

  std::size_t score_rows() const override { return num_classes_; }
  /// Raw AND-popcount MVM scores (the row-popcount correction of
  /// predict_batch is a ranking refinement on top of these, not part of the
  /// raw table).
  void scores_batch(std::span<const common::BitVector> queries,
                    std::vector<std::uint32_t>& out) const override;

  void save_state(std::ostream& out) const override;
  void load_state(std::istream& in) override;

  LeHdcHyperParams& hyper() { return hyper_; }
  /// Deployed binary class matrix (k x D), valid after fit().
  const common::BitMatrix& binary_weights() const { return binary_; }
  /// Latent FP weights W (clip box [-1, 1]); the training state.
  const common::Matrix& latent_weights() const { return weights_; }

 private:
  /// Packs binary_ into plane_ and recounts row_pc_; called wherever
  /// binary_ settles.
  void freeze();

  hdc::IdLevelEncoder encoder_;
  LeHdcHyperParams hyper_;
  common::Matrix weights_;     // latent FP weights, clipped to [-1, 1]
  common::BitMatrix binary_;   // sign(weights), refreshed during training
  std::shared_ptr<const common::BatchScorer> plane_;  // packed binary_
  std::vector<std::int64_t> row_pc_;  // popcount of each row of binary_
};

}  // namespace memhd::baselines

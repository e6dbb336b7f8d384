// SearcHD baseline (Imani et al., TCAD 2019; Table I row 1): the
// memory-centric multi-model HDC scheme — the closest prior structure to
// MEMHD's multi-centroid AM.
//
// Each class keeps N binary class vectors (the paper fixes N = 64 in its
// evaluation). Training is single-pass and fully binary ("stochastic
// training"): a sample is routed to the most similar of its own class's N
// vectors, and that vector stochastically copies the sample's bits — every
// disagreeing bit flips toward the sample with probability `flip_rate`.
// There is no FP shadow and no iterative refinement; that is exactly the
// accuracy gap MEMHD's clustering + QAT closes.
//
// Inference: argmax of binary dot similarity over all k*N vectors, row r
// owned by class r / N. The vectors live only in the model's
// search::CentroidPlane, rebuilt whenever they settle (construction, fit,
// load_state).
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "src/baselines/baseline.hpp"
#include "src/hdc/encoded_dataset.hpp"
#include "src/hdc/id_level_encoder.hpp"

namespace memhd::baselines {

class SearcHd final : public BaselineModel {
 public:
  SearcHd(std::size_t num_features, std::size_t num_classes,
          const BaselineConfig& config);

  core::ModelKind kind() const override { return core::ModelKind::kSearcHD; }

  void fit(const data::Dataset& train) override;

  common::BitVector encode(std::span<const float> features) const override;
  hdc::EncodedDataset encode_dataset(
      const data::Dataset& dataset) const override;

  /// The k*N model vectors, row r owned by class r / N.
  const search::CentroidPlane& plane() const override { return *plane_; }

  void save_state(std::ostream& out) const override;
  void load_state(std::istream& in) override;

  std::size_t n_models() const { return config_.n_models; }
  /// Model vector j of class c (j in [0, N)).
  common::BitVector model_vector(std::size_t c, std::size_t j) const;
  const common::BitMatrix& models() const { return plane_->matrix(); }

  /// Probability that a disagreeing bit copies from the sample during an
  /// update. SearcHD's alpha; defaults to 0.25.
  void set_flip_rate(double rate) { flip_rate_ = rate; }

 private:
  std::size_t row_of(std::size_t c, std::size_t j) const;
  /// Deploys `models` ((k * N) x D) as plane_.
  void freeze(const common::BitMatrix& models);

  hdc::IdLevelEncoder encoder_;
  std::shared_ptr<const search::CentroidPlane> plane_;
  double flip_rate_ = 0.25;
};

}  // namespace memhd::baselines

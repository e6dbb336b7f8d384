// Common interface for the binary HDC baselines of Table I.
//
// Every baseline deploys a binary AM searched with MVM dot similarity
// (paper §IV-F: "all models employ MVM-based associative search for
// inference"), so they share one inference contract: encode features to a
// packed hypervector, then answer through the model's frozen
// search::CentroidPlane — its packed rows, its row -> class owner map and
// its ranking rule. The base class implements predict_batch, scores_batch
// and score_rows once over plane(); the models differ only in encoder
// family, AM structure (the plane's rows and owners) and training scheme,
// which is what the virtuals below capture. BasicHDC and QuantHD keep one
// class vector per class: a core::MultiCentroidAM with one column per class
// (class_am below), whose frozen plane they return. SearcHD (k*N rows,
// row r owned by class r / N) and LeHDC (k rows, bipolar ranking) keep
// their bits only in a plane they build whenever the bits settle
// (construction, fit, load_state). The one-query predict() is a one-row
// call of predict_batch, so the two cannot disagree.
#pragma once

#include <iosfwd>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "src/common/bit_vector.hpp"
#include "src/common/matrix.hpp"
#include "src/core/memory_model.hpp"
#include "src/core/multi_centroid_am.hpp"
#include "src/data/dataset.hpp"
#include "src/hdc/encoded_dataset.hpp"
#include "src/search/centroid_plane.hpp"

namespace memhd::baselines {

/// Hyperparameters shared by all baselines. Fields irrelevant to a given
/// model are ignored (e.g. n_models for QuantHD).
struct BaselineConfig {
  std::size_t dim = 1024;          // D
  std::size_t epochs = 20;         // iterative baselines
  float learning_rate = 0.05f;
  std::size_t num_levels = 256;    // L, ID-Level encoders
  std::size_t n_models = 64;       // N, SearcHD
  std::uint64_t seed = 1;
  /// Projection-based baselines (BasicHDC) only: resident vs rematerialized
  /// encoder plane. Never changes outputs; ID-Level encoders ignore it.
  hdc::BasisKind basis = hdc::BasisKind::kMaterialized;
  /// Stream the projection plane derives from; kLegacySequential is set by
  /// the loader for pre-seam containers (see src/hdc/basis_provider.hpp).
  hdc::BasisDerivation basis_derivation = hdc::BasisDerivation::kCounterStream;
};

class BaselineModel {
 public:
  virtual ~BaselineModel() = default;

  const char* name() const { return core::model_name(kind()); }
  virtual core::ModelKind kind() const = 0;

  const BaselineConfig& config() const { return config_; }
  std::size_t dim() const { return config_.dim; }
  std::size_t num_features() const { return num_features_; }
  std::size_t num_classes() const { return num_classes_; }

  /// Trains on `train`. Implementations encode internally.
  virtual void fit(const data::Dataset& train) = 0;

  // --- Inference: encode, then batched MVM search -----------------------

  /// Encodes one feature vector with this model's encoder.
  virtual common::BitVector encode(std::span<const float> features) const = 0;

  /// Encodes every row of a feature matrix (cols == num_features()). The
  /// default loops encode(); projection-based models override with the
  /// sample-blocked matmul path.
  virtual std::vector<common::BitVector> encode_batch(
      const common::Matrix& features) const;

  /// Encodes a whole dataset (features + labels).
  virtual hdc::EncodedDataset encode_dataset(
      const data::Dataset& dataset) const = 0;

  /// The frozen search plane every inference below reads. Present from
  /// construction (over the untrained rows) and rebuilt by fit() and
  /// load_state().
  virtual const search::CentroidPlane& plane() const = 0;

  /// Per-query inference on a pre-encoded query (valid after fit()): a
  /// one-row call of predict_batch.
  data::Label predict(const common::BitVector& query) const;

  /// Batched inference over pre-encoded queries.
  std::vector<data::Label> predict_batch(
      std::span<const common::BitVector> queries) const {
    return plane().predict(queries);
  }

  /// Number of stored rows the associative search scores a query against:
  /// k for the single-centroid models, k*N for SearcHD.
  std::size_t score_rows() const { return plane().rows(); }

  /// Raw batched MVM scores against every stored row:
  /// out[q * score_rows() + r] = popcount(row_r AND query_q).
  void scores_batch(std::span<const common::BitVector> queries,
                    std::vector<std::uint32_t>& out) const {
    plane().scores(queries, out);
  }

  /// Accuracy on `test` using the deployed binary model (encode_dataset +
  /// predict_batch; shared by every baseline).
  double evaluate(const data::Dataset& test) const;

  /// Table I memory breakdown for this instance.
  core::MemoryBreakdown memory() const;

  // --- Persistence ------------------------------------------------------

  /// Writes / restores the trained state (the tensors fit() produced; the
  /// encoder is deterministic in the config and is NOT stored). The
  /// api::save container frames these with the config + shape header, so a
  /// loader first reconstructs the model via make_baseline and then calls
  /// load_state on the stream positioned at the payload.
  virtual void save_state(std::ostream& out) const = 0;
  virtual void load_state(std::istream& in) = 0;

 protected:
  BaselineModel(const BaselineConfig& config, std::size_t num_features,
                std::size_t num_classes);

  BaselineConfig config_;
  std::size_t num_features_ = 0;
  std::size_t num_classes_ = 0;
};

/// The single-centroid AM of BasicHDC and QuantHD (paper §II-C) as the
/// K = 1 case of the multi-centroid AM: one column per class, slot c owned
/// by class c, FP shadow row c = row c of `class_vectors`. The binary plane
/// is left all-zero; binarize() or restore_binary() fills it.
core::MultiCentroidAM class_am(const common::Matrix& class_vectors);

/// Single-pass training (C_k = sum of the bipolar samples of class k), then
/// 1-bit quantization against the global FP mean.
core::MultiCentroidAM single_pass_am(const hdc::EncodedDataset& train,
                                     std::size_t num_classes);

/// Owner map of `num_classes` classes holding `per_class` consecutive rows
/// each: row r belongs to class r / per_class.
std::vector<data::Label> block_owners(std::size_t num_classes,
                                      std::size_t per_class);

/// Factory over core::ModelKind (kMemhd is not a baseline and is rejected).
std::unique_ptr<BaselineModel> make_baseline(core::ModelKind kind,
                                             std::size_t num_features,
                                             std::size_t num_classes,
                                             const BaselineConfig& config);

}  // namespace memhd::baselines

// End-to-end MEMHD model: projection encoder + multi-centroid AM +
// clustering-based initialization + quantization-aware training.
//
// This is the public API a downstream user consumes:
//
//   core::MemhdConfig cfg;            // D x C, R, epochs, learning rate...
//   core::MemhdModel model(cfg, train.num_features(), train.num_classes());
//   auto report = model.fit(train, &test);
//   double acc = model.evaluate(test);
//   model.partial_fit(samples, labels);  // online learning (one row = one
//                                        // sample; only touched rows move)
//   model.save("model.memhd");
#pragma once

#include <iosfwd>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "src/core/config.hpp"
#include "src/core/initializer.hpp"
#include "src/core/multi_centroid_am.hpp"
#include "src/core/partial_fit.hpp"
#include "src/core/qat_trainer.hpp"
#include "src/data/dataset.hpp"
#include "src/hdc/projection_encoder.hpp"
#include "src/search/cascade.hpp"
#include "src/search/centroid_plane.hpp"

namespace memhd::core {

/// Everything fit() learned, for experiment logging.
struct FitReport {
  InitializerReport init;
  QatTrace training;
  /// Binary-AM accuracy on the training set right after initialization
  /// (the "epoch 0" point of the paper's Fig. 5 curves).
  double post_init_train_accuracy = 0.0;
  double post_init_eval_accuracy = 0.0;
};

class MemhdModel {
 public:
  /// Builds the encoder immediately (deterministic from cfg.seed); the AM
  /// is created by fit() / fit_encoded().
  MemhdModel(const MemhdConfig& cfg, std::size_t num_features,
             std::size_t num_classes);

  const MemhdConfig& config() const { return cfg_; }
  std::size_t num_features() const { return encoder_->num_features(); }
  std::size_t num_classes() const { return num_classes_; }

  const hdc::ProjectionEncoder& encoder() const { return *encoder_; }
  /// Valid after fit()/fit_encoded(). A fitted model's AM is always frozen
  /// (MultiCentroidAM::plane() is non-null, with the cascade inside when
  /// cfg.cascade is enabled): every mutation below ends by re-freezing it.
  const MultiCentroidAM& am() const;

  /// The frozen plane's cascade, or nullptr when cfg.cascade is disabled /
  /// the model is unfitted. Rebuilt with the plane by every AM mutation
  /// (fit, partial_fit, adapt, load), so it always searches the deployed
  /// binary plane.
  const search::CascadeSearcher* cascade() const {
    return cascade_ptr().get();
  }
  /// Shared ownership of the same searcher.
  std::shared_ptr<const search::CascadeSearcher> cascade_ptr() const {
    return am_ && am_->frozen() ? am_->plane()->cascade_ptr() : nullptr;
  }

  /// Encodes, initializes, and trains. `eval` (optional) drives per-epoch
  /// accuracy tracking and best-snapshot selection.
  FitReport fit(const data::Dataset& train, const data::Dataset* eval = nullptr);

  /// Same, on pre-encoded data (benches reuse encodings across C sweeps).
  FitReport fit_encoded(const hdc::EncodedDataset& train,
                        const hdc::EncodedDataset* eval = nullptr);

  /// Predicts the class of one raw feature vector: a one-row predict_batch.
  data::Label predict(std::span<const float> features) const;

  /// Batched inference over a feature matrix (one row per sample): blocked
  /// batch encode followed by the blocked associative-search kernel.
  /// Bit-identical to predict() per row.
  std::vector<data::Label> predict_batch(const common::Matrix& features) const;

  /// Continued training on fresh data after deployment: `epochs` QAT epochs
  /// starting from the current AM state.
  QatTrace adapt(const data::Dataset& data, std::size_t epochs);

  /// One incremental-training pass over a labeled batch (the online
  /// subsystem's workhorse; src/online/README.md). A one-row batch is the
  /// single-sample online update.
  ///
  ///   * Mispredict-driven bundling (OnlineHD-style): each sample is scored
  ///     against the deployed binary AM; on a miss the encoded query is
  ///     added (+learning_rate) to the true class's best centroid counter
  ///     and subtracted from the wrongly-winning one.
  ///   * Extended learning (XL-HD-style): labels beyond num_classes() grow
  ///     the AM first — each appended class gets the deployed AM's average
  ///     centroids-per-class worth of fresh slots, initialized by bundling
  ///     that class's encoded samples round-robin across them.
  ///   * Only the touched FP rows are renormalized and re-binarized (one
  ///     refresh at the end, current global-mean threshold); every other
  ///     row of the binary AM is bit-identical to before the call, so
  ///     copy-on-write versions share the untouched plane for real.
  ///
  /// `samples` is one row per sample (cols == num_features()); labels.size()
  /// must equal samples.rows(). Call repeatedly for multiple passes. Throws
  /// std::invalid_argument, before changing anything, for a label at or
  /// above data::kMaxClasses.
  PartialFitReport partial_fit(const common::Matrix& samples,
                               std::span<const data::Label> labels);
  /// Accuracy over a raw dataset.
  double evaluate(const data::Dataset& test) const;
  /// Accuracy over pre-encoded data.
  double evaluate_encoded(const hdc::EncodedDataset& test) const;

  /// Total deployed memory in bits: encoder f*D + AM C*D (Table I).
  std::size_t memory_bits() const;

  /// Binary model file round-trip. Throws std::runtime_error on I/O or
  /// format errors.
  void save(const std::string& path) const;
  static MemhdModel load(const std::string& path);

 private:
  friend MemhdModel load_model(std::istream& in);

  /// partial_fit's extended-learning step: widens the class space to
  /// `new_num_classes`, appending bundled centroids for each new class and
  /// recording the new slots in `touched`.
  void extend_classes(std::size_t new_num_classes,
                      std::span<const common::BitVector> encoded,
                      std::span<const data::Label> labels,
                      std::vector<std::size_t>& touched,
                      PartialFitReport& report);

  /// Freezes am_'s search plane, with the cascade when enabled. Called
  /// after every mutation of am_, so readers never see an unfrozen AM.
  void refresh_search();

  MemhdConfig cfg_;
  std::size_t num_classes_ = 0;
  /// Shared between copies (immutable after construction; see copy ctor).
  std::shared_ptr<const hdc::ProjectionEncoder> encoder_;
  /// Copies are cheap where it matters: the AM (FP shadow + binary matrix)
  /// is deep-copied, while the immutable projection encoder — the dominant
  /// f x D plane — and the AM's frozen search plane (cascade included) are
  /// shared_ptrs, so copies SHARE them. This is the copy-on-write building
  /// block online::ModelStore versions are made of: partial_fit on a copy
  /// never disturbs the original (a copy that changes its AM drops only its
  /// own plane pointer), and the untouched planes are paid for once.
  std::optional<MultiCentroidAM> am_;  // empty until fit / load
};

}  // namespace memhd::core

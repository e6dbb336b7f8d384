// Quantization-aware iterative learning for the multi-centroid AM
// (paper §III-C, the four-step loop of Fig. 2-(c)):
//
//   1. Dot similarity of each training hypervector against the *binary* AM.
//   2. On misprediction, pick update targets:
//        - the mispredicted slot = argmax over all centroids (Eq. 4);
//        - the true-class slot  = argmax within the true class (Eq. 5).
//   3. FP update: C_true_slot += alpha * H, C_pred_slot -= alpha * H (Eq. 6).
//   4. Per-centroid normalization of the FP AM, then re-binarization.
//
// Step 4 runs once per epoch (the QuantHD cadence), so step 1 reads a binary
// AM that is constant across the epoch and scores it as one batch. The
// per-sample online update is MemhdModel::partial_fit, which re-quantizes
// only the two touched rows after each miss.
#pragma once

#include <cstdint>
#include <vector>

#include "src/core/config.hpp"
#include "src/core/multi_centroid_am.hpp"
#include "src/hdc/encoded_dataset.hpp"

namespace memhd::core {

struct QatConfig {
  std::size_t epochs = 100;
  float learning_rate = 0.05f;
  NormalizationMode normalization = NormalizationMode::kZScore;
  /// Shuffle sample order every epoch.
  bool shuffle = true;
  /// Keep (and restore) the binary AM snapshot with the best eval accuracy;
  /// requires an eval set to be passed to train_qat.
  bool keep_best = true;
  std::uint64_t seed = 1;
};

struct QatTrace {
  /// Training-set accuracy observed while streaming each epoch (before that
  /// epoch's binarization).
  std::vector<double> train_accuracy;
  /// Accuracy of the binary AM on the eval set after each epoch (empty when
  /// no eval set was given).
  std::vector<double> eval_accuracy;
  std::size_t epochs_run = 0;
  /// Epoch index (0-based) of the snapshot kept by keep_best.
  std::size_t best_epoch = 0;
  double best_eval_accuracy = 0.0;
  /// Number of FP updates applied (two target writes per misprediction).
  std::size_t updates = 0;
};

/// Trains `am` in place. `eval` may be null (then keep_best is ignored and
/// eval_accuracy stays empty). Returns the per-epoch trace used by the
/// Fig-5 convergence bench.
QatTrace train_qat(MultiCentroidAM& am, const hdc::EncodedDataset& train,
                   const hdc::EncodedDataset* eval, const QatConfig& cfg);

}  // namespace memhd::core

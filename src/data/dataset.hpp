// Labeled dataset container shared by every experiment.
//
// Features are dense row-major floats (one row per sample); labels are
// uint16 class ids in [0, num_classes). Train/test splits of the paper's
// datasets are represented as two Dataset values.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/matrix.hpp"

namespace memhd::data {

using Label = std::uint16_t;
/// Most classes a model may have: ids stay below 0xFFFF, the
/// multi-centroid AM's unassigned-slot sentinel.
inline constexpr std::size_t kMaxClasses = 0xFFFF;

class Dataset {
 public:
  Dataset() = default;
  Dataset(std::string name, common::Matrix features, std::vector<Label> labels,
          std::size_t num_classes);

  const std::string& name() const { return name_; }
  std::size_t size() const { return labels_.size(); }
  std::size_t num_features() const { return features_.cols(); }
  std::size_t num_classes() const { return num_classes_; }
  bool empty() const { return labels_.empty(); }

  const common::Matrix& features() const { return features_; }
  common::Matrix& features() { return features_; }
  std::span<const float> sample(std::size_t i) const { return features_.row(i); }
  Label label(std::size_t i) const;
  const std::vector<Label>& labels() const { return labels_; }

  /// Samples per class.
  std::vector<std::size_t> class_counts() const;
  /// Indices of all samples of a given class, in dataset order.
  std::vector<std::size_t> indices_of_class(Label c) const;

  /// Copies the selected rows into a new dataset (same class space).
  Dataset subset(const std::vector<std::size_t>& indices,
                 const std::string& new_name) const;

  /// Random split preserving nothing in particular; `first_fraction` of the
  /// shuffled samples go to the first output.
  std::pair<Dataset, Dataset> random_split(double first_fraction,
                                           common::Rng& rng) const;

  /// Per-class stratified split: `first_fraction` of each class's samples go
  /// to the first output (used for train/validation).
  std::pair<Dataset, Dataset> stratified_split(double first_fraction,
                                               common::Rng& rng) const;

  /// In-place row shuffle.
  void shuffle(common::Rng& rng);

  /// One-line summary for logs.
  std::string summary() const;

 private:
  std::string name_;
  common::Matrix features_;
  std::vector<Label> labels_;
  std::size_t num_classes_ = 0;
};

/// A train/test pair as the experiments consume it.
struct TrainTestSplit {
  Dataset train;
  Dataset test;
};

}  // namespace memhd::data

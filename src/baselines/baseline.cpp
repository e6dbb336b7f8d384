#include "src/baselines/baseline.hpp"

#include <stdexcept>

#include "src/baselines/basic_hdc.hpp"
#include "src/baselines/lehdc.hpp"
#include "src/baselines/quanthd.hpp"
#include "src/baselines/searchd.hpp"
#include "src/common/assert.hpp"
#include "src/common/stats.hpp"
#include "src/hdc/bundling.hpp"

namespace memhd::baselines {

BaselineModel::BaselineModel(const BaselineConfig& config,
                             std::size_t num_features,
                             std::size_t num_classes)
    : config_(config), num_features_(num_features), num_classes_(num_classes) {
  MEMHD_EXPECTS(num_features >= 1);
  MEMHD_EXPECTS(num_classes >= 2);
  MEMHD_EXPECTS(config.dim >= 1);
}

std::vector<common::BitVector> BaselineModel::encode_batch(
    const common::Matrix& features) const {
  MEMHD_EXPECTS(features.cols() == num_features_);
  std::vector<common::BitVector> out;
  out.reserve(features.rows());
  for (std::size_t i = 0; i < features.rows(); ++i)
    out.push_back(encode(features.row(i)));
  return out;
}

data::Label BaselineModel::predict(const common::BitVector& query) const {
  return predict_batch(std::span<const common::BitVector>(&query, 1))[0];
}

double BaselineModel::evaluate(const data::Dataset& test) const {
  if (test.empty()) return 0.0;
  const auto encoded = encode_dataset(test);
  return common::accuracy(encoded.labels, predict_batch(encoded.hypervectors));
}

core::MemoryBreakdown BaselineModel::memory() const {
  core::MemoryParams p;
  p.num_features = num_features_;
  p.dim = config_.dim;
  p.num_classes = num_classes_;
  p.num_levels = config_.num_levels;
  p.n_models = config_.n_models;
  p.basis = config_.basis;
  return core::memory_requirement(kind(), p);
}

core::MultiCentroidAM class_am(const common::Matrix& class_vectors) {
  const std::size_t k = class_vectors.rows();
  core::MultiCentroidAM am(k, class_vectors.cols(), k);
  for (std::size_t c = 0; c < k; ++c)
    am.set_centroid(c, static_cast<data::Label>(c), class_vectors.row(c));
  return am;
}

core::MultiCentroidAM single_pass_am(const hdc::EncodedDataset& train,
                                     std::size_t num_classes) {
  common::Matrix sums(num_classes, train.dim, 0.0f);
  for (std::size_t i = 0; i < train.size(); ++i)
    hdc::add_bipolar(sums.row(train.labels[i]), train.hypervectors[i], 1.0f);
  auto am = class_am(sums);
  am.binarize();
  return am;
}

std::vector<data::Label> block_owners(std::size_t num_classes,
                                      std::size_t per_class) {
  std::vector<data::Label> owners(num_classes * per_class);
  for (std::size_t r = 0; r < owners.size(); ++r)
    owners[r] = static_cast<data::Label>(r / per_class);
  return owners;
}

std::unique_ptr<BaselineModel> make_baseline(core::ModelKind kind,
                                             std::size_t num_features,
                                             std::size_t num_classes,
                                             const BaselineConfig& config) {
  switch (kind) {
    case core::ModelKind::kBasicHDC:
      return std::make_unique<BasicHdc>(num_features, num_classes, config);
    case core::ModelKind::kQuantHD:
      return std::make_unique<QuantHd>(num_features, num_classes, config);
    case core::ModelKind::kSearcHD:
      return std::make_unique<SearcHd>(num_features, num_classes, config);
    case core::ModelKind::kLeHDC:
      return std::make_unique<LeHdc>(num_features, num_classes, config);
    case core::ModelKind::kMemhd:
      throw std::invalid_argument(
          "make_baseline: MEMHD is the core model, not a baseline; use "
          "core::MemhdModel");
  }
  throw std::invalid_argument("make_baseline: unknown ModelKind");
}

}  // namespace memhd::baselines

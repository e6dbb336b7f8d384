#include "src/api/classifier.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "src/common/assert.hpp"
#include "src/common/stats.hpp"

namespace memhd::api {

core::PartialFitReport Classifier::partial_fit(
    const common::Matrix& /*samples*/, std::span<const data::Label> /*labels*/) {
  throw std::logic_error(std::string(name()) +
                         ": model does not support partial_fit");
}

std::unique_ptr<Classifier> Classifier::clone() const {
  MEMHD_EXPECTS(fitted());
  std::stringstream buffer;
  api::save(*this, buffer);
  return api::load(buffer);
}

std::unique_ptr<Classifier::PredictContext> Classifier::make_predict_context()
    const {
  return nullptr;  // no reusable inference state in the generic contract
}

void Classifier::predict_batch_into(const common::Matrix& features,
                                    std::span<data::Label> out,
                                    PredictContext* /*context*/) const {
  MEMHD_EXPECTS(out.size() == features.rows());
  const auto labels = predict_batch(features);
  // A misbehaving predict_batch override must fail the contract here, not
  // write past the caller's buffer.
  MEMHD_EXPECTS(labels.size() == out.size());
  std::copy(labels.begin(), labels.end(), out.begin());
}

double Classifier::evaluate(const data::Dataset& test) const {
  if (test.empty()) return 0.0;
  return common::accuracy(test.labels(), predict_batch(test.features()));
}

void Classifier::save(const std::string& path) const {
  api::save(*this, path);
}

}  // namespace memhd::api

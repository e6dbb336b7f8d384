#include "src/hdc/bundling.hpp"

#include <algorithm>

#include "src/common/assert.hpp"

namespace memhd::hdc {

BundleAccumulator::BundleAccumulator(std::size_t dim)
    : dim_(dim), counts_(dim, 0.0) {
  MEMHD_EXPECTS(dim >= 1);
}

void BundleAccumulator::add(const common::BitVector& hv, double weight) {
  MEMHD_EXPECTS(hv.size() == dim_);
  for (std::size_t j = 0; j < dim_; ++j)
    if (hv.get(j)) counts_[j] += weight;
  total_weight_ += weight;
}

common::BitVector BundleAccumulator::majority() const {
  return threshold(total_weight_ / 2.0);
}

common::BitVector BundleAccumulator::threshold(double cutoff) const {
  common::BitVector out(dim_);
  for (std::size_t j = 0; j < dim_; ++j)
    if (counts_[j] > cutoff) out.set(j, true);
  return out;
}

void BundleAccumulator::reset() {
  std::fill(counts_.begin(), counts_.end(), 0.0);
  total_weight_ = 0.0;
}

void add_bipolar(std::span<float> row, const common::BitVector& hv,
                 float weight) {
  MEMHD_EXPECTS(row.size() == hv.size());
  const std::uint64_t* words = hv.words();
  const std::size_t n = hv.size();
  for (std::size_t j = 0; j < n; ++j) {
    const bool bit = (words[j / common::kBitsPerWord] >>
                      (j % common::kBitsPerWord)) & 1ULL;
    row[j] += bit ? weight : -weight;
  }
}

common::BitVector bundle_majority(
    const std::vector<common::BitVector>& hvs) {
  MEMHD_EXPECTS(!hvs.empty());
  BundleAccumulator acc(hvs.front().size());
  for (const auto& hv : hvs) acc.add(hv);
  return acc.majority();
}

}  // namespace memhd::hdc

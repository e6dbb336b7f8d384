// Bundling (superposition) of binary hypervectors.
//
// Bundling is HDC's "addition": combine a set of hypervectors into one that
// is similar to all of them. For binary HVs that is bit-wise majority. The
// ID-Level encoder bundles f bound vectors per sample; single-pass AM
// training bundles all samples of a class. This header exposes the
// operation as a reusable, incrementally-updatable accumulator so library
// users can build their own encoders and class vectors. add_bipolar is the
// FP form every trainer shares: it adds one bipolar sample into a float
// class vector.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "src/common/bit_vector.hpp"

namespace memhd::hdc {

/// Incremental majority accumulator over fixed-dimension binary HVs.
class BundleAccumulator {
 public:
  explicit BundleAccumulator(std::size_t dim);

  std::size_t dim() const { return dim_; }
  /// Total weight accumulated so far.
  double weight() const { return total_weight_; }

  /// Adds `hv` with the given weight (negative weight subtracts).
  void add(const common::BitVector& hv, double weight = 1.0);

  /// Majority readout: bit j set iff the weighted count of set bits at j
  /// exceeds half the total weight. Ties break to 0 (strict majority).
  common::BitVector majority() const;

  /// Majority with an explicit threshold instead of weight/2.
  common::BitVector threshold(double cutoff) const;

  /// Per-dimension weighted counts (for inspection/tests).
  const std::vector<double>& counts() const { return counts_; }

  void reset();

 private:
  std::size_t dim_;
  std::vector<double> counts_;
  double total_weight_ = 0.0;
};

/// Adds the bipolar interpretation of hv (bit -> +/-1) times `weight` into a
/// float row. Shared by all trainers (including MEMHD's).
void add_bipolar(std::span<float> row, const common::BitVector& hv,
                 float weight);

/// One-shot majority bundle of a set of equal-dimension hypervectors.
/// Requires a non-empty set.
common::BitVector bundle_majority(const std::vector<common::BitVector>& hvs);

}  // namespace memhd::hdc

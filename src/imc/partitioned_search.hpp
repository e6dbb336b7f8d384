// Functional model of the *partitioned* associative search baseline
// [Karunaratne et al., Nature Electronics 2020] (paper Fig. 1-(b)).
//
// A D-dimensional, k-class AM is reshaped into P partitions: partition p
// holds dimensions [p*D/P, (p+1)*D/P) of every class vector in its own
// column group. A query is processed in P sequential passes; per-class
// scores are the sums of the per-partition partial popcounts.
//
// The defining property — asserted by tests/imc/test_partitioned_search.cpp
// — is that the result is *bit-identical* to the unpartitioned dot search:
// partitioning is a pure layout transform that trades arrays for cycles
// (see map_partitioned for the cost side). This module closes the loop by
// executing the transform functionally on ImcArray tiles, walking the same
// tile plan (imc::partition_plan) the cost model counts, so functional
// activations per query equal map_partitioned's cycles. The per-query
// scores()/predict() are one-row batch calls.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "src/common/bit_matrix.hpp"
#include "src/common/bit_vector.hpp"
#include "src/imc/imc_array.hpp"
#include "src/imc/mapping.hpp"
#include "src/imc/pipeline.hpp"

namespace memhd::imc {

/// A k-class binary AM deployed with P-way partitioning on physical arrays.
class PartitionedAm {
 public:
  /// `class_vectors`: k rows of D bits (one class vector per row).
  /// Requires 1 <= partitions <= D. The last partition absorbs the
  /// remainder when P does not divide D.
  PartitionedAm(const common::BitMatrix& class_vectors,
                std::size_t partitions, ArrayGeometry geometry);

  std::size_t num_classes() const { return num_classes_; }
  std::size_t dim() const { return dim_; }
  std::size_t partitions() const { return partitions_; }
  /// Physical arrays holding the reshaped structure.
  std::size_t num_arrays() const { return arrays_.num_arrays(); }

  /// Per-class dot scores of D-bit queries, out[q * num_classes() + c],
  /// computed in P sequential partition passes over the arrays. Per
  /// (partition, row tile) the query segment block is extracted once for
  /// the whole batch and each intersecting array is driven wordline-
  /// parallel with it (ImcArray::mvm_binary_batch); activations() advances
  /// by queries.size() per driven array.
  std::vector<std::uint32_t> scores_batch(
      std::span<const common::BitVector> queries);
  /// One-row call of scores_batch.
  std::vector<std::uint32_t> scores(const common::BitVector& query);

  /// First-wins argmax class of each query's scores.
  std::vector<std::size_t> predict_batch(
      std::span<const common::BitVector> queries);
  /// One-row call of predict_batch.
  std::size_t predict(const common::BitVector& query);

  /// Compute cycles consumed so far (one per array activation).
  std::size_t activations() const { return arrays_.activations(); }

 private:
  std::size_t num_classes_ = 0;
  std::size_t dim_ = 0;
  std::size_t partitions_ = 0;
  ArrayGeometry geometry_;
  std::vector<PartitionPass> plan_;  // one pass per partition
  /// The reshaped ceil(D/P) x (k * P) logical matrix on physical arrays;
  /// column p * k + c holds segment p of class c.
  TiledMatrix arrays_;
};

}  // namespace memhd::imc

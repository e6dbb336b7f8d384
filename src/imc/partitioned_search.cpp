#include "src/imc/partitioned_search.hpp"

#include <algorithm>

#include "src/common/assert.hpp"
#include "src/common/stats.hpp"

namespace memhd::imc {

namespace {
std::size_t ceil_div(std::size_t a, std::size_t b) { return (a + b - 1) / b; }

/// Programs the reshaped logical matrix tile by tile: wordline r of column
/// p * k + c holds bit p * ceil(D/P) + r of class c (zero past D).
TiledMatrix reshaped_tiles(const common::BitMatrix& class_vectors,
                           std::size_t partitions, ArrayGeometry geometry) {
  const std::size_t k = class_vectors.rows();
  const std::size_t dim = class_vectors.cols();
  const std::size_t rows_per_partition = ceil_div(dim, partitions);
  return TiledMatrix(
      rows_per_partition, k * partitions,
      [&](std::size_t r0, std::size_t r1, std::size_t c0, std::size_t c1) {
        common::BitMatrix sub(r1 - r0, c1 - c0);
        for (std::size_t c = c0; c < c1; ++c)
          for (std::size_t r = r0; r < r1; ++r) {
            const std::size_t j = (c / k) * rows_per_partition + r;
            if (j < dim && class_vectors.get(c % k, j))
              sub.set(r - r0, c - c0, true);
          }
        return sub;
      },
      geometry);
}
}  // namespace

PartitionedAm::PartitionedAm(const common::BitMatrix& class_vectors,
                             std::size_t partitions, ArrayGeometry geometry)
    : num_classes_(class_vectors.rows()),
      dim_(class_vectors.cols()),
      partitions_(partitions),
      geometry_(geometry),
      plan_(partition_plan(dim_, num_classes_, partitions, geometry)),
      arrays_(reshaped_tiles(class_vectors, partitions, geometry)) {}

std::vector<std::uint32_t> PartitionedAm::scores(
    const common::BitVector& query) {
  return scores_batch(std::span<const common::BitVector>(&query, 1));
}

std::vector<std::uint32_t> PartitionedAm::scores_batch(
    std::span<const common::BitVector> queries) {
  for (const auto& query : queries) MEMHD_EXPECTS(query.size() == dim_);
  std::vector<std::uint32_t> totals(queries.size() * num_classes_, 0);
  if (queries.empty()) return totals;

  // P sequential passes over the tile plan, wordline-parallel: pass p
  // extracts query segment p of the whole batch once per row tile it
  // reaches, drives every array of that row tile intersecting partition
  // p's column group with that block in one mvm_binary_batch call (one
  // activation per query per driven array), and accumulates the columns
  // belonging to partition p.
  for (std::size_t p = 0; p < partitions_; ++p) {
    const PartitionPass& pass = plan_[p];
    const std::size_t g0 = p * num_classes_;
    const std::size_t g1 = g0 + num_classes_;

    for (std::size_t rt = 0; rt < pass.row_tiles; ++rt) {
      const std::size_t r0 = rt * geometry_.rows;
      const std::size_t seg_len =
          std::min(geometry_.rows, pass.dim_end - pass.dim_begin - r0);

      common::BitMatrix block(queries.size(), geometry_.rows);
      for (std::size_t q = 0; q < queries.size(); ++q)
        common::copy_bit_range(queries[q].words(), pass.dim_begin + r0,
                               block.row(q), seg_len);

      for (std::size_t ct = pass.col_tile_begin; ct < pass.col_tile_end;
           ++ct) {
        const std::size_t c0 = ct * geometry_.cols;
        const std::size_t c1 =
            std::min(num_classes_ * partitions_, c0 + geometry_.cols);
        const auto sums = arrays_.tile(rt, ct).mvm_binary_batch(block);
        const std::size_t lo = std::max(c0, g0);
        const std::size_t hi = std::min(c1, g1);
        for (std::size_t q = 0; q < queries.size(); ++q) {
          std::uint32_t* qtotals = totals.data() + q * num_classes_;
          const std::uint32_t* qsums = sums.data() + q * geometry_.cols;
          for (std::size_t c = lo; c < hi; ++c)
            qtotals[c - g0] += qsums[c - c0];
        }
      }
    }
  }
  return totals;
}

std::size_t PartitionedAm::predict(const common::BitVector& query) {
  return predict_batch(std::span<const common::BitVector>(&query, 1))[0];
}

std::vector<std::size_t> PartitionedAm::predict_batch(
    std::span<const common::BitVector> queries) {
  const auto totals = scores_batch(queries);
  std::vector<std::size_t> out(queries.size());
  for (std::size_t q = 0; q < queries.size(); ++q)
    out[q] = common::argmax_u32(std::span<const std::uint32_t>(
        totals.data() + q * num_classes_, num_classes_));
  return out;
}

}  // namespace memhd::imc

#include "src/imc/partitioned_search.hpp"

#include <algorithm>

#include "src/common/assert.hpp"
#include "src/common/stats.hpp"

namespace memhd::imc {

namespace {
std::size_t ceil_div(std::size_t a, std::size_t b) { return (a + b - 1) / b; }
}  // namespace

PartitionedAm::PartitionedAm(const common::BitMatrix& class_vectors,
                             std::size_t partitions, ArrayGeometry geometry)
    : num_classes_(class_vectors.rows()),
      dim_(class_vectors.cols()),
      partitions_(partitions),
      rows_per_partition_(ceil_div(class_vectors.cols(), partitions)),
      geometry_(geometry) {
  MEMHD_EXPECTS(partitions >= 1);
  MEMHD_EXPECTS(partitions <= dim_);
  MEMHD_EXPECTS(num_classes_ >= 1);

  // Reshaped logical matrix: rows_per_partition_ x (k * P); column
  // (p * k + c) holds segment p of class c.
  logical_cols_ = num_classes_ * partitions_;
  common::BitMatrix reshaped(rows_per_partition_, logical_cols_);
  for (std::size_t c = 0; c < num_classes_; ++c) {
    for (std::size_t j = 0; j < dim_; ++j) {
      if (!class_vectors.get(c, j)) continue;
      const std::size_t p = j / rows_per_partition_;
      const std::size_t r = j % rows_per_partition_;
      reshaped.set(r, p * num_classes_ + c, true);
    }
  }

  // Tile the reshaped matrix onto physical arrays.
  row_tiles_ = ceil_div(rows_per_partition_, geometry.rows);
  col_tiles_ = ceil_div(logical_cols_, geometry.cols);
  arrays_.reserve(row_tiles_ * col_tiles_);
  for (std::size_t rt = 0; rt < row_tiles_; ++rt) {
    const std::size_t r0 = rt * geometry.rows;
    const std::size_t r1 =
        std::min(rows_per_partition_, r0 + geometry.rows);
    for (std::size_t ct = 0; ct < col_tiles_; ++ct) {
      const std::size_t c0 = ct * geometry.cols;
      const std::size_t c1 = std::min(logical_cols_, c0 + geometry.cols);
      common::BitMatrix sub(r1 - r0, c1 - c0);
      for (std::size_t r = r0; r < r1; ++r)
        for (std::size_t c = c0; c < c1; ++c)
          if (reshaped.get(r, c)) sub.set(r - r0, c - c0, true);
      ImcArray array(geometry);
      array.program(sub);
      arrays_.push_back(std::move(array));
    }
  }
}

std::size_t PartitionedAm::num_arrays() const { return arrays_.size(); }

std::vector<std::uint32_t> PartitionedAm::scores(
    const common::BitVector& query) {
  return scores_batch(std::span<const common::BitVector>(&query, 1));
}

std::vector<std::uint32_t> PartitionedAm::scores_batch(
    std::span<const common::BitVector> queries) {
  for (const auto& query : queries) MEMHD_EXPECTS(query.size() == dim_);
  std::vector<std::uint32_t> totals(queries.size() * num_classes_, 0);
  if (queries.empty()) return totals;

  // P sequential passes, wordline-parallel: pass p extracts query segment p
  // of the whole batch once per row tile, drives every array intersecting
  // partition p's column group with that block in one mvm_binary_batch
  // call (one activation per query per driven array), and accumulates the
  // columns belonging to partition p. A row tile the short tail partition
  // never reaches is skipped, so it costs no cycles.
  for (std::size_t p = 0; p < partitions_; ++p) {
    const std::size_t j0 = p * rows_per_partition_;
    const std::size_t j1 = std::min(dim_, j0 + rows_per_partition_);
    const std::size_t g0 = p * num_classes_;
    const std::size_t g1 = g0 + num_classes_;

    for (std::size_t rt = 0; rt < row_tiles_; ++rt) {
      const std::size_t r0 = rt * geometry_.rows;
      const std::size_t r1 =
          std::min(rows_per_partition_, r0 + geometry_.rows);
      if (j0 + r0 >= j1) continue;  // tail partition may be short
      const std::size_t seg_len = std::min(r1, j1 - j0) - r0;

      common::BitMatrix block(queries.size(), geometry_.rows);
      for (std::size_t q = 0; q < queries.size(); ++q)
        common::copy_bit_range(queries[q].words(), j0 + r0, block.row(q),
                               seg_len);

      for (std::size_t ct = 0; ct < col_tiles_; ++ct) {
        const std::size_t c0 = ct * geometry_.cols;
        const std::size_t c1 = std::min(logical_cols_, c0 + geometry_.cols);
        if (c1 <= g0 || c0 >= g1) continue;
        const auto sums = arrays_[rt * col_tiles_ + ct].mvm_binary_batch(block);
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

std::size_t PartitionedAm::activations() const {
  std::size_t acc = 0;
  for (const auto& a : arrays_) acc += a.activations();
  return acc;
}

}  // namespace memhd::imc

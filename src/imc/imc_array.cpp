#include "src/imc/imc_array.hpp"

#include <algorithm>

#include "src/common/assert.hpp"

namespace memhd::imc {

ImcArray::ImcArray(ArrayGeometry geometry)
    : geometry_(geometry), weights_(geometry.rows, geometry.cols) {
  MEMHD_EXPECTS(geometry.rows >= 1 && geometry.cols >= 1);
}

void ImcArray::program(const common::BitMatrix& tile) {
  MEMHD_EXPECTS(tile.rows() <= geometry_.rows);
  MEMHD_EXPECTS(tile.cols() <= geometry_.cols);
  weights_ = common::BitMatrix(geometry_.rows, geometry_.cols);
  for (std::size_t r = 0; r < tile.rows(); ++r)
    for (std::size_t c = 0; c < tile.cols(); ++c)
      if (tile.get(r, c)) weights_.set(r, c, true);
  used_rows_ = tile.rows();
  used_cols_ = tile.cols();
  scorer_.reset();
  ++write_passes_;
}

void ImcArray::program_cell(std::size_t row, std::size_t col, bool value) {
  MEMHD_EXPECTS(row < geometry_.rows && col < geometry_.cols);
  weights_.set(row, col, value);
  used_rows_ = std::max(used_rows_, row + 1);
  used_cols_ = std::max(used_cols_, col + 1);
  scorer_.reset();
}

bool ImcArray::weight(std::size_t row, std::size_t col) const {
  MEMHD_EXPECTS(row < geometry_.rows && col < geometry_.cols);
  return weights_.get(row, col);
}

std::vector<std::uint32_t> ImcArray::mvm_binary(
    const common::BitVector& input) {
  return mvm_binary_batch(std::span<const common::BitVector>(&input, 1));
}

const common::BatchScorer& ImcArray::batch_scorer() {
  // Transposed plane: row c holds column c of the weights over the
  // wordlines, so popcount(row_c AND pattern) is that column's sum.
  if (!scorer_) scorer_.emplace(weights_.transposed());
  return *scorer_;
}

std::vector<std::uint32_t> ImcArray::mvm_binary_batch(
    const common::BitMatrix& inputs) {
  MEMHD_EXPECTS(inputs.cols() == geometry_.rows);
  std::vector<std::uint32_t> out(inputs.rows() * geometry_.cols, 0);
  if (inputs.rows() == 0) return out;
  activations_ += inputs.rows();
  const common::BatchScorer& scorer = batch_scorer();
  std::vector<const std::uint64_t*> patterns(inputs.rows());
  for (std::size_t q = 0; q < inputs.rows(); ++q) patterns[q] = inputs.row(q);
  scorer.scores(patterns.data(), inputs.rows(), common::PopcountOp::kAnd,
                out.data());
  return out;
}

std::vector<std::uint32_t> ImcArray::mvm_binary_batch(
    std::span<const common::BitVector> inputs) {
  common::BitMatrix block(inputs.size(), geometry_.rows);
  for (std::size_t q = 0; q < inputs.size(); ++q) {
    const auto& in = inputs[q];
    MEMHD_EXPECTS(in.size() <= geometry_.rows);
    common::copy_bit_range(in.words(), 0, block.row(q), in.size());
  }
  return mvm_binary_batch(block);
}

std::vector<float> ImcArray::mvm_real(std::span<const float> input) {
  MEMHD_EXPECTS(input.size() <= geometry_.rows);
  ++activations_;
  std::vector<float> out(geometry_.cols, 0.0f);
  for (std::size_t r = 0; r < input.size(); ++r) {
    const float x = input[r];
    if (x == 0.0f) continue;
    const std::uint64_t* row = weights_.row(r);
    for (std::size_t c = 0; c < geometry_.cols; ++c)
      if ((row[c / common::kBitsPerWord] >> (c % common::kBitsPerWord)) & 1ULL)
        out[c] += x;
  }
  return out;
}

void ImcArray::reset_counters() {
  activations_ = 0;
  write_passes_ = 0;
}

}  // namespace memhd::imc

// Functional model of one in-memory-computing crossbar array.
//
// The array holds an R x C plane of binary weights. A compute cycle drives
// some subset of the R wordlines and reads, on every bitline (column), the
// analog sum of the driven rows' cells — i.e. one binary-weight MVM per
// cycle. Two input modes are modeled:
//
//   * binary inputs  (associative search: the query hypervector's bits) —
//     out[c] = sum_r in[r] * w[r][c], exact popcount semantics;
//   * real inputs    (projection encoding: feature values; physically
//     realized bit-serially or with DACs) — out[c] = sum_r x[r] * w[r][c].
//
// The model is functional, not electrical: device non-idealities are out of
// scope (the paper's Table II / Fig. 7 are architectural counts; energy
// comes from the NeuroSim-derived constants in cost_model.hpp). The array
// counts its activations so pipelines can report cycles.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "src/common/bit_matrix.hpp"
#include "src/common/bit_vector.hpp"
#include "src/common/bitops_batch.hpp"

namespace memhd::imc {

/// Physical array dimensions. The paper's evaluation uses 128 x 128.
struct ArrayGeometry {
  std::size_t rows = 128;
  std::size_t cols = 128;

  std::size_t cells() const { return rows * cols; }
  bool operator==(const ArrayGeometry&) const = default;
};

class ImcArray {
 public:
  explicit ImcArray(ArrayGeometry geometry);

  const ArrayGeometry& geometry() const { return geometry_; }

  /// Programs the weight plane from a logical tile. `tile` may be smaller
  /// than the array; unprogrammed cells stay 0. Counts one write pass.
  void program(const common::BitMatrix& tile);
  /// Programs a single weight cell. Like program(), this invalidates the
  /// cached drive scorer: the amortization contract is program-then-drive,
  /// so a loop interleaving cell writes with mvm_binary drives rebuilds
  /// the transposed plane on every drive — batch the writes first.
  void program_cell(std::size_t row, std::size_t col, bool value);

  bool weight(std::size_t row, std::size_t col) const;
  /// Number of programmed (non-default) columns in use, for utilization.
  std::size_t used_rows() const { return used_rows_; }
  std::size_t used_cols() const { return used_cols_; }

  /// One compute cycle with binary wordline inputs (`input.size()` <= rows;
  /// missing rows are undriven). Returns per-column popcount sums. A
  /// one-row call of mvm_binary_batch.
  std::vector<std::uint32_t> mvm_binary(const common::BitVector& input);

  /// Wordline-parallel batch activation: drives the weight plane with a
  /// whole block of binary wordline patterns (one row of `inputs` per
  /// query, `inputs.cols()` == rows) and returns the query-major column-sum
  /// matrix out[q * cols + c] = sum_r inputs[q][r] * w[r][c]. Bit-identical
  /// to driving each row as its own cycle (popcounts are exact integer
  /// arithmetic), but computed through the blocked batch engine over a
  /// cached column-major repack of the weights, so the weight plane streams
  /// through cache once per query block instead of once per query.
  /// activations() advances by inputs.rows(): one cycle per driven pattern.
  std::vector<std::uint32_t> mvm_binary_batch(const common::BitMatrix& inputs);

  /// Convenience overload over per-query BitVectors (each of size <= rows;
  /// missing rows undriven). Packs the block and delegates.
  std::vector<std::uint32_t> mvm_binary_batch(
      std::span<const common::BitVector> inputs);

  /// One compute cycle with real-valued inputs.
  std::vector<float> mvm_real(std::span<const float> input);

  /// Compute cycles executed so far.
  std::size_t activations() const { return activations_; }
  /// Write passes executed so far.
  std::size_t write_passes() const { return write_passes_; }
  void reset_counters();

 private:
  /// (Re)builds the batch scorer over the transposed weight plane.
  const common::BatchScorer& batch_scorer();

  ArrayGeometry geometry_;
  common::BitMatrix weights_;  // rows x cols
  // Lazy column-major repack serving mvm_binary and mvm_binary_batch;
  // invalidated by program / program_cell (the scorer snapshots the
  // weights).
  std::optional<common::BatchScorer> scorer_;
  std::size_t used_rows_ = 0;
  std::size_t used_cols_ = 0;
  std::size_t activations_ = 0;
  std::size_t write_passes_ = 0;
};

}  // namespace memhd::imc

// End-to-end in-memory inference (paper §III-D): both the binary projection
// matrix (EM) and the binary AM are programmed into IMC arrays; encoding and
// associative search execute as array MVMs, with only argmax/threshold logic
// in the digital periphery.
//
// Bit-exactness: the pipeline is functionally equivalent to the software
// model. The AM search is integer arithmetic and matches exactly. The EM
// path matches exactly whenever input features are fixed-point (e.g. 8-bit
// DAC codes, multiples of 1/256) and D is a power of two, because every
// partial sum is then exactly representable in binary floating point; this
// mirrors the physical reality that array inputs pass through a DAC.
// tests/imc/test_pipeline.cpp asserts the equivalence property. The AM
// search has one path: search() is a one-row call of search_batch().
//
// Weight layout: the EM's logical matrix has f wordlines and D columns
// (cell [i][d] = sign of projection weight M[i][d]); the AM's logical
// matrix has D wordlines and C columns (cell [j][c] = bit j of centroid c).
// Bipolar +/-1 weights are stored as {0,1} cells; the periphery applies the
// standard 2*acc - sum(x) correction to recover the bipolar MVM.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "src/common/bit_matrix.hpp"
#include "src/common/bit_vector.hpp"
#include "src/core/multi_centroid_am.hpp"
#include "src/data/dataset.hpp"
#include "src/hdc/projection_encoder.hpp"
#include "src/imc/imc_array.hpp"
#include "src/imc/mapping.hpp"

namespace memhd::imc {

/// A logical binary matrix tiled onto physical arrays.
class TiledMatrix {
 public:
  /// Produces the sub-matrix for wordlines [r0, r1) x columns [c0, c1) of
  /// the logical matrix. Called once per tile during programming, so the
  /// logical matrix never needs to exist in full — a rematerialized
  /// encoder plane generates each tile on demand.
  using TileSource = std::function<common::BitMatrix(
      std::size_t r0, std::size_t r1, std::size_t c0, std::size_t c1)>;

  /// `logical` rows are wordlines, columns are outputs.
  TiledMatrix(const common::BitMatrix& logical, ArrayGeometry geometry);
  /// Programs tiles straight from `source` — at no point is the whole
  /// logical matrix resident.
  TiledMatrix(std::size_t logical_rows, std::size_t logical_cols,
              const TileSource& source, ArrayGeometry geometry);

  std::size_t logical_rows() const { return logical_rows_; }
  std::size_t logical_cols() const { return logical_cols_; }
  std::size_t row_tiles() const { return row_tiles_; }
  std::size_t col_tiles() const { return col_tiles_; }
  std::size_t num_arrays() const { return tiles_.size(); }

  /// Full-width wordline-parallel binary MVM over a batch of inputs (each
  /// of length logical_rows): out[q * logical_cols + c] is the integer sum
  /// of column c for input q. Per row tile the segment block of the whole
  /// batch is extracted once and each tile is driven with the block
  /// (ImcArray::mvm_binary_batch), so activations() advances by
  /// inputs.size() per tile.
  std::vector<std::uint32_t> mvm_binary_batch(
      std::span<const common::BitVector> inputs);

  /// Full-width real MVM (for the EM path): out[c] = sum_r x[r] * w[r][c].
  std::vector<float> mvm_real(std::span<const float> input);

  /// Compute cycles consumed so far across all tiles.
  std::size_t activations() const;
  void reset_counters();

  const ImcArray& tile(std::size_t rt, std::size_t ct) const;
  /// Tile (rt, ct) for driving alone (partitioned search drives only the
  /// tiles of one partition's pass).
  ImcArray& tile(std::size_t rt, std::size_t ct);

 private:

  ArrayGeometry geometry_;
  std::size_t logical_rows_ = 0;
  std::size_t logical_cols_ = 0;
  std::size_t row_tiles_ = 0;
  std::size_t col_tiles_ = 0;
  std::vector<ImcArray> tiles_;  // row-major [rt][ct]
};

/// Per-inference cycle/array accounting of a deployed pipeline.
struct PipelineStats {
  std::size_t em_arrays = 0;
  std::size_t am_arrays = 0;
  std::size_t em_cycles_per_inference = 0;
  std::size_t am_cycles_per_inference = 0;
  double am_utilization = 0.0;

  std::size_t total_arrays() const { return em_arrays + am_arrays; }
  std::size_t total_cycles() const {
    return em_cycles_per_inference + am_cycles_per_inference;
  }
};

/// MEMHD deployed on IMC arrays: projection encoder + multi-centroid AM.
class InMemoryPipeline {
 public:
  InMemoryPipeline(const hdc::ProjectionEncoder& encoder,
                   const core::MultiCentroidAM& am, ArrayGeometry geometry);

  /// In-array encoding of one feature vector (binarization in periphery).
  common::BitVector encode(std::span<const float> features);
  /// In-array associative search of already-encoded queries through the
  /// wordline-parallel AM path: owner of each query's first-wins argmax
  /// column.
  std::vector<data::Label> search_batch(
      std::span<const common::BitVector> queries);
  /// One-row call of search_batch.
  data::Label search(const common::BitVector& query);
  /// encode + search.
  data::Label predict(std::span<const float> features);

  PipelineStats stats() const;
  /// Total array activations since construction/reset.
  std::size_t activations() const;
  void reset_counters();

 private:
  std::size_t dim_;
  hdc::BinarizeMode binarize_mode_ = hdc::BinarizeMode::kSampleMean;
  std::vector<data::Label> owners_;
  TiledMatrix em_;
  TiledMatrix am_;
};

}  // namespace memhd::imc

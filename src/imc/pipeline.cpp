#include "src/imc/pipeline.hpp"

#include <algorithm>
#include <numeric>

#include "src/common/assert.hpp"
#include "src/common/stats.hpp"

namespace memhd::imc {

namespace {
std::size_t ceil_div(std::size_t a, std::size_t b) { return (a + b - 1) / b; }

/// EM tile source from the encoder's basis provider: f wordlines x D
/// columns, cell [i][d] = sign bit of weight M[i][d]. BasisProvider::
/// em_tile emits exactly this layout per tile, so a rematerialized plane
/// is generated one array's worth at a time while programming and never
/// held in full.
TiledMatrix::TileSource em_source(const hdc::ProjectionEncoder& encoder) {
  const hdc::BasisProvider& basis = encoder.basis();
  return [&basis](std::size_t r0, std::size_t r1, std::size_t c0,
                  std::size_t c1) { return basis.em_tile(r0, r1, c0, c1); };
}

/// AM logical matrix: D wordlines x C columns, cell [j][c] = bit j of
/// centroid c. The AM stores centroids C x D (centroid-major).
common::BitMatrix am_logical(const core::MultiCentroidAM& am) {
  return am.binary().transposed();
}
}  // namespace

TiledMatrix::TiledMatrix(const common::BitMatrix& logical,
                         ArrayGeometry geometry)
    : TiledMatrix(
          logical.rows(), logical.cols(),
          [&logical](std::size_t r0, std::size_t r1, std::size_t c0,
                     std::size_t c1) {
            common::BitMatrix sub(r1 - r0, c1 - c0);
            for (std::size_t r = r0; r < r1; ++r)
              for (std::size_t c = c0; c < c1; ++c)
                if (logical.get(r, c)) sub.set(r - r0, c - c0, true);
            return sub;
          },
          geometry) {}

TiledMatrix::TiledMatrix(std::size_t logical_rows, std::size_t logical_cols,
                         const TileSource& source, ArrayGeometry geometry)
    : geometry_(geometry),
      logical_rows_(logical_rows),
      logical_cols_(logical_cols),
      row_tiles_(ceil_div(logical_rows, geometry.rows)),
      col_tiles_(ceil_div(logical_cols, geometry.cols)) {
  MEMHD_EXPECTS(logical_rows > 0 && logical_cols > 0);
  tiles_.reserve(row_tiles_ * col_tiles_);
  for (std::size_t rt = 0; rt < row_tiles_; ++rt) {
    const std::size_t r0 = rt * geometry.rows;
    const std::size_t r1 = std::min(logical_rows_, r0 + geometry.rows);
    for (std::size_t ct = 0; ct < col_tiles_; ++ct) {
      const std::size_t c0 = ct * geometry.cols;
      const std::size_t c1 = std::min(logical_cols_, c0 + geometry.cols);
      const common::BitMatrix sub = source(r0, r1, c0, c1);
      MEMHD_EXPECTS(sub.rows() == r1 - r0 && sub.cols() == c1 - c0);
      ImcArray array(geometry);
      array.program(sub);
      tiles_.push_back(std::move(array));
    }
  }
}

ImcArray& TiledMatrix::tile(std::size_t rt, std::size_t ct) {
  MEMHD_EXPECTS(rt < row_tiles_ && ct < col_tiles_);
  return tiles_[rt * col_tiles_ + ct];
}

const ImcArray& TiledMatrix::tile(std::size_t rt, std::size_t ct) const {
  MEMHD_EXPECTS(rt < row_tiles_ && ct < col_tiles_);
  return tiles_[rt * col_tiles_ + ct];
}

std::vector<std::uint32_t> TiledMatrix::mvm_binary_batch(
    std::span<const common::BitVector> inputs) {
  for (const auto& in : inputs) MEMHD_EXPECTS(in.size() == logical_rows_);
  std::vector<std::uint32_t> out(inputs.size() * logical_cols_, 0);
  if (inputs.empty()) return out;
  for (std::size_t rt = 0; rt < row_tiles_; ++rt) {
    const std::size_t r0 = rt * geometry_.rows;
    const std::size_t r1 = std::min(logical_rows_, r0 + geometry_.rows);
    common::BitMatrix block(inputs.size(), geometry_.rows);
    for (std::size_t q = 0; q < inputs.size(); ++q)
      common::copy_bit_range(inputs[q].words(), r0, block.row(q), r1 - r0);
    for (std::size_t ct = 0; ct < col_tiles_; ++ct) {
      const std::size_t c0 = ct * geometry_.cols;
      const std::size_t width = std::min(logical_cols_ - c0, geometry_.cols);
      const auto sums = tile(rt, ct).mvm_binary_batch(block);
      for (std::size_t q = 0; q < inputs.size(); ++q) {
        std::uint32_t* qout = out.data() + q * logical_cols_ + c0;
        const std::uint32_t* qsums = sums.data() + q * geometry_.cols;
        for (std::size_t c = 0; c < width; ++c) qout[c] += qsums[c];
      }
    }
  }
  return out;
}

std::vector<float> TiledMatrix::mvm_real(std::span<const float> input) {
  MEMHD_EXPECTS(input.size() == logical_rows_);
  std::vector<float> out(logical_cols_, 0.0f);
  for (std::size_t rt = 0; rt < row_tiles_; ++rt) {
    const std::size_t r0 = rt * geometry_.rows;
    const std::size_t r1 = std::min(logical_rows_, r0 + geometry_.rows);
    const std::span<const float> segment = input.subspan(r0, r1 - r0);
    for (std::size_t ct = 0; ct < col_tiles_; ++ct) {
      const std::size_t c0 = ct * geometry_.cols;
      const auto partial = tile(rt, ct).mvm_real(segment);
      const std::size_t width =
          std::min(logical_cols_ - c0, geometry_.cols);
      for (std::size_t c = 0; c < width; ++c) out[c0 + c] += partial[c];
    }
  }
  return out;
}

std::size_t TiledMatrix::activations() const {
  std::size_t acc = 0;
  for (const auto& t : tiles_) acc += t.activations();
  return acc;
}

void TiledMatrix::reset_counters() {
  for (auto& t : tiles_) t.reset_counters();
}

InMemoryPipeline::InMemoryPipeline(const hdc::ProjectionEncoder& encoder,
                                   const core::MultiCentroidAM& am,
                                   ArrayGeometry geometry)
    : dim_(encoder.dim()),
      binarize_mode_(encoder.binarize_mode()),
      em_(encoder.num_features(), encoder.dim(), em_source(encoder),
          geometry),
      am_(am_logical(am), geometry) {
  MEMHD_EXPECTS(encoder.dim() == am.dim());
  MEMHD_EXPECTS(am.fully_assigned());
  owners_.resize(am.columns());
  for (std::size_t col = 0; col < am.columns(); ++col)
    owners_[col] = am.owner(col);
}

common::BitVector InMemoryPipeline::encode(std::span<const float> features) {
  MEMHD_EXPECTS(features.size() == em_.logical_rows());
  // Array computes acc_d = sum over {i : sign=+1} x_i per column; the
  // periphery recovers the bipolar projection h_d = 2*acc_d - sum_i x_i
  // implicitly by comparing acc_d against the equivalent threshold:
  //   sample-mean mode: h_d > mean(h)  <=>  acc_d > mean(acc)
  //   zero mode:        h_d > 0        <=>  acc_d > sum(x) / 2
  const std::vector<float> acc = em_.mvm_real(features);
  float threshold = 0.0f;
  if (binarize_mode_ == hdc::BinarizeMode::kSampleMean) {
    threshold = std::accumulate(acc.begin(), acc.end(), 0.0f) /
                static_cast<float>(acc.size());
  } else {
    threshold = std::accumulate(features.begin(), features.end(), 0.0f) / 2.0f;
  }
  return common::BitVector::from_threshold(acc.data(), acc.size(), threshold);
}

data::Label InMemoryPipeline::search(const common::BitVector& query) {
  return search_batch(std::span<const common::BitVector>(&query, 1))[0];
}

std::vector<data::Label> InMemoryPipeline::search_batch(
    std::span<const common::BitVector> queries) {
  for (const auto& q : queries) MEMHD_EXPECTS(q.size() == dim_);
  const auto scores = am_.mvm_binary_batch(queries);
  std::vector<data::Label> out(queries.size());
  const std::size_t cols = am_.logical_cols();
  for (std::size_t q = 0; q < queries.size(); ++q)
    out[q] = owners_[common::argmax_u32(
        std::span<const std::uint32_t>(scores.data() + q * cols, cols))];
  return out;
}

data::Label InMemoryPipeline::predict(std::span<const float> features) {
  return search(encode(features));
}

PipelineStats InMemoryPipeline::stats() const {
  PipelineStats s;
  s.em_arrays = em_.num_arrays();
  s.am_arrays = am_.num_arrays();
  s.em_cycles_per_inference = em_.row_tiles() * em_.col_tiles();
  s.am_cycles_per_inference = am_.row_tiles() * am_.col_tiles();
  const double mapped =
      static_cast<double>(am_.logical_rows() * am_.logical_cols());
  const double capacity = static_cast<double>(
      am_.num_arrays() * am_.tile(0, 0).geometry().cells());
  s.am_utilization = mapped / capacity;
  return s;
}

std::size_t InMemoryPipeline::activations() const {
  return em_.activations() + am_.activations();
}

void InMemoryPipeline::reset_counters() {
  em_.reset_counters();
  am_.reset_counters();
}

}  // namespace memhd::imc

// BatchScorer: packs the row matrix once for its pinned backend, then blocks
// each query batch, hands every block to that backend's function table, and
// supplies the generic scores-then-argmax_u32 fallback for backends without
// a fused argmax. All kernel code lives under src/common/kernels/.
#include "src/common/bitops_batch.hpp"

#include "src/common/kernels/backend.hpp"
#include "src/common/kernels/backend_common.hpp"
#include "src/common/parallel.hpp"
#include "src/common/stats.hpp"

namespace memhd::common {

namespace {

// Queries per parallel_for work item. One block's scores (kQueryBlock rows
// of the output) are written by exactly one task, so blocks never share
// output cache lines.
constexpr std::size_t kQueryBlock = 32;

KernelBlockArgs block_args(const BitMatrix& rows,
                           const std::vector<std::uint64_t>& packed,
                           std::size_t rpad,
                           const std::uint64_t* const* queries,
                           std::uint32_t* out) {
  return {&rows,
          rpad != 0 ? packed.data() : nullptr,
          rpad,
          rows.rows(),
          rows.words_per_row(),
          queries,
          out};
}

/// Runs body(q0, q1) over the query blocks of a batch on the pool.
template <typename Body>
void for_each_query_block(std::size_t num_queries, const Body& body) {
  const std::size_t nblocks = (num_queries + kQueryBlock - 1) / kQueryBlock;
  parallel_for(
      0, nblocks,
      [&](std::size_t b) {
        const std::size_t q0 = b * kQueryBlock;
        body(q0, std::min(num_queries, q0 + kQueryBlock));
      },
      /*grain=*/2);
}

}  // namespace

BatchScorer::BatchScorer(const BitMatrix& rows)
    : backend_(&active_backend()), rows_(rows) {
  // The backend's lane_rows is the single source of its repack geometry:
  // lane width 1 means row-major (no repack), anything wider gets the
  // word-major layout padded to that width.
  if (backend_->lane_rows > 1 && !rows_.empty())
    rpad_ = kernels::word_major_repack(rows_, packed_, backend_->lane_rows);
}

void BatchScorer::scores(const std::uint64_t* const* queries,
                         std::size_t num_queries, PopcountOp op,
                         std::uint32_t* out) const {
  if (rows_.empty() || num_queries == 0) return;
  const KernelBlockArgs args = block_args(rows_, packed_, rpad_, queries, out);
  for_each_query_block(num_queries, [&](std::size_t q0, std::size_t q1) {
    backend_->scores_block(args, op, q0, q1);
  });
}

void BatchScorer::dot_argmax(const std::uint64_t* const* queries,
                             std::size_t num_queries,
                             std::uint32_t* out) const {
  if (rows_.empty() || num_queries == 0) return;
  const std::size_t nrows = rows_.rows();
  const KernelBlockArgs args = block_args(rows_, packed_, rpad_, queries, out);
  for_each_query_block(num_queries, [&](std::size_t q0, std::size_t q1) {
    if (backend_->argmax_block != nullptr) {
      backend_->argmax_block(args, q0, q1);
      return;
    }
    // Generic fallback: materialize this block's scores, then take the
    // contract literally — "exactly argmax_u32" — per query.
    std::vector<std::uint32_t> scores((q1 - q0) * nrows);
    const KernelBlockArgs sub =
        block_args(rows_, packed_, rpad_, queries + q0, scores.data());
    backend_->scores_block(sub, PopcountOp::kAnd, 0, q1 - q0);
    for (std::size_t q = q0; q < q1; ++q)
      out[q] = static_cast<std::uint32_t>(argmax_u32(
          std::span<const std::uint32_t>(scores.data() + (q - q0) * nrows,
                                         nrows)));
  });
}

void BatchScorer::scores_rows(const std::uint64_t* query,
                              std::span<const std::uint32_t> row_ids,
                              PopcountOp op, std::uint32_t* out) const {
  const std::size_t nwords = rows_.words_per_row();
  for (std::size_t i = 0; i < row_ids.size(); ++i) {
    MEMHD_EXPECTS(row_ids[i] < rows_.rows());
    const std::uint64_t* row = rows_.row(row_ids[i]);
    out[i] = static_cast<std::uint32_t>(
        op == PopcountOp::kAnd
            ? combined_popcount<PopcountOp::kAnd>(row, query, nwords)
            : combined_popcount<PopcountOp::kXor>(row, query, nwords));
  }
}

}  // namespace memhd::common

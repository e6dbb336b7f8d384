// Blocked batch kernels for packed binary scoring: the software analogue of
// driving a whole query batch through an IMC array instead of one wordline
// pattern at a time.
//
// The core operation is BitMatrix x query-batch popcount scoring,
//
//   out[q][r] = popcount(row_r OP query_q),   OP in {AND, XOR},
//
// which is the associative-search MVM (AND = dot similarity) and the
// Hamming-distance table (XOR) over a batch of queries. Per-query calls
// walk the full row matrix once per query; the batch kernels tile over the
// row (centroid) dimension with independent accumulators per tile and
// parallel_for over query blocks, so the row matrix streams through cache
// once per block instead of once per query.
//
// BatchScorer below is the one entry point: it packs a row matrix once and
// dispatches every query batch over the kernel-backend registry
// (src/common/kernels/backend.hpp): a portable register-tiled path, an
// AVX2 vpshufb-popcount path, an AVX-512 VPOPCNTDQ path, and a NEON vcntq
// path, selected at runtime by CPU feature (override with
// common::select_backend() or MEMHD_BATCH_KERNEL). Every backend is
// bit-identical to the per-query loops — popcounts are exact integer
// arithmetic — so callers batch freely.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "src/common/assert.hpp"
#include "src/common/bit_matrix.hpp"
#include "src/common/bit_vector.hpp"
#include "src/common/kernels/popcount_core.hpp"

namespace memhd::common {

namespace detail {
/// Collects the word pointers of a query span, validating each query's
/// length against the row matrix once.
inline std::vector<const std::uint64_t*> query_word_ptrs(
    std::span<const BitVector> queries, std::size_t cols) {
  std::vector<const std::uint64_t*> ptrs(queries.size());
  for (std::size_t q = 0; q < queries.size(); ++q) {
    MEMHD_EXPECTS(queries[q].size() == cols);
    ptrs[q] = queries[q].words();
  }
  return ptrs;
}
}  // namespace detail

struct KernelBackend;

/// Name of the active kernel backend, for logs and benchmark records.
/// Deprecated alias for active_backend().name (kernels/backend.hpp) — which
/// also provides select_backend() to switch backends at runtime, replacing
/// the old once-per-process MEMHD_BATCH_KERNEL latch.
const char* batch_kernel_name();

/// Reusable batch engine over a fixed row matrix: performs the kernel's
/// word-major repack once at construction and then serves any number of
/// query batches. This is the steady-state shape of the heavy callers — a
/// QAT epoch scores every training chunk against one frozen binary AM, and
/// an evaluation sweep scores every test chunk against the deployed AM —
/// so the repack cost amortizes to zero instead of recurring per call.
/// The scorer snapshots the rows AND pins the backend it was packed for:
/// a later select_backend() switch does not touch live scorers (the repack
/// geometry is backend-specific). Rebuild the scorer after the AM changes.
class BatchScorer {
 public:
  explicit BatchScorer(const BitMatrix& rows);

  std::size_t rows() const { return rows_.rows(); }
  std::size_t cols() const { return rows_.cols(); }
  /// The row-major snapshot this scorer was packed from.
  const BitMatrix& matrix() const { return rows_; }

  /// The backend this scorer was packed for (== active_backend() at
  /// construction time).
  const KernelBackend& backend() const { return *backend_; }

  /// out[q * rows() + r] = popcount(row_r OP query_q). Each queries[q] must
  /// point at words_for_bits(cols()) words with the tail bits beyond cols()
  /// clear (BitVector/BitMatrix storage guarantees this); the pointer form
  /// writes num_queries * rows() entries, the span form resizes `out`.
  void scores(std::span<const BitVector> queries, PopcountOp op,
              std::vector<std::uint32_t>& out) const;
  void scores(const std::uint64_t* const* queries, std::size_t num_queries,
              PopcountOp op, std::uint32_t* out) const;

  /// Fused batch associative recall: out[q] = argmax over r of
  /// popcount(row_r AND query_q), first occurrence winning ties — exactly
  /// argmax_u32 over the query's score row, but computed inside the
  /// scoring tiles (a running winner-take-all in the accumulator lanes, the
  /// software analogue of the IMC array's in-place winner search) without
  /// materializing the batch * rows score table.
  void dot_argmax(std::span<const BitVector> queries,
                  std::vector<std::uint32_t>& out) const;
  void dot_argmax(const std::uint64_t* const* queries,
                  std::size_t num_queries, std::uint32_t* out) const;

  /// Gather/shortlist entry point: exact scores of ONE query against only
  /// the listed rows — out[i] = popcount(row row_ids[i] OP query). Runs
  /// over the row-major snapshot through the same combined_popcount core
  /// as every kernel backend's tail loop, so it is bit-identical to the
  /// full scores() restricted to row_ids while touching no other row's
  /// words. This is the cascade's stage-2 rescore (src/search/): survivors
  /// of a prescreen are typically a few dozen rows, far below where the
  /// word-major batch tiling pays for itself.
  void scores_rows(const std::uint64_t* query,
                   std::span<const std::uint32_t> row_ids, PopcountOp op,
                   std::uint32_t* out) const;
  /// AND (dot-similarity) shorthand — the associative-search case.
  void scores_rows(const std::uint64_t* query,
                   std::span<const std::uint32_t> row_ids,
                   std::uint32_t* out) const {
    scores_rows(query, row_ids, PopcountOp::kAnd, out);
  }

 private:
  const KernelBackend* backend_;         // pinned at construction
  BitMatrix rows_;                       // snapshot (row-major path + shape)
  std::vector<std::uint64_t> packed_;    // backend's word-major repack
  std::size_t rpad_ = 0;                 // rows padded for the lane width
};

inline void BatchScorer::scores(std::span<const BitVector> queries,
                                PopcountOp op,
                                std::vector<std::uint32_t>& out) const {
  out.resize(queries.size() * rows_.rows());
  if (queries.empty() || rows_.empty()) return;
  const auto ptrs = detail::query_word_ptrs(queries, rows_.cols());
  scores(ptrs.data(), ptrs.size(), op, out.data());
}

inline void BatchScorer::dot_argmax(std::span<const BitVector> queries,
                                    std::vector<std::uint32_t>& out) const {
  out.resize(queries.size());
  if (queries.empty() || rows_.empty()) return;
  const auto ptrs = detail::query_word_ptrs(queries, rows_.cols());
  dot_argmax(ptrs.data(), ptrs.size(), out.data());
}

}  // namespace memhd::common

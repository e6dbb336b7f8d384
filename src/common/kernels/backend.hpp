// Runtime-dispatched registry of SIMD popcount-scoring backends.
//
// Every hot path — associative search, QAT epochs, k-means assignment, the
// IMC functional simulator, the sharded serve path — bottoms out in the
// packed popcount-scoring kernels, the software analogue of MEMHD's
// fully-utilized IMC array search. Each backend lives in its own
// translation unit under src/common/kernels/ and exports one KernelBackend
// descriptor (name, lane geometry — which fixes the repack layout — and
// the scores/argmax function table);
// the registry in registry.cpp orders them by preference and performs
// runtime CPU-feature selection. BatchScorer (bitops_batch.hpp) is the one
// dispatcher: it packs its rows for the descriptor active at construction
// and keeps using that descriptor.
//
// Contract every backend must honor: outputs are bit-identical to the
// portable path (and hence to the per-query scalar loops) for every shape —
// including first-wins argmax tie-breaking. tests/common/
// test_kernel_backends.cpp force-selects each compiled backend and asserts
// this across an odd-shape grid.
//
// See src/common/kernels/README.md for the selection order, the
// MEMHD_BATCH_KERNEL values, and how to add a backend.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "src/common/bit_matrix.hpp"
#include "src/common/kernels/popcount_core.hpp"

namespace memhd::common {

/// Arguments shared by every block-kernel call. The dispatcher fills this
/// once per batch; backends read either the row-major snapshot (`rows`) or
/// their own word-major repack (`packed`/`rpad`), never both.
struct KernelBlockArgs {
  const BitMatrix* rows = nullptr;      // row-major snapshot (always valid)
  const std::uint64_t* packed = nullptr;  // backend repack; null when rpad==0
  std::size_t rpad = 0;                 // padded row count of `packed`
  std::size_t nrows = 0;                // rows->rows()
  std::size_t nwords = 0;               // rows->words_per_row()
  const std::uint64_t* const* queries = nullptr;  // indexed [q_begin, q_end)
  std::uint32_t* out = nullptr;  // scores: out[q*nrows+r]; argmax: out[q]
};

/// One kernel backend: a name, its lane geometry, and the block-function
/// table the dispatcher calls. All fields are statically initialized in the
/// backend's translation unit; `scores_block` is mandatory, `argmax_block`
/// may be null (generic scores-then-argmax_u32 fallback).
struct KernelBackend {
  const char* name;   // canonical name; keys bench baselines and logs
  const char* alias;  // short env/CLI alias ("portable", "avx512"), or null
  // Rows per SIMD register — the single source of the backend's repack
  // geometry. lane_rows > 1 makes the dispatcher build the word-major
  // repack (packed[w * rpad + r] = word w of row r, rows zero-padded to a
  // multiple of lane_rows); lane_rows == 1 means the backend scores
  // straight off the row-major matrix, no repack.
  std::size_t lane_rows;
  bool (*supported)();  // runtime CPU-feature check
  // Scores queries [q_begin, q_end) against every row:
  // out[q * nrows + r] = popcount(row_r OP query_q).
  void (*scores_block)(const KernelBlockArgs& args, PopcountOp op,
                       std::size_t q_begin, std::size_t q_end);
  // Fused first-wins argmax over the AND scores: out[q] = argmax_r. Null =
  // the dispatcher materializes the block's scores and runs argmax_u32.
  void (*argmax_block)(const KernelBlockArgs& args, std::size_t q_begin,
                       std::size_t q_end);
};

/// Every backend compiled into this binary, in selection-preference order
/// (portable last — it is always supported). Entries whose supported()
/// returns false are listed but never auto-selected.
std::span<const KernelBackend* const> kernel_backends();

/// Looks a backend up by canonical name or alias; null when unknown (or not
/// compiled into this binary, e.g. "neon" on x86).
const KernelBackend* find_kernel_backend(std::string_view name);

/// The backend new BatchScorer instances dispatch to. First use runs
/// select_backend("auto"); the result is process-global but re-selectable
/// at any time (scorers built earlier keep the backend they were packed
/// for).
const KernelBackend& active_backend();

/// Selects the active backend. "auto" (or "") re-runs detection: the
/// MEMHD_BATCH_KERNEL environment variable is re-read (honored when it
/// names a supported backend, with a stderr notice otherwise), then the
/// highest-preference supported backend wins. A concrete name switches to
/// that backend and returns true only if it is compiled in and supported;
/// on false the active backend is unchanged. Safe to call from tests
/// between batches; in-flight BatchScorer instances are unaffected.
bool select_backend(std::string_view name = "auto");

}  // namespace memhd::common

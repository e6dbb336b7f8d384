// x86-64 AVX-512 VPOPCNTDQ backend (Ice Lake and newer).
//
// The row matrix is repacked word-major ("vertical"): packed[w * rpad + r]
// holds word w of row r, rows padded to a multiple of 8 so one 512-bit lane
// vector covers 8 rows' worth of the same word index. One query word is
// broadcast against two such vectors while 4 queries share the loaded row
// vectors, i.e. a 16-row x 4-query tile with 8 vertical accumulators; the
// row matrix then streams from cache once per 4 queries, and no horizontal
// reductions are needed (lane k IS row r+k's score).
#include "src/common/kernels/backend_common.hpp"

#if MEMHD_KERNELS_X86

#include <immintrin.h>

#include <algorithm>
#include <cstring>

namespace memhd::common {
namespace {

template <PopcountOp op>
__attribute__((target("avx512f,avx512vpopcntdq,avx512bw,avx512vl")))
inline __m512i combine512(__m512i a, __m512i b) {
  if constexpr (op == PopcountOp::kAnd) return _mm512_and_si512(a, b);
  return _mm512_xor_si512(a, b);
}

__attribute__((target("avx512f,avx512vpopcntdq,avx512bw,avx512vl")))
void store_group(__m512i acc, std::uint32_t* dst, std::size_t valid) {
  if (valid >= 8) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst),
                        _mm512_cvtepi64_epi32(acc));
  } else {
    alignas(32) std::uint32_t buf[8];
    _mm256_store_si256(reinterpret_cast<__m256i*>(buf),
                       _mm512_cvtepi64_epi32(acc));
    std::memcpy(dst, buf, valid * sizeof(std::uint32_t));
  }
}

template <PopcountOp op>
__attribute__((target("avx512f,avx512vpopcntdq,avx512bw,avx512vl")))
void scores_block(const std::uint64_t* amt, std::size_t nrows,
                  std::size_t rpad, std::size_t nwords,
                  const std::uint64_t* const* queries, std::size_t q_begin,
                  std::size_t q_end, std::uint32_t* out) {
  // A tail of 1-3 queries rides the 4-query tile with its last query
  // repeated, as in argmax_block: one tile walk of the word-major plane per
  // 16 rows beats a one-query walk per 8 rows (see README.md). The copies'
  // scores land in `sink`, never in `out`.
  alignas(64) std::uint32_t sink[16];
  for (std::size_t q = q_begin; q < q_end; q += 4) {
    const std::size_t n = std::min<std::size_t>(4, q_end - q);
    const std::uint64_t* q0 = queries[q];
    const std::uint64_t* q1 = queries[q + std::min<std::size_t>(1, n - 1)];
    const std::uint64_t* q2 = queries[q + std::min<std::size_t>(2, n - 1)];
    const std::uint64_t* q3 = queries[q + std::min<std::size_t>(3, n - 1)];
    const auto dst = [&](std::size_t k, std::size_t g) {
      return k < n ? out + (q + k) * nrows + g : sink;
    };
    std::size_t g = 0;
    // Hot loop: full 16-row tiles. The 4-query x 2-group tile is unrolled
    // into named accumulators on purpose — with an accumulator array and an
    // inner k-loop, GCC re-rolls the tile into a single-accumulator loop
    // and the independent popcount chains (the point of the tile) are lost.
    for (; g + 16 <= rpad; g += 16) {
      __m512i a00 = _mm512_setzero_si512(), a01 = _mm512_setzero_si512();
      __m512i a10 = _mm512_setzero_si512(), a11 = _mm512_setzero_si512();
      __m512i a20 = _mm512_setzero_si512(), a21 = _mm512_setzero_si512();
      __m512i a30 = _mm512_setzero_si512(), a31 = _mm512_setzero_si512();
      const std::uint64_t* base = amt + g;
      for (std::size_t w = 0; w < nwords; ++w, base += rpad) {
        const __m512i m0 = _mm512_loadu_si512(base);
        const __m512i m1 = _mm512_loadu_si512(base + 8);
        const __m512i b0 = _mm512_set1_epi64(static_cast<long long>(q0[w]));
        a00 = _mm512_add_epi64(a00, _mm512_popcnt_epi64(combine512<op>(b0, m0)));
        a01 = _mm512_add_epi64(a01, _mm512_popcnt_epi64(combine512<op>(b0, m1)));
        const __m512i b1 = _mm512_set1_epi64(static_cast<long long>(q1[w]));
        a10 = _mm512_add_epi64(a10, _mm512_popcnt_epi64(combine512<op>(b1, m0)));
        a11 = _mm512_add_epi64(a11, _mm512_popcnt_epi64(combine512<op>(b1, m1)));
        const __m512i b2 = _mm512_set1_epi64(static_cast<long long>(q2[w]));
        a20 = _mm512_add_epi64(a20, _mm512_popcnt_epi64(combine512<op>(b2, m0)));
        a21 = _mm512_add_epi64(a21, _mm512_popcnt_epi64(combine512<op>(b2, m1)));
        const __m512i b3 = _mm512_set1_epi64(static_cast<long long>(q3[w]));
        a30 = _mm512_add_epi64(a30, _mm512_popcnt_epi64(combine512<op>(b3, m0)));
        a31 = _mm512_add_epi64(a31, _mm512_popcnt_epi64(combine512<op>(b3, m1)));
      }
      std::uint32_t* o0 = dst(0, g);
      std::uint32_t* o1 = dst(1, g);
      std::uint32_t* o2 = dst(2, g);
      std::uint32_t* o3 = dst(3, g);
      store_group(a00, o0, nrows - g);
      store_group(a01, o0 + 8, nrows - g - 8);
      store_group(a10, o1, nrows - g);
      store_group(a11, o1 + 8, nrows - g - 8);
      store_group(a20, o2, nrows - g);
      store_group(a21, o2 + 8, nrows - g - 8);
      store_group(a30, o3, nrows - g);
      store_group(a31, o3 + 8, nrows - g - 8);
    }
    if (g < rpad) {  // one trailing 8-row group
      __m512i a0 = _mm512_setzero_si512(), a1 = _mm512_setzero_si512();
      __m512i a2 = _mm512_setzero_si512(), a3 = _mm512_setzero_si512();
      const std::uint64_t* base = amt + g;
      for (std::size_t w = 0; w < nwords; ++w, base += rpad) {
        const __m512i m0 = _mm512_loadu_si512(base);
        a0 = _mm512_add_epi64(
            a0, _mm512_popcnt_epi64(combine512<op>(
                    _mm512_set1_epi64(static_cast<long long>(q0[w])), m0)));
        a1 = _mm512_add_epi64(
            a1, _mm512_popcnt_epi64(combine512<op>(
                    _mm512_set1_epi64(static_cast<long long>(q1[w])), m0)));
        a2 = _mm512_add_epi64(
            a2, _mm512_popcnt_epi64(combine512<op>(
                    _mm512_set1_epi64(static_cast<long long>(q2[w])), m0)));
        a3 = _mm512_add_epi64(
            a3, _mm512_popcnt_epi64(combine512<op>(
                    _mm512_set1_epi64(static_cast<long long>(q3[w])), m0)));
      }
      store_group(a0, dst(0, g), nrows - g);
      store_group(a1, dst(1, g), nrows - g);
      store_group(a2, dst(2, g), nrows - g);
      store_group(a3, dst(3, g), nrows - g);
    }
  }
}

// Fused scoring + first-wins argmax (kAnd only). Each query carries a
// running (vmax, vidx) lane pair across the row groups: lane k of group g
// is row g + k, and groups are folded in ascending row order with a strict
// greater-than, so within every lane the earliest maximal row survives.
// The lanes are initialized to (0, lane) — exactly group 0's zero-score
// state — and the final 8-lane reduction breaks value ties toward the
// smaller row index, which together reproduce argmax_u32's first-wins
// semantics bit-for-bit. Rows padded beyond nrows score 0 with indices
// >= nrows and can never beat a real row on the tie-break.
__attribute__((target("avx512f,avx512vpopcntdq,avx512bw,avx512vl")))
inline void argmax_fold(__m512i& vmax, __m512i& vidx, __m512i acc,
                        __m512i cand_idx) {
  const __mmask8 gt = _mm512_cmpgt_epu64_mask(acc, vmax);
  vmax = _mm512_mask_blend_epi64(gt, vmax, acc);
  vidx = _mm512_mask_blend_epi64(gt, vidx, cand_idx);
}

__attribute__((target("avx512f,avx512vpopcntdq,avx512bw,avx512vl")))
inline std::uint32_t argmax_reduce(__m512i vmax, __m512i vidx) {
  alignas(64) std::uint64_t vals[8];
  alignas(64) std::uint64_t idxs[8];
  _mm512_store_si512(vals, vmax);
  _mm512_store_si512(idxs, vidx);
  std::uint64_t best_val = vals[0];
  std::uint64_t best_idx = idxs[0];
  for (int k = 1; k < 8; ++k) {
    if (vals[k] > best_val || (vals[k] == best_val && idxs[k] < best_idx)) {
      best_val = vals[k];
      best_idx = idxs[k];
    }
  }
  return static_cast<std::uint32_t>(best_idx);
}

__attribute__((target("avx512f,avx512vpopcntdq,avx512bw,avx512vl")))
void argmax_block(const std::uint64_t* amt, std::size_t rpad,
                  std::size_t nwords, const std::uint64_t* const* queries,
                  std::size_t q_begin, std::size_t q_end, std::uint32_t* out) {
  const __m512i lane_ids = _mm512_set_epi64(7, 6, 5, 4, 3, 2, 1, 0);
  for (std::size_t q = q_begin; q < q_end; q += 4) {
    // A tail of 1-3 queries rides the 4-query tile with its last query
    // repeated and the copies' results dropped: the tile walks the
    // word-major plane once per 16 rows, where a one-query walk per 8 rows
    // took ~3x longer than the whole 4-query tile (C = D = 8192). Small
    // serve batches are mostly tail.
    const std::size_t n = std::min<std::size_t>(4, q_end - q);
    const std::uint64_t* q0 = queries[q];
    const std::uint64_t* q1 = queries[q + std::min<std::size_t>(1, n - 1)];
    const std::uint64_t* q2 = queries[q + std::min<std::size_t>(2, n - 1)];
    const std::uint64_t* q3 = queries[q + std::min<std::size_t>(3, n - 1)];
    __m512i vmax0 = _mm512_setzero_si512(), vidx0 = lane_ids;
    __m512i vmax1 = _mm512_setzero_si512(), vidx1 = lane_ids;
    __m512i vmax2 = _mm512_setzero_si512(), vidx2 = lane_ids;
    __m512i vmax3 = _mm512_setzero_si512(), vidx3 = lane_ids;
    std::size_t g = 0;
    for (; g + 16 <= rpad; g += 16) {
      __m512i a00 = _mm512_setzero_si512(), a01 = _mm512_setzero_si512();
      __m512i a10 = _mm512_setzero_si512(), a11 = _mm512_setzero_si512();
      __m512i a20 = _mm512_setzero_si512(), a21 = _mm512_setzero_si512();
      __m512i a30 = _mm512_setzero_si512(), a31 = _mm512_setzero_si512();
      const std::uint64_t* base = amt + g;
      std::size_t w = 0;
      for (; w + 2 <= nwords; w += 2, base += 2 * rpad) {  // unrolled x2
        const __m512i m0 = _mm512_loadu_si512(base);
        const __m512i m1 = _mm512_loadu_si512(base + 8);
        const __m512i n0 = _mm512_loadu_si512(base + rpad);
        const __m512i n1 = _mm512_loadu_si512(base + rpad + 8);
        const __m512i b0 = _mm512_set1_epi64(static_cast<long long>(q0[w]));
        const __m512i c0 = _mm512_set1_epi64(static_cast<long long>(q0[w + 1]));
        a00 = _mm512_add_epi64(a00, _mm512_popcnt_epi64(_mm512_and_si512(b0, m0)));
        a01 = _mm512_add_epi64(a01, _mm512_popcnt_epi64(_mm512_and_si512(b0, m1)));
        a00 = _mm512_add_epi64(a00, _mm512_popcnt_epi64(_mm512_and_si512(c0, n0)));
        a01 = _mm512_add_epi64(a01, _mm512_popcnt_epi64(_mm512_and_si512(c0, n1)));
        const __m512i b1 = _mm512_set1_epi64(static_cast<long long>(q1[w]));
        const __m512i c1 = _mm512_set1_epi64(static_cast<long long>(q1[w + 1]));
        a10 = _mm512_add_epi64(a10, _mm512_popcnt_epi64(_mm512_and_si512(b1, m0)));
        a11 = _mm512_add_epi64(a11, _mm512_popcnt_epi64(_mm512_and_si512(b1, m1)));
        a10 = _mm512_add_epi64(a10, _mm512_popcnt_epi64(_mm512_and_si512(c1, n0)));
        a11 = _mm512_add_epi64(a11, _mm512_popcnt_epi64(_mm512_and_si512(c1, n1)));
        const __m512i b2 = _mm512_set1_epi64(static_cast<long long>(q2[w]));
        const __m512i c2 = _mm512_set1_epi64(static_cast<long long>(q2[w + 1]));
        a20 = _mm512_add_epi64(a20, _mm512_popcnt_epi64(_mm512_and_si512(b2, m0)));
        a21 = _mm512_add_epi64(a21, _mm512_popcnt_epi64(_mm512_and_si512(b2, m1)));
        a20 = _mm512_add_epi64(a20, _mm512_popcnt_epi64(_mm512_and_si512(c2, n0)));
        a21 = _mm512_add_epi64(a21, _mm512_popcnt_epi64(_mm512_and_si512(c2, n1)));
        const __m512i b3 = _mm512_set1_epi64(static_cast<long long>(q3[w]));
        const __m512i c3 = _mm512_set1_epi64(static_cast<long long>(q3[w + 1]));
        a30 = _mm512_add_epi64(a30, _mm512_popcnt_epi64(_mm512_and_si512(b3, m0)));
        a31 = _mm512_add_epi64(a31, _mm512_popcnt_epi64(_mm512_and_si512(b3, m1)));
        a30 = _mm512_add_epi64(a30, _mm512_popcnt_epi64(_mm512_and_si512(c3, n0)));
        a31 = _mm512_add_epi64(a31, _mm512_popcnt_epi64(_mm512_and_si512(c3, n1)));
      }
      for (; w < nwords; ++w, base += rpad) {
        const __m512i m0 = _mm512_loadu_si512(base);
        const __m512i m1 = _mm512_loadu_si512(base + 8);
        const __m512i b0 = _mm512_set1_epi64(static_cast<long long>(q0[w]));
        a00 = _mm512_add_epi64(a00, _mm512_popcnt_epi64(_mm512_and_si512(b0, m0)));
        a01 = _mm512_add_epi64(a01, _mm512_popcnt_epi64(_mm512_and_si512(b0, m1)));
        const __m512i b1 = _mm512_set1_epi64(static_cast<long long>(q1[w]));
        a10 = _mm512_add_epi64(a10, _mm512_popcnt_epi64(_mm512_and_si512(b1, m0)));
        a11 = _mm512_add_epi64(a11, _mm512_popcnt_epi64(_mm512_and_si512(b1, m1)));
        const __m512i b2 = _mm512_set1_epi64(static_cast<long long>(q2[w]));
        a20 = _mm512_add_epi64(a20, _mm512_popcnt_epi64(_mm512_and_si512(b2, m0)));
        a21 = _mm512_add_epi64(a21, _mm512_popcnt_epi64(_mm512_and_si512(b2, m1)));
        const __m512i b3 = _mm512_set1_epi64(static_cast<long long>(q3[w]));
        a30 = _mm512_add_epi64(a30, _mm512_popcnt_epi64(_mm512_and_si512(b3, m0)));
        a31 = _mm512_add_epi64(a31, _mm512_popcnt_epi64(_mm512_and_si512(b3, m1)));
      }
      const __m512i idx0 = _mm512_add_epi64(
          lane_ids, _mm512_set1_epi64(static_cast<long long>(g)));
      const __m512i idx1 = _mm512_add_epi64(
          lane_ids, _mm512_set1_epi64(static_cast<long long>(g + 8)));
      argmax_fold(vmax0, vidx0, a00, idx0);
      argmax_fold(vmax0, vidx0, a01, idx1);
      argmax_fold(vmax1, vidx1, a10, idx0);
      argmax_fold(vmax1, vidx1, a11, idx1);
      argmax_fold(vmax2, vidx2, a20, idx0);
      argmax_fold(vmax2, vidx2, a21, idx1);
      argmax_fold(vmax3, vidx3, a30, idx0);
      argmax_fold(vmax3, vidx3, a31, idx1);
    }
    if (g < rpad) {
      __m512i a0 = _mm512_setzero_si512(), a1 = _mm512_setzero_si512();
      __m512i a2 = _mm512_setzero_si512(), a3 = _mm512_setzero_si512();
      const std::uint64_t* base = amt + g;
      for (std::size_t w = 0; w < nwords; ++w, base += rpad) {
        const __m512i m0 = _mm512_loadu_si512(base);
        a0 = _mm512_add_epi64(a0, _mm512_popcnt_epi64(_mm512_and_si512(
                 _mm512_set1_epi64(static_cast<long long>(q0[w])), m0)));
        a1 = _mm512_add_epi64(a1, _mm512_popcnt_epi64(_mm512_and_si512(
                 _mm512_set1_epi64(static_cast<long long>(q1[w])), m0)));
        a2 = _mm512_add_epi64(a2, _mm512_popcnt_epi64(_mm512_and_si512(
                 _mm512_set1_epi64(static_cast<long long>(q2[w])), m0)));
        a3 = _mm512_add_epi64(a3, _mm512_popcnt_epi64(_mm512_and_si512(
                 _mm512_set1_epi64(static_cast<long long>(q3[w])), m0)));
      }
      const __m512i idx = _mm512_add_epi64(
          lane_ids, _mm512_set1_epi64(static_cast<long long>(g)));
      argmax_fold(vmax0, vidx0, a0, idx);
      argmax_fold(vmax1, vidx1, a1, idx);
      argmax_fold(vmax2, vidx2, a2, idx);
      argmax_fold(vmax3, vidx3, a3, idx);
    }
    const std::uint32_t best[4] = {
        argmax_reduce(vmax0, vidx0), argmax_reduce(vmax1, vidx1),
        argmax_reduce(vmax2, vidx2), argmax_reduce(vmax3, vidx3)};
    std::copy(best, best + n, out + q);
  }
}

bool avx512_supported() {
  return __builtin_cpu_supports("avx512f") &&
         __builtin_cpu_supports("avx512bw") &&
         __builtin_cpu_supports("avx512vl") &&
         __builtin_cpu_supports("avx512vpopcntdq");
}

void avx512_scores_block(const KernelBlockArgs& args, PopcountOp op,
                         std::size_t q_begin, std::size_t q_end) {
  if (op == PopcountOp::kAnd)
    scores_block<PopcountOp::kAnd>(args.packed, args.nrows, args.rpad,
                                   args.nwords, args.queries, q_begin, q_end,
                                   args.out);
  else
    scores_block<PopcountOp::kXor>(args.packed, args.nrows, args.rpad,
                                   args.nwords, args.queries, q_begin, q_end,
                                   args.out);
}

void avx512_argmax_block(const KernelBlockArgs& args, std::size_t q_begin,
                         std::size_t q_end) {
  argmax_block(args.packed, args.rpad, args.nwords, args.queries, q_begin,
               q_end, args.out);
}

}  // namespace

namespace kernels {

const KernelBackend kAvx512Vpopcntdq = {
    /*name=*/"avx512-vpopcntdq",
    /*alias=*/"avx512",
    /*lane_rows=*/8,  // 8 x 64-bit rows per 512-bit vector
    /*supported=*/avx512_supported,
    /*scores_block=*/avx512_scores_block,
    /*argmax_block=*/avx512_argmax_block,
};

}  // namespace kernels
}  // namespace memhd::common

#endif  // MEMHD_KERNELS_X86

// x86-64 AVX2 backend for pre-Ice-Lake machines (Haswell through Skylake,
// and any AVX-512 part without VPOPCNTDQ).
//
// AVX2 has no vector popcount instruction, so each 256-bit vector is
// popcounted with the classic vpshufb nibble lookup (Mula's method): split
// every byte into nibbles, look both up in an in-register 16-entry table,
// and add. The per-byte counts are accumulated in 8-bit lanes for up to 31
// row words (31 * 8 = 248 < 256, no overflow) and only then widened into
// the per-row 64-bit accumulators with one vpsadbw — the horizontal
// byte-sum against zero — so the expensive widening amortizes across the
// word loop.
//
// Same vertical layout as the AVX-512 backend, at half the width: the row
// matrix is repacked word-major with rows padded to a multiple of 4, one
// 256-bit vector covers 4 rows' worth of one word index, and an 8-row x
// 2-query tile shares every loaded row vector between both queries. Lane k
// of group g IS row g+k's score, so stores just narrow 64->32 and clip.
#include "src/common/kernels/backend_common.hpp"

#if MEMHD_KERNELS_X86

#include <immintrin.h>

#include <algorithm>
#include <cstring>

namespace memhd::common {
namespace {

// Max row words accumulated in the 8-bit lanes between vpsadbw flushes:
// each word contributes at most 8 to its byte, 31 * 8 = 248 <= 255.
constexpr std::size_t kFlushWords = 31;

template <PopcountOp op>
__attribute__((target("avx2")))
inline __m256i combine256(__m256i a, __m256i b) {
  if constexpr (op == PopcountOp::kAnd) return _mm256_and_si256(a, b);
  return _mm256_xor_si256(a, b);
}

__attribute__((target("avx2")))
inline __m256i popcount_bytes(__m256i v) {
  const __m256i lut =
      _mm256_setr_epi8(0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,
                       0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4);
  const __m256i low_mask = _mm256_set1_epi8(0x0f);
  const __m256i lo = _mm256_and_si256(v, low_mask);
  const __m256i hi = _mm256_and_si256(_mm256_srli_epi16(v, 4), low_mask);
  return _mm256_add_epi8(_mm256_shuffle_epi8(lut, lo),
                         _mm256_shuffle_epi8(lut, hi));
}

__attribute__((target("avx2")))
void store_group(__m256i acc, std::uint32_t* dst, std::size_t valid) {
  // Narrow the four 64-bit lane scores (< 2^32) to 32 bits.
  const __m256i perm = _mm256_setr_epi32(0, 2, 4, 6, 0, 0, 0, 0);
  const __m128i narrowed =
      _mm256_castsi256_si128(_mm256_permutevar8x32_epi32(acc, perm));
  if (valid >= 4) {
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst), narrowed);
  } else {
    alignas(16) std::uint32_t buf[4];
    _mm_store_si128(reinterpret_cast<__m128i*>(buf), narrowed);
    std::memcpy(dst, buf, valid * sizeof(std::uint32_t));
  }
}

// The hot 8-row x 2-query accumulation tile shared by scores_block and
// the fused argmax (which instantiates it with kAnd): 4 byte accumulators
// flushed into 4 qword accumulators every kFlushWords row words. Named
// accumulators on purpose (see the AVX-512 backend): an array + inner
// k-loop re-rolls the tile and serializes the popcount chains.
struct Tile8x2 {
  __m256i a00, a01;  // query a, rows g..g+3 / g+4..g+7
  __m256i a10, a11;  // query b
};

template <PopcountOp op>
__attribute__((target("avx2")))
inline Tile8x2 tile_scores_8x2(const std::uint64_t* base, std::size_t rpad,
                               std::size_t nwords, const std::uint64_t* qa,
                               const std::uint64_t* qb) {
  const __m256i zero = _mm256_setzero_si256();
  Tile8x2 t{zero, zero, zero, zero};
  std::size_t w = 0;
  while (w < nwords) {
    const std::size_t wend = std::min(nwords, w + kFlushWords);
    __m256i c00 = zero, c01 = zero, c10 = zero, c11 = zero;
    for (; w < wend; ++w, base += rpad) {
      const __m256i m0 =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(base));
      const __m256i m1 =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(base + 4));
      const __m256i ba = _mm256_set1_epi64x(static_cast<long long>(qa[w]));
      c00 = _mm256_add_epi8(c00, popcount_bytes(combine256<op>(ba, m0)));
      c01 = _mm256_add_epi8(c01, popcount_bytes(combine256<op>(ba, m1)));
      const __m256i bb = _mm256_set1_epi64x(static_cast<long long>(qb[w]));
      c10 = _mm256_add_epi8(c10, popcount_bytes(combine256<op>(bb, m0)));
      c11 = _mm256_add_epi8(c11, popcount_bytes(combine256<op>(bb, m1)));
    }
    t.a00 = _mm256_add_epi64(t.a00, _mm256_sad_epu8(c00, zero));
    t.a01 = _mm256_add_epi64(t.a01, _mm256_sad_epu8(c01, zero));
    t.a10 = _mm256_add_epi64(t.a10, _mm256_sad_epu8(c10, zero));
    t.a11 = _mm256_add_epi64(t.a11, _mm256_sad_epu8(c11, zero));
  }
  return t;
}

// Accumulates one 4-row group's scores for a single query over the full
// word range (byte accumulation + periodic vpsadbw widening).
template <PopcountOp op>
__attribute__((target("avx2")))
inline __m256i group_scores(const std::uint64_t* base, std::size_t rpad,
                            std::size_t nwords, const std::uint64_t* qw) {
  const __m256i zero = _mm256_setzero_si256();
  __m256i acc = zero;
  std::size_t w = 0;
  while (w < nwords) {
    const std::size_t wend = std::min(nwords, w + kFlushWords);
    __m256i bytes = zero;
    for (; w < wend; ++w, base += rpad) {
      const __m256i bq = _mm256_set1_epi64x(static_cast<long long>(qw[w]));
      bytes = _mm256_add_epi8(
          bytes, popcount_bytes(combine256<op>(bq, _mm256_loadu_si256(
                                                       reinterpret_cast<const __m256i*>(base)))));
    }
    acc = _mm256_add_epi64(acc, _mm256_sad_epu8(bytes, zero));
  }
  return acc;
}

template <PopcountOp op>
__attribute__((target("avx2")))
void scores_block(const std::uint64_t* amt, std::size_t nrows,
                  std::size_t rpad, std::size_t nwords,
                  const std::uint64_t* const* queries, std::size_t q_begin,
                  std::size_t q_end, std::uint32_t* out) {
  // A lone tail query rides the 2-query tile as its own twin, as in
  // argmax_block: one tile walk of the word-major plane per 8 rows instead
  // of a one-query walk per 4 rows. The twin's scores land in `sink`,
  // never in `out`.
  alignas(32) std::uint32_t sink[8];
  for (std::size_t q = q_begin; q < q_end; q += 2) {
    const bool pair = q + 1 < q_end;
    const std::uint64_t* qa = queries[q];
    const std::uint64_t* qb = queries[pair ? q + 1 : q];
    std::size_t g = 0;
    for (; g + 8 <= rpad; g += 8) {
      const Tile8x2 t = tile_scores_8x2<op>(amt + g, rpad, nwords, qa, qb);
      std::uint32_t* oa = out + q * nrows + g;
      std::uint32_t* ob = pair ? out + (q + 1) * nrows + g : sink;
      store_group(t.a00, oa, nrows - g);
      store_group(t.a01, oa + 4, nrows - g - 4);
      store_group(t.a10, ob, nrows - g);
      store_group(t.a11, ob + 4, nrows - g - 4);
    }
    if (g < rpad) {  // one trailing 4-row group
      store_group(group_scores<op>(amt + g, rpad, nwords, qa),
                  out + q * nrows + g, nrows - g);
      if (pair)
        store_group(group_scores<op>(amt + g, rpad, nwords, qb),
                    out + (q + 1) * nrows + g, nrows - g);
    }
  }
}

// Fused scoring + first-wins argmax (kAnd only) — the same running
// (vmax, vidx) lane-pair scheme as the AVX-512 backend, at 4 lanes: groups
// fold in ascending row order with a strict greater-than (signed
// cmpgt_epi64 is safe, scores < 2^32), lanes initialize to (0, lane) ==
// group 0's zero-score state, and the final reduction breaks ties toward
// the smaller row index. Padded rows score 0 with indices >= nrows and
// lose every tie-break.
__attribute__((target("avx2")))
inline void argmax_fold(__m256i& vmax, __m256i& vidx, __m256i acc,
                        __m256i cand_idx) {
  const __m256i gt = _mm256_cmpgt_epi64(acc, vmax);
  vmax = _mm256_blendv_epi8(vmax, acc, gt);
  vidx = _mm256_blendv_epi8(vidx, cand_idx, gt);
}

__attribute__((target("avx2")))
inline std::uint32_t argmax_reduce(__m256i vmax, __m256i vidx) {
  alignas(32) std::uint64_t vals[4];
  alignas(32) std::uint64_t idxs[4];
  _mm256_store_si256(reinterpret_cast<__m256i*>(vals), vmax);
  _mm256_store_si256(reinterpret_cast<__m256i*>(idxs), vidx);
  std::uint64_t best_val = vals[0];
  std::uint64_t best_idx = idxs[0];
  for (int k = 1; k < 4; ++k) {
    if (vals[k] > best_val || (vals[k] == best_val && idxs[k] < best_idx)) {
      best_val = vals[k];
      best_idx = idxs[k];
    }
  }
  return static_cast<std::uint32_t>(best_idx);
}

__attribute__((target("avx2")))
void argmax_block(const std::uint64_t* amt, std::size_t rpad,
                  std::size_t nwords, const std::uint64_t* const* queries,
                  std::size_t q_begin, std::size_t q_end, std::uint32_t* out) {
  const __m256i lane_ids = _mm256_setr_epi64x(0, 1, 2, 3);
  const __m256i zero = _mm256_setzero_si256();
  for (std::size_t q = q_begin; q < q_end; q += 2) {
    // A lone tail query rides the 2-query tile as its own twin (result
    // dropped): fewer strided walks of the word-major plane than a
    // one-query pass per 4 rows, so it costs less than the pass did.
    const std::uint64_t* qa = queries[q];
    const std::uint64_t* qb = queries[q + 1 < q_end ? q + 1 : q];
    __m256i vmax0 = zero, vidx0 = lane_ids;
    __m256i vmax1 = zero, vidx1 = lane_ids;
    std::size_t g = 0;
    for (; g + 8 <= rpad; g += 8) {
      const Tile8x2 t =
          tile_scores_8x2<PopcountOp::kAnd>(amt + g, rpad, nwords, qa, qb);
      const __m256i idx0 = _mm256_add_epi64(
          lane_ids, _mm256_set1_epi64x(static_cast<long long>(g)));
      const __m256i idx1 = _mm256_add_epi64(
          lane_ids, _mm256_set1_epi64x(static_cast<long long>(g + 4)));
      argmax_fold(vmax0, vidx0, t.a00, idx0);
      argmax_fold(vmax0, vidx0, t.a01, idx1);
      argmax_fold(vmax1, vidx1, t.a10, idx0);
      argmax_fold(vmax1, vidx1, t.a11, idx1);
    }
    if (g < rpad) {  // one trailing 4-row group
      const __m256i idx = _mm256_add_epi64(
          lane_ids, _mm256_set1_epi64x(static_cast<long long>(g)));
      argmax_fold(vmax0, vidx0,
                  group_scores<PopcountOp::kAnd>(amt + g, rpad, nwords, qa),
                  idx);
      argmax_fold(vmax1, vidx1,
                  group_scores<PopcountOp::kAnd>(amt + g, rpad, nwords, qb),
                  idx);
    }
    out[q] = argmax_reduce(vmax0, vidx0);
    if (q + 1 < q_end) out[q + 1] = argmax_reduce(vmax1, vidx1);
  }
}

// Runs during registry detection on ANY x86 CPU — including ones without
// AVX — so it must stay baseline code even when the rest of this TU is
// compiled at x86-64-v3 (native builds pin the TU; see CMakeLists.txt).
__attribute__((target("arch=x86-64")))
bool avx2_supported() { return __builtin_cpu_supports("avx2"); }

void avx2_scores_block(const KernelBlockArgs& args, PopcountOp op,
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

void avx2_argmax_block(const KernelBlockArgs& args, std::size_t q_begin,
                       std::size_t q_end) {
  argmax_block(args.packed, args.rpad, args.nwords, args.queries, q_begin,
               q_end, args.out);
}

}  // namespace

namespace kernels {

const KernelBackend kAvx2 = {
    /*name=*/"avx2",
    /*alias=*/nullptr,
    /*lane_rows=*/4,  // 4 x 64-bit rows per 256-bit vector
    /*supported=*/avx2_supported,
    /*scores_block=*/avx2_scores_block,
    /*argmax_block=*/avx2_argmax_block,
};

}  // namespace kernels
}  // namespace memhd::common

#endif  // MEMHD_KERNELS_X86

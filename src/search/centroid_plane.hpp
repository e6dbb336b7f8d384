// The frozen centroid plane: the one search object every model answers a
// query through. Every model of the paper deploys a binary AM searched by
// one MVM dot search over its stored rows, and the owner of the winning row
// is the label (§III, §IV-F). A CentroidPlane is that step, frozen:
//
//   * the packed rows, as one common::BatchScorer (the programmed array of
//     Schmuck et al.'s single combinational AM, PAPERS.md);
//   * a row -> class owner map (MEMHD's centroid ownership, SearcHD's
//     r / N, the identity for one row per class);
//   * a ranking rule: the plain AND-dot, or LeHDC's bipolar rank
//     2 * dot - popcount(row), whose row popcounts the plane counts once;
//   * optionally a CascadeSearcher built over the same packed scorer, so
//     exhaustive and cascade search share one exact plane.
//
// predict() is the first-wins argmax over the ranked rows mapped to its
// owner (through the cascade when present); scores() is the raw AND-popcount
// table whatever the ranking. The cascade ranks by dot, so a plane with a
// cascade and bipolar ranking is a contract violation.
//
// Thread contract: IMMUTABLE after construction and held by shared_ptr.
// Model copies share one plane, serving contexts pin it by pointer, and a
// model that mutates builds a new plane rather than touching the shared one.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "src/common/bit_matrix.hpp"
#include "src/common/bit_vector.hpp"
#include "src/common/bitops_batch.hpp"
#include "src/data/dataset.hpp"
#include "src/search/cascade_config.hpp"

namespace memhd::search {

class CascadeSearcher;

/// How predict() ranks the rows from their AND-popcount scores.
enum class Ranking : std::uint8_t {
  /// popcount(row AND query): dot similarity over the {0,1} bit-plane.
  kDot,
  /// 2 * dot - popcount(row): orders rows exactly as the bipolar dot
  /// bipolar(row) . bipolar(query) = 4 * dot - 2 * pc(row) - 2 * pc(query)
  /// + D does, since pc(query) and D are constant per query.
  kBipolar,
};

class CentroidPlane {
 public:
  /// Owner-map value of a row no class owns; predict() never returns it.
  static constexpr data::Label kNoOwner = 0xFFFF;

  /// Packs `rows` with one owner per row. When `cascade.enabled`, builds a
  /// CascadeSearcher over the same packed scorer (which throws
  /// std::invalid_argument for an out-of-range config); cascade with
  /// Ranking::kBipolar is a contract violation.
  CentroidPlane(const common::BitMatrix& rows, std::vector<data::Label> owners,
                Ranking ranking = Ranking::kDot,
                const CascadeConfig& cascade = {});

  std::size_t rows() const { return scorer_->rows(); }
  std::size_t cols() const { return scorer_->cols(); }
  /// The row-major bits this plane was packed from.
  const common::BitMatrix& matrix() const { return scorer_->matrix(); }
  const common::BatchScorer& scorer() const { return *scorer_; }
  /// The cascade predict() routes through, or null for exhaustive search.
  const CascadeSearcher* cascade() const { return cascade_.get(); }
  const std::shared_ptr<const CascadeSearcher>& cascade_ptr() const {
    return cascade_;
  }

  /// out[q] = owner of the first row of maximal rank for queries[q].
  /// out.size() must equal queries.size(); every winner must be owned.
  void predict(std::span<const common::BitVector> queries,
               std::span<data::Label> out) const;
  std::vector<data::Label> predict(
      std::span<const common::BitVector> queries) const;

  /// Raw AND-popcount table: out[q * rows() + r] = popcount(row_r AND
  /// query_q), whatever the ranking.
  void scores(std::span<const common::BitVector> queries,
              std::vector<std::uint32_t>& out) const {
    scorer_->scores(queries, common::PopcountOp::kAnd, out);
  }

 private:
  std::shared_ptr<const common::BatchScorer> scorer_;
  std::vector<data::Label> owners_;
  Ranking ranking_;
  std::vector<std::int64_t> row_popcount_;  // popcount per row; kBipolar only
  std::shared_ptr<const CascadeSearcher> cascade_;
};

}  // namespace memhd::search

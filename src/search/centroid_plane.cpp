#include "src/search/centroid_plane.hpp"

#include <limits>
#include <utility>

#include "src/common/assert.hpp"
#include "src/common/bitops.hpp"
#include "src/search/cascade.hpp"

namespace memhd::search {

CentroidPlane::CentroidPlane(const common::BitMatrix& rows,
                             std::vector<data::Label> owners, Ranking ranking,
                             const CascadeConfig& cascade)
    : scorer_(std::make_shared<const common::BatchScorer>(rows)),
      owners_(std::move(owners)),
      ranking_(ranking) {
  MEMHD_EXPECTS(owners_.size() == rows.rows());
  MEMHD_EXPECTS(!(cascade.enabled && ranking == Ranking::kBipolar));
  if (ranking == Ranking::kBipolar) {
    row_popcount_.resize(rows.rows());
    for (std::size_t r = 0; r < rows.rows(); ++r)
      row_popcount_[r] = static_cast<std::int64_t>(common::and_popcount(
          rows.row(r), rows.row(r), rows.words_per_row()));
  }
  if (cascade.enabled)
    cascade_ = std::make_shared<const CascadeSearcher>(scorer_, cascade);
}

void CentroidPlane::predict(std::span<const common::BitVector> queries,
                            std::span<data::Label> out) const {
  MEMHD_EXPECTS(out.size() == queries.size());
  if (queries.empty()) return;
  MEMHD_EXPECTS(rows() > 0);
  std::vector<std::uint32_t> best;
  if (ranking_ == Ranking::kBipolar) {
    std::vector<std::uint32_t> table;
    scores(queries, table);
    best.resize(queries.size());
    for (std::size_t q = 0; q < queries.size(); ++q) {
      const std::uint32_t* s = table.data() + q * rows();
      std::int64_t best_rank = std::numeric_limits<std::int64_t>::min();
      for (std::size_t r = 0; r < rows(); ++r) {
        const std::int64_t rank = 2 * static_cast<std::int64_t>(s[r]) -
                                  row_popcount_[r];
        if (rank > best_rank) {
          best_rank = rank;
          best[q] = static_cast<std::uint32_t>(r);
        }
      }
    }
  } else if (cascade_ != nullptr) {
    cascade_->dot_argmax(queries, best);
  } else {
    scorer_->dot_argmax(queries, best);
  }
  for (std::size_t q = 0; q < queries.size(); ++q) {
    out[q] = owners_[best[q]];
    MEMHD_ENSURES(out[q] != kNoOwner);
  }
}

std::vector<data::Label> CentroidPlane::predict(
    std::span<const common::BitVector> queries) const {
  std::vector<data::Label> out(queries.size());
  predict(queries, out);
  return out;
}

}  // namespace memhd::search

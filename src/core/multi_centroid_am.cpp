#include "src/core/multi_centroid_am.hpp"

#include <algorithm>
#include <cmath>

#include "src/common/assert.hpp"
#include "src/common/stats.hpp"
#include "src/search/cascade.hpp"
#include "src/search/centroid_plane.hpp"

namespace memhd::core {

MultiCentroidAM::MultiCentroidAM(std::size_t num_classes, std::size_t dim,
                                 std::size_t columns)
    : num_classes_(num_classes),
      dim_(dim),
      columns_(columns),
      owner_(columns, kUnassigned),
      class_slots_(num_classes),
      fp_(columns, dim, 0.0f),
      binary_(columns, dim) {
  MEMHD_EXPECTS(num_classes >= 2);
  MEMHD_EXPECTS(dim >= 1);
  // The defining constraint of the multi-centroid AM: at least one column
  // per class, columns >= classes.
  MEMHD_EXPECTS(columns >= num_classes);
}

data::Label MultiCentroidAM::owner(std::size_t col) const {
  MEMHD_EXPECTS(col < columns_);
  return owner_[col];
}

const std::vector<std::size_t>& MultiCentroidAM::centroids_of_class(
    data::Label c) const {
  MEMHD_EXPECTS(c < num_classes_);
  return class_slots_[c];
}

std::size_t MultiCentroidAM::centroids_per_class(data::Label c) const {
  return centroids_of_class(c).size();
}

void MultiCentroidAM::set_centroid(std::size_t col, data::Label owner,
                                   std::span<const float> values) {
  MEMHD_EXPECTS(col < columns_);
  MEMHD_EXPECTS(owner < num_classes_);
  MEMHD_EXPECTS(values.size() == dim_);
  if (owner_[col] != kUnassigned) {
    auto& slots = class_slots_[owner_[col]];
    slots.erase(std::remove(slots.begin(), slots.end(), col), slots.end());
  }
  owner_[col] = owner;
  class_slots_[owner].push_back(col);
  std::copy(values.begin(), values.end(), fp_.row(col).begin());
  plane_.reset();
  fp_mean_.reset();
}

bool MultiCentroidAM::fully_assigned() const {
  return std::none_of(owner_.begin(), owner_.end(),
                      [](data::Label l) { return l == kUnassigned; });
}

double MultiCentroidAM::fp_mean() {
  if (!fp_mean_) fp_mean_ = fp_.mean();
  return *fp_mean_;
}

void MultiCentroidAM::freeze(const search::CascadeConfig& cascade) {
  plane_ = std::make_shared<const search::CentroidPlane>(
      binary_, owner_, search::Ranking::kDot, cascade);
}

std::shared_ptr<const search::CentroidPlane> MultiCentroidAM::search_plane()
    const {
  if (plane_ != nullptr) return plane_;
  return std::make_shared<const search::CentroidPlane>(binary_, owner_);
}

void MultiCentroidAM::binarize() {
  plane_.reset();
  const float threshold = static_cast<float>(fp_mean());
  for (std::size_t col = 0; col < columns_; ++col) {
    const auto row = fp_.row(col);
    binary_.set_row(col, common::BitVector::from_threshold(
                             row.data(), row.size(), threshold));
  }
}

void MultiCentroidAM::binarize_rows(std::span<const std::size_t> rows) {
  binarize_rows(rows, static_cast<float>(fp_mean()));
}

void MultiCentroidAM::binarize_rows(std::span<const std::size_t> rows,
                                    float threshold) {
  plane_.reset();
  for (const std::size_t col : rows) {
    MEMHD_EXPECTS(col < columns_);
    const auto row = fp_.row(col);
    binary_.set_row(col, common::BitVector::from_threshold(
                             row.data(), row.size(), threshold));
  }
}

void MultiCentroidAM::extend(std::size_t new_num_classes,
                             std::size_t extra_columns) {
  MEMHD_EXPECTS(new_num_classes >= num_classes_);
  const std::size_t new_columns = columns_ + extra_columns;
  MEMHD_EXPECTS(new_columns >= new_num_classes);
  plane_.reset();
  fp_mean_.reset();
  owner_.resize(new_columns, kUnassigned);
  class_slots_.resize(new_num_classes);
  const std::vector<float> zeros(dim_, 0.0f);
  for (std::size_t col = columns_; col < new_columns; ++col)
    fp_.append_row(zeros);
  if (extra_columns > 0) {
    // BitMatrix has no append: rebuild at the new shape and copy the
    // deployed rows over bit-for-bit. New rows start all-zero until
    // binarize_rows quantizes their assigned centroids.
    common::BitMatrix grown(new_columns, dim_);
    for (std::size_t col = 0; col < columns_; ++col)
      grown.set_row(col, binary_.row_vector(col));
    binary_ = std::move(grown);
  }
  num_classes_ = new_num_classes;
  columns_ = new_columns;
}

void MultiCentroidAM::restore_binary(const common::BitMatrix& snapshot) {
  MEMHD_EXPECTS(snapshot.rows() == columns_ && snapshot.cols() == dim_);
  plane_.reset();
  binary_ = snapshot;
}

namespace {

void normalize_one_row(std::span<float> row, NormalizationMode mode) {
  if (mode == NormalizationMode::kL2) {
    const float n = common::norm(row);
    if (n > 0.0f)
      for (auto& v : row) v /= n;
  } else {  // kZScore
    double mu = 0.0;
    for (const auto v : row) mu += v;
    mu /= static_cast<double>(row.size());
    double var = 0.0;
    for (const auto v : row) var += (v - mu) * (v - mu);
    const double sd = std::sqrt(var / static_cast<double>(row.size()));
    if (sd > 0.0) {
      for (auto& v : row)
        v = static_cast<float>((v - mu) / sd);
    } else {
      for (auto& v : row) v = 0.0f;
    }
  }
}

}  // namespace

void MultiCentroidAM::normalize(NormalizationMode mode) {
  if (mode == NormalizationMode::kNone) return;
  fp_mean_.reset();
  for (std::size_t col = 0; col < columns_; ++col)
    normalize_one_row(fp_.row(col), mode);
}

void MultiCentroidAM::normalize_rows(NormalizationMode mode,
                                     std::span<const std::size_t> rows) {
  if (mode == NormalizationMode::kNone) return;
  fp_mean_.reset();
  for (const std::size_t col : rows) {
    MEMHD_EXPECTS(col < columns_);
    normalize_one_row(fp_.row(col), mode);
  }
}

void MultiCentroidAM::scores_binary(const common::BitVector& query,
                                    std::vector<std::uint32_t>& out) const {
  MEMHD_EXPECTS(query.size() == dim_);
  binary_.mvm(query, out);
}

void MultiCentroidAM::scores_batch(std::span<const common::BitVector> queries,
                                   std::vector<std::uint32_t>& out) const {
  search_plane()->scores(queries, out);
}

void MultiCentroidAM::scores_fp(const common::BitVector& query,
                                std::vector<float>& out) const {
  MEMHD_EXPECTS(query.size() == dim_);
  out.resize(columns_);
  for (std::size_t col = 0; col < columns_; ++col) {
    const auto row = fp_.row(col);
    float set_sum = 0.0f;
    float total = 0.0f;
    for (std::size_t j = 0; j < dim_; ++j) {
      total += row[j];
      if (query.get(j)) set_sum += row[j];
    }
    out[col] = 2.0f * set_sum - total;  // dot with bipolar(query)
  }
}

std::size_t MultiCentroidAM::best_centroid(
    std::span<const std::uint32_t> scores) const {
  MEMHD_EXPECTS(scores.size() == columns_);
  return common::argmax_u32(scores);
}

std::size_t MultiCentroidAM::best_centroid_of_class(
    std::span<const std::uint32_t> scores, data::Label c) const {
  MEMHD_EXPECTS(scores.size() == columns_);
  const auto& slots = centroids_of_class(c);
  MEMHD_EXPECTS(!slots.empty());
  std::size_t best = slots.front();
  for (const auto col : slots)
    if (scores[col] > scores[best]) best = col;
  return best;
}

data::Label MultiCentroidAM::predict_binary(
    const common::BitVector& query) const {
  std::vector<std::uint32_t> scores;
  scores_binary(query, scores);
  const std::size_t best = best_centroid(scores);
  MEMHD_ENSURES(owner_[best] != kUnassigned);
  return owner_[best];
}

std::vector<data::Label> MultiCentroidAM::predict_batch(
    std::span<const common::BitVector> queries) const {
  return search_plane()->predict(queries);
}

std::vector<data::Label> MultiCentroidAM::predict_batch(
    std::span<const common::BitVector> queries,
    const search::CascadeSearcher& cascade,
    search::CascadeStats* stats) const {
  // The cascade snapshots the plane it was built from; insist the shapes
  // still agree so a searcher that predates an extend() cannot silently
  // search a smaller plane. (Same-shape staleness — a re-binarize since
  // the snapshot — is the caller's contract: rebuild after mutation.)
  MEMHD_EXPECTS(cascade.rows() == columns_ && cascade.cols() == dim_);
  std::vector<std::uint32_t> best;
  cascade.dot_argmax(queries, best, stats);
  std::vector<data::Label> out(queries.size());
  for (std::size_t q = 0; q < queries.size(); ++q) {
    MEMHD_ENSURES(owner_[best[q]] != kUnassigned);
    out[q] = owner_[best[q]];
  }
  return out;
}

data::Label MultiCentroidAM::predict_fp(const common::BitVector& query) const {
  std::vector<float> scores;
  scores_fp(query, scores);
  std::size_t best = 0;
  float best_score = -std::numeric_limits<float>::infinity();
  for (std::size_t col = 0; col < columns_; ++col) {
    if (owner_[col] == kUnassigned) continue;  // skip unassigned slots
    if (scores[col] > best_score) {
      best_score = scores[col];
      best = col;
    }
  }
  MEMHD_ENSURES(owner_[best] != kUnassigned);
  return owner_[best];
}

data::Label MultiCentroidAM::predict_with_metric(
    const common::BitVector& query, SearchMetric metric) const {
  MEMHD_EXPECTS(query.size() == dim_);
  if (metric == SearchMetric::kDot) return predict_binary(query);

  std::size_t best = 0;
  double best_score = -std::numeric_limits<double>::infinity();
  const double qnorm = std::sqrt(static_cast<double>(query.popcount()));
  for (std::size_t col = 0; col < columns_; ++col) {
    const auto row = binary_.row_vector(col);
    double score = 0.0;
    if (metric == SearchMetric::kHamming) {
      score = -static_cast<double>(row.hamming(query));
    } else {  // kCosine
      const double rnorm = std::sqrt(static_cast<double>(row.popcount()));
      score = (qnorm == 0.0 || rnorm == 0.0)
                  ? 0.0
                  : static_cast<double>(row.dot(query)) / (qnorm * rnorm);
    }
    if (score > best_score) {
      best_score = score;
      best = col;
    }
  }
  MEMHD_ENSURES(owner_[best] != kUnassigned);
  return owner_[best];
}

double evaluate_binary(const MultiCentroidAM& am,
                       const hdc::EncodedDataset& test) {
  MEMHD_EXPECTS(am.dim() == test.dim);
  return common::accuracy(test.labels, am.predict_batch(test.hypervectors));
}

double evaluate_fp(const MultiCentroidAM& am,
                   const hdc::EncodedDataset& test) {
  MEMHD_EXPECTS(am.dim() == test.dim);
  if (test.empty()) return 0.0;
  std::size_t correct = 0;
  for (std::size_t i = 0; i < test.size(); ++i)
    if (am.predict_fp(test.hypervectors[i]) == test.labels[i]) ++correct;
  return static_cast<double>(correct) / static_cast<double>(test.size());
}

}  // namespace memhd::core

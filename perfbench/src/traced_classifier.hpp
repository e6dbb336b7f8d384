// The traced run's model: an api::Classifier decorator that is registered
// with the Router in place of the MEMHD adapter. It forwards everything to
// the real api::MemhdClassifier and, for each scored batch, makes the same
// public calls MemhdClassifier::predict_batch_into makes — encoder()
// .encode_batch, then BatchScorer::dot_argmax or CascadeSearcher::dot_argmax
// (or the AM's own predict_batch on the context-free path) — timing each
// call as a span. Spans live in memory until the benchmark writes them out.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/api/adapters.hpp"
#include "src/common/sync.hpp"
#include "src/common/thread_annotations.hpp"

namespace perfbench {

/// One timed call. Times are steady-clock nanoseconds since the epoch of
/// std::chrono::steady_clock; `batch` ties the encode/search spans of one
/// scored batch to its "model" span.
struct Span {
  const char* name = "";  // "model", "encode", "search", "clone"
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t batch = 0;
  std::uint32_t rows = 0;
};

/// In-memory span sink shared by a decorator and its clones.
class Tracer {
 public:
  std::uint64_t next_batch() MEMHD_EXCLUDES(mutex_);
  void record(const Span& span) MEMHD_EXCLUDES(mutex_);
  /// Remembers which query rows (by content hash) batch `batch` scored.
  void record_rows(std::uint64_t batch, std::vector<std::uint64_t> hashes)
      MEMHD_EXCLUDES(mutex_);

  std::vector<Span> spans() const MEMHD_EXCLUDES(mutex_);
  /// (batch, row hash) pairs in record order.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> rows() const
      MEMHD_EXCLUDES(mutex_);
  void clear() MEMHD_EXCLUDES(mutex_);

 private:
  mutable memhd::common::Mutex mutex_;
  std::uint64_t next_batch_ MEMHD_GUARDED_BY(mutex_) = 0;
  std::vector<Span> spans_ MEMHD_GUARDED_BY(mutex_);
  std::vector<std::pair<std::uint64_t, std::uint64_t>> rows_
      MEMHD_GUARDED_BY(mutex_);
};

/// Content hash of one feature row; the generator's query rows are told
/// apart by it when spans are joined to requests.
std::uint64_t row_hash(std::span<const float> row);

std::int64_t steady_ns();

/// clone() of a MEMHD model, typed (throws std::logic_error otherwise).
std::unique_ptr<memhd::api::MemhdClassifier> memhd_clone(
    const memhd::api::Classifier& model);

class TracedClassifier final : public memhd::api::Classifier {
 public:
  TracedClassifier(std::unique_ptr<memhd::api::MemhdClassifier> inner,
                   std::shared_ptr<Tracer> tracer);

  const memhd::api::MemhdClassifier& inner() const { return *inner_; }

  memhd::core::ModelKind kind() const override { return inner_->kind(); }
  std::size_t num_features() const override { return inner_->num_features(); }
  std::size_t num_classes() const override { return inner_->num_classes(); }
  std::size_t dim() const override { return inner_->dim(); }
  bool fitted() const override { return inner_->fitted(); }
  void fit(const memhd::data::Dataset& train,
           const memhd::data::Dataset* eval = nullptr) override {
    inner_->fit(train, eval);
  }
  memhd::data::Label predict(std::span<const float> features) const override {
    return inner_->predict(features);
  }
  std::vector<memhd::data::Label> predict_batch(
      const memhd::common::Matrix& features) const override;
  std::unique_ptr<PredictContext> make_predict_context() const override;
  void predict_batch_into(const memhd::common::Matrix& features,
                          std::span<memhd::data::Label> out,
                          PredictContext* context = nullptr) const override;
  std::size_t score_rows() const override { return inner_->score_rows(); }
  void scores_batch(const memhd::common::Matrix& features,
                    std::vector<std::uint32_t>& out) const override {
    inner_->scores_batch(features, out);
  }
  bool supports_partial_fit() const override { return true; }
  memhd::core::PartialFitReport partial_fit(
      const memhd::common::Matrix& samples,
      std::span<const memhd::data::Label> labels) override {
    return inner_->partial_fit(samples, labels);
  }
  /// Times the inner clone as a "clone" span; the copy is traced too.
  std::unique_ptr<memhd::api::Classifier> clone() const override;
  memhd::core::MemoryBreakdown memory() const override {
    return inner_->memory();
  }
  void save_payload(std::ostream& out) const override {
    inner_->save_payload(out);
  }

 private:
  std::unique_ptr<memhd::api::MemhdClassifier> inner_;
  std::shared_ptr<Tracer> tracer_;
};

}  // namespace perfbench

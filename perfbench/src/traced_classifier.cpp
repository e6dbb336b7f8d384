#include "traced_classifier.hpp"

#include <cstring>
#include <optional>
#include <stdexcept>

#include "src/common/bitops_batch.hpp"
#include "src/search/cascade.hpp"

namespace perfbench {

std::int64_t steady_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::uint64_t row_hash(std::span<const float> row) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const float v : row) {
    std::uint32_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    h = (h ^ bits) * 0x100000001b3ULL;
  }
  return h;
}

std::uint64_t Tracer::next_batch() {
  memhd::common::MutexLock lock(mutex_);
  return next_batch_++;
}

void Tracer::record(const Span& span) {
  memhd::common::MutexLock lock(mutex_);
  spans_.push_back(span);
}

void Tracer::record_rows(std::uint64_t batch,
                         std::vector<std::uint64_t> hashes) {
  memhd::common::MutexLock lock(mutex_);
  for (const auto h : hashes) rows_.emplace_back(batch, h);
}

std::vector<Span> Tracer::spans() const {
  memhd::common::MutexLock lock(mutex_);
  return spans_;
}

std::vector<std::pair<std::uint64_t, std::uint64_t>> Tracer::rows() const {
  memhd::common::MutexLock lock(mutex_);
  return rows_;
}

void Tracer::clear() {
  memhd::common::MutexLock lock(mutex_);
  spans_.clear();
  rows_.clear();
}

namespace {
// Same pinned engine as the MEMHD adapter's own context: the model's
// CascadeSearcher when the cascade is on, a repacked BatchScorer otherwise.
struct TracedContext final : memhd::api::Classifier::PredictContext {
  explicit TracedContext(const memhd::core::MemhdModel& model)
      : cascade(model.cascade_ptr()) {
    if (cascade == nullptr) scorer.emplace(model.am().binary());
  }
  std::shared_ptr<const memhd::search::CascadeSearcher> cascade;
  std::optional<memhd::common::BatchScorer> scorer;
  std::vector<std::uint32_t> best;
};
}  // namespace

TracedClassifier::TracedClassifier(
    std::unique_ptr<memhd::api::MemhdClassifier> inner,
    std::shared_ptr<Tracer> tracer)
    : inner_(std::move(inner)), tracer_(std::move(tracer)) {
  if (inner_ == nullptr || tracer_ == nullptr)
    throw std::invalid_argument("TracedClassifier: null inner or tracer");
}

std::vector<memhd::data::Label> TracedClassifier::predict_batch(
    const memhd::common::Matrix& features) const {
  std::vector<memhd::data::Label> out(features.rows());
  predict_batch_into(features, out, nullptr);
  return out;
}

std::unique_ptr<memhd::api::Classifier::PredictContext>
TracedClassifier::make_predict_context() const {
  return std::make_unique<TracedContext>(inner_->model());
}

void TracedClassifier::predict_batch_into(
    const memhd::common::Matrix& features, std::span<memhd::data::Label> out,
    PredictContext* context) const {
  if (out.size() != features.rows())
    throw std::invalid_argument("TracedClassifier: out size mismatch");
  const std::uint64_t batch = tracer_->next_batch();
  const auto rows = static_cast<std::uint32_t>(features.rows());
  std::vector<std::uint64_t> hashes(features.rows());
  for (std::size_t r = 0; r < features.rows(); ++r)
    hashes[r] = row_hash(features.row(r));
  tracer_->record_rows(batch, std::move(hashes));

  const auto& model = inner_->model();
  auto* ctx = dynamic_cast<TracedContext*>(context);
  const std::int64_t t0 = steady_ns();
  const auto encoded = model.encoder().encode_batch(features);
  const std::int64_t t1 = steady_ns();
  if (ctx == nullptr) {
    // The adapter's context-free path: MemhdModel::predict_batch.
    const auto labels =
        model.cascade() != nullptr
            ? model.am().predict_batch(encoded, *model.cascade())
            : model.am().predict_batch(encoded);
    std::copy(labels.begin(), labels.end(), out.begin());
  } else {
    const std::span<const memhd::common::BitVector> queries(encoded);
    if (ctx->cascade != nullptr)
      ctx->cascade->dot_argmax(queries, ctx->best);
    else
      ctx->scorer->dot_argmax(queries, ctx->best);
    for (std::size_t q = 0; q < encoded.size(); ++q)
      out[q] = model.am().owner(ctx->best[q]);
  }
  const std::int64_t t2 = steady_ns();
  tracer_->record({"encode", t0, t1, batch, rows});
  tracer_->record({"search", t1, t2, batch, rows});
  tracer_->record({"model", t0, t2, batch, rows});
}

std::unique_ptr<memhd::api::Classifier> TracedClassifier::clone() const {
  const std::int64_t t0 = steady_ns();
  auto copy = memhd_clone(*inner_);
  const std::int64_t t1 = steady_ns();
  tracer_->record({"clone", t0, t1, 0, 0});
  return std::make_unique<TracedClassifier>(std::move(copy), tracer_);
}

std::unique_ptr<memhd::api::MemhdClassifier> memhd_clone(
    const memhd::api::Classifier& model) {
  auto copy = model.clone();
  auto* typed = dynamic_cast<memhd::api::MemhdClassifier*>(copy.get());
  if (typed == nullptr) throw std::logic_error("memhd_clone: not MEMHD");
  copy.release();
  return std::unique_ptr<memhd::api::MemhdClassifier>(typed);
}

}  // namespace perfbench

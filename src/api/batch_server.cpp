#include "src/api/batch_server.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

#include "src/common/assert.hpp"
#include "src/common/matrix.hpp"
#include "src/common/parallel.hpp"

namespace memhd::api {

const char* serve_errc_name(ServeErrc code) noexcept {
  switch (code) {
    case ServeErrc::kQueueFull:
      return "queue-full";
    case ServeErrc::kDeadlineExceeded:
      return "deadline-exceeded";
    case ServeErrc::kStopped:
      return "stopped";
  }
  return "unknown";
}

ServeError::ServeError(ServeErrc code)
    : std::runtime_error(std::string("BatchServer: request ") +
                         serve_errc_name(code)),
      code_(code) {}

namespace {

std::future<data::Label> errored_future(ServeErrc code) {
  std::promise<data::Label> promise;
  promise.set_exception(std::make_exception_ptr(ServeError(code)));
  return promise.get_future();
}

}  // namespace

BatchServer::BatchServer(const Classifier& model,
                         const BatchServerOptions& options)
    // FixedModelSource's constructor asserts the model is fitted.
    : BatchServer(std::make_shared<FixedModelSource>(model), options) {}

BatchServer::BatchServer(std::shared_ptr<const ModelSource> source,
                         const BatchServerOptions& options)
    : source_(std::move(source)), options_(options) {
  MEMHD_EXPECTS(source_ != nullptr);
  MEMHD_EXPECTS(options_.max_batch >= 1);
  MEMHD_EXPECTS(options_.shards >= 1);
  MEMHD_EXPECTS(options_.shard_quantum >= 1);
  num_features_ = source_->num_features();
  try {
    if (options_.shards > 1) {
      // Uncontended (no other thread can reach this server yet), taken so
      // the guarded shards_ writes satisfy the capability analysis.
      common::MutexLock dispatch(dispatch_mutex_);
      shards_.reserve(options_.shards);
      for (std::size_t s = 0; s < options_.shards; ++s) {
        auto shard = std::make_unique<Shard>();
        shard->thread =
            std::thread([this, raw = shard.get()] { shard_loop(*raw); });
        shards_.push_back(std::move(shard));
      }
    }
    if (options_.background) worker_ = std::thread([this] { worker_loop(); });
  } catch (...) {
    // A later spawn failing (thread exhaustion, bad_alloc) must not unwind
    // past joinable shard threads — that would std::terminate. Join what
    // started, then let the caller see the original error.
    stop_shards();
    throw;
  }
}

BatchServer::~BatchServer() { drain(); }

void BatchServer::drain() {
  // One drainer at a time (drain() may race the destructor or another
  // drain() caller); later callers wait for the first to finish, then see
  // everything already torn down and fall through each step as a no-op.
  common::MutexLock drain_lock(drain_mutex_);
  {
    common::MutexLock lock(mutex_);
    stop_ = true;  // from here every submit() fails fast, so pending_ only
                   // shrinks: the flush below empties it for good.
  }
  cv_.notify_all();
  if (worker_.joinable()) worker_.join();
  // Complete everything admitted (manual mode, or requests that raced the
  // stop flag) so no future is left dangling. The shard set is still up at
  // this point, so a large leftover batch drains through it like any other.
  flush();
  stop_shards();
}

void BatchServer::stop_shards() {
  // Taken before signalling/joining/clearing so an in-progress sharded
  // dispatch (a manual flush() racing drain()) finishes its whole turn
  // first — its shard threads still see stop == false and complete their
  // pieces — and so any dispatcher arriving later observes the cleared set
  // under the same mutex and scores inline instead of touching freed
  // Shard state.
  common::MutexLock dispatch(dispatch_mutex_);
  for (auto& shard : shards_) {
    {
      common::MutexLock lock(shard->mutex);
      shard->stop = true;
    }
    shard->cv.notify_all();
  }
  for (auto& shard : shards_)
    if (shard->thread.joinable()) shard->thread.join();
  shards_.clear();
}

std::future<data::Label> BatchServer::submit(std::span<const float> features,
                                             Clock::time_point deadline) {
  if (features.size() != num_features_)
    throw std::invalid_argument(
        "BatchServer::submit: feature length mismatch");

  Request request;
  request.features.assign(features.begin(), features.end());
  request.deadline = deadline;
  std::future<data::Label> future = request.promise.get_future();

  // When kEvictOldest displaces a request its promise is completed outside
  // the queue lock (set_exception can run arbitrary waiter continuations in
  // some implementations; keep the lock scope tight regardless).
  std::promise<data::Label> evicted;
  bool has_evicted = false;
  {
    common::MutexLock lock(mutex_);
    if (stop_) return errored_future(ServeErrc::kStopped);
    if (options_.max_pending > 0 &&
        pending_.size() >= options_.max_pending) {
      ++stats_.rejected;
      if (options_.overload == OverloadPolicy::kRejectNew)
        return errored_future(ServeErrc::kQueueFull);
      evicted = std::move(pending_.front().promise);
      pending_.erase(pending_.begin());
      has_evicted = true;
    }
    request.arrival = std::chrono::steady_clock::now();
    if (pending_.empty()) oldest_arrival_ = request.arrival;
    else if (has_evicted) oldest_arrival_ = pending_.front().arrival;
    pending_.push_back(std::move(request));
    ++stats_.requests;
    stats_.queue_depth_peak =
        std::max<std::uint64_t>(stats_.queue_depth_peak, pending_.size());
  }
  if (has_evicted)
    evicted.set_exception(
        std::make_exception_ptr(ServeError(ServeErrc::kQueueFull)));
  // Wakes the worker both out of its idle wait (first request) and out of
  // the batching window once the batch fills.
  cv_.notify_one();
  return future;
}

std::size_t BatchServer::flush() {
  std::vector<Request> batch;
  {
    common::MutexLock lock(mutex_);
    batch = cut_batch_locked();
  }
  const std::size_t n = batch.size();
  if (n > 0) run_batch(std::move(batch));
  return n;
}

std::size_t BatchServer::pending() const {
  common::MutexLock lock(mutex_);
  return pending_.size();
}

BatchServerStats BatchServer::stats() const {
  common::MutexLock lock(mutex_);
  return stats_;
}

std::uint64_t BatchServer::active_version() const {
  return source_->pin().version;
}

std::vector<BatchServer::Request> BatchServer::cut_batch_locked() {
  std::vector<Request> batch;
  batch.swap(pending_);
  if (!batch.empty()) {
    // The cut and its stats are one critical section: two racing flushers
    // can never count the same batch twice or split one batch's rows
    // across two counts.
    ++stats_.batches;
    stats_.largest_batch =
        std::max<std::uint64_t>(stats_.largest_batch, batch.size());
  }
  return batch;
}

void BatchServer::worker_loop() {
  common::MutexLock lock(mutex_);
  while (true) {
    while (!stop_ && pending_.empty()) cv_.wait(lock);
    if (stop_) return;  // drain()'s flush() completes leftovers

    // Micro-batch window: hold the batch open until it fills or the oldest
    // pending request has waited out the delay budget. The deadline is
    // re-derived from oldest_arrival_ on every wake: a racing flush() can
    // drain the queue mid-window, after which the head request belongs to
    // a NEW window — cutting it on the flushed batch's stale deadline
    // would shrink its delay budget to whatever the old batch left behind.
    // (Explicit wake-and-recheck loop rather than a predicate wait: every
    // condition is re-derived under the lock after each wakeup, and the
    // capability analysis sees the guarded reads under the held lock.)
    for (;;) {
      if (stop_) return;
      if (pending_.empty()) break;  // a flush() raced us; back to idle
      if (pending_.size() >= options_.max_batch) break;
      const auto deadline = oldest_arrival_ + options_.max_delay;
      if (std::chrono::steady_clock::now() >= deadline) break;
      cv_.wait_until(lock, deadline);
    }
    if (stop_) return;
    if (pending_.empty()) continue;

    std::vector<Request> batch = cut_batch_locked();
    lock.unlock();
    run_batch(std::move(batch));
    lock.lock();
  }
}

void BatchServer::shard_loop(Shard& shard) {
  common::MutexLock lock(shard.mutex);
  for (;;) {
    while (!shard.stop && shard.piece == nullptr) shard.cv.wait(lock);
    if (shard.piece != nullptr) {
      Request* piece = shard.piece;
      const std::size_t count = shard.count;
      const Classifier* model = shard.model;
      const std::uint64_t version = shard.version;
      lock.unlock();
      // The context (for MEMHD one pointer pin of the version's frozen
      // search plane) is this worker's private scoring state — built and
      // only ever touched on this thread, and rebuilt only when the
      // dispatched version changed (version ids are never reused, so id
      // equality means the same frozen model). The dispatcher's pin keeps
      // *model alive through the completion wait. Construction failure
      // (e.g. bad_alloc, or a model's own context doing real work) must not
      // escape the thread entry and terminate the process — the shard just
      // runs context-free, which is the plain predict_batch path and
      // bit-identical anyway.
      if (shard.context_version != version) {
        try {
          shard.context = model->make_predict_context();
        } catch (...) {
          shard.context = nullptr;
        }
        shard.context_version = version;
      }
      {
        // The shard set IS the parallelism: each worker scores its slice
        // inline rather than fanning back into (and contending for) the
        // one global pool alongside its sibling shards.
        common::InlineParallelScope inline_scope;
        run_rows(piece, count, *model, shard.context.get());
      }
      lock.lock();
      shard.piece = nullptr;
      shard.count = 0;
      shard.cv.notify_all();  // wakes the dispatcher waiting on completion
      continue;  // an assigned piece outranks a pending stop
    }
    if (shard.stop) return;
  }
}

void BatchServer::run_batch(std::vector<Request> batch) {
  // Deadline shedding at the cut: requests already past their budget are
  // completed with a timeout error instead of being scored — dead work
  // never reaches the kernels and never dilutes the fused batch. Order of
  // the surviving rows is preserved (stable compaction).
  const auto now = std::chrono::steady_clock::now();
  std::vector<std::promise<data::Label>> expired;
  std::size_t live = 0;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    if (batch[i].deadline <= now) {
      expired.push_back(std::move(batch[i].promise));
      continue;
    }
    if (live != i) batch[live] = std::move(batch[i]);
    ++live;
  }
  batch.resize(live);
  if (!expired.empty()) {
    {
      common::MutexLock lock(mutex_);
      stats_.timed_out += expired.size();
    }
    const auto error =
        std::make_exception_ptr(ServeError(ServeErrc::kDeadlineExceeded));
    for (auto& promise : expired) promise.set_exception(error);
  }

  const std::size_t n = batch.size();
  if (n == 0) return;

  // THE pin: one source resolution per cut batch, held (refcounted) until
  // every row below has completed. A publish/swap/rollback racing this
  // batch retires the old version from the source but cannot free or
  // mutate it while this handle lives — all n rows score against the same
  // frozen model, with no lock held across scoring.
  const PinnedModel pinned = source_->pin();

  if (options_.shards > 1 && n > options_.shard_quantum &&
      run_sharded(batch, pinned))
    return;

  run_rows(batch.data(), n, *pinned.model, nullptr);
  source_->note_scored(pinned.version, n);
}

bool BatchServer::run_sharded(std::vector<Request>& batch,
                              const PinnedModel& pinned) {
  // Sharded dispatch holds dispatch_mutex_ from the shards_ liveness check
  // through the completion wait: it serializes concurrent dispatchers
  // (racing flush() callers take whole turns at the shard set) AND
  // stop_shards(), which acquires the same mutex before tearing the set
  // down — so shards_ cannot be freed under a dispatcher, and a dispatcher
  // that arrives after teardown sees the empty set and scores inline.
  common::MutexLock dispatch(dispatch_mutex_);
  const std::size_t n = batch.size();
  std::size_t pieces = 0;
  if (!shards_.empty())
    pieces =
        std::min(shards_.size(),
                 (n + options_.shard_quantum - 1) / options_.shard_quantum);
  if (pieces <= 1) return false;  // torn down (or one piece): score inline

  // Stats are bumped before the promises complete so a caller that joins
  // its futures and then reads stats() sees this batch counted.
  {
    common::MutexLock lock(mutex_);
    ++stats_.sharded_batches;
    stats_.shard_jobs += pieces;
  }

  // Row-wise split into contiguous, near-equal pieces; piece p goes to
  // shard p so each context stays single-threaded. Every piece carries the
  // same pinned model + version — the whole batch is one version by
  // construction.
  const std::size_t base = n / pieces;
  const std::size_t extra = n % pieces;
  std::size_t offset = 0;
  for (std::size_t p = 0; p < pieces; ++p) {
    const std::size_t count = base + (p < extra ? 1 : 0);
    Shard& shard = *shards_[p];
    {
      common::MutexLock lock(shard.mutex);
      shard.piece = batch.data() + offset;
      shard.count = count;
      shard.model = pinned.model.get();
      shard.version = pinned.version;
    }
    shard.cv.notify_all();
    offset += count;
  }
  MEMHD_ENSURES(offset == n);
  for (std::size_t p = 0; p < pieces; ++p) {
    Shard& shard = *shards_[p];
    common::MutexLock lock(shard.mutex);
    while (shard.piece != nullptr) shard.cv.wait(lock);
  }
  // Only after the completion wait: the pin (and thus *pinned.model) must
  // outlive every shard's use of it.
  source_->note_scored(pinned.version, n);
  return true;
}

void BatchServer::run_rows(Request* requests, std::size_t count,
                           const Classifier& model,
                           Classifier::PredictContext* context) const {
  // Everything — including the batch-matrix and label allocations — stays
  // inside the try: any failure must land on the promises (and must never
  // escape a shard thread's entry function, which would std::terminate).
  try {
    common::Matrix features(count, num_features_);
    for (std::size_t i = 0; i < count; ++i) {
      auto row = features.row(i);
      std::copy(requests[i].features.begin(), requests[i].features.end(),
                row.begin());
    }
    std::vector<data::Label> labels(count);
    model.predict_batch_into(features, labels, context);
    for (std::size_t i = 0; i < count; ++i)
      requests[i].promise.set_value(labels[i]);
  } catch (...) {
    const auto error = std::current_exception();
    for (std::size_t i = 0; i < count; ++i)
      requests[i].promise.set_exception(error);
  }
}

}  // namespace memhd::api

#include "src/core/qat_trainer.hpp"

#include "src/common/assert.hpp"
#include "src/common/bitops_batch.hpp"
#include "src/common/rng.hpp"
#include "src/hdc/bundling.hpp"  // add_bipolar

namespace memhd::core {

QatTrace train_qat(MultiCentroidAM& am, const hdc::EncodedDataset& train,
                   const hdc::EncodedDataset* eval, const QatConfig& cfg) {
  MEMHD_EXPECTS(am.dim() == train.dim);
  MEMHD_EXPECTS(am.fully_assigned());
  QatTrace trace;
  common::Rng rng(cfg.seed ^ 0x9A70001ULL);

  std::vector<std::size_t> order(train.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;

  common::BitMatrix best_binary = am.binary();
  const bool track_best = cfg.keep_best && eval != nullptr;

  // Step 1 consumes only the *binary* AM, which steps 2-3 never touch; with
  // the per-epoch binarization cadence it is constant across a whole epoch,
  // so all similarity searches of an epoch form one batch MVM. Samples are
  // scored in blocked chunks (in shuffled order) through the cache-tiled
  // kernel, and the update loop reads the precomputed score rows —
  // bit-identical to scoring each sample at its turn.
  constexpr std::size_t kChunk = 512;
  std::vector<std::uint32_t> chunk_scores;
  std::vector<const std::uint64_t*> chunk_queries;
  for (std::size_t epoch = 0; epoch < cfg.epochs; ++epoch) {
    if (cfg.shuffle) rng.shuffle(order);

    std::size_t correct = 0;
    const std::size_t columns = am.columns();
    // One scorer per epoch: the repack of the frozen binary AM amortizes
    // across every chunk of the epoch.
    const common::BatchScorer scorer(am.binary());
    for (std::size_t begin = 0; begin < order.size(); begin += kChunk) {
      const std::size_t n = std::min(kChunk, order.size() - begin);
      chunk_queries.resize(n);
      for (std::size_t j = 0; j < n; ++j)
        chunk_queries[j] = train.hypervectors[order[begin + j]].words();
      chunk_scores.resize(n * columns);
      scorer.scores(chunk_queries.data(), n, common::PopcountOp::kAnd,
                    chunk_scores.data());
      for (std::size_t j = 0; j < n; ++j) {
        const std::size_t i = order[begin + j];
        const std::span<const std::uint32_t> s(
            chunk_scores.data() + j * columns, columns);
        const auto& hv = train.hypervectors[i];
        const data::Label truth = train.labels[i];
        const std::size_t predicted_slot = am.best_centroid(s);
        if (am.owner(predicted_slot) == truth) {
          ++correct;
          continue;
        }

        // Step 2: update-target selection (Eq. 4 / Eq. 5).
        const std::size_t true_slot = am.best_centroid_of_class(s, truth);

        // Step 3: FP iterative update (Eq. 6).
        hdc::add_bipolar(am.fp().row(true_slot), hv, cfg.learning_rate);
        hdc::add_bipolar(am.fp().row(predicted_slot), hv, -cfg.learning_rate);
        trace.updates += 2;
      }
    }

    // Step 4: normalization + binary AM refresh.
    am.normalize(cfg.normalization);
    am.binarize();

    trace.train_accuracy.push_back(static_cast<double>(correct) /
                                   static_cast<double>(train.size()));
    trace.epochs_run = epoch + 1;

    if (eval != nullptr) {
      const double acc = evaluate_binary(am, *eval);
      trace.eval_accuracy.push_back(acc);
      if (track_best && acc > trace.best_eval_accuracy) {
        trace.best_eval_accuracy = acc;
        trace.best_epoch = epoch;
        best_binary = am.binary();
      }
    }
  }

  if (track_best && trace.best_eval_accuracy > 0.0) {
    // Restore the best binary snapshot. The FP matrix keeps its final state
    // (it is a training artifact; deployment uses the binary AM).
    am.restore_binary(best_binary);
  }
  return trace;
}

}  // namespace memhd::core

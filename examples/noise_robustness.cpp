// Noise robustness walkthrough: how much array non-ideality can a deployed
// MEMHD model absorb?
//
// Trains a 128x128 model, then reports accuracy while (a) corrupting a
// growing fraction of the stored AM cells and (b) shrinking the readout
// ADC — the two dominant non-idealities of real CIM macros. Closes with
// online updates on the clean deployed model: one-sample partial_fit()
// calls stream the labels of the first half of the test set, and the
// held-back half is scored before and after. Nothing here repairs a
// corrupted array; the section reports what the updates do to accuracy,
// which may go either way.
#include <algorithm>
#include <cstdio>

#include "src/common/cli.hpp"
#include "src/common/csv.hpp"
#include "src/common/rng.hpp"
#include "src/common/table.hpp"
#include "src/core/model.hpp"
#include "src/data/loaders.hpp"
#include "src/data/scaling.hpp"
#include "src/imc/robustness.hpp"

int main(int argc, char** argv) {
  using namespace memhd;

  common::CliParser cli(
      "Measure MEMHD's tolerance to weight corruption and ADC precision, "
      "then measure one-sample online updates on the deployed model.");
  cli.add_flag("dim", "128", "Hypervector dimension D");
  cli.add_flag("columns", "128", "AM columns C");
  cli.add_flag("epochs", "15", "Training epochs");
  cli.add_flag("seed", "1", "RNG seed");
  if (!cli.parse(argc, argv)) return 1;

  common::Rng rng(static_cast<std::uint64_t>(cli.get_int("seed")));
  auto split = data::load_or_synthesize("mnist", data::Scale::kBench, rng);
  data::scale_split_minmax(split);

  core::MemhdConfig cfg;
  cfg.dim = static_cast<std::size_t>(cli.get_int("dim"));
  cfg.columns = static_cast<std::size_t>(cli.get_int("columns"));
  cfg.epochs = static_cast<std::size_t>(cli.get_int("epochs"));
  cfg.learning_rate = 0.03f;
  cfg.seed = static_cast<std::uint64_t>(cli.get_int("seed"));

  std::printf("training MEMHD %zux%zu...\n", cfg.dim, cfg.columns);
  core::MemhdModel model(cfg, split.train.num_features(),
                         split.train.num_classes());
  model.fit(split.train, &split.test);
  const auto encoded_test = model.encoder().encode_dataset(split.test);
  const double clean = model.evaluate_encoded(encoded_test);
  std::printf("clean accuracy: %.2f%%\n\n", 100.0 * clean);

  // (a) Weight corruption sweep.
  std::printf("-- stored-cell corruption (3 corrupted array instances) --\n");
  common::TablePrinter flips({"Flip prob", "Accuracy (%)", "Loss (pp)"});
  for (const double p : {0.0, 0.01, 0.02, 0.05, 0.1, 0.2}) {
    imc::RobustnessConfig rc;
    rc.weight_flip_probability = p;
    rc.trials = 3;
    rc.seed = cfg.seed;
    const auto r = imc::evaluate_noisy_search(model.am(), encoded_test, rc);
    flips.add_row({common::format_double(p, 2),
                   common::format_double(100.0 * r.mean_accuracy, 2),
                   common::format_double(100.0 * (clean - r.mean_accuracy),
                                         2)});
  }
  flips.print();

  // (b) ADC precision sweep.
  std::printf("\n-- ADC resolution --\n");
  common::TablePrinter adc({"Bits", "Accuracy (%)", "Loss (pp)"});
  for (const unsigned bits : {8u, 6u, 5u, 4u, 3u, 2u}) {
    imc::RobustnessConfig rc;
    rc.adc_bits = bits;
    rc.trials = 1;
    rc.seed = cfg.seed;
    const auto r = imc::evaluate_noisy_search(model.am(), encoded_test, rc);
    adc.add_row({std::to_string(bits),
                 common::format_double(100.0 * r.mean_accuracy, 2),
                 common::format_double(100.0 * (clean - r.mean_accuracy), 2)});
  }
  adc.print();

  // (c) Online updates: stream the first half of the test set as labeled
  //     samples into the clean model and score the held-back half before
  //     and after.
  std::printf("\n-- online updates with one-sample partial_fit() --\n");
  const std::size_t stream = split.test.size() / 2;
  const auto held_back_accuracy = [&] {
    std::size_t correct = 0;
    for (std::size_t i = stream; i < split.test.size(); ++i)
      if (model.predict(split.test.sample(i)) == split.test.label(i))
        ++correct;
    return static_cast<double>(correct) /
           static_cast<double>(split.test.size() - stream);
  };
  const double before = held_back_accuracy();
  std::size_t applied = 0;
  common::Matrix one(1, split.test.num_features());
  for (std::size_t i = 0; i < stream; ++i) {
    const auto sample = split.test.sample(i);
    std::copy(sample.begin(), sample.end(), one.row(0).begin());
    const data::Label label = split.test.label(i);
    applied += model.partial_fit(one, std::span(&label, 1)).mispredicted;
  }
  std::printf("streamed %zu labeled samples, %zu updates applied\n", stream,
              applied);
  std::printf("held-back half: %.2f%% before the updates, %.2f%% after\n",
              100.0 * before, 100.0 * held_back_accuracy());
  return 0;
}

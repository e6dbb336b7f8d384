// The registry-wide Classifier contract: every model api::make can build
// must (a) predict_batch bit-identically to per-sample predict, and
// (b) round-trip through the tagged save/load format bit-exactly.
#include "src/api/registry.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/api/adapters.hpp"
#include "src/common/io.hpp"
#include "test_util.hpp"

namespace memhd::api {
namespace {

/// Small-but-trainable options per model kind (the shared synthetic task
/// has 64 features and 4 classes).
api::ModelOptions small_options(core::ModelKind kind) {
  api::ModelOptions opts;
  opts.dim = 256;
  opts.epochs = 3;
  opts.num_levels = 16;
  opts.n_models = 4;
  opts.seed = 9;
  switch (kind) {
    case core::ModelKind::kMemhd:
      opts.columns = 16;
      break;
    case core::ModelKind::kBasicHDC:
      opts.epochs = 0;  // the paper's BasicHDC row is single-pass
      break;
    case core::ModelKind::kLeHDC:
      opts.epochs = 2;
      opts.learning_rate = 0.01f;
      break;
    default:
      break;
  }
  return opts;
}

std::string temp_model_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

class RegistryContract : public ::testing::TestWithParam<std::string> {};

TEST_P(RegistryContract, BatchIsBitIdenticalToPerSamplePredict) {
  const auto split = testing::tiny_multimodal(/*seed=*/21,
                                              /*train_per_class=*/40,
                                              /*test_per_class=*/20);
  const auto* info = api::find_model(GetParam());
  ASSERT_NE(info, nullptr);

  auto model = api::make(GetParam(), split.train.num_features(),
                         split.train.num_classes(), small_options(info->kind));
  EXPECT_FALSE(model->fitted());
  model->fit(split.train);
  ASSERT_TRUE(model->fitted());
  EXPECT_EQ(model->kind(), info->kind);

  const auto batched = model->predict_batch(split.test.features());
  ASSERT_EQ(batched.size(), split.test.size());
  for (std::size_t i = 0; i < split.test.size(); ++i)
    EXPECT_EQ(batched[i], model->predict(split.test.sample(i)))
        << model->name() << " row " << i;
}

TEST_P(RegistryContract, SaveLoadRoundTripsBitExactly) {
  const auto split = testing::tiny_multimodal(/*seed=*/22,
                                              /*train_per_class=*/40,
                                              /*test_per_class=*/20);
  const auto* info = api::find_model(GetParam());
  ASSERT_NE(info, nullptr);

  auto model = api::make(GetParam(), split.train.num_features(),
                         split.train.num_classes(), small_options(info->kind));
  model->fit(split.train);

  const std::string path =
      temp_model_path("api_roundtrip_" + GetParam() + ".mhd");
  model->save(path);
  const auto reloaded = api::load(path);
  std::remove(path.c_str());

  ASSERT_NE(reloaded, nullptr);
  EXPECT_EQ(reloaded->kind(), model->kind());
  EXPECT_TRUE(reloaded->fitted());
  EXPECT_EQ(reloaded->num_features(), model->num_features());
  EXPECT_EQ(reloaded->num_classes(), model->num_classes());
  EXPECT_EQ(reloaded->dim(), model->dim());

  EXPECT_EQ(reloaded->predict_batch(split.test.features()),
            model->predict_batch(split.test.features()))
      << model->name();
  EXPECT_DOUBLE_EQ(reloaded->evaluate(split.test), model->evaluate(split.test));
}

TEST_P(RegistryContract, ScoresBatchHasScoreRowsPerQuery) {
  const auto split = testing::tiny_multimodal(/*seed=*/23,
                                              /*train_per_class=*/30,
                                              /*test_per_class=*/10);
  const auto* info = api::find_model(GetParam());
  ASSERT_NE(info, nullptr);

  auto model = api::make(GetParam(), split.train.num_features(),
                         split.train.num_classes(), small_options(info->kind));
  model->fit(split.train);

  ASSERT_GE(model->score_rows(), split.train.num_classes());
  std::vector<std::uint32_t> scores;
  model->scores_batch(split.test.features(), scores);
  EXPECT_EQ(scores.size(), split.test.size() * model->score_rows());
}

TEST_P(RegistryContract, PredictBatchIntoMatchesPredictBatch) {
  // The serve-path hook: with and without a pinned context — and with the
  // SAME context reused across calls, the BatchServer shard-worker shape —
  // predict_batch_into must reproduce predict_batch bit for bit.
  const auto split = testing::tiny_multimodal(/*seed=*/24,
                                              /*train_per_class=*/30,
                                              /*test_per_class=*/12);
  const auto* info = api::find_model(GetParam());
  ASSERT_NE(info, nullptr);

  auto model = api::make(GetParam(), split.train.num_features(),
                         split.train.num_classes(), small_options(info->kind));
  model->fit(split.train);
  const auto direct = model->predict_batch(split.test.features());

  std::vector<data::Label> out(split.test.size());
  model->predict_batch_into(split.test.features(), out);
  EXPECT_EQ(out, direct) << model->name() << " (no context)";

  const auto context = model->make_predict_context();
  for (int round = 0; round < 2; ++round) {
    std::fill(out.begin(), out.end(), data::Label{0xFFFF});
    model->predict_batch_into(split.test.features(), out, context.get());
    EXPECT_EQ(out, direct) << model->name() << " context round " << round;
  }
}

TEST_P(RegistryContract, MemoryBreakdownIsPopulated) {
  const auto* info = api::find_model(GetParam());
  ASSERT_NE(info, nullptr);
  auto model = api::make(GetParam(), 64, 4, small_options(info->kind));
  const auto mem = model->memory();
  EXPECT_GT(mem.encoder_bits, 0u);
  EXPECT_GT(mem.am_bits, 0u);
  EXPECT_EQ(mem.total_bits(), mem.encoder_bits + mem.am_bits);
}

INSTANTIATE_TEST_SUITE_P(AllModels, RegistryContract,
                         ::testing::ValuesIn(api::list_models()),
                         [](const auto& info) { return info.param; });

TEST(ApiRegistry, ListsFiveModelsInTableOrder) {
  const auto names = api::list_models();
  ASSERT_EQ(names.size(), 5u);
  EXPECT_EQ(names.front(), "searchd");
  EXPECT_EQ(names.back(), "memhd");
}

TEST(ApiRegistry, FindModelIsCaseInsensitive) {
  EXPECT_NE(api::find_model("MEMHD"), nullptr);
  EXPECT_NE(api::find_model("LeHDC"), nullptr);
  EXPECT_EQ(api::find_model("not-a-model"), nullptr);
}

TEST(ApiRegistry, MakeRejectsUnknownNames) {
  EXPECT_THROW(api::make("hal9000", 8, 2, {}), std::invalid_argument);
}

TEST(ApiRegistry, ZeroColumnsMeansSquareMemhd) {
  api::ModelOptions opts;
  opts.dim = 64;
  opts.columns = 0;
  EXPECT_EQ(opts.memhd().columns, 64u);
  opts.columns = 16;
  EXPECT_EQ(opts.memhd().columns, 16u);
}

TEST(ApiRegistry, AdapterExposesTheWrappedModel) {
  api::ModelOptions opts = small_options(core::ModelKind::kMemhd);
  auto model = api::make("memhd", 64, 4, opts);
  auto* adapter = dynamic_cast<api::MemhdClassifier*>(model.get());
  ASSERT_NE(adapter, nullptr);
  EXPECT_EQ(adapter->model().config().columns, opts.columns);
}

TEST(ApiRegistry, DegenerateShapesThrowTypedConfigError) {
  // num_features == 0 and dim == 0 must be catchable errors at the API
  // boundary, not contract aborts.
  api::ModelOptions opts;
  EXPECT_THROW(api::make("memhd", 0, 4, opts), hdc::ConfigError);
  EXPECT_THROW(api::make("basichdc", 0, 4, opts), hdc::ConfigError);
  opts.dim = 0;
  EXPECT_THROW(api::make("memhd", 64, 4, opts), hdc::ConfigError);
  EXPECT_THROW(api::make("quanthd", 64, 4, opts), hdc::ConfigError);
  // ConfigError IS an invalid_argument, so generic handlers still work.
  EXPECT_THROW(api::make("memhd", 0, 4, api::ModelOptions{}),
               std::invalid_argument);
}

TEST(ApiRegistry, RematOptionFlowsThroughRegistryBitIdentically) {
  const auto split = testing::tiny_multimodal(/*seed=*/27,
                                              /*train_per_class=*/30,
                                              /*test_per_class=*/15);
  for (const char* name : {"memhd", "basichdc"}) {
    auto opts = small_options(api::find_model(name)->kind);
    auto mat = api::make(name, split.train.num_features(),
                         split.train.num_classes(), opts);
    opts.basis = hdc::BasisKind::kRematerialized;
    auto rem = api::make(name, split.train.num_features(),
                         split.train.num_classes(), opts);
    mat->fit(split.train);
    rem->fit(split.train);
    EXPECT_EQ(rem->predict_batch(split.test.features()),
              mat->predict_batch(split.test.features()))
        << name;
    // The resident split shows up in the memory breakdown; model bits
    // stay equal (Table I counts the deployed plane, not software bytes).
    const auto mm = mat->memory();
    const auto rm = rem->memory();
    EXPECT_EQ(mm.encoder_bits, rm.encoder_bits) << name;
    EXPECT_GT(mm.encoder_resident_bytes, rm.encoder_resident_bytes * 100)
        << name;
  }
}

TEST(ApiSerialize, LegacyBaselineFrameLoadsWithSequentialDerivation) {
  // A pre-seam MHDAPI01 BasicHDC container (no basis bytes in the frame)
  // must load with the legacy sequential derivation and predict exactly
  // what it predicted when written.
  const auto split = testing::tiny_multimodal(/*seed=*/28,
                                              /*train_per_class=*/30,
                                              /*test_per_class=*/15);
  baselines::BaselineConfig cfg;
  cfg.dim = 256;
  cfg.epochs = 0;
  cfg.seed = 9;
  cfg.basis_derivation = hdc::BasisDerivation::kLegacySequential;
  auto legacy = std::make_unique<BaselineClassifier>(baselines::make_baseline(
      core::ModelKind::kBasicHDC, split.train.num_features(),
      split.train.num_classes(), cfg));
  legacy->model().fit(split.train);
  const auto expected = legacy->predict_batch(split.test.features());

  const std::string path = temp_model_path("api_legacy_frame.mhd");
  api::save(*legacy, path);
  // Rewrite the MHDAPI03 container as MHDAPI01: magic revision back to 1
  // and the two basis bytes (at offset magic 8 + tag 1 + u64*7 + f32 = 69)
  // spliced out.
  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  }
  ASSERT_GT(bytes.size(), 71u);
  ASSERT_EQ(bytes.substr(0, 8), "MHDAPI03");
  bytes[7] = '1';
  bytes.erase(69, 2);
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  const auto loaded = api::load(path);
  std::remove(path.c_str());
  ASSERT_NE(loaded, nullptr);
  EXPECT_EQ(loaded->predict_batch(split.test.features()), expected);
  const auto* adapter = dynamic_cast<const BaselineClassifier*>(loaded.get());
  ASSERT_NE(adapter, nullptr);
  EXPECT_EQ(adapter->model().config().basis_derivation,
            hdc::BasisDerivation::kLegacySequential);
}

TEST(ApiSerialize, LoadRejectsGarbage) {
  const std::string path = temp_model_path("api_garbage.mhd");
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fputs("definitely not a model", f);
  std::fclose(f);
  EXPECT_THROW(api::load(path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(ApiSerialize, LoadThrowsOnCorruptFrameInsteadOfAborting) {
  // Valid magic + kind tag, zeroed config/shape frame: must surface as the
  // documented runtime_error, not as a contract abort deeper in the stack.
  const std::string path = temp_model_path("api_zero_frame.mhd");
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fputs("MHDAPI01", f);
  const char zeros[1 + 7 * 8 + 4] = {};  // tag 0 (BasicHDC) + empty frame
  std::fwrite(zeros, 1, sizeof(zeros), f);
  std::fclose(f);
  EXPECT_THROW(api::load(path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(ApiSerialize, BaselineFrameCapsClassCount) {
  // A complete QuantHD frame at dim 1 whose 65536th class id would equal
  // the multi-centroid AM's 0xFFFF unassigned-slot sentinel: a typed load
  // error, not a model that aborts on its first predict.
  constexpr std::uint64_t kClasses = 0x10000;
  std::ostringstream out;
  out.write("MHDAPI03", 8);
  common::write_pod<std::uint8_t>(
      out, static_cast<std::uint8_t>(core::ModelKind::kQuantHD));
  // dim, epochs, num_levels, n_models, seed, num_features, num_classes
  for (const std::uint64_t v : {std::uint64_t{1}, std::uint64_t{1},
                                std::uint64_t{2}, std::uint64_t{1},
                                std::uint64_t{1}, std::uint64_t{1}, kClasses})
    common::write_pod<std::uint64_t>(out, v);
  common::write_pod<float>(out, 0.05f);
  common::write_pod<std::uint8_t>(out, 0);  // basis
  common::write_pod<std::uint8_t>(out, 0);  // derivation
  common::write_matrix(out, common::Matrix(kClasses, 1, 1.0f));
  common::write_bit_matrix(out, common::BitMatrix(kClasses, 1));
  std::istringstream in(out.str());
  EXPECT_THROW(api::load(in), std::runtime_error);
}

}  // namespace
}  // namespace memhd::api

#include "src/core/serialize.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>

#include "src/common/io.hpp"
#include "src/core/model.hpp"
#include "test_util.hpp"

namespace memhd::core {
namespace {

namespace fs = std::filesystem;

std::string temp_model_path(const char* name) {
  return (fs::temp_directory_path() / name).string();
}

MemhdConfig small_config() {
  MemhdConfig cfg;
  cfg.dim = 128;
  cfg.columns = 12;
  cfg.epochs = 5;
  cfg.kmeans_max_iterations = 8;
  cfg.seed = 11;
  return cfg;
}

TEST(Serialize, RoundTripPreservesPredictions) {
  const auto split = testing::tiny_multimodal();
  MemhdModel model(small_config(), split.train.num_features(),
                   split.train.num_classes());
  model.fit(split.train);

  const std::string path = temp_model_path("memhd_roundtrip.model");
  model.save(path);
  const MemhdModel loaded = MemhdModel::load(path);
  std::remove(path.c_str());

  // Bit-exact deployment: identical binary AM, owners, and predictions.
  EXPECT_TRUE(loaded.am().binary() == model.am().binary());
  for (std::size_t col = 0; col < model.am().columns(); ++col)
    EXPECT_EQ(loaded.am().owner(col), model.am().owner(col));
  for (std::size_t i = 0; i < split.test.size(); ++i)
    EXPECT_EQ(loaded.predict(split.test.sample(i)),
              model.predict(split.test.sample(i)));
}

TEST(Serialize, RoundTripPreservesConfig) {
  const auto split = testing::tiny_separable();
  auto cfg = small_config();
  cfg.initial_ratio = 0.65;
  cfg.learning_rate = 0.07f;
  cfg.normalization = NormalizationMode::kL2;
  MemhdModel model(cfg, split.train.num_features(),
                   split.train.num_classes());
  model.fit(split.train);
  const std::string path = temp_model_path("memhd_config.model");
  model.save(path);
  const MemhdModel loaded = MemhdModel::load(path);
  std::remove(path.c_str());
  EXPECT_EQ(loaded.config().dim, cfg.dim);
  EXPECT_EQ(loaded.config().columns, cfg.columns);
  EXPECT_DOUBLE_EQ(loaded.config().initial_ratio, 0.65);
  EXPECT_FLOAT_EQ(loaded.config().learning_rate, 0.07f);
  EXPECT_EQ(loaded.config().normalization, NormalizationMode::kL2);
  EXPECT_EQ(loaded.config().seed, cfg.seed);
  EXPECT_EQ(loaded.num_features(), split.train.num_features());
  EXPECT_EQ(loaded.num_classes(), split.train.num_classes());
}

TEST(Serialize, RoundTripPreservesFpShadow) {
  const auto split = testing::tiny_separable();
  MemhdModel model(small_config(), split.train.num_features(),
                   split.train.num_classes());
  model.fit(split.train);
  const std::string path = temp_model_path("memhd_fp.model");
  model.save(path);
  const MemhdModel loaded = MemhdModel::load(path);
  std::remove(path.c_str());
  EXPECT_TRUE(loaded.am().fp() == model.am().fp());
}

TEST(Serialize, MissingFileThrows) {
  EXPECT_THROW(load_model("/nonexistent/missing.model"), std::runtime_error);
}

TEST(Serialize, BadMagicThrows) {
  const std::string path = temp_model_path("memhd_badmagic.model");
  {
    std::ofstream out(path, std::ios::binary);
    out << "NOTAMODELFILE_________";
  }
  EXPECT_THROW(load_model(path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(Serialize, TruncatedFileThrows) {
  const auto split = testing::tiny_separable();
  MemhdModel model(small_config(), split.train.num_features(),
                   split.train.num_classes());
  model.fit(split.train);
  const std::string path = temp_model_path("memhd_trunc.model");
  model.save(path);
  // Chop the file in half.
  const auto size = fs::file_size(path);
  fs::resize_file(path, size / 2);
  EXPECT_THROW(load_model(path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(Serialize, RematRoundTripPreservesEverything) {
  const auto split = testing::tiny_multimodal();
  auto cfg = small_config();
  cfg.basis = hdc::BasisKind::kRematerialized;
  MemhdModel model(cfg, split.train.num_features(),
                   split.train.num_classes());
  model.fit(split.train);

  const std::string path = temp_model_path("memhd_remat.model");
  model.save(path);
  const MemhdModel loaded = MemhdModel::load(path);
  std::remove(path.c_str());

  EXPECT_EQ(loaded.config().basis, hdc::BasisKind::kRematerialized);
  EXPECT_EQ(loaded.config().basis_derivation,
            hdc::BasisDerivation::kCounterStream);
  // The loaded encoder plane is seed-only, not a resident matrix.
  EXPECT_LE(loaded.encoder().resident_bytes(), 64u);
  EXPECT_TRUE(loaded.am().binary() == model.am().binary());
  for (std::size_t i = 0; i < split.test.size(); ++i)
    EXPECT_EQ(loaded.predict(split.test.sample(i)),
              model.predict(split.test.sample(i)));

  // And the rematerialized model is interchangeable with a materialized
  // one trained identically (bit-identical encodings → identical AM).
  auto mcfg = cfg;
  mcfg.basis = hdc::BasisKind::kMaterialized;
  MemhdModel mat(mcfg, split.train.num_features(),
                 split.train.num_classes());
  mat.fit(split.train);
  EXPECT_TRUE(mat.am().binary() == loaded.am().binary());
}

TEST(Serialize, LegacyContainerLoadsWithSequentialDerivation) {
  // Hand-build a MEMHD001 container (the pre-basis-seam layout: same
  // header minus the two trailing basis bytes) and check the loader pins
  // the legacy sequential derivation so the plane decodes unchanged.
  const auto split = testing::tiny_separable();
  auto cfg = small_config();
  cfg.basis_derivation = hdc::BasisDerivation::kLegacySequential;
  MemhdModel model(cfg, split.train.num_features(),
                   split.train.num_classes());
  model.fit(split.train);

  const std::string path = temp_model_path("memhd_legacy.model");
  model.save(path);
  // v3 layout: magic(8) u64*7(56) f64(8) f32(4) u8*3(3) basis-u8*2(2)
  // cascade u8*2+f64+u64*3(34)... Rewrite to v1: swap the magic revision
  // and splice out the basis + cascade bytes 79..114.
  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  }
  ASSERT_GT(bytes.size(), 115u);
  ASSERT_EQ(bytes.substr(0, 8), "MEMHD003");
  bytes[7] = '1';
  bytes.erase(79, 36);
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  const MemhdModel loaded = MemhdModel::load(path);
  std::remove(path.c_str());
  EXPECT_EQ(loaded.config().basis, hdc::BasisKind::kMaterialized);
  EXPECT_EQ(loaded.config().basis_derivation,
            hdc::BasisDerivation::kLegacySequential);
  EXPECT_TRUE(loaded.am().binary() == model.am().binary());
  for (std::size_t i = 0; i < split.test.size(); ++i)
    EXPECT_EQ(loaded.predict(split.test.sample(i)),
              model.predict(split.test.sample(i)));
}

TEST(Serialize, RematLegacyComboRejectedAsCorrupt) {
  // basis = rematerialized + derivation = legacy is unconstructible; a
  // container claiming it must be rejected as corrupt, not aborted on.
  const auto split = testing::tiny_separable();
  MemhdModel model(small_config(), split.train.num_features(),
                   split.train.num_classes());
  model.fit(split.train);
  const std::string path = temp_model_path("memhd_badcombo.model");
  model.save(path);
  {
    std::fstream io(path,
                    std::ios::binary | std::ios::in | std::ios::out);
    io.seekp(79);
    const char combo[2] = {1, 1};  // rematerialized + legacy
    io.write(combo, 2);
  }
  EXPECT_THROW(load_model(path), std::runtime_error);
  std::remove(path.c_str());
}

// A complete MEMHD003 stream at dim 1 and one feature: `columns` slots
// owned round-robin by `num_classes` classes, except that the last slot is
// owned by `last_owner`.
std::string tiny_v3_stream(std::uint64_t num_classes, std::uint64_t columns,
                           std::uint16_t last_owner) {
  using common::write_pod;
  std::ostringstream out;
  out.write("MEMHD003", 8);
  // dim, columns, num_features, num_classes, epochs, k-means iterations,
  // seed
  for (const std::uint64_t v : {std::uint64_t{1}, columns, std::uint64_t{1},
                                num_classes, std::uint64_t{1},
                                std::uint64_t{1}, std::uint64_t{1}})
    write_pod<std::uint64_t>(out, v);
  write_pod<double>(out, 0.5);         // initial_ratio
  write_pod<float>(out, 0.05f);        // learning_rate
  for (int i = 0; i < 5; ++i)          // init, allocation, normalization,
    write_pod<std::uint8_t>(out, 0);   // basis, derivation
  write_pod<std::uint8_t>(out, 0);     // cascade disabled
  write_pod<std::uint8_t>(out, 0);     // cascade mode
  write_pod<double>(out, 0.5);         // sample fraction
  write_pod<std::uint64_t>(out, 1);    // shortlist
  write_pod<std::uint64_t>(out, 0);    // early-exit margin
  write_pod<std::uint64_t>(out, 0);    // cascade seed
  for (std::uint64_t col = 0; col < columns; ++col)
    write_pod<std::uint16_t>(
        out, col + 1 == columns
                 ? last_owner
                 : static_cast<std::uint16_t>(col % num_classes));
  common::write_matrix(out, common::Matrix(columns, 1, 1.0f));
  common::write_bit_matrix(out, common::BitMatrix(columns, 1));
  return out.str();
}

TEST(Serialize, ClassCountCappedBelowTheUnassignedSentinel) {
  // 65535 classes is the most a data::Label id space can hold beside the
  // AM's 0xFFFF unassigned-slot sentinel: such a stream loads and predicts.
  {
    std::istringstream in(tiny_v3_stream(0xFFFF, 0x10000, 0xFFFE));
    const MemhdModel model = load_model(in);
    EXPECT_EQ(model.num_classes(), 0xFFFFu);
    EXPECT_LT(model.predict(std::vector<float>{0.5f}), 0xFFFFu);
  }
  // One class more lets an owner equal the sentinel: a typed load error,
  // not a later contract abort in predict.
  std::istringstream in(tiny_v3_stream(0x10000, 0x10000, 0xFFFF));
  EXPECT_THROW(load_model(in), std::runtime_error);
}

TEST(Serialize, SaveUnfittedModelDies) {
  MemhdModel model(small_config(), 16, 4);
  EXPECT_DEATH(model.save(temp_model_path("never.model")), "precondition");
}

}  // namespace
}  // namespace memhd::core

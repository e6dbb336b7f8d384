// The frozen search plane (search::CentroidPlane, as
// core::MultiCentroidAM::plane()): one immutable plane per AM version,
// built by freeze(), dropped by every writer of the binary matrix or the
// ownership map, shared by model copies and pinned by pointer in serving
// contexts. Covers the plane's lifecycle through every MemhdModel mutation;
// on every compiled kernel backend and odd shapes, bit-identity of frozen vs
// unfrozen reads against the dense BitMatrix::mvm oracle, first-wins owner
// mapping over rows tied across classes, bipolar ranking against the
// bipolar-dot oracle and the kExact cascade against exhaustive search; and
// the partial_fit FP-mean cache.
#include <cstdio>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/api/adapters.hpp"
#include "src/common/bitops_batch.hpp"
#include "src/common/kernels/backend.hpp"
#include "src/common/rng.hpp"
#include "src/common/stats.hpp"
#include "src/core/model.hpp"
#include "src/core/serialize.hpp"
#include "src/search/cascade.hpp"
#include "src/search/centroid_plane.hpp"
#include "test_util.hpp"

namespace memhd::core {
namespace {

MemhdConfig small_config(bool cascade = false) {
  MemhdConfig cfg;
  cfg.dim = 256;
  cfg.columns = 16;
  cfg.epochs = 3;
  cfg.seed = 5;
  cfg.cascade.enabled = cascade;
  cfg.cascade.sample_fraction = 0.5;
  cfg.cascade.shortlist = 8;
  return cfg;
}

MemhdModel fitted_model(const data::TrainTestSplit& split,
                        bool cascade = false) {
  MemhdModel model(small_config(cascade), split.train.num_features(),
                   split.train.num_classes());
  model.fit(split.train);
  return model;
}

// The plane is present and is a faithful packing of the deployed matrix.
void expect_frozen(const MultiCentroidAM& am) {
  ASSERT_TRUE(am.frozen());
  ASSERT_NE(am.plane(), nullptr);
  EXPECT_EQ(am.plane()->rows(), am.columns());
  EXPECT_EQ(am.plane()->cols(), am.dim());
  EXPECT_TRUE(am.plane()->matrix() == am.binary());
}

// Labels every sample differently from what the model predicts: each row of
// a partial_fit batch with these labels is a miss.
std::vector<data::Label> wrong_labels(const MemhdModel& model,
                                      const common::Matrix& features) {
  auto labels = model.predict_batch(features);
  for (auto& l : labels)
    l = static_cast<data::Label>((l + 1) % model.num_classes());
  return labels;
}

common::Matrix first_rows(const common::Matrix& m, std::size_t n) {
  common::Matrix out(n, m.cols());
  for (std::size_t r = 0; r < n; ++r) {
    const auto src = m.row(r);
    std::copy(src.begin(), src.end(), out.row(r).begin());
  }
  return out;
}

MemhdModel round_trip(const MemhdModel& model) {
  std::stringstream buf;
  save_model(model, buf);
  return load_model(buf);
}

// ------------------------------------------------------------ lifecycle --

TEST(SearchPlane, FrozenAfterFitLoadPartialFitAndAdapt) {
  const auto split = testing::tiny_multimodal(/*seed=*/3);
  MemhdModel model = fitted_model(split);
  expect_frozen(model.am());

  const MemhdModel loaded = round_trip(model);
  expect_frozen(loaded.am());
  EXPECT_NE(loaded.am().plane(), model.am().plane());  // its own version

  // A one-sample partial_fit under a wrong label is a miss.
  const auto plane_before = model.am().plane();
  const common::Matrix one = first_rows(split.train.features(), 1);
  const auto labels = wrong_labels(model, one);
  ASSERT_EQ(model.partial_fit(one, labels).mispredicted, 1u);
  expect_frozen(model.am());
  EXPECT_NE(model.am().plane(), plane_before);

  model.adapt(split.train, /*epochs=*/1);
  expect_frozen(model.am());
}

TEST(SearchPlane, PartialFitRefreezesOnlyWhenRowsChange) {
  const auto split = testing::tiny_multimodal(/*seed=*/5);
  MemhdModel model = fitted_model(split);
  const common::Matrix batch = first_rows(split.train.features(), 24);

  // Miss-free batch: labels are the model's own predictions, nothing
  // changes, and the very same plane object stays deployed.
  const auto plane0 = model.am().plane();
  const auto agree = model.predict_batch(batch);
  const auto r0 = model.partial_fit(batch, agree);
  EXPECT_EQ(r0.mispredicted, 0u);
  expect_frozen(model.am());
  EXPECT_EQ(model.am().plane(), plane0);

  // Every row a miss: rows change and the AM is re-frozen.
  const auto r1 = model.partial_fit(batch, wrong_labels(model, batch));
  EXPECT_GT(r1.mispredicted, 0u);
  expect_frozen(model.am());
  EXPECT_NE(model.am().plane(), plane0);
}

TEST(SearchPlane, FrozenAfterClassExtension) {
  const auto split = testing::tiny_multimodal(/*seed=*/9);
  MemhdModel model = fitted_model(split);
  const std::size_t old_columns = model.am().columns();
  const common::Matrix batch = first_rows(split.train.features(), 6);
  const std::vector<data::Label> fresh(
      batch.rows(), static_cast<data::Label>(model.num_classes()));
  const auto report = model.partial_fit(batch, fresh);
  ASSERT_GT(report.new_columns, 0u);
  EXPECT_EQ(model.am().columns(), old_columns + report.new_columns);
  expect_frozen(model.am());
}

TEST(SearchPlane, EveryBinaryWriterDropsThePlane) {
  const auto split = testing::tiny_multimodal(/*seed=*/7);
  const MemhdModel model = fitted_model(split);
  const std::vector<std::size_t> rows = {0, 3};

  const auto check = [&](const char* what, auto&& write) {
    MultiCentroidAM am = model.am();
    ASSERT_TRUE(am.frozen()) << what;
    write(am);
    EXPECT_FALSE(am.frozen()) << what;
    EXPECT_EQ(am.plane(), nullptr) << what;
    am.freeze();
    expect_frozen(am);
  };
  check("binarize", [](MultiCentroidAM& am) { am.binarize(); });
  check("binarize_rows", [&](MultiCentroidAM& am) { am.binarize_rows(rows); });
  check("binarize_rows(threshold)",
        [&](MultiCentroidAM& am) { am.binarize_rows(rows, 0.0f); });
  check("extend", [](MultiCentroidAM& am) {
    am.extend(am.num_classes() + 1, /*extra_columns=*/2);
  });
  check("restore_binary", [](MultiCentroidAM& am) {
    const common::BitMatrix snapshot = am.binary();
    am.restore_binary(snapshot);
  });
  // The plane snapshots the ownership map too.
  check("set_centroid", [](MultiCentroidAM& am) {
    const auto row = std::as_const(am).fp().row(0);
    am.set_centroid(0, static_cast<data::Label>(am.owner(0) == 0 ? 1 : 0),
                    std::vector<float>(row.begin(), row.end()));
  });

  // FP-only writers leave the deployed binary matrix, and so the plane.
  MultiCentroidAM am = model.am();
  am.normalize(NormalizationMode::kL2);
  am.normalize_rows(NormalizationMode::kL2, rows);
  am.fp().row(0)[0] += 1.0f;
  expect_frozen(am);
}

TEST(SearchPlane, CopiesShareThePlaneUntilTheyMutate) {
  for (const bool cascade : {false, true}) {
    SCOPED_TRACE(cascade ? "cascade" : "exhaustive");
    const auto split = testing::tiny_multimodal(/*seed=*/13);
    const MemhdModel original = fitted_model(split, cascade);
    const auto plane = original.am().plane();
    const auto labels = original.predict_batch(split.test.features());

    MemhdModel copy(original);
    EXPECT_EQ(copy.am().plane(), plane);
    EXPECT_EQ(copy.cascade_ptr(), original.cascade_ptr());
    MemhdModel assigned = fitted_model(testing::tiny_multimodal(/*seed=*/1));
    assigned = original;
    EXPECT_EQ(assigned.am().plane(), plane);

    const common::Matrix batch = first_rows(split.train.features(), 16);
    ASSERT_GT(copy.partial_fit(batch, wrong_labels(copy, batch)).mispredicted,
              0u);
    expect_frozen(copy.am());
    EXPECT_NE(copy.am().plane(), plane);
    // The original is untouched: same plane object, same answers.
    EXPECT_EQ(original.am().plane(), plane);
    EXPECT_EQ(original.predict_batch(split.test.features()), labels);
    if (cascade) {
      ASSERT_NE(copy.cascade(), nullptr);
      EXPECT_NE(copy.cascade_ptr(), original.cascade_ptr());
    }
  }
}

TEST(SearchPlane, PredictContextPinsTheModelsPlane) {
  for (const bool cascade : {false, true}) {
    SCOPED_TRACE(cascade ? "cascade" : "exhaustive");
    const auto split = testing::tiny_multimodal(/*seed=*/21);
    const api::MemhdClassifier clf(fitted_model(split, cascade));
    const auto context = clf.make_predict_context();
    const auto* pinned =
        dynamic_cast<const api::MemhdPredictContext*>(context.get());
    ASSERT_NE(pinned, nullptr);
    EXPECT_EQ(pinned->plane.get(), clf.model().am().plane().get());
    EXPECT_EQ(pinned->plane->cascade(), clf.model().cascade());
    EXPECT_EQ(clf.model().cascade() != nullptr, cascade);

    const auto& features = split.test.features();
    std::vector<data::Label> out(features.rows());
    clf.predict_batch_into(features, out, context.get());
    EXPECT_EQ(out, clf.predict_batch(features));
  }
}

// ------------------------------------------- bit-identity per backend --

// Restores the entering backend so tests compose in any order.
class BackendGuard {
 public:
  BackendGuard() : prev_(common::active_backend().name) {}
  ~BackendGuard() { common::select_backend(prev_); }

 private:
  std::string prev_;
};

// A random AM of the given shape whose rows repeat in pairs owned by
// different classes: exact score ties whose first-wins resolution is
// visible in the label.
MultiCentroidAM tied_am(std::size_t dim, std::size_t columns,
                        std::uint64_t seed) {
  constexpr std::size_t kClasses = 3;
  MultiCentroidAM am(kClasses, dim, columns);
  common::Rng rng(seed);
  std::vector<float> values(dim);
  for (std::size_t col = 0; col < columns; ++col) {
    if (col % 4 != 1)  // column 4k+1 repeats column 4k
      for (auto& v : values) v = static_cast<float>(rng.normal(0.0, 1.0));
    am.set_centroid(col, static_cast<data::Label>(col % kClasses), values);
  }
  am.binarize();
  return am;
}

class SearchPlaneBackends
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {};

TEST_P(SearchPlaneBackends, FrozenAndUnfrozenMatchTheDenseOracle) {
  const auto [dim, columns] = GetParam();
  BackendGuard guard;
  std::size_t ran = 0;
  for (const common::KernelBackend* backend : common::kernel_backends()) {
    if (!backend->supported()) {
      std::printf("[ SKIPPED  ] backend %s: not supported on this CPU\n",
                  backend->name);
      continue;
    }
    ASSERT_TRUE(common::select_backend(backend->name));
    SCOPED_TRACE(backend->name);
    ++ran;

    MultiCentroidAM am = tied_am(dim, columns, dim * 31 + columns);
    common::Rng rng(dim + columns);
    std::vector<common::BitVector> queries;
    for (std::size_t q = 0; q < 41; ++q)
      queries.push_back(common::BitVector::random(dim, rng));
    // Duplicate queries (same-score rows within one batch) and a row of
    // the plane itself (its own and its twin's score tie at the maximum).
    queries.push_back(queries.front());
    queries.push_back(am.binary().row_vector(4));

    // Dense oracle: per-query BitMatrix::mvm + first-wins argmax.
    std::vector<std::uint32_t> want_scores, row;
    std::vector<data::Label> want_labels(queries.size());
    for (std::size_t q = 0; q < queries.size(); ++q) {
      am.binary().mvm(queries[q], row);
      want_scores.insert(want_scores.end(), row.begin(), row.end());
      want_labels[q] = am.owner(common::argmax_u32(row));
    }

    hdc::EncodedDataset set;
    set.dim = dim;
    set.num_classes = am.num_classes();
    set.hypervectors = queries;
    set.labels.assign(want_labels.begin(), want_labels.end());
    for (std::size_t q = 0; q < queries.size(); q += 3)
      set.labels[q] = static_cast<data::Label>((set.labels[q] + 1) % 3);

    std::vector<std::uint32_t> scores;
    for (const bool frozen : {false, true}) {
      SCOPED_TRACE(frozen ? "frozen" : "unfrozen");
      if (frozen) am.freeze();
      ASSERT_EQ(am.frozen(), frozen);
      EXPECT_EQ(am.predict_batch(queries), want_labels);
      am.scores_batch(queries, scores);
      EXPECT_EQ(scores, want_scores);
      for (std::size_t q = 0; q < queries.size(); ++q)
        ASSERT_EQ(am.predict_binary(queries[q]), want_labels[q]) << q;
      const double expected =
          1.0 - static_cast<double>((queries.size() + 2) / 3) /
                    static_cast<double>(queries.size());
      EXPECT_DOUBLE_EQ(evaluate_binary(am, set), expected);
    }
    EXPECT_EQ(&am.plane()->scorer().backend(), backend);
  }
  EXPECT_GT(ran, 0u);
}

// Bipolar-dot oracle (LeHdc.BatchPredictMatchesBipolarDotOracle's): the
// first row maximizing sum_j bipolar(row_j) * bipolar(query_j).
std::size_t bipolar_argmax(const common::BitMatrix& rows,
                           const common::BitVector& query) {
  std::size_t best = 0;
  long best_dot = 0;
  for (std::size_t r = 0; r < rows.rows(); ++r) {
    long dot = 0;
    for (std::size_t j = 0; j < rows.cols(); ++j)
      dot += (rows.get(r, j) == query.get(j)) ? 1 : -1;
    if (r == 0 || dot > best_dot) {
      best_dot = dot;
      best = r;
    }
  }
  return best;
}

TEST_P(SearchPlaneBackends, PlaneRanksOwnsAndCascadesLikeItsOracles) {
  const auto [dim, rows] = GetParam();
  BackendGuard guard;
  std::size_t ran = 0;
  for (const common::KernelBackend* backend : common::kernel_backends()) {
    if (!backend->supported()) continue;
    ASSERT_TRUE(common::select_backend(backend->name));
    SCOPED_TRACE(backend->name);
    ++ran;

    // Rows repeat in pairs (row 4k+1 = row 4k) under different owners, so
    // first-wins is visible in the label.
    common::Rng rng(dim * 17 + rows);
    common::BitMatrix bits(rows, dim);
    for (std::size_t r = 0; r < rows; ++r)
      bits.set_row(r, r % 4 == 1 ? bits.row_vector(r - 1)
                                 : common::BitVector::random(dim, rng));
    std::vector<data::Label> owners(rows);
    for (std::size_t r = 0; r < rows; ++r)
      owners[r] = static_cast<data::Label>((r * 7 + 3) % 5);

    std::vector<common::BitVector> queries;
    for (std::size_t q = 0; q < 37; ++q)
      queries.push_back(common::BitVector::random(dim, rng));
    for (std::size_t r = 0; r < rows; r += 4)  // self-matches of tied rows
      queries.push_back(bits.row_vector(r));
    // A sparse query: dot and bipolar rankings disagree most here.
    common::BitVector sparse(dim);
    sparse.set(dim / 2, true);
    queries.push_back(sparse);

    std::vector<data::Label> want_dot(queries.size());
    std::vector<data::Label> want_bipolar(queries.size());
    std::vector<std::uint32_t> want_scores, row_scores;
    for (std::size_t q = 0; q < queries.size(); ++q) {
      bits.mvm(queries[q], row_scores);
      want_scores.insert(want_scores.end(), row_scores.begin(),
                         row_scores.end());
      want_dot[q] = owners[common::argmax_u32(row_scores)];
      want_bipolar[q] = owners[bipolar_argmax(bits, queries[q])];
    }

    const search::CentroidPlane dot(bits, owners);
    EXPECT_EQ(dot.predict(queries), want_dot);
    std::vector<std::uint32_t> scores;
    dot.scores(queries, scores);
    EXPECT_EQ(scores, want_scores);
    EXPECT_EQ(&dot.scorer().backend(), backend);
    EXPECT_TRUE(dot.matrix() == bits);
    EXPECT_EQ(dot.cascade(), nullptr);

    const search::CentroidPlane bipolar(bits, owners,
                                        search::Ranking::kBipolar);
    EXPECT_EQ(bipolar.predict(queries), want_bipolar);
    bipolar.scores(queries, scores);  // raw AND table, whatever the rank
    EXPECT_EQ(scores, want_scores);

    // Block owners, as SearcHD maps its k*N rows (here N = 3, so tied
    // rows 8 and 9 fall in different blocks).
    std::vector<data::Label> blocks(rows);
    for (std::size_t r = 0; r < rows; ++r)
      blocks[r] = static_cast<data::Label>(r / 3);
    const search::CentroidPlane searchd(bits, blocks);
    for (std::size_t q = 0; q < queries.size(); ++q) {
      bits.mvm(queries[q], row_scores);
      ASSERT_EQ(searchd.predict(std::span(&queries[q], 1))[0],
                blocks[common::argmax_u32(row_scores)])
          << q;
    }

    // kExact cascade through the plane: bit-identical to exhaustive.
    search::CascadeConfig exact;
    exact.enabled = true;
    exact.mode = search::CascadeMode::kExact;
    exact.sample_fraction = 0.75;
    exact.shortlist = 4;
    const search::CentroidPlane cascaded(bits, owners, search::Ranking::kDot,
                                         exact);
    ASSERT_NE(cascaded.cascade(), nullptr);
    EXPECT_EQ(cascaded.predict(queries), want_dot);
    std::vector<data::Label> into(queries.size());
    cascaded.predict(queries, into);
    EXPECT_EQ(into, want_dot);
  }
  EXPECT_GT(ran, 0u);
}

INSTANTIATE_TEST_SUITE_P(OddShapes, SearchPlaneBackends,
                         ::testing::Combine(::testing::Values(65, 127, 193),
                                            ::testing::Values(5, 19, 37)));

TEST(SearchPlane, RejectsCascadeWithBipolarRankingByContract) {
  common::Rng rng(3);
  const auto bits = common::BitMatrix::random(6, 128, rng);
  search::CascadeConfig cascade;
  cascade.enabled = true;
  EXPECT_DEATH(search::CentroidPlane(bits, std::vector<data::Label>(6, 0),
                                     search::Ranking::kBipolar, cascade),
               "precondition");
}

// ------------------------------------------------ partial_fit mean cache --

TEST(SearchPlane, MeanCacheMatchesAFreshScan) {
  const auto split = testing::tiny_multimodal(/*seed=*/4);
  const MemhdModel model = fitted_model(split);
  // fit() ends with a binarize, whose scan fills the cache.
  EXPECT_TRUE(model.am().fp_mean_cached());

  MultiCentroidAM am = model.am();
  const double cached = am.fp_mean();
  EXPECT_EQ(cached, std::as_const(am).fp().mean());
  const std::vector<std::size_t> rows = {1};
  am.normalize_rows(NormalizationMode::kZScore, rows);
  EXPECT_FALSE(am.fp_mean_cached());
  am.binarize_rows(rows);
  EXPECT_TRUE(am.fp_mean_cached());
  am.fp();  // mutable access invalidates
  EXPECT_FALSE(am.fp_mean_cached());
  EXPECT_EQ(am.fp_mean(), std::as_const(am).fp().mean());
}

TEST(SearchPlane, PartialFitMeanCacheIsBitIdenticalToColdScans) {
  const auto split = testing::tiny_multimodal(/*seed=*/8);
  MemhdModel warm = fitted_model(split);
  MemhdModel cold = round_trip(warm);
  ASSERT_TRUE(warm.am().binary() == cold.am().binary());

  const auto& features = split.train.features();
  const std::size_t batch_rows = 20;
  for (std::size_t b = 0; b * batch_rows + batch_rows <= features.rows() &&
                          b < 8;
       ++b) {
    SCOPED_TRACE(b);
    common::Matrix batch(batch_rows, features.cols());
    std::vector<data::Label> labels(batch_rows);
    for (std::size_t r = 0; r < batch_rows; ++r) {
      const std::size_t i = b * batch_rows + r;
      const auto src = features.row(i);
      std::copy(src.begin(), src.end(), batch.row(r).begin());
      labels[r] = split.train.label(i);
    }
    if (b % 3 == 1) labels = wrong_labels(warm, batch);  // all misses
    if (b == 5) labels = warm.predict_batch(batch);      // miss-free
    if (b == 6) labels[0] = static_cast<data::Label>(warm.num_classes());

    // A save/load round trip rebuilds the AM through set_centroid, so
    // `cold` enters every batch with no cached mean.
    cold = round_trip(cold);
    ASSERT_FALSE(cold.am().fp_mean_cached());

    const auto rw = warm.partial_fit(batch, labels);
    const auto rc = cold.partial_fit(batch, labels);
    EXPECT_EQ(rw.mispredicted, rc.mispredicted);
    EXPECT_EQ(rw.new_columns, rc.new_columns);
    ASSERT_TRUE(warm.am().fp() == cold.am().fp());
    ASSERT_TRUE(warm.am().binary() == cold.am().binary());
    expect_frozen(warm.am());
    // After a batch the cache holds the scan of the final re-binarize (or
    // survives untouched from before a miss-free batch), and it is exact.
    EXPECT_TRUE(warm.am().fp_mean_cached());
    MultiCentroidAM probe = warm.am();
    const double cached = probe.fp_mean();
    EXPECT_EQ(cached, std::as_const(probe).fp().mean());
  }
}

}  // namespace
}  // namespace memhd::core

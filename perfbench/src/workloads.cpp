#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "src/common/rng.hpp"

namespace perfbench {

namespace {

using memhd::api::BatchServerOptions;
using memhd::core::InitMethod;

// `compute` scoring threads: batches above the shard quantum are split
// across that many shard workers (each scoring through its own pinned
// PredictContext); smaller ones run on the global pool, sized to match.
BatchServerOptions serving_options(std::size_t compute) {
  BatchServerOptions opts;
  opts.max_batch = 64;
  opts.max_delay = std::chrono::microseconds(1000);
  // Deep enough to ride out a ~150 ms host stall at the nominal rates
  // without shedding; still bounded, so the overload phases shed.
  opts.max_pending = 1024;
  opts.shards = compute;
  opts.shard_quantum = 8;
  return opts;
}

/// Geometric ladder from `lo` to `hi` (inclusive-ish) in steps of `step`
/// (e.g. 0.04 = 4% apart), finer than slo_qps's bound.
std::vector<double> ladder(double lo, double hi, double step) {
  std::vector<double> rates;
  for (double r = lo; r <= hi * 1.0001; r *= 1.0 + step)
    rates.push_back(std::round(r));
  return rates;
}

// MNIST-like (784 dense features, 10 classes) at D=4096, C=128 with the
// paper's clustering initializer: encode-bound serving, fit dominated by
// core::initialize.
Workload encode_shape(std::string name) {
  Workload w;
  w.name = std::move(name);
  w.data = memhd::data::mnist_like_config(memhd::data::Scale::kBench);
  w.data.train_per_class = 75;
  w.data.test_per_class = 100;
  w.model.dim = 4096;
  w.model.columns = 128;
  w.model.init = InitMethod::kClustering;
  w.model.epochs = 3;
  w.model.seed = 7;
  w.model.basis = memhd::hdc::BasisKind::kMaterialized;
  w.model.cascade = false;
  return w;
}

}  // namespace

Workload make_workload(const std::string& name) {
  if (name == "serve_encode") {
    Workload w = encode_shape(name);
    w.pool_threads = 2;
    w.server = serving_options(2);
    w.nominal_qps = 7000;
    w.overload_qps = 24000;
    w.ladder = ladder(4000, 20000, 0.04);
    w.latency_limit_ms = 20;
    return w;
  }
  if (name == "serve_search") {
    // Sensor-like (64 features, 128 classes) at D=8192 with 64 centroids
    // per class (C=8192): associative search dominates. Random-sampling
    // init: clustering init at this C runs for minutes.
    Workload w;
    w.name = name;
    w.data.name = "sensor-like";
    w.data.num_classes = 128;
    w.data.num_features = 64;
    w.data.latent_dim = 16;
    w.data.modes_per_class = 4;
    w.data.train_per_class = 32;
    w.data.test_per_class = 16;
    w.data.class_separation = 6.0;
    w.data.mode_spread = 2.0;
    w.data.within_mode_stddev = 0.8;
    w.model.dim = 8192;
    w.model.columns = 8192;
    w.model.init = InitMethod::kRandomSampling;
    w.model.epochs = 1;
    w.model.seed = 11;
    w.model.cascade = false;
    w.pool_threads = 2;
    w.server = serving_options(2);
    w.nominal_qps = 2500;
    w.overload_qps = 9000;
    w.ladder = ladder(1500, 9000, 0.04);
    w.latency_limit_ms = 60;
    return w;
  }
  if (name == "serve_learn") {
    // The serve_encode model behind a version store. One serving compute
    // thread plus one learner thread keep the process within nproc.
    Workload w = encode_shape(name);
    w.learn = true;
    w.pool_threads = 1;
    w.server = serving_options(1);
    w.nominal_qps = 3000;
    w.overload_qps = 12000;
    w.ladder = ladder(1500, 10000, 0.04);
    w.latency_limit_ms = 30;
    return w;
  }
  throw std::invalid_argument("unknown workload: " + name);
}

namespace {

using memhd::common::Matrix;
using memhd::data::Dataset;

Dataset permuted(const Dataset& data, memhd::common::Rng& rng,
                 const std::string& name) {
  std::vector<std::size_t> order(data.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  rng.shuffle(order);
  return data.subset(order, name);
}

/// Covariate drift: a fixed, seeded subset of features reverses polarity
/// (x -> 1 - x), so the deployed model mispredicts part of the traffic
/// until partial_fit adapts it; labels are unchanged.
Dataset drifted(const Dataset& data, const std::vector<bool>& flipped,
                const std::string& name) {
  Matrix features = data.features();
  for (std::size_t r = 0; r < features.rows(); ++r) {
    auto row = features.row(r);
    for (std::size_t f = 0; f < row.size(); ++f)
      if (flipped[f]) row[f] = 1.0f - row[f];
  }
  return Dataset(name, std::move(features), data.labels(),
                 data.num_classes());
}

}  // namespace

Inputs make_inputs(const Workload& workload, std::uint64_t seed) {
  memhd::common::Rng rng(seed);
  Inputs in{memhd::data::generate_synthetic(workload.data, rng), {}, {}};
  in.queries = permuted(in.split.test, rng, "queries");
  in.stream = permuted(in.split.train, rng, "stream");
  if (workload.learn) {
    std::vector<bool> flipped(workload.data.num_features);
    for (std::size_t f = 0; f < flipped.size(); ++f)
      flipped[f] = rng.uniform() < 0.3;
    in.queries = drifted(in.queries, flipped, "drifted-queries");
    in.stream = drifted(in.stream, flipped, "drifted-stream");
  }
  return in;
}

}  // namespace perfbench

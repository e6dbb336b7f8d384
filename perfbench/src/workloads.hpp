// The benchmark's workloads: per-workload shapes, thread budget, serving
// options and the fixed load constants (nominal rate, overload rate, SLO
// ladder, latency limit). Everything here is a constant of the workload,
// never re-derived from a run's own measurements (README.md, "Rates").
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "src/api/batch_server.hpp"
#include "src/api/options.hpp"
#include "src/data/dataset.hpp"
#include "src/data/synthetic.hpp"

namespace perfbench {

struct Workload {
  std::string name;
  memhd::data::SyntheticConfig data;
  memhd::api::ModelOptions model;
  memhd::api::BatchServerOptions server;
  /// Size of the global scoring pool (MEMHD_NUM_THREADS). The generator,
  /// the event loop and every compute thread together stay within nproc.
  unsigned pool_threads = 2;
  /// Serve through an online::ModelStore while a learner thread streams
  /// drifted labeled batches through partial_fit (serve_learn).
  bool learn = false;

  double nominal_qps = 0;   // open-loop rate for p50_ms / fail_rate
  double overload_qps = 0;  // open-loop rate for capacity_qps (> capacity)
  std::vector<double> ladder;  // ascending rates tried for slo_qps
  double latency_limit_ms = 0;  // p99 limit (from scheduled send) for slo_qps
};

/// The workload named `name`; throws std::invalid_argument when unknown.
Workload make_workload(const std::string& name);

/// The workload's inputs, all drawn from `seed`: train/test splits, the
/// serving query order, and (serve_learn) the drifted query and training
/// streams.
struct Inputs {
  memhd::data::TrainTestSplit split;
  /// Rows served over the socket, in serving order (a seeded permutation
  /// of the test split; drifted for serve_learn).
  memhd::data::Dataset queries;
  /// Labeled stream partial_fit consumes: a seeded permutation of the
  /// train split (drifted for serve_learn).
  memhd::data::Dataset stream;
};

Inputs make_inputs(const Workload& workload, std::uint64_t seed);

}  // namespace perfbench

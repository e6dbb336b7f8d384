// perfbench: one workload of the socket-to-socket serving benchmark.
//
//   perfbench --workload serve_encode --seed 1 --seconds 20 --trace 0
//
// Untraced (--trace 0) it measures the end-to-end metrics; traced
// (--trace 1) it serves through the TracedClassifier decorator and reports
// the per-layer metrics. Either way every output is checked, the last line
// of stdout is the JSON result, and the exit code is 0 only when every
// check passed. README.md defines each workload and metric.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "loadgen.hpp"
#include "src/api/adapters.hpp"
#include "src/api/registry.hpp"
#include "src/common/bitops_batch.hpp"
#include "src/common/kernels/backend.hpp"
#include "src/core/initializer.hpp"
#include "src/core/qat_trainer.hpp"
#include "src/imc/pipeline.hpp"
#include "src/online/model_store.hpp"
#include "src/serve/protocol.hpp"
#include "src/serve/router.hpp"
#include "src/serve/server.hpp"
#include "traced_classifier.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using memhd::common::Matrix;
using memhd::data::Dataset;
using memhd::data::Label;
namespace api = memhd::api;
namespace core = memhd::core;
namespace serve = memhd::serve;
namespace online = memhd::online;

constexpr const char* kModel = "memhd";
/// Generator connections: at most nproc (README.md, "Measurement rules").
constexpr std::size_t kConnections = 4;
/// Set-up rounds (setup_s is their median); the first kFitRounds also fit
/// (fit_s is their median).
constexpr int kSetupRounds = 5;
constexpr int kFitRounds = 3;
/// Leading share of each open-loop phase discarded as warm-up.
constexpr double kWarmFraction = 0.15;
/// Rates and latencies are also taken per slice of this length. The host
/// this benchmark was tuned on alternates between full-speed stretches and
/// stretches of ~30-40% less CPU lasting seconds (co-tenant contention);
/// a whole-phase mean mixes the two in random proportion, so throughputs
/// are reported as the upper quartile and latency medians as the lower
/// quartile of their per-slice values (README.md, "Noise").
constexpr double kSliceSeconds = 0.25;
constexpr std::size_t kBatchRows = 256;  // batch_qps batch size
constexpr std::size_t kWarmupRequests = 512;
constexpr std::size_t kWarmupWindow = 16;
constexpr std::size_t kLearnBatch = 64;    // rows per partial_fit call
constexpr std::size_t kPublishEvery = 8;   // serve_learn: batches per publish
// Shares of --seconds given to each phase.
constexpr double kBatchShare = 0.15;
constexpr double kCapacityShare = 0.15;
constexpr double kProbeShare = 0.05;  // per SLO-ladder probe
constexpr int kMaxProbes = 8;        // ladder probes, retries included
constexpr double kNominalShare = 0.35;
constexpr double kOfflineLearnShare = 0.20;
/// The untraced run interleaves this many rounds of (batch_qps, offline
/// learn, capacity, nominal, SLO probes) segments, so each metric samples
/// the host at several points of the run.
constexpr int kRounds = 3;

// ------------------------------------------------------------ utilities --

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::int64_t to_ns(Clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             t.time_since_epoch())
      .count();
}

/// Nearest-rank percentile (q in [0, 1]); 0 for an empty sample.
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

/// Items per second of consecutive slices of `per_item_s` (each slice
/// spans at least kSliceSeconds), reported as quantile `q` of the slices.
double sliced_rate(const std::vector<double>& per_item_s,
                   double items_per_entry, double q) {
  std::vector<double> rates;
  double t = 0, items = 0;
  for (const double d : per_item_s) {
    t += d;
    items += items_per_entry;
    if (t >= kSliceSeconds) {
      rates.push_back(items / t);
      t = items = 0;
    }
  }
  if (rates.empty() && t > 0) rates.push_back(items / t);
  return percentile(rates, q);
}

/// Least-squares fit y = a + b x; returns {a, b}.
std::pair<double, double> fit_line(const std::vector<double>& x,
                                   const std::vector<double>& y) {
  const double n = static_cast<double>(x.size());
  if (x.size() < 2) return {0.0, 0.0};
  double sx = 0, sy = 0, sxx = 0, sxy = 0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    sx += x[i];
    sy += y[i];
    sxx += x[i] * x[i];
    sxy += x[i] * y[i];
  }
  const double den = n * sxx - sx * sx;
  if (den == 0) return {sy / n, 0.0};
  const double b = (n * sxy - sx * sy) / den;
  return {(sy - b * sx) / n, b};
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  return "unknown";
}

const core::MemhdModel& memhd_of(const api::Classifier& clf) {
  if (const auto* traced = dynamic_cast<const TracedClassifier*>(&clf))
    return traced->inner().model();
  if (const auto* plain = dynamic_cast<const api::MemhdClassifier*>(&clf))
    return plain->model();
  throw std::logic_error("perfbench: not a MEMHD classifier");
}

/// Failures of a run. Each failed request or check counts once.
struct Checks {
  std::uint64_t failed = 0;
  void fail(const std::string& message, std::uint64_t count = 1) {
    failed += count;
    std::fprintf(stderr, "perfbench: FAILED: %s\n", message.c_str());
  }
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

// -------------------------------------------------------------- serving --

/// One running server: Router + Server + the generator connected to it.
struct Serving {
  std::shared_ptr<online::ModelStore> store;  // serve_learn only
  std::unique_ptr<serve::Router> router;
  std::unique_ptr<serve::Server> server;
  std::unique_ptr<LoadGenerator> gen;

  Serving() = default;
  Serving(const Serving&) = delete;
  Serving& operator=(const Serving&) = delete;
  ~Serving() {
    gen.reset();
    if (server) {
      server->request_stop();
      server->join();
    }
  }
  api::BatchServer& batch_server() { return *router->server(kModel); }
};

std::unique_ptr<Serving> start_serving(const Workload& w,
                                       std::unique_ptr<api::Classifier> model,
                                       const Dataset& queries,
                                       Checks& checks) {
  auto s = std::make_unique<Serving>();
  s->router = std::make_unique<serve::Router>();
  if (w.learn) {
    s->store = std::make_shared<online::ModelStore>(std::move(model));
    s->router->add_store(kModel, s->store, w.server);
  } else {
    s->router->add_model(kModel, std::move(model), w.server);
  }
  s->server = std::make_unique<serve::Server>(*s->router);
  s->server->start();
  s->gen = std::make_unique<LoadGenerator>(s->server->port(), kConnections,
                                           kModel, queries);
  // Warm-up: fills contexts and caches; its numbers are discarded.
  const Phase warm = s->gen->closed_window(kWarmupRequests, kWarmupWindow);
  std::size_t bad = 0;
  for (const auto& smp : warm.samples)
    bad += smp.status != static_cast<std::uint8_t>(serve::Status::kOk);
  if (bad > 0) checks.fail("warm-up: " + std::to_string(bad) + " non-OK", bad);
  return s;
}

// --------------------------------------------------------- phase stats --

/// Decides whether a kOk sample's label is right.
using LabelOracle = std::function<bool(const Sample&, std::int64_t epoch_ns)>;

struct PhaseStats {
  std::size_t attempted = 0;
  std::size_t ok = 0;
  std::size_t queue_full = 0;
  std::size_t other = 0;  // neither kOk nor kQueueFull (incl. no response)
  std::size_t wrong = 0;  // kOk with a wrong label
  /// kOk responses per second in the measured window: the slope of their
  /// cumulative count against receive time. Under overload responses
  /// arrive in bursts of up to max_pending, so a plain count over the
  /// window would be quantized by the burst size.
  double ok_qps = 0;
  double p50_ms = 0, p99_ms = 0;
  double p50_slice_ms = 0;  // lower quartile of per-slice latency medians
  double p99_slice_ms = 0;  // median of per-slice latency p99s
  std::vector<double> slice_p50s, latencies;
  double lag_p99_ms = 0;
  std::vector<double> lags;  // actual - scheduled send, measured window
  /// Requests in flight (sent, not yet answered), median over the slice
  /// ends of the measured window.
  std::size_t backlog = 0;
};

PhaseStats analyze(const Phase& ph, const LabelOracle& correct) {
  PhaseStats st;
  st.attempted = ph.samples.size();
  const std::int64_t epoch = to_ns(ph.start);
  const double span_ns = ph.seconds * 1e9;
  const auto warm_ns = static_cast<std::int64_t>(kWarmFraction * span_ns);
  const auto end_ns = static_cast<std::int64_t>(span_ns);
  std::vector<double> latency, lag;
  const auto slice_ns = static_cast<std::int64_t>(kSliceSeconds * 1e9);
  const std::size_t slices =
      std::max<std::int64_t>(1, (end_ns - warm_ns) / slice_ns);
  std::vector<double> ok_received_s;
  std::vector<std::vector<double>> latency_per_slice(slices);
  auto slice_of = [&](std::int64_t t) {
    return std::min<std::size_t>(slices - 1,
                                 static_cast<std::size_t>((t - warm_ns) /
                                                          slice_ns));
  };
  for (const auto& s : ph.samples) {
    const auto status = static_cast<serve::Status>(s.status);
    if (s.status == Sample::kNoResponse) {
      ++st.other;
      continue;
    }
    if (status == serve::Status::kQueueFull) {
      ++st.queue_full;
      continue;
    }
    if (status != serve::Status::kOk) {
      ++st.other;
      continue;
    }
    ++st.ok;
    if (!correct(s, epoch)) ++st.wrong;
    if (s.received_ns >= warm_ns && s.received_ns <= end_ns)
      ok_received_s.push_back(s.received_ns * 1e-9);
    if (s.scheduled_ns >= warm_ns) {
      latency.push_back(s.latency_ms());
      latency_per_slice[slice_of(s.scheduled_ns)].push_back(s.latency_ms());
    }
  }
  for (const auto& s : ph.samples)
    if (s.scheduled_ns >= warm_ns && s.sent_ns >= 0) lag.push_back(s.lag_ms());
  std::sort(ok_received_s.begin(), ok_received_s.end());
  std::vector<double> cumulative(ok_received_s.size());
  for (std::size_t i = 0; i < cumulative.size(); ++i)
    cumulative[i] = static_cast<double>(i + 1);
  st.ok_qps = fit_line(ok_received_s, cumulative).second;
  std::vector<double> slice_p99s;
  for (const auto& v : latency_per_slice) {
    if (v.empty()) continue;
    st.slice_p50s.push_back(percentile(v, 0.5));
    slice_p99s.push_back(percentile(v, 0.99));
  }
  st.p50_slice_ms = percentile(st.slice_p50s, 0.25);
  st.p99_slice_ms = percentile(slice_p99s, 0.5);
  std::vector<double> in_flight(slices, 0.0);
  for (const auto& s : ph.samples)
    for (std::size_t k = 0; k < slices; ++k) {
      const std::int64_t t =
          warm_ns + static_cast<std::int64_t>(k + 1) * slice_ns;
      if (s.sent_ns >= 0 && s.sent_ns <= t &&
          (s.received_ns < 0 || s.received_ns > t))
        in_flight[k] += 1;
    }
  st.backlog = static_cast<std::size_t>(percentile(in_flight, 0.5));
  st.p50_ms = percentile(latency, 0.50);
  st.p99_ms = percentile(latency, 0.99);
  st.latencies = std::move(latency);
  st.lag_p99_ms = percentile(lag, 0.99);
  st.lags = std::move(lag);
  return st;
}

void print_phase(const char* name, const Phase& ph, const PhaseStats& st) {
  std::printf(
      "# phase %-14s offered %8.0f q/s  attempted %6zu  ok %6zu  "
      "queue_full %5zu  other %3zu  wrong %3zu  ok_qps %.1f  "
      "p50 %.3f ms (slices %.3f)  p99 %.3f ms (slices %.3f, n=%zu)  "
      "backlog %zu  lag_p99 %.3f ms\n",
      name, ph.rate, st.attempted, st.ok, st.queue_full, st.other, st.wrong,
      st.ok_qps, st.p50_ms, st.p50_slice_ms, st.p99_ms,
      st.p99_slice_ms, st.latencies.size(), st.backlog, st.lag_p99_ms);
}

/// Counts a phase's failures: wrong labels always; non-OK outcomes when
/// `expect_all_ok` (nominal rate, warm-up) — under deliberate overload a
/// kQueueFull is the designed outcome, not a failure.
void count_failures(const char* name, const PhaseStats& st,
                    bool expect_all_ok, Checks& checks) {
  if (st.wrong > 0)
    checks.fail(std::string(name) + ": " + std::to_string(st.wrong) +
                    " kOk responses with a wrong label",
                st.wrong);
  const std::size_t bad = expect_all_ok ? st.queue_full + st.other : st.other;
  if (bad > 0)
    checks.fail(std::string(name) + ": " + std::to_string(bad) +
                    " requests not answered kOk (" +
                    std::to_string(st.queue_full) + " queue-full)",
                bad);
}


// ------------------------------------------------------------- learning --

/// A published version, kept as its deployed binary AM and owner map (a
/// few KB) rather than a pinned model, so verifying every version does not
/// inflate peak_rss_mb.
struct Publication {
  std::uint64_t version = 0;
  std::int64_t start_ns = 0;  // publish() called
  std::int64_t end_ns = 0;    // publish() returned
  memhd::common::BitMatrix binary;
  std::vector<Label> owners;  // column -> class
};

Publication snapshot(const api::PinnedModel& pinned, std::int64_t start_ns,
                     std::int64_t end_ns) {
  const auto& am = memhd_of(*pinned.model).am();
  Publication pub{pinned.version, start_ns, end_ns, am.binary(), {}};
  for (std::size_t c = 0; c < am.binary().rows(); ++c)
    pub.owners.push_back(am.owner(c));
  return pub;
}

struct LearnLog {
  std::size_t samples = 0, mispredicted = 0, batches = 0;
  std::size_t published_batches = 0;
  double seconds = 0;
  std::vector<double> partial_fit_ms, publish_ms;
  std::vector<double> batch_s;  // partial_fit (+ publish) wall time per batch
  std::vector<Publication> pubs;  // pubs[0] = the initial version
};

struct Batches {
  std::vector<Matrix> features;
  std::vector<std::vector<Label>> labels;
};

Batches make_batches(const Dataset& data, std::size_t rows) {
  Batches b;
  for (std::size_t start = 0; start + rows <= data.size(); start += rows) {
    Matrix m(rows, data.num_features());
    std::vector<Label> labels(rows);
    for (std::size_t r = 0; r < rows; ++r) {
      const auto src = data.sample(start + r);
      std::copy(src.begin(), src.end(), m.row(r).begin());
      labels[r] = data.label(start + r);
    }
    b.features.push_back(std::move(m));
    b.labels.push_back(std::move(labels));
  }
  if (b.features.empty()) throw std::logic_error("perfbench: empty stream");
  return b;
}

/// The learner thread body: partial_fit batch after batch, publishing every
/// `publish_every` batches, until `stop`.
void run_learner(online::ModelStore& store, const Batches& stream,
                 std::size_t publish_every, const std::atomic<bool>& stop,
                 LearnLog& log) {
  const auto t0 = Clock::now();
  while (!stop.load(std::memory_order_acquire)) {
    const std::size_t b = log.batches % stream.features.size();
    const auto a = Clock::now();
    const auto report =
        store.partial_fit(stream.features[b], stream.labels[b]);
    log.partial_fit_ms.push_back(seconds_since(a) * 1e3);
    log.samples += report.samples;
    log.mispredicted += report.mispredicted;
    ++log.batches;
    double batch_s = log.partial_fit_ms.back() * 1e-3;
    if (log.batches % publish_every == 0) {
      const std::int64_t start_ns = steady_ns();
      store.publish();
      const std::int64_t end_ns = steady_ns();
      log.publish_ms.push_back((end_ns - start_ns) * 1e-6);
      batch_s += log.publish_ms.back() * 1e-3;
      log.pubs.push_back(snapshot(store.pin(), start_ns, end_ns));
      log.published_batches = log.batches;
    }
    log.batch_s.push_back(batch_s);
  }
  log.seconds += seconds_since(t0);
}

/// Labels every published version gives the queries: the same winner-take-
/// all search MEMHD's batch predict runs (the encoder plane is shared by
/// every version, so the queries are encoded once).
std::vector<std::vector<Label>> version_labels(
    const LearnLog& log, const std::vector<memhd::common::BitVector>& encoded) {
  std::vector<std::vector<Label>> out;
  std::vector<std::uint32_t> best;
  for (const auto& pub : log.pubs) {
    memhd::common::BatchScorer(pub.binary)
        .dot_argmax(std::span<const memhd::common::BitVector>(encoded), best);
    std::vector<Label> labels(best.size());
    for (std::size_t q = 0; q < best.size(); ++q)
      labels[q] = pub.owners[best[q]];
    out.push_back(std::move(labels));
  }
  return out;
}

/// Oracle for phases that ran beside the learner: a label is right when
/// some version that was current while the request was in flight gives it.
LabelOracle versioned_oracle(const LearnLog& log,
                             const std::vector<std::vector<Label>>& labels) {
  return [&log, &labels](const Sample& s, std::int64_t epoch) {
    const std::int64_t sent = epoch + s.sent_ns;
    const std::int64_t received = epoch + s.received_ns;
    for (std::size_t k = 0; k < log.pubs.size(); ++k) {
      const bool started = k == 0 || log.pubs[k].start_ns <= received;
      const bool superseded_before_send =
          k + 1 < log.pubs.size() && log.pubs[k + 1].end_ns <= sent;
      if (started && !superseded_before_send &&
          labels[k][s.query] == s.label)
        return true;
    }
    return false;
  };
}

/// serve_learn's final version must equal an offline replay of the same
/// partial_fit/publish sequence on a copy of the initial model.
void check_learn_replay(const api::Classifier& initial, const Batches& stream,
                        const LearnLog& log, online::ModelStore& store,
                        Checks& checks) {
  if (log.pubs.size() < 2) {
    checks.fail("serve_learn: the learner never published a version");
    return;
  }
  auto replay = initial.clone();
  for (std::size_t b = 0; b < log.published_batches; ++b) {
    const std::size_t i = b % stream.features.size();
    replay->partial_fit(stream.features[i], stream.labels[i]);
  }
  const auto current = store.pin();
  if (current.version != log.pubs.back().version)
    checks.fail("serve_learn: store's current version is not the last one "
                "published");
  if (!(memhd_of(*replay).am().binary() ==
        memhd_of(*current.model).am().binary()))
    checks.fail("serve_learn: final version differs from the offline replay");
}

// ----------------------------------------------------------------- args --

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20;
  bool trace = false;
  std::string trace_out;
};

bool parse_args(int argc, char** argv, Args& args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") args.workload = value;
    else if (key == "--seed") args.seed = std::stoull(value);
    else if (key == "--seconds") args.seconds = std::stod(value);
    else if (key == "--trace") args.trace = value == "1";
    else if (key == "--trace-out") args.trace_out = value;
    else return false;
  }
  return argc % 2 == 1 && !args.workload.empty() && args.seconds > 0;
}

// ------------------------------------------------------------ the run --

struct Run {
  Args args;
  Workload w;
  Checks checks;
  std::vector<Metric> metrics;
  std::uint64_t attempted = 0;

  Inputs in;
  std::unique_ptr<api::Classifier> fitted;
  std::unique_ptr<Serving> serving;
  /// Label each query must be served with: the in-process predict_batch
  /// label of the fitted model (serve_learn: of the current version).
  std::vector<Label> ref;
  std::vector<Label> fitted_labels;  // the fitted model's, fixed
  Batches stream;
  /// Generator lateness of every measured request below the overload rate.
  std::vector<double> lags;

  void metric(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }

  LabelOracle fixed_oracle() const {
    return [this](const Sample& s, std::int64_t) {
      return ref[s.query] == s.label;
    };
  }

  PhaseStats phase(const char* name, LoadGenerator& gen, double rate,
                   double seconds, bool expect_all_ok,
                   const LabelOracle& oracle, Phase* keep = nullptr) {
    Phase ph = gen.open_loop(rate, seconds);
    attempted += ph.samples.size();
    const PhaseStats st = analyze(ph, oracle);
    print_phase(name, ph, st);
    count_failures(name, st, expect_all_ok, checks);
    // Under deliberate overload the server stops reading (per-connection
    // in-flight cap), so late sends there are its backpressure, not the
    // generator's lateness.
    if (rate < w.overload_qps)
      lags.insert(lags.end(), st.lags.begin(), st.lags.end());
    if (keep != nullptr) *keep = std::move(ph);
    return st;
  }

  /// Set-up, repeated kSetupRounds times: data generation, model
  /// construction, server start and warm-up (setup_s), and a fit timed
  /// apart (fit_s). Every round must regenerate the same inputs and fit the
  /// same model; the first round's is kept.
  void setup() {
    std::vector<double> rounds, fits;
    for (int round = 0; round < kSetupRounds; ++round) {
      serving.reset();
      const auto t0 = Clock::now();
      Inputs inputs = make_inputs(w, args.seed);
      auto clf = api::make(kModel, inputs.split.train.num_features(),
                           inputs.split.train.num_classes(), w.model);
      const double build_s = seconds_since(t0);
      if (round < kFitRounds) {
        const auto f0 = Clock::now();
        clf->fit(inputs.split.train);
        fits.push_back(seconds_since(f0));
      }
      if (round == 0) {
        fitted = std::move(clf);
        in = std::move(inputs);
      } else if (round < kFitRounds && !(memhd_of(*clf).am().binary() ==
                                         memhd_of(*fitted).am().binary())) {
        checks.fail("fitting the same inputs twice gave different models");
      } else if (!(inputs.queries.features().rows() ==
                       in.queries.features().rows() &&
                   std::equal(inputs.queries.features().data(),
                              inputs.queries.features().data() +
                                  inputs.queries.size() *
                                      inputs.queries.num_features(),
                              in.queries.features().data()))) {
        checks.fail("the same seed generated different inputs");
      }
      clf.reset();  // only the first round's model is kept
      const auto t1 = Clock::now();
      serving = start_serving(w, fitted->clone(), in.queries, checks);
      attempted += kWarmupRequests;
      rounds.push_back(build_s + seconds_since(t1));
    }
    std::printf("# setup rounds:");
    for (const double r : rounds) std::printf(" %.4f", r);
    std::printf(" s; fits:");
    for (const double f : fits) std::printf(" %.4f", f);
    std::printf(" s\n");
    metric("setup_s", median(rounds), "s");
    metric("fit_s", median(fits), "s");
    fitted_labels = fitted->predict_batch(in.queries.features());
    ref = fitted_labels;
    const Batches batches = make_batches(in.queries, kBatchRows);
    for (std::size_t b = 0; b < batches.features.size(); ++b) {
      const auto labels = fitted->predict_batch(batches.features[b]);
      if (!std::equal(labels.begin(), labels.end(),
                      fitted_labels.begin() +
                          static_cast<std::ptrdiff_t>(b * kBatchRows)))
        checks.fail("predict_batch differs between batchings");
    }
    stream = make_batches(in.stream, kLearnBatch);
  }

  /// In-process predict_batch over fixed 256-row batches for `seconds`;
  /// appends each batch's wall time to `batch_s`.
  void time_batches(const Batches& batches, double seconds,
                    std::vector<double>& batch_s) {
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i == 0 || seconds_since(t0) < seconds; ++i) {
      const auto a = Clock::now();
      fitted->predict_batch(batches.features[i % batches.features.size()]);
      batch_s.push_back(seconds_since(a));
    }
  }

  PhaseStats capacity(const char* name, double seconds) {
    return phase(name, *serving->gen, w.overload_qps, seconds, false,
                 fixed_oracle());
  }

  /// Binary search for the highest ladder rate meeting the SLO, run a few
  /// probes per round so the probes sample the host at several points.
  struct SloSearch {
    std::size_t lo = 0;  // ladder[lo - 1] passed (0 = none yet)
    std::size_t hi = std::numeric_limits<std::size_t>::max();  // failed
    int probes = 0;
    std::size_t failed_once = std::numeric_limits<std::size_t>::max();
    double achieved = 0;  // kOk/s at the highest passing step (<= its rate)
  };

  /// Up to `budget` more probes; rates above `capacity_qps` are out of
  /// reach. A step fails only when two probes of it fail; the second runs
  /// in the next round (a probe that overlapped a slow stretch of the host
  /// says nothing about the program), or at once in the last round.
  void slo_steps(SloSearch& search, int budget, double capacity_qps,
                 bool last_round) {
    std::size_t reach = 0;
    while (reach < w.ladder.size() && w.ladder[reach] <= capacity_qps) ++reach;
    search.hi = std::min(search.hi, reach);
    const int stop = search.probes + budget;
    auto probe = [&](double rate) {
      ++search.probes;
      const PhaseStats st =
          phase("slo_probe", *serving->gen, rate,
                kProbeShare * args.seconds, false, fixed_oracle());
      // p99 as the median of per-slice p99s: a slow stretch of the host
      // inflates the slices it covers, not the probe; sustained overload
      // inflates every slice and grows the backlog.
      const bool pass =
          st.ok == st.attempted && st.p99_slice_ms <= w.latency_limit_ms &&
          static_cast<double>(st.backlog) <=
              rate * w.latency_limit_ms * 1e-3 + 1;
      std::printf("# slo probe %.0f q/s: %s\n", rate, pass ? "pass" : "fail");
      if (pass) search.achieved = std::min(st.ok_qps, rate);
      return pass;
    };
    while (search.lo < search.hi && search.probes < stop) {
      const std::size_t mid = search.lo + (search.hi - search.lo) / 2;
      if (probe(w.ladder[mid])) {
        search.lo = mid + 1;
      } else if (search.failed_once == mid) {
        search.hi = mid;
      } else {
        search.failed_once = mid;
        if (!last_round) break;
      }
    }
  }

  /// partial_fit with no serving load for `seconds` (serve_encode /
  /// serve_search; serve_learn learns under load); appends each batch's
  /// wall time. Trains `fitted` itself: the server scores its own copy,
  /// and everything read off `fitted` is taken before the first call.
  void offline_learn(double seconds, std::vector<double>& batch_s) {
    const auto t0 = Clock::now();
    for (bool first = true; first || seconds_since(t0) < seconds;
         first = false) {
      const std::size_t i = offline_batches_++ % stream.features.size();
      const auto a = Clock::now();
      fitted->partial_fit(stream.features[i], stream.labels[i]);
      batch_s.push_back(seconds_since(a));
    }
  }
  std::size_t offline_batches_ = 0;

  /// The nominal-rate phase; serve_learn runs its learner beside it.
  /// One nominal-rate segment; serve_learn runs its learner beside it.
  PhaseStats nominal(LearnLog& log, double seconds, Phase* keep = nullptr) {
    if (!w.learn)
      return phase("nominal", *serving->gen, w.nominal_qps, seconds, true,
                   fixed_oracle(), keep);
    online::ModelStore& store = *serving->store;
    if (log.pubs.empty()) log.pubs.push_back(snapshot(store.pin(), 0, 0));
    std::atomic<bool> stop{false};
    std::thread learner([&] {
      run_learner(store, stream, kPublishEvery, stop, log);
    });
    Phase ph;
    try {
      ph = serving->gen->open_loop(w.nominal_qps, seconds);
    } catch (...) {
      stop.store(true, std::memory_order_release);
      learner.join();
      throw;
    }
    stop.store(true, std::memory_order_release);
    learner.join();
    attempted += ph.samples.size();
    const auto encoded =
        memhd_of(*fitted).encoder().encode_batch(in.queries.features());
    const auto labels = version_labels(log, encoded);
    const PhaseStats st = analyze(ph, versioned_oracle(log, labels));
    print_phase("nominal+learn", ph, st);
    count_failures("nominal", st, true, checks);
    lags.insert(lags.end(), st.lags.begin(), st.lags.end());
    std::printf("# learner: %zu samples in %.3f s, %zu batches, %zu versions "
                "published\n",
                log.samples, log.seconds, log.batches, log.pubs.size() - 1);
    // Later phases are served by the last published version.
    ref = labels.back();
    if (keep != nullptr) *keep = std::move(ph);
    return st;
  }

  /// Test accuracy of the served model; serve_learn: of the final
  /// published version on the drifted test split.
  double served_accuracy() {
    if (!w.learn) return fitted->evaluate(in.split.test);
    return serving->store->pin().model->evaluate(in.queries);
  }

  void untraced() {
    const Batches batches = make_batches(in.queries, kBatchRows);
    std::vector<double> batch_s, learn_s, capacity_rates, nominal_p50s,
        latencies;
    std::size_t nominal_attempted = 0, nominal_failed = 0;
    LearnLog log;
    SloSearch search;
    const double accuracy = w.learn ? 0.0 : served_accuracy();
    const double model_kb = fitted->memory().total_kb();
    for (int round = 0; round < kRounds; ++round) {
      time_batches(batches, kBatchShare * args.seconds / kRounds, batch_s);
      if (!w.learn)
        offline_learn(kOfflineLearnShare * args.seconds / kRounds, learn_s);
      const PhaseStats cap =
          capacity("capacity", kCapacityShare * args.seconds / kRounds);
      capacity_rates.push_back(cap.ok_qps);
      const PhaseStats nom =
          nominal(log, kNominalShare * args.seconds / kRounds);
      nominal_p50s.insert(nominal_p50s.end(), nom.slice_p50s.begin(),
                          nom.slice_p50s.end());
      latencies.insert(latencies.end(), nom.latencies.begin(),
                       nom.latencies.end());
      nominal_attempted += nom.attempted;
      nominal_failed += nom.attempted - nom.ok + nom.wrong;
      const int probes =
          kMaxProbes * (round + 1) / kRounds - kMaxProbes * round / kRounds;
      slo_steps(search, probes,
                *std::max_element(capacity_rates.begin(), capacity_rates.end()),
                round + 1 == kRounds);
    }
    metric("batch_qps", sliced_rate(batch_s, kBatchRows, 0.75), "1/s");
    // The best round: responses reach the generator in bursts after a
    // host stall, so finer slices of receive time would credit a burst to
    // one slice; whole segments bound that error.
    const double capacity_qps =
        *std::max_element(capacity_rates.begin(), capacity_rates.end());
    metric("capacity_qps", capacity_qps, "1/s");
    // A later round can lower the capacity estimate below a rate an earlier
    // probe passed; slo_qps is held to the final estimate.
    metric("slo_qps", std::min(search.achieved, capacity_qps), "1/s");
    metric("p50_ms", percentile(nominal_p50s, 0.25), "ms");
    std::printf("# nominal p50 %.3f ms, p99 %.3f ms over %zu samples\n",
                percentile(latencies, 0.5), percentile(latencies, 0.99),
                latencies.size());
    const double fail_rate = static_cast<double>(nominal_failed) /
                             static_cast<double>(nominal_attempted);
    std::printf("# fail_rate %.6f\n", fail_rate);
    metric("ok_rate", 1.0 - fail_rate, "ratio");
    if (w.learn)
      check_learn_replay(*fitted, stream, log, *serving->store, checks);
    metric("accuracy", w.learn ? served_accuracy() : accuracy, "ratio");
    metric("model_kb", model_kb, "KB");
    // The fastest slice: partial_fit at C=8192 is bound by memory
    // bandwidth, which co-tenants contend for far more than for the
    // compute the other throughputs need, so only the best slice repeats.
    metric("learn_sps",
           sliced_rate(w.learn ? log.batch_s : learn_s,
                       static_cast<double>(kLearnBatch), 1.0),
           "1/s");
    metric("peak_rss_mb", peak_rss_mb(), "MB");
  }

  // ------------------------------------------------------ traced run --

  /// Replays MemhdModel::fit's three steps as timed public calls; the
  /// replayed binary AM must equal the fitted one bit for bit.
  void core_replay() {
    const auto& model = memhd_of(*fitted);
    const auto& cfg = model.config();
    auto t = Clock::now();
    const auto encoded = model.encoder().encode_dataset(in.split.train);
    metric("core.encode_dataset_s", seconds_since(t), "s");
    t = Clock::now();
    core::InitializerReport report;
    auto am = core::initialize(encoded, cfg, &report);
    metric("core.init_s", seconds_since(t), "s");
    metric("core.init_rounds", static_cast<double>(report.allocation_rounds),
           "count");
    core::QatConfig qc;
    qc.epochs = cfg.epochs;
    qc.learning_rate = cfg.learning_rate;
    qc.normalization = cfg.normalization;
    qc.seed = cfg.seed;
    t = Clock::now();
    core::train_qat(am, encoded, nullptr, qc);
    metric("core.qat_s", seconds_since(t), "s");
    if (!(am.binary() == model.am().binary()))
      checks.fail("core replay: binary AM differs from the fitted model");
  }

  void parse_cost() {
    const auto& frames = serving->gen->frames();
    const std::size_t fb = serving->gen->frame_bytes();
    const std::size_t n = frames.size() / fb;
    serve::Request request;
    std::size_t parsed = 0, consumed = 0;
    const auto t0 = Clock::now();
    while (parsed == 0 || seconds_since(t0) < 0.2) {
      for (std::size_t i = 0; i < n; ++i) {
        if (serve::parse_request(frames.data() + i * fb, fb, request,
                                 consumed) != serve::ParseResult::kFrame) {
          checks.fail("parse_request rejected a generated frame");
          return;
        }
      }
      parsed += n;
    }
    metric("serve.parse_us", seconds_since(t0) * 1e6 / parsed, "us");
  }

  void imc_metrics() {
    const auto& model = memhd_of(*fitted);
    memhd::imc::InMemoryPipeline pipe(model.encoder(), model.am(),
                                      memhd::imc::ArrayGeometry{128, 128});
    const auto stats = pipe.stats();
    metric("imc.cycles_per_inference",
           static_cast<double>(stats.total_cycles()), "count");
    metric("imc.arrays", static_cast<double>(stats.total_arrays()), "count");
    metric("imc.am_utilization", stats.am_utilization, "ratio");
    const std::size_t rows = std::min<std::size_t>(in.queries.size(), 512);
    Matrix q(rows, in.queries.num_features());
    for (std::size_t r = 0; r < rows; ++r) {
      const auto src = in.queries.sample(r);
      std::copy(src.begin(), src.end(), q.row(r).begin());
    }
    const auto encoded = model.encoder().encode_batch(q);
    const auto software = model.am().predict_batch(encoded);
    const auto t0 = Clock::now();
    const auto labels = pipe.search_batch(encoded);
    metric("imc.search_rows_per_s",
           static_cast<double>(rows) / seconds_since(t0), "1/s");
    std::size_t agree = 0;
    for (std::size_t r = 0; r < rows; ++r) agree += labels[r] == software[r];
    const double agreement = static_cast<double>(agree) / rows;
    metric("imc.label_agreement", agreement, "ratio");
    if (agree != rows) checks.fail("IMC labels disagree with software search");
  }

  /// Per-layer metrics from the traced nominal and capacity phases.
  void span_metrics(const Tracer& tracer, const Phase& nominal_phase) {
    const auto spans = tracer.spans();
    std::unordered_map<std::uint64_t, const Span*> model_span;
    std::map<std::uint64_t, double> enc_us, srch_us;
    std::map<std::uint64_t, std::uint32_t> batch_rows;
    double enc = 0, srch = 0, mdl = 0, rows = 0;
    for (const auto& s : spans) {
      const double us = (s.end_ns - s.start_ns) * 1e-3;
      const std::string name = s.name;
      if (name == "encode") enc_us[s.batch] = us, enc += us;
      if (name == "search") srch_us[s.batch] = us, srch += us;
      if (name == "model") {
        model_span[s.batch] = &s;
        mdl += us;
        rows += s.rows;
        batch_rows[s.batch] = s.rows;
      }
    }
    std::vector<double> x, ye, ys;
    for (const auto& [batch, r] : batch_rows) {
      x.push_back(r);
      ye.push_back(enc_us[batch]);
      ys.push_back(srch_us[batch]);
    }
    const auto [enc_fixed, enc_row] = fit_line(x, ye);
    const auto [srch_fixed, srch_row] = fit_line(x, ys);
    metric("hdc.encode_share", mdl > 0 ? enc / mdl : 0, "ratio");
    metric("hdc.encode_us_per_row", enc_row, "us");
    metric("hdc.encode_fixed_us", enc_fixed, "us");
    metric("search.share", mdl > 0 ? srch / mdl : 0, "ratio");
    metric("search.us_per_row", srch_row, "us");
    metric("search.fixed_us", srch_fixed, "us");
    metric("search.rows_per_query",
           static_cast<double>(fitted->score_rows()), "count");

    // Join requests to the batch that scored them by query-row hash.
    std::unordered_map<std::uint64_t, std::uint32_t> query_of;
    for (std::size_t q = 0; q < in.queries.size(); ++q)
      query_of.emplace(row_hash(in.queries.sample(q)),
                       static_cast<std::uint32_t>(q));
    std::vector<std::vector<const Span*>> spans_of(in.queries.size());
    for (const auto& [batch, hash] : tracer.rows()) {
      const auto q = query_of.find(hash);
      const auto m = model_span.find(batch);
      if (q != query_of.end() && m != model_span.end())
        spans_of[q->second].push_back(m->second);
    }
    for (auto& v : spans_of)
      std::sort(v.begin(), v.end(), [](const Span* a, const Span* b) {
        return a->start_ns < b->start_ns;
      });
    const std::int64_t epoch = to_ns(nominal_phase.start);
    std::vector<double> wait, egress, latency, model_ms;
    for (const auto& s : nominal_phase.samples) {
      if (s.status != static_cast<std::uint8_t>(serve::Status::kOk)) continue;
      const std::int64_t sent = epoch + s.sent_ns;
      const std::int64_t recv = epoch + s.received_ns;
      const auto& v = spans_of[s.query];
      const auto it = std::lower_bound(
          v.begin(), v.end(), sent,
          [](const Span* a, std::int64_t t) { return a->start_ns < t; });
      if (it == v.end() || (*it)->end_ns > recv) continue;
      wait.push_back(((*it)->start_ns - sent) * 1e-6);
      egress.push_back((recv - (*it)->end_ns) * 1e-6);
      model_ms.push_back(((*it)->end_ns - (*it)->start_ns) * 1e-6);
      latency.push_back(s.latency_ms());
    }
    if (wait.size() < nominal_phase.samples.size() / 2)
      checks.fail("trace: fewer than half the requests joined to a batch");
    metric("serve.egress_ms_p50", percentile(egress, 0.5), "ms");
    metric("api.wait_ms_p50", percentile(wait, 0.5), "ms");
    metric("api.wait_ms_p99", percentile(wait, 0.99), "ms");
    // Self time per layer: span time minus the child spans it contains.
    auto mean = [](const std::vector<double>& v) {
      double s = 0;
      for (const double d : v) s += d;
      return v.empty() ? 0.0 : s / static_cast<double>(v.size());
    };
    const double m_req = mean(latency), m_wait = mean(wait),
                 m_egress = mean(egress), m_model = mean(model_ms);
    std::printf("# self time per request (mean ms, %zu joined requests):\n",
                wait.size());
    std::printf("#   request    %.4f  self (generator lag + socket) %.4f\n",
                m_req, m_req - m_wait - m_model - m_egress);
    std::printf("#   api.wait   %.4f\n", m_wait);
    std::printf("#   model      %.4f  self %.4f\n", m_model,
                m_model * (mdl > 0 ? (mdl - enc - srch) / mdl : 0));
    std::printf("#   hdc.encode %.4f\n", m_model * (mdl > 0 ? enc / mdl : 0));
    std::printf("#   search     %.4f\n", m_model * (mdl > 0 ? srch / mdl : 0));
    std::printf("#   egress     %.4f\n", m_egress);
    std::printf("# spans: %zu model calls, %.0f rows\n", model_span.size(),
                rows);
  }

  void write_trace(const Tracer& tracer) {
    if (args.trace_out.empty()) return;
    std::ofstream out(args.trace_out);
    for (const auto& s : tracer.spans())
      out << "{\"name\":\"" << s.name << "\",\"start_ns\":" << s.start_ns
          << ",\"end_ns\":" << s.end_ns << ",\"batch\":" << s.batch
          << ",\"rows\":" << s.rows << "}\n";
  }

  void traced() {
    core_replay();
    const double untraced_cap =
        capacity("capacity", kCapacityShare * args.seconds).ok_qps;
    parse_cost();
    serving.reset();

    auto tracer = std::make_shared<Tracer>();
    serving = start_serving(
        w, std::make_unique<TracedClassifier>(memhd_clone(*fitted), tracer),
        in.queries, checks);
    attempted += kWarmupRequests;
    tracer->clear();
    const auto before = serving->batch_server().stats();
    LearnLog log;
    Phase nominal_phase;
    nominal(log, kNominalShare * args.seconds, &nominal_phase);
    const auto after = serving->batch_server().stats();
    if (w.learn)
      check_learn_replay(*fitted, stream, log, *serving->store, checks);
    const double traced_cap =
        capacity("capacity_traced", kCapacityShare * args.seconds)
            .ok_qps;
    span_metrics(*tracer, nominal_phase);

    const double batches = static_cast<double>(after.batches - before.batches);
    metric("api.batch_rows_mean",
           batches > 0 ? (after.requests - before.requests) / batches : 0,
           "rows");
    metric("api.batches", batches, "count");
    metric("api.rejected",
           static_cast<double>(after.rejected - before.rejected), "count");
    metric("api.timed_out",
           static_cast<double>(after.timed_out - before.timed_out), "count");
    metric("api.queue_depth_peak", static_cast<double>(after.queue_depth_peak),
           "count");

    std::vector<double> clone_ms;
    for (const auto& s : tracer->spans())
      if (std::strcmp(s.name, "clone") == 0)
        clone_ms.push_back((s.end_ns - s.start_ns) * 1e-6);
    metric("online.partial_fit_ms", median(log.partial_fit_ms), "ms");
    metric("online.clone_ms", median(clone_ms), "ms");
    metric("online.publish_ms", median(log.publish_ms), "ms");
    metric("online.mispredict_ratio",
           log.samples > 0 ? static_cast<double>(log.mispredicted) /
                                 static_cast<double>(log.samples)
                           : 0,
           "ratio");
    metric("online.versions",
           log.pubs.empty() ? 0 : static_cast<double>(log.pubs.size() - 1),
           "count");
    imc_metrics();

    // Traced labels must equal untraced ones (serve_learn's traced labels
    // are checked per version by the nominal phase's oracle).
    if (!w.learn) {
      const auto& traced_model = *serving->router->model(kModel);
      auto ctx = traced_model.make_predict_context();
      std::vector<Label> labels(in.queries.size());
      traced_model.predict_batch_into(in.queries.features(), labels,
                                      ctx.get());
      if (labels != fitted_labels)
        checks.fail("traced labels differ from untraced");
    }
    metric("gen.lag_ms_p99", percentile(lags, 0.99), "ms");
    metric("gen.sent", static_cast<double>(attempted), "count");
    metric("trace.overhead", traced_cap > 0 ? untraced_cap / traced_cap - 1 : 0,
           "ratio");
    write_trace(*tracer);
    print_stress();
  }

  /// Whether the workload stresses the layer it exists for (README.md).
  void print_stress() const {
    std::map<std::string, double> m;
    for (const auto& metric : metrics) m[metric.name] = metric.value;
    std::printf("# stress: hdc.encode_share %.3f (serve_encode wants >= 0.8), "
                "search.share %.3f (serve_search wants >= 0.6), core.init_s / "
                "fit_s %.3f (serve_encode wants >= 0.8)\n",
                m["hdc.encode_share"], m["search.share"],
                m["core.init_s"] / m["fit_s"]);
  }
};

int run_main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--trace-out <file>]\n");
    return 2;
  }
  Run run;
  run.args = args;
  run.w = make_workload(args.workload);
  // The thread budget must be in place before the global pool exists.
  ::setenv("MEMHD_NUM_THREADS", std::to_string(run.w.pool_threads).c_str(), 1);
  const char* commit = std::getenv("PERFBENCH_COMMIT");
  std::printf("# workload %s seed %llu seconds %.0f trace %d\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);
  std::printf("# host nproc %u cpu \"%s\" backend %s compiler \"%s\" "
              "commit %s\n",
              std::thread::hardware_concurrency(), cpu_model().c_str(),
              memhd::common::active_backend().name, __VERSION__,
              commit != nullptr ? commit : "unknown");
  std::printf("# threads: generator 1, event loop 1, MEMHD_NUM_THREADS %u, "
              "shards %zu, learner %d, connections %zu\n",
              run.w.pool_threads, run.w.server.shards, run.w.learn ? 1 : 0,
              kConnections);

  run.setup();
  if (args.trace)
    run.traced();
  else
    run.untraced();
  // A run whose generator ran later than the workload's latency limit at
  // p99 cannot tell the limit apart from its own lateness: it is failed,
  // not kept. Pooled over the run's nominal and SLO phases, so one brief
  // host stall does not fail it.
  const double lag_p99 = percentile(run.lags, 0.99);
  std::printf("# generator lag p99 %.3f ms over %zu requests\n", lag_p99,
              run.lags.size());
  if (lag_p99 > run.w.latency_limit_ms)
    run.checks.fail("generator lag p99 " + std::to_string(lag_p99) +
                    " ms exceeds the latency limit");

  // Per-layer metrics are named <layer>.<metric>; a run reports either
  // those (traced) or the end-to-end ones (untraced), never both.
  std::vector<Metric> reported;
  for (const auto& m : run.metrics) {
    std::printf("# metric %-26s %.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
    if ((m.name.find('.') != std::string::npos) == args.trace)
      reported.push_back(m);
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              run.checks.failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(run.attempted),
              static_cast<unsigned long long>(run.checks.failed));
  for (std::size_t i = 0; i < reported.size(); ++i)
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", reported[i].name.c_str(),
                reported[i].value, reported[i].unit.c_str());
  std::printf("}}\n");
  std::fflush(stdout);
  return run.checks.failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run_main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: error: %s\n", e.what());
    return 3;
  }
}

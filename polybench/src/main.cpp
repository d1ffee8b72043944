// polybench: the repository benchmark (see README.md).
//
//   polybench --workload <popular|campaign|drift> --seed <n>
//             --seconds <s> --trace <0|1>
//
// One run synthesises the workload's inputs from the seed, sets the
// scoring plane up several times, drives it over loopback TCP in a
// fixed-rate phase and a saturation phase, retrains on the workload's
// corpus, checks every output, and prints one JSON object as the last
// line of stdout.  With --trace 0 the object holds the end-to-end
// metrics; with --trace 1 the per-layer ones.  Progress lines
// ("polybench-phase <name> <nominal seconds>") and one report line
// ("polybench-report {...}") go to stderr.
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/model_io.h"
#include "core/polygraph.h"
#include "inputs.h"
#include "layers.h"
#include "loadgen.h"
#include "net/score_server.h"
#include "obs/metrics_registry.h"
#include "obs/trace.h"
#include "reference.h"
#include "serve/model_registry.h"
#include "stats.h"
#include "util/rng.h"

namespace {

using namespace polybench;
using Clock = std::chrono::steady_clock;

// ---- The scoring plane, as `fraud_detection_service --score-listen`
// configures it (plane_config below is the one place it is set). ----
constexpr std::size_t kHandlerThreads = 4;
constexpr std::size_t kShards = 2;
constexpr std::size_t kWorkersPerShard = 2;
constexpr std::size_t kQueueCapacity = 1024;
constexpr std::size_t kCacheSlotsPerShard = 4096;
constexpr double kTraceSampleRate = 0.01;
constexpr std::size_t kEngineMaxBatch = 32;  // EngineConfig default

// ---- The load. ----
constexpr std::size_t kConnections = 2;
constexpr std::size_t kWindow = 16;
constexpr double kFixedRatePerS = 5000.0;
constexpr std::size_t kCorpusRows = 200'000;
constexpr std::size_t kStreamSessions = 100'000;
constexpr int kSetups = 3;
constexpr auto kSwapPeriod = std::chrono::milliseconds(100);

// A run is split into rounds: --seconds of serving, kRoundSeconds of it
// per round (at least kMinRounds), and one warm retrain in every
// kRetrainEvery-th round.
constexpr double kRoundSeconds = 1.0;
constexpr int kMinRounds = 3;
constexpr int kRetrainEvery = 2;
// Share of a round's serving time given to the fixed-rate segment; the
// saturation segment takes the rest.
constexpr double kFixedShare = 0.5;

// The traced run keeps every span in memory: its ring must hold all of
// them (overwritten() == 0), so the traced saturation phase is capped.
constexpr std::size_t kTraceCapacity = std::size_t{1} << 20;
constexpr std::uint64_t kTracedSaturationRequests = 150'000;

// Output checks.
constexpr double kMinTrainingAccuracy = 0.99;
constexpr double kMaxBenignFlagShare = 0.01;
constexpr double kMinFraudRecall = 0.59;  // Table 5 band
constexpr double kMaxFraudRecall = 0.90;
constexpr double kMaxDriftUnknownRatio = 0.25;  // drift-era / pre-drift

struct Options {
  Workload workload = Workload::kPopular;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

bool parse_options(int argc, char** argv, Options* options) {
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      const auto workload = parse_workload(value);
      if (!workload) return false;
      options->workload = *workload;
      have_workload = true;
    } else if (flag == "--seed") {
      options->seed = std::strtoull(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') return false;
    } else if (flag == "--seconds") {
      options->seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || !(options->seconds > 0.0)) {
        return false;
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      options->trace = value == "1";
    } else {
      return false;
    }
  }
  return have_workload && argc % 2 == 1;
}

void phase(const char* name, double nominal_s) {
  std::fprintf(stderr, "polybench-phase %s %.1f\n", name, nominal_s);
  std::fflush(stderr);
}

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// Everything one plane owns.  The server is declared last so it stops
// and is destroyed before what it references.
struct Plane {
  explicit Plane(std::size_t trace_capacity)
      : trace([&] {
          bp::obs::TraceSinkConfig config;
          config.sample_rate = kTraceSampleRate;
          config.capacity = trace_capacity;
          return config;
        }()) {}

  bp::obs::MetricsRegistry metrics;
  bp::obs::TraceSink trace;
  bp::serve::ModelRegistry registry;
  std::optional<bp::net::ScoreServer> server;
};

bp::net::ScoreServerConfig plane_config(Plane& plane) {
  bp::net::ScoreServerConfig config;
  config.listener.bind_address = "127.0.0.1";
  config.listener.port = 0;
  config.listener.handler_threads = kHandlerThreads;
  config.router.shards = kShards;
  config.router.engine.workers = kWorkersPerShard;
  config.router.engine.queue_capacity = kQueueCapacity;
  config.router.engine.max_batch = kEngineMaxBatch;
  config.router.engine.overflow_policy = bp::serve::OverflowPolicy::kReject;
  config.router.engine.cache_capacity = kCacheSlotsPerShard;
  config.router.engine.degrade_without_model = true;
  config.router.engine.registry = &plane.metrics;
  config.router.engine.metrics_prefix = "bp_net";
  config.router.engine.trace = &plane.trace;
  config.registry = &plane.metrics;
  config.expected_features =
      bp::core::PolygraphConfig::production().feature_indices.size();
  return config;
}

// Publishes the pre-drift and drift-era models in turn at a fixed
// cadence, each time from its serialized bytes, while the plane serves.
// Versions therefore alternate: odd = pre-drift, even = drift-era.
class SwapCadence {
 public:
  SwapCadence(bp::serve::ModelRegistry& registry,
              const std::vector<std::string>& model_bytes,
              std::atomic<std::uint64_t>& announced)
      : registry_(registry), bytes_(model_bytes), announced_(announced) {}
  ~SwapCadence() { stop(); }
  SwapCadence(const SwapCadence&) = delete;
  SwapCadence& operator=(const SwapCadence&) = delete;

  void start() {
    stopping_ = false;
    thread_ = std::thread([this] { loop(); });
  }
  void stop() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stopping_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable()) thread_.join();
  }

  std::vector<double> publish_us;
  std::vector<double> deserialize_ms;
  std::string error;

 private:
  void loop() {
    auto next = Clock::now() + kSwapPeriod;
    std::unique_lock<std::mutex> lock(mutex_);
    while (!cv_.wait_until(lock, next, [this] { return stopping_; })) {
      next += kSwapPeriod;
      const std::uint64_t version = registry_.version() + 1;
      const std::string& bytes = bytes_[version % 2 == 1 ? 0 : 1];
      const auto t0 = Clock::now();
      bp::core::LoadResult loaded = bp::core::deserialize_model(bytes);
      const auto t1 = Clock::now();
      if (!loaded) {
        error = "cadence deserialize failed: " + loaded.error().message();
        return;
      }
      auto model = std::make_shared<const bp::core::Polygraph>(std::move(*loaded));
      announced_.store(version, std::memory_order_release);
      const auto t2 = Clock::now();
      const std::uint64_t published = registry_.publish(std::move(model));
      const auto t3 = Clock::now();
      if (published != version) {
        error = "cadence publish returned version " + std::to_string(published) +
                ", expected " + std::to_string(version);
        return;
      }
      deserialize_ms.push_back(std::chrono::duration<double, std::milli>(t1 - t0).count());
      publish_us.push_back(std::chrono::duration<double, std::micro>(t3 - t2).count());
    }
  }

  bp::serve::ModelRegistry& registry_;
  const std::vector<std::string>& bytes_;
  std::atomic<std::uint64_t>& announced_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stopping_ = false;
  std::thread thread_;
};

// Verdict tallies over every checked response.
struct Tally {
  std::uint64_t verdicts = 0;
  std::uint64_t flagged = 0;
  std::uint64_t near_ties = 0;
  std::uint64_t benign = 0;
  std::uint64_t benign_flagged = 0;
  std::vector<std::uint64_t> fraud;          // per tool
  std::vector<std::uint64_t> fraud_flagged;  // per tool
};

struct Check {
  std::string name;
  bool ok = false;
  std::string detail;
};

std::string fixed(double value, int digits = 4) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.*f", digits, value);
  return buffer;
}

void add_totals(PhaseResult& total, const PhaseResult& phase_result,
                std::string* first_problem) {
  total.attempted += phase_result.attempted;
  total.answered += phase_result.answered;
  total.failed += phase_result.failed;
  total.wrong += phase_result.wrong;
  if (first_problem->empty()) *first_problem = phase_result.first_problem;
}

// Saturation windows summed over the rounds.
struct Window {
  double seconds = 0.0;
  std::uint64_t answered = 0;
  double process_cpu_s = 0.0;
  double generator_cpu_s = 0.0;
  double generator_wait_s = 0.0;

  void add(const PhaseResult& result) {
    seconds += result.window_s;
    answered += result.window_answered;
    process_cpu_s += result.window_process_cpu_s;
    generator_cpu_s += result.window_generator_cpu_s;
    generator_wait_s += result.window_generator_wait_s;
  }
  double verdicts_per_s() const {
    return seconds > 0.0 ? static_cast<double>(answered) / seconds : 0.0;
  }
  // Process CPU less the generator thread's own, per verdict answered.
  double cpu_us_per_verdict() const {
    return answered == 0 ? 0.0
                         : 1e6 * (process_cpu_s - generator_cpu_s) /
                               static_cast<double>(answered);
  }
};

}  // namespace

int main(int argc, char** argv) {
  Options options;
  if (!parse_options(argc, argv, &options)) {
    std::fprintf(stderr,
                 "usage: %s --workload <popular|campaign|drift> --seed <n> "
                 "--seconds <s> --trace <0|1>\n",
                 argv[0]);
    return 2;
  }
  const Workload workload = options.workload;
  const bool drift = workload == Workload::kDrift;
  std::vector<Check> checks;
  std::map<std::string, std::string> report;  // name -> JSON value

  // ---- input synthesis (not part of setup_s) ----
  phase("synthesis", 3.0);
  const auto synthesis_start = Clock::now();
  const std::uint64_t seed = options.seed;
  const auto derive = [seed](std::uint64_t stream) {
    return bp::util::mix64(seed * 0x9E3779B97F4A7C15ULL + stream);
  };
  // The initial (pre-drift) model's corpus is the legitimate mix on
  // every workload; campaign retrains on its own mix, drift trains its
  // drift-era model (and retrains) on the drift window.
  const Corpus popular_corpus = make_corpus(popular_mix(derive(1)), kCorpusRows);
  std::optional<Corpus> own_corpus;
  if (workload != Workload::kPopular) {
    own_corpus = make_corpus(workload_mix(workload, derive(2)), kCorpusRows);
  }
  const Stream stream = make_stream(workload_mix(workload, derive(3)), kStreamSessions);
  const Corpus& retrain_corpus = own_corpus ? *own_corpus : popular_corpus;
  std::vector<const Corpus*> initial_corpora = {&popular_corpus};
  if (drift) initial_corpora.push_back(&*own_corpus);
  report["synthesis_s"] = json_number(seconds_since(synthesis_start));

  // ---- state the generator's verdict check reads ----
  std::unique_ptr<Plane> plane;
  std::atomic<std::uint64_t> announced{0};
  // expected[m][e]: the reference verdict for stream entry e under model
  // m (0 = initial / pre-drift, 1 = drift-era), computed once.
  std::vector<std::vector<ReferenceVerdict>> expected;
  std::vector<std::pair<Pending, WireVerdict>> deferred;
  Tally tally;
  tally.fraud.assign(stream.tools.size(), 0);
  tally.fraud_flagged.assign(stream.tools.size(), 0);
  const auto model_of_version = [drift](std::uint64_t version) -> std::size_t {
    return drift && version % 2 == 0 ? 1 : 0;
  };
  const auto judge = [&](const Pending& pending, const WireVerdict& verdict,
                         std::string* why) -> bool {
    const StreamEntry& entry = stream.entries[pending.entry];
    const ReferenceVerdict& reference =
        expected[model_of_version(verdict.version)][pending.entry];
    if (!reference.accepts(verdict.cluster, verdict.flagged)) {
      *why = "session " + std::to_string(pending.session_id) + " (entry " +
             std::to_string(pending.entry) + ", v" + std::to_string(verdict.version) +
             "): served cluster " + std::to_string(verdict.cluster) + " flagged " +
             std::to_string(verdict.flagged) + ", reference cluster " +
             std::to_string(reference.predicted_cluster) + " flagged " +
             std::to_string(reference.flagged);
      return false;
    }
    ++tally.verdicts;
    tally.flagged += verdict.flagged ? 1 : 0;
    tally.near_ties += reference.near_tie ? 1 : 0;
    if (entry.fraud) {
      ++tally.fraud[entry.tool];
      tally.fraud_flagged[entry.tool] += verdict.flagged ? 1 : 0;
    } else {
      ++tally.benign;
      tally.benign_flagged += verdict.flagged ? 1 : 0;
    }
    return true;
  };
  LoadGenerator generator(
      stream, [&] { return plane ? plane->registry.version() : 0; },
      [&](const Pending& pending, const WireVerdict& verdict, std::string* why) {
        if (!verdict.scored) {
          *why = "session " + std::to_string(pending.session_id) +
                 " answered with a status other than scored";
          return false;
        }
        const std::uint64_t newest = announced.load(std::memory_order_acquire);
        if (verdict.version < pending.min_version || verdict.version > newest) {
          *why = "session " + std::to_string(pending.session_id) + " names v" +
                 std::to_string(verdict.version) + ", sent at v" +
                 std::to_string(pending.min_version) + ", newest v" +
                 std::to_string(newest);
          return false;
        }
        if (expected.empty()) {  // set-up probe: judged once models exist
          deferred.emplace_back(pending, verdict);
          return true;
        }
        return judge(pending, verdict, why);
      });

  PhaseResult totals;
  // attempted / failed per phase, for the report.
  std::map<std::string, std::pair<std::uint64_t, std::uint64_t>> per_phase;
  const auto count_phase = [&per_phase](const char* name, const PhaseResult& result) {
    per_phase[name].first += result.attempted;
    per_phase[name].second += result.failed;
  };
  std::string first_problem;
  std::uint64_t retrains_attempted = 0;

  // ---- setup, repeated: train -> model_io -> publish -> plane -> verdict ----
  phase("setup", 3.0 * kSetups * static_cast<double>(initial_corpora.size()));
  std::vector<double> setup_times;
  std::vector<double> serialize_ms;
  std::vector<double> deserialize_ms;
  std::vector<double> publish_us;
  std::vector<std::string> model_bytes;
  std::vector<std::shared_ptr<const bp::core::Polygraph>> models;
  std::vector<double> accuracy;
  bool setups_identical = true;
  bool setup_ok = true;
  for (int s = 0; s < kSetups && setup_ok; ++s) {
    generator.close();
    plane.reset();
    std::vector<std::string> bytes_now;
    models.clear();
    accuracy.clear();
    const auto start = Clock::now();
    for (const Corpus* corpus : initial_corpora) {
      bp::core::Polygraph trained;
      const bp::core::TrainingSummary summary = trained.train(corpus->features, corpus->uas);
      accuracy.push_back(summary.clustering_accuracy);
      const auto t0 = Clock::now();
      std::string bytes = bp::core::serialize_model(trained);
      const auto t1 = Clock::now();
      bp::core::LoadResult loaded = bp::core::deserialize_model(bytes);
      const auto t2 = Clock::now();
      serialize_ms.push_back(std::chrono::duration<double, std::milli>(t1 - t0).count());
      deserialize_ms.push_back(std::chrono::duration<double, std::milli>(t2 - t1).count());
      if (!loaded) {
        checks.push_back({"model_io round trip", false, loaded.error().message()});
        setup_ok = false;
        break;
      }
      models.push_back(std::make_shared<const bp::core::Polygraph>(std::move(*loaded)));
      bytes_now.push_back(std::move(bytes));
    }
    if (!setup_ok) break;
    plane = std::make_unique<Plane>(options.trace ? kTraceCapacity
                                                  : bp::obs::TraceSinkConfig{}.capacity);
    announced.store(1, std::memory_order_release);
    const auto p0 = Clock::now();
    const std::uint64_t version = plane->registry.publish(models[0]);
    publish_us.push_back(
        std::chrono::duration<double, std::micro>(Clock::now() - p0).count());
    plane->server.emplace(plane->registry, plane_config(*plane));
    std::string error;
    if (version != 1 || !plane->server->running() ||
        !generator.connect(plane->server->port(), kConnections, &error)) {
      checks.push_back({"plane starts", false,
                        error.empty() ? plane->server->error() : error});
      setup_ok = false;
      break;
    }
    const PhaseResult probe = generator.single();
    setup_times.push_back(seconds_since(start));
    add_totals(totals, probe, &first_problem);
    count_phase("setup", probe);
    if (!model_bytes.empty() && bytes_now != model_bytes) setups_identical = false;
    model_bytes = std::move(bytes_now);
  }
  if (!setup_ok) {
    for (const Check& check : checks) {
      std::fprintf(stderr, "polybench: check failed: %s: %s\n", check.name.c_str(),
                   check.detail.c_str());
    }
    return 1;
  }
  for (const auto& model : models) {
    const ReferenceScorer scorer(*model);
    std::vector<ReferenceVerdict>& verdicts = expected.emplace_back();
    verdicts.reserve(stream.entries.size());
    for (const StreamEntry& entry : stream.entries) {
      verdicts.push_back(scorer.score(entry.features, entry.claimed));
    }
  }
  {
    std::string why;
    for (const auto& [pending, verdict] : deferred) {
      if (!judge(pending, verdict, &why)) {
        ++totals.wrong;
        if (first_problem.empty()) first_problem = why;
      }
    }
  }
  checks.push_back({"every set-up serves identical model bytes", setups_identical, ""});
  for (std::size_t m = 0; m < accuracy.size(); ++m) {
    checks.push_back({std::string("training accuracy of the ") +
                          (m == 0 ? "initial" : "drift-era") + " model >= 0.99",
                      accuracy[m] >= kMinTrainingAccuracy, fixed(accuracy[m])});
  }

  bp::net::ScoreServer& server = *plane->server;
  bp::net::EngineRouter& router = server.router();
  SwapCadence cadence(plane->registry, model_bytes, announced);

  // ---- measured rounds ----
  // Each round serves a fixed-rate segment (open loop, Poisson arrivals)
  // and a saturation segment (closed loop, windowed pipelining); every
  // other round then retrains once with the plane idle.  Interleaving
  // the phases spreads each metric over the whole run, and the
  // per-round medians below shed the rounds that a burst of load
  // elsewhere on the host slowed down.
  const int rounds = std::max(
      kMinRounds, static_cast<int>(std::lround(options.seconds / kRoundSeconds)));
  const double round_s = options.seconds / rounds;
  const double fixed_round_s = kFixedShare * round_s;
  const double saturation_round_s = round_s - fixed_round_s;
  const bp::serve::CacheStats cache_at_start = router.cache_stats();
  std::vector<double> latency_us;
  std::vector<double> lateness_us;
  SpanAccumulator spans;
  std::uint64_t trace_overwritten = 0;
  Window untraced;
  Window traced;
  std::vector<double> round_throughput;
  std::vector<double> round_cpu_us;
  std::vector<double> round_p50_us;
  std::uint64_t saturation_verdicts = 0;
  std::uint64_t saturation_hits = 0;
  std::uint64_t queued = 0;
  std::uint64_t batches = 0;
  std::vector<double> retrain_walls;
  std::vector<bp::core::TrainingTimings> retrain_timings;
  std::string first_retrain_bytes;
  bool retrains_identical = true;
  for (int round = 0; round < rounds; ++round) {
    if (drift) cadence.start();

    phase("fixed_rate", fixed_round_s);
    generator.set_trace_context(options.trace);
    plane->trace.clear();
    const PhaseResult open = generator.open_loop(
        kFixedRatePerS, fixed_round_s, derive(100 + static_cast<std::uint64_t>(round)));
    add_totals(totals, open, &first_problem);
    count_phase("fixed_rate", open);
    const std::vector<double> open_latency = to_us(open.latency_ns);
    const std::vector<double> open_lateness = to_us(open.lateness_ns);
    latency_us.insert(latency_us.end(), open_latency.begin(), open_latency.end());
    round_p50_us.push_back(median(open_latency));
    lateness_us.insert(lateness_us.end(), open_lateness.begin(), open_lateness.end());
    if (options.trace) {
      router.drain();
      accumulate_span_self_times(plane->trace.events(), &spans);
      trace_overwritten += plane->trace.overwritten();
    }

    phase("saturation", saturation_round_s);
    generator.set_trace_context(false);
    const bp::serve::CacheStats cache_before = router.cache_stats();
    const bp::serve::MetricsSnapshot engine_before = router.metrics();
    const PhaseResult closed = generator.closed_loop(kWindow, saturation_round_s);
    add_totals(totals, closed, &first_problem);
    count_phase("saturation", closed);
    untraced.add(closed);
    Window this_round;
    this_round.add(closed);
    round_throughput.push_back(this_round.verdicts_per_s());
    round_cpu_us.push_back(this_round.cpu_us_per_verdict());
    router.drain();
    const bp::serve::CacheStats cache_after = router.cache_stats();
    const bp::serve::MetricsSnapshot engine_after = router.metrics();
    const std::uint64_t verdicts = engine_after.scored - engine_before.scored;
    saturation_verdicts += verdicts;
    saturation_hits += cache_after.hits - cache_before.hits;
    // Every request is looked up once at submit and once more by a
    // worker if it missed there, so the lookups beyond one per verdict
    // are the requests that went through the queue.
    const std::uint64_t lookups = (cache_after.hits + cache_after.misses) -
                                  (cache_before.hits + cache_before.misses);
    queued += lookups > verdicts ? lookups - verdicts : 0;
    batches += engine_after.batches - engine_before.batches;

    if (options.trace) {
      phase("saturation_traced", saturation_round_s);
      plane->trace.clear();
      generator.set_trace_context(true);
      const PhaseResult traced_closed = generator.closed_loop(
          kWindow, saturation_round_s, kTracedSaturationRequests / rounds);
      generator.set_trace_context(false);
      add_totals(totals, traced_closed, &first_problem);
      count_phase("saturation_traced", traced_closed);
      traced.add(traced_closed);
      router.drain();
      trace_overwritten += plane->trace.overwritten();
    }
    if (drift) cadence.stop();

    if (round % kRetrainEvery == 0) {
      phase("retrain", 1.0);
      ++retrains_attempted;
      const auto t0 = Clock::now();
      bp::core::Polygraph retrained;
      const bp::core::TrainingSummary summary =
          retrained.train(retrain_corpus.features, retrain_corpus.uas);
      retrain_walls.push_back(seconds_since(t0));
      retrain_timings.push_back(summary.timings);
      std::string bytes = bp::core::serialize_model(retrained);
      if (first_retrain_bytes.empty()) {
        first_retrain_bytes = std::move(bytes);
      } else if (bytes != first_retrain_bytes) {
        retrains_identical = false;
      }
    }
  }
  if (drift) {
    checks.push_back({"drift hot swaps", cadence.error.empty() && !cadence.publish_us.empty(),
                      cadence.error});
    report["hot_swaps"] = json_number(static_cast<double>(cadence.publish_us.size()));
  }
  checks.push_back({"retrains of one corpus serialize to identical bytes",
                    retrains_identical, ""});
  const bp::serve::CacheStats cache_at_end = router.cache_stats();
  const double responses_per_request =
      server.requests() == 0 ? 0.0
                             : static_cast<double>(server.responses()) /
                                   static_cast<double>(server.requests());
  const double cpu_us_per_verdict = untraced.cpu_us_per_verdict();
  const double traced_cpu_us_per_verdict = traced.cpu_us_per_verdict();

  // ---- output checks over the served verdicts ----
  checks.push_back({"every verdict matches the reference scorer", totals.wrong == 0,
                    first_problem});
  const double flag_share =
      tally.verdicts == 0 ? 0.0 : static_cast<double>(tally.flagged) / tally.verdicts;
  const double benign_flag_share =
      tally.benign == 0 ? 0.0 : static_cast<double>(tally.benign_flagged) / tally.benign;
  std::uint64_t fraud_total = 0;
  std::uint64_t fraud_flagged = 0;
  std::string per_tool = "{";
  for (std::size_t t = 0; t < stream.tools.size(); ++t) {
    fraud_total += tally.fraud[t];
    fraud_flagged += tally.fraud_flagged[t];
    if (t > 0) per_tool += ", ";
    per_tool += "\"" + stream.tools[t] + "\": [" +
                json_number(static_cast<double>(tally.fraud_flagged[t])) + ", " +
                json_number(static_cast<double>(tally.fraud[t])) + "]";
  }
  per_tool += "}";
  const double recall =
      fraud_total == 0 ? 0.0 : static_cast<double>(fraud_flagged) / fraud_total;
  if (workload == Workload::kCampaign) {
    checks.push_back({"benign flag share <= 0.01", benign_flag_share <= kMaxBenignFlagShare,
                      fixed(benign_flag_share)});
    checks.push_back({"fraud recall in the Table 5 band [0.59, 0.90]",
                      recall >= kMinFraudRecall && recall <= kMaxFraudRecall,
                      fixed(recall)});
  }
  if (drift) {
    std::size_t unknown[2] = {0, 0};
    for (std::size_t m = 0; m < 2; ++m) {
      for (const ReferenceVerdict& verdict : expected[m]) {
        unknown[m] += verdict.expected_cluster < 0 ? 1 : 0;
      }
    }
    const double n = static_cast<double>(stream.entries.size());
    const double pre = unknown[0] / n;
    const double post = unknown[1] / n;
    report["unknown_ua_share_pre_drift"] = json_number(pre);
    report["unknown_ua_share_drift_era"] = json_number(post);
    checks.push_back({"the drift-era model leaves far fewer unknown UAs",
                      pre > 0.0 && post <= kMaxDriftUnknownRatio * pre,
                      fixed(post) + " vs " + fixed(pre)});
  }
  if (options.trace) {
    checks.push_back({"traced spans complete (overwritten == 0)", trace_overwritten == 0,
                      json_number(static_cast<double>(trace_overwritten))});
  }

  // ---- metrics ----
  std::vector<std::pair<std::string, std::pair<double, const char*>>> metrics;
  if (!options.trace) {
    metrics.push_back({"setup_s", {median(setup_times), "s"}});
    metrics.push_back({"verdict_p50_us", {median(latency_us), "us"}});
    metrics.push_back({"cpu_us_per_verdict", {median(round_cpu_us), "us"}});
    metrics.push_back({"retrain_s", {median(retrain_walls), "s"}});
    metrics.push_back({"peak_rss_mb", {peak_rss_mb(), "MiB"}});
  } else {
    phase("microbench", 5.0);
    const Microbench micro =
        run_microbench(stream, *models[0], kCacheSlotsPerShard, kEngineMaxBatch);
    // Self times, except for server_request: the engine's queue_wait and
    // terminal spans tile it exactly, so its self time is 0 by
    // construction and its duration is what says something.
    const auto span_self = [&](const char* name) {
      const auto it = spans.find(name);
      return it == spans.end() ? 0.0 : it->second.mean_self_us();
    };
    const auto span_duration = [&](const char* name) {
      const auto it = spans.find(name);
      return it == spans.end() ? 0.0 : it->second.mean_duration_us();
    };
    const auto timing = [&](double bp::core::TrainingTimings::*field) {
      std::vector<double> values;
      for (const auto& t : retrain_timings) values.push_back(t.*field);
      return median(values);
    };
    std::vector<double> publish = drift ? cadence.publish_us : publish_us;
    std::vector<double> deserialize = deserialize_ms;
    if (drift) {
      deserialize.insert(deserialize.end(), cadence.deserialize_ms.begin(),
                         cadence.deserialize_ms.end());
    }
    metrics.push_back({"net.wire.parse_ns", {micro.wire_parse_ns, "ns"}});
    metrics.push_back({"net.wire.render_ns", {micro.wire_render_ns, "ns"}});
    metrics.push_back({"net.http.head_parse_ns", {micro.head_parse_ns, "ns"}});
    metrics.push_back({"net.http.serialize_ns", {micro.serialize_ns, "ns"}});
    metrics.push_back({"net.span.server_request_us", {span_duration("server_request"), "us"}});
    metrics.push_back({"net.span.slot_admission_us", {span_self("slot_admission"), "us"}});
    metrics.push_back({"net.span.serialize_us", {span_self("serialize"), "us"}});
    metrics.push_back({"net.router.cache_hit_share",
                       {saturation_verdicts == 0
                            ? 0.0
                            : static_cast<double>(saturation_hits) / saturation_verdicts,
                        "ratio"}});
    metrics.push_back({"net.router.cache_stale",
                       {static_cast<double>(cache_at_end.stale - cache_at_start.stale),
                        "count"}});
    metrics.push_back({"net.ingress.responses_per_request", {responses_per_request, "ratio"}});
    metrics.push_back({"serve.span.queue_wait_us", {span_self("queue_wait"), "us"}});
    metrics.push_back({"serve.span.score_us", {span_self("score"), "us"}});
    metrics.push_back({"serve.batch_mean",
                       {batches == 0 ? 0.0 : static_cast<double>(queued) / batches,
                        "requests"}});
    metrics.push_back({"serve.cache.lookup_ns", {micro.cache_lookup_ns, "ns"}});
    metrics.push_back({"serve.cache.insert_ns", {micro.cache_insert_ns, "ns"}});
    metrics.push_back({"serve.registry.publish_us", {median(publish), "us"}});
    metrics.push_back({"core.score_batch_ns", {micro.score_batch_ns, "ns"}});
    metrics.push_back({"core.model_io.serialize_ms", {median(serialize_ms), "ms"}});
    metrics.push_back({"core.model_io.deserialize_ms", {median(deserialize), "ms"}});
    metrics.push_back({"core.train.table_s", {timing(&bp::core::TrainingTimings::table), "s"}});
    metrics.push_back({"ml.scale_s", {timing(&bp::core::TrainingTimings::scale), "s"}});
    metrics.push_back({"ml.filter_s", {timing(&bp::core::TrainingTimings::filter), "s"}});
    metrics.push_back({"ml.pca_s", {timing(&bp::core::TrainingTimings::pca), "s"}});
    metrics.push_back({"ml.kmeans_s", {timing(&bp::core::TrainingTimings::kmeans), "s"}});
    metrics.push_back({"obs.trace_overhead",
                       {cpu_us_per_verdict > 0.0
                            ? (traced_cpu_us_per_verdict - cpu_us_per_verdict) /
                                  cpu_us_per_verdict
                            : 0.0,
                        "ratio"}});

    std::string span_report = "{";
    for (const auto& [name, stats] : spans) {
      if (span_report.size() > 1) span_report += ", ";
      span_report += "\"" + name + "\": {\"mean_self_us\": " + json_number(stats.mean_self_us()) +
                     ", \"mean_duration_us\": " + json_number(stats.mean_duration_us()) +
                     ", \"count\": " + json_number(static_cast<double>(stats.count)) +
                     ", \"unset_start\": " +
                     json_number(static_cast<double>(stats.unset_start)) + "}";
    }
    report["spans"] = span_report + "}";
    report["traced_cpu_us_per_verdict"] = json_number(traced_cpu_us_per_verdict);
    const Makeup corpus = corpus_makeup(retrain_corpus);
    const Makeup served = stream_makeup(stream);
    report["retrain_corpus"] = "{\"rows\": " + json_number(static_cast<double>(corpus.rows)) +
                               ", \"distinct_vectors\": " +
                               json_number(static_cast<double>(corpus.distinct_vectors)) +
                               ", \"distinct_pairs\": " +
                               json_number(static_cast<double>(corpus.distinct_pairs)) + "}";
    report["stream"] = "{\"sessions\": " + json_number(static_cast<double>(served.rows)) +
                       ", \"distinct_vectors\": " +
                       json_number(static_cast<double>(served.distinct_vectors)) +
                       ", \"distinct_pairs\": " +
                       json_number(static_cast<double>(served.distinct_pairs)) +
                       ", \"fraud_share\": " + json_number(served.fraud_share) + "}";
  }
  for (const auto& [name, value] : metrics) {
    if (!std::isfinite(value.first)) {
      checks.push_back({"metric " + name + " is finite", false, ""});
    }
  }

  // ---- reference figures for the README ----
  const auto beyond = [&](double threshold) {
    std::size_t n = 0;
    for (double v : latency_us) n += v > threshold ? 1 : 0;
    return static_cast<double>(n);
  };
  const double p99 = quantile(latency_us, 0.99);
  report["workload"] = std::string("\"") + workload_name(workload) + "\"";
  report["seed"] = json_number(static_cast<double>(options.seed));
  const auto json_list = [](const std::vector<double>& values) {
    std::string out;
    for (double v : values) out += (out.empty() ? "" : ", ") + json_number(v);
    return "[" + out + "]";
  };
  report["retrain_s_all"] = json_list(retrain_walls);
  report["round_p50_us"] = json_list(round_p50_us);
  report["round_verdicts_per_s"] = json_list(round_throughput);
  report["round_cpu_us_per_verdict"] = json_list(round_cpu_us);
  report["setup_s_all"] = json_list(setup_times);
  report["training_accuracy"] = json_list(accuracy);
  report["fixed_rate_samples"] = json_number(static_cast<double>(latency_us.size()));
  report["verdict_p99_us"] = json_number(p99);
  report["verdict_samples_beyond_p99"] = json_number(beyond(p99));
  report["lateness_p50_us"] = json_number(median(lateness_us));
  report["lateness_p99_us"] = json_number(quantile(lateness_us, 0.99));
  report["lateness_max_us"] = json_number(quantile(lateness_us, 1.0));
  // Saturation throughput follows the host's load too closely to be
  // bounded (README: "Noise on the measuring host"); it is a reference figure.
  report["verdicts_per_s"] = json_number(median(round_throughput));
  report["generator_cpu_share"] = json_number(
      untraced.seconds > 0.0 ? untraced.generator_cpu_s / untraced.seconds : 0.0);
  report["generator_wait_share"] = json_number(
      untraced.seconds > 0.0 ? untraced.generator_wait_s / untraced.seconds : 0.0);
  report["saturation_cache_hit_share"] = json_number(
      saturation_verdicts == 0 ? 0.0 : static_cast<double>(saturation_hits) / saturation_verdicts);
  report["flag_share"] = json_number(flag_share);
  report["benign_flag_share"] = json_number(benign_flag_share);
  report["fraud_recall"] = json_number(recall);
  report["fraud_recall_by_tool"] = per_tool;
  report["near_ties"] = json_number(static_cast<double>(tally.near_ties));
  std::string phases;
  for (const auto& [name, counts] : per_phase) {
    phases += (phases.empty() ? "" : ", ") + std::string("\"") + name +
              "\": {\"attempted\": " + std::to_string(counts.first) +
              ", \"failed\": " + std::to_string(counts.second) + "}";
  }
  report["phases"] = "{" + phases + "}";

  bool correct = true;
  for (const Check& check : checks) {
    if (!check.ok) {
      correct = false;
      std::fprintf(stderr, "polybench: check failed: %s%s%s\n", check.name.c_str(),
                   check.detail.empty() ? "" : ": ", check.detail.c_str());
    }
  }
  if (totals.failed > 0) {
    std::fprintf(stderr, "polybench: %llu of %llu requests failed; first: %s\n",
                 static_cast<unsigned long long>(totals.failed),
                 static_cast<unsigned long long>(totals.attempted), first_problem.c_str());
  }
  std::string report_line = "{";
  for (const auto& [name, value] : report) {
    if (report_line.size() > 1) report_line += ", ";
    report_line += "\"" + name + "\": " + value;
  }
  std::fprintf(stderr, "polybench-report %s}\n", report_line.c_str());

  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(totals.attempted + retrains_attempted);
  out += ", \"failed\": " + std::to_string(totals.failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, value] : metrics) {
    if (!first) out += ", ";
    first = false;
    out += "\"" + name + "\": {\"value\": " + json_number(value.first) + ", \"unit\": \"" +
           value.second + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
  generator.close();
  return 0;
}

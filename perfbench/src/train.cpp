// Training workloads: distributed HF on the 360-512-512-64 acoustic model,
// master + 3 workers.
//
// Untraced runs call hf::train_distributed as a user would, repeatedly, and
// take per-iteration times from the optimizer's log lines (IterationClock).
// The traced run drives the same ranks through the trainer's public pieces
// (distribute_shards, MasterCompute, run_worker_rank) so a timing decorator
// can wrap MasterCompute, then reruns the job with train_serial and times
// nn micro-calls on a real shard.
#include <algorithm>
#include <bit>
#include <cmath>
#include <filesystem>
#include <string>
#include <vector>

#include "bench.h"
#include "hf/aggregate.h"
#include "hf/master_compute.h"
#include "hf/trainer.h"
#include "micro.h"
#include "obs/registry.h"
#include "simmpi/communicator.h"
#include "speech/store/writer.h"

namespace perfbench {

namespace {

using bgqhf::hf::Phase;

struct TrainSpec {
  double hours;
  double mean_utt_seconds;
  double curvature_fraction;
  bool sharded_store;  // stream from a staged store (else in-RAM corpus)
  bool fault_tolerant;
};

/// HF outer iterations per measured job, and the held-out CE that
/// time_to_target_s waits for: every sizing seed crosses it at iteration 5.
constexpr std::size_t kIterations = 7;
constexpr double kTargetCe = 3.8;
/// Conjugate-gradient iterations in every outer iteration.
constexpr std::size_t kCgIters = 12;

TrainSpec spec_for(const std::string& workload) {
  if (workload == "ce_long_utts") {
    return {0.12, 5.0, 0.01, true, false};
  }
  return {0.04, 0.5, 0.08, false, true};  // cg_short_utts
}

bgqhf::hf::TrainerConfig make_config(const TrainSpec& s, std::uint64_t seed,
                                     const std::string& store_dir) {
  bgqhf::hf::TrainerConfig c;
  c.workers = 3;
  c.corpus.hours = s.hours;
  c.corpus.feature_dim = 40;
  c.corpus.num_states = 64;
  c.corpus.mean_utt_seconds = s.mean_utt_seconds;
  c.corpus.seed = seed;
  c.data = bgqhf::speech::StoreConfig{};
  if (s.sharded_store) c.data.data_dir = store_dir;
  c.context = 4;  // 9 x 40 = 360 inputs
  c.hidden = {512, 512};
  c.batch_frames = 1024;
  c.hf.max_iterations = kIterations;
  c.hf.hyper = bgqhf::hf::HyperParams{};
  c.hf.hyper.curvature_fraction = s.curvature_fraction;
  // A fixed CG budget per outer iteration: Martens' progress test would
  // otherwise stop CG at a seed-dependent count, and the seed (the corpus)
  // would change how much work an iteration does.
  c.hf.hyper.cg_max_iters = kCgIters;
  c.hf.cg.min_iters = kCgIters;
  c.hf.verbose = true;  // one "hf iter" line per iteration: IterationClock
  c.aggregation = bgqhf::hf::AggregationOptions{};
  if (s.fault_tolerant) {
    // Fault-free FT protocol: the reply deadline is far above any call, so
    // no worker is ever excluded and the trajectory matches the collective
    // path bitwise.
    c.ft.enabled = true;
    c.ft.reply_timeout = 120.0;
    c.ft.command_timeout = 150.0;
  }
  return c;
}

/// Zero-iteration train_distributed calls per untraced run (set-up samples).
constexpr int kSetupRuns = 6;
/// Repetitions of the measured job per untraced run.
constexpr std::size_t kMeasuredRuns = 2;

constexpr Phase kPrimitivePhases[] = {
    Phase::kSyncWeights, Phase::kGradient, Phase::kCurvaturePrepare,
    Phase::kCurvatureProduct, Phase::kHeldoutLoss};
/// Primitives whose master call returns only after every worker replied.
/// set_params is fire-and-forget under the fault-tolerant protocol (workers
/// may still be decoding theta when the master moves on), so its worker
/// time is not bounded by the master's.
constexpr Phase kReplyPhases[] = {Phase::kGradient, Phase::kCurvaturePrepare,
                                  Phase::kCurvatureProduct,
                                  Phase::kHeldoutLoss};

/// Decorator timing every HfCompute primitive from outside the program.
/// The optimizer opens outer iteration k with set_params then gradient, so
/// a gradient call starts a new iteration and adopts the set_params span
/// just before it.
class TimedCompute final : public bgqhf::hf::HfCompute {
 public:
  TimedCompute(bgqhf::hf::HfCompute& inner, std::vector<Span>& spans)
      : inner_(inner), spans_(spans) {}

  std::size_t num_params() const override { return inner_.num_params(); }
  std::size_t total_train_frames() const override {
    return inner_.total_train_frames();
  }
  void set_params(std::span<const float> theta) override {
    Stamp s(*this, "set_params");
    inner_.set_params(theta);
  }
  bgqhf::nn::BatchLoss gradient(std::span<float> grad) override {
    open_iteration();
    Stamp s(*this, "gradient");
    return inner_.gradient(grad);
  }
  bgqhf::nn::BatchLoss gradient_with_squares(
      std::span<float> grad, std::span<float> grad_sq) override {
    open_iteration();
    Stamp s(*this, "gradient");
    return inner_.gradient_with_squares(grad, grad_sq);
  }
  void prepare_curvature(std::uint64_t seed) override {
    Stamp s(*this, "curvature_prepare");
    inner_.prepare_curvature(seed);
  }
  void curvature_product(std::span<const float> v,
                         std::span<float> out) override {
    Stamp s(*this, "curvature_product");
    inner_.curvature_product(v, out);
  }
  bgqhf::nn::BatchLoss heldout_loss() override {
    Stamp s(*this, "heldout_loss");
    return inner_.heldout_loss();
  }

 private:
  struct Stamp {
    Stamp(TimedCompute& tc, const char* name)
        : tc(tc), span{name, now_s(), 0.0, tc.iteration_} {}
    ~Stamp() {
      span.end = now_s();
      tc.spans_.push_back(span);
    }
    TimedCompute& tc;
    Span span;
  };

  void open_iteration() {
    ++iteration_;
    if (!spans_.empty() && std::string(spans_.back().name) == "set_params") {
      spans_.back().parent = iteration_;
    }
  }

  bgqhf::hf::HfCompute& inner_;
  std::vector<Span>& spans_;
  int iteration_ = 0;
};

/// One hf::train_distributed (or train_serial) call, timed from outside.
struct TimedRun {
  bgqhf::hf::TrainOutcome out;
  double wall = 0.0;
  /// Wall time of outer iterations 1..N. The optimizer logs a line at the
  /// end of each iteration it completes (IterationClock); an iteration whose
  /// line search fails quietly shares the gap to the next line evenly.
  /// Iteration 1 runs from the optimizer start, so it also carries the
  /// initial held-out evaluation.
  std::vector<double> iteration_s;
};

TimedRun timed_train(const bgqhf::hf::TrainerConfig& config, bool serial) {
  TimedRun r;
  IterationClock clock;
  const double t0 = now_s();
  r.out = serial ? bgqhf::hf::train_serial(config)
                 : bgqhf::hf::train_distributed(config);
  const double t1 = now_s();
  clock.stop();
  r.wall = t1 - t0;
  // Workers are shut down and joined after the optimizer's timer stops;
  // that takes well under a millisecond, so the optimizer started here.
  double prev_t = t1 - r.out.seconds;
  std::size_t prev_k = 0;
  auto marks = clock.marks();
  const std::size_t n = r.out.hf.iterations.size();
  marks.emplace_back(n, t1);
  r.iteration_s.assign(n, 0.0);
  for (const auto& [k, t] : marks) {
    if (k <= prev_k || k > n) continue;
    for (std::size_t j = prev_k; j < k; ++j) {
      r.iteration_s[j] = (t - prev_t) / static_cast<double>(k - prev_k);
    }
    prev_k = k;
    prev_t = t;
  }
  return r;
}

/// Seconds from optimizer start to the end of the first iteration whose
/// held-out CE is at or below kTargetCe, given each iteration's wall time;
/// negative when never reached.
double time_to_target(const bgqhf::hf::HfResult& hf,
                      const std::vector<double>& iteration_s) {
  double t = 0.0;
  for (std::size_t k = 0; k < hf.iterations.size(); ++k) {
    t += iteration_s[k];
    const auto& log = hf.iterations[k];
    if (!log.failed && log.heldout_after <= kTargetCe) return t;
  }
  return -1.0;
}

/// Mean wall time of iterations 2..N (iteration 1 also carries the initial
/// held-out evaluation).
double mean_iteration_s(const std::vector<double>& iteration_s) {
  if (iteration_s.size() < 2) return mean(iteration_s);
  return mean(std::vector<double>(iteration_s.begin() + 1, iteration_s.end()));
}

std::size_t primitive_calls(const bgqhf::hf::PhaseStats& p) {
  std::size_t n = 0;
  for (Phase ph : kPrimitivePhases) n += p.calls(ph);
  return n;
}

/// Output checks shared by every training run: no worker excluded, every
/// CE finite, and (for runs with iterations) the held-out target reached.
bool check_run(const TimedRun& r, Result& res) {
  bool ok = true;
  auto fail = [&](const std::string& why) {
    res.fail_check(why);
    ok = false;
  };
  if (!r.out.excluded_workers.empty()) fail("a worker was excluded");
  for (const auto& log : r.out.hf.iterations) {
    if (!std::isfinite(log.heldout_after) || !std::isfinite(log.train_loss)) {
      fail("non-finite held-out or training CE");
      break;
    }
  }
  if (!std::isfinite(r.out.hf.final_heldout_loss)) {
    fail("non-finite final held-out CE");
  }
  if (!r.out.hf.iterations.empty() &&
      time_to_target(r.out.hf, r.iteration_s) < 0.0) {
    fail("held-out CE target missed");
  }
  return ok;
}

std::string bits(double v) {
  return std::to_string(std::bit_cast<std::uint64_t>(v));
}

/// The run's held-out trajectory and final weights, exactly: compared with
/// the first run of the same code and seed (check_reference).
std::string fingerprint(const bgqhf::hf::HfResult& hf,
                        const std::vector<float>& theta) {
  std::string f;
  for (const auto& log : hf.iterations) {
    f += std::to_string(log.iteration) + " " + bits(log.heldout_after) + " " +
         std::to_string(log.cg_iterations) + "\n";
  }
  std::uint64_t h = 14695981039346656037ull;  // FNV-1a over theta's bytes
  const auto* p = reinterpret_cast<const unsigned char*>(theta.data());
  for (std::size_t i = 0; i < theta.size() * sizeof(float); ++i) {
    h = (h ^ p[i]) * 1099511628211ull;
  }
  return f + "final " + bits(hf.final_heldout_loss) + " theta " +
         std::to_string(h) + "\n";
}

void stage_store(const TrainSpec& spec, const bgqhf::hf::TrainerConfig& c,
                 const std::string& dir) {
  if (!spec.sharded_store) return;
  std::filesystem::create_directories(dir);
  bgqhf::speech::store::generate_sharded_corpus(c.corpus, dir);
}

// ---------------------------------------------------------------- untraced

void run_untraced(const Args& args, const bgqhf::hf::TrainerConfig& config,
                  Result& res) {
  auto account = [&](const TimedRun& r, bool ok) {
    const std::size_t ops = primitive_calls(r.out.master_phases);
    res.attempted += ops;
    if (!ok) res.failed += ops;
  };

  // The measured job runs kMeasuredRuns times: first in the fresh process,
  // so peak RSS is that of staging plus one job, then after the set-up
  // samples. Every repetition does the same work (the trajectory check is
  // bitwise), so the faster repetition of each iteration is that
  // iteration's time without the host's interference; latency and time to
  // target are built from those.
  std::vector<TimedRun> runs;
  std::vector<double> setup;
  auto measure = [&] {
    runs.push_back(timed_train(config, /*serial=*/false));
    const TimedRun& r = runs.back();
    setup.push_back(r.wall - r.out.seconds);
    const std::string print = fingerprint(r.out.hf, r.out.theta);
    bool same = true;
    if (runs.size() == 1) {
      same = check_reference(args.reference, print, res);
    } else if (print != fingerprint(runs.front().out.hf,
                                    runs.front().out.theta)) {
      res.fail_check("trajectory differs from the first run in this process");
      same = false;
    }
    account(r, check_run(r, res) && same);
  };
  measure();
  const double rss_mb = peak_rss_mb();

  // Set-up samples: the same job with zero HF iterations (build shards,
  // start ranks, ship shards, evaluate the initial held-out CE, shut down).
  bgqhf::hf::TrainerConfig setup_config = config;
  setup_config.hf.max_iterations = 0;
  std::vector<TimedRun> setups;
  for (int i = 0; i < kSetupRuns; ++i) {
    setups.push_back(timed_train(setup_config, /*serial=*/false));
    setup.push_back(setups.back().wall - setups.back().out.seconds);
  }
  while (runs.size() < kMeasuredRuns) measure();
  const TimedRun& run = runs.front();
  for (const TimedRun& r : setups) {
    // A zero-iteration run's final held-out CE is the CE at the initial
    // weights, which the measured run evaluated first.
    const bool same =
        !run.out.hf.iterations.empty() &&
        bits(r.out.hf.final_heldout_loss) ==
            bits(run.out.hf.iterations.front().heldout_before);
    if (!same) res.fail_check("initial held-out CE differs between runs");
    account(r, check_run(r, res) && same);
  }

  std::vector<double> fastest = run.iteration_s;
  for (const TimedRun& r : runs) {
    for (std::size_t k = 0; k < fastest.size() && k < r.iteration_s.size();
         ++k) {
      fastest[k] = std::min(fastest[k], r.iteration_s[k]);
    }
  }
  res.set("setup_s", median(setup), "s");
  res.set("latency_ms", mean_iteration_s(fastest) * 1e3, "ms");
  res.set("time_to_target_s",
          time_to_target(run.out.hf, fastest), "s");
  res.set("heldout_ce", run.out.hf.final_heldout_loss, "nats");
  res.set("ok_frac",
          static_cast<double>(res.attempted - res.failed) /
              static_cast<double>(std::max<std::uint64_t>(res.attempted, 1)),
          "ratio");
  res.set("peak_rss_mb", rss_mb, "MiB");
  std::string trajectory = "held-out CE by iteration:";
  for (const auto& log : run.out.hf.iterations) {
    trajectory += " " + std::to_string(log.heldout_after) + "(cg " +
                  std::to_string(log.cg_iterations) + ", evals " +
                  std::to_string(log.heldout_evals) + ")";
  }
  res.notes.push_back(trajectory);
  for (const TimedRun& r : runs) {
    std::string times = "iteration seconds:";
    for (double t : r.iteration_s) times += " " + std::to_string(t);
    res.notes.push_back(times);
  }
  res.notes.push_back("samples: measured runs=" + std::to_string(runs.size()) +
                      " x " + std::to_string(run.iteration_s.size()) +
                      " iterations, set-up samples=" +
                      std::to_string(setup.size()));
}

// ------------------------------------------------------------------ traced

struct TracedRun {
  bgqhf::hf::HfResult hf;
  std::vector<float> theta;
  bgqhf::hf::PhaseStats master_phases;
  std::vector<bgqhf::hf::PhaseStats> worker_phases;
  bgqhf::simmpi::CommStats comm;
  std::vector<int> excluded;
  std::vector<Span> spans;
  double opt_start = 0.0;
  double opt_end = 0.0;
};

/// train_distributed's rank bodies, with MasterCompute behind TimedCompute.
TracedRun train_traced(const bgqhf::hf::TrainerConfig& config,
                       const bgqhf::hf::Shards& shards) {
  namespace hf = bgqhf::hf;
  TracedRun t;
  t.worker_phases.assign(static_cast<std::size_t>(config.workers), {});
  bgqhf::simmpi::World world(config.workers + 1);
  bgqhf::simmpi::run_ranks(world, [&](bgqhf::simmpi::Comm& comm) {
    if (comm.rank() != 0) {
      hf::run_worker_rank(
          comm, config,
          &t.worker_phases[static_cast<std::size_t>(comm.rank() - 1)]);
      return;
    }
    const double load0 = now_s();
    hf::distribute_shards(comm, config, shards, &t.master_phases);
    t.spans.push_back(Span{"load_data", load0, now_s(), 0});
    hf::MasterCompute master(comm, shards.net.num_params(),
                             shards.total_train_frames, &t.master_phases,
                             config.ft, config.aggregation,
                             hf::layer_segment_bounds(shards.net));
    TimedCompute timed(master, t.spans);
    t.theta.assign(shards.net.params().begin(), shards.net.params().end());
    hf::HfOptimizer optimizer(config.hf);
    t.opt_start = now_s();
    try {
      t.hf = optimizer.run(timed, t.theta);
    } catch (...) {
      master.shutdown();
      throw;
    }
    t.opt_end = now_s();
    t.excluded = master.excluded_workers();
    master.shutdown();
  });
  t.comm = world.total_stats();
  // After the loop the optimizer evaluates the final held-out loss
  // (set_params + heldout_loss); those two calls belong to no iteration.
  auto& s = t.spans;
  if (s.size() >= 2 && std::string(s[s.size() - 2].name) == "set_params") {
    s[s.size() - 2].parent = 0;
    s.back().parent = 0;
  }
  return t;
}

double phase_time(const std::vector<Span>& spans, const char* name) {
  double sum = 0.0;
  for (const auto& s : spans) {
    if (std::string(s.name) == name) sum += s.end - s.start;
  }
  return sum;
}

std::size_t phase_calls(const std::vector<Span>& spans, const char* name) {
  return static_cast<std::size_t>(
      std::count_if(spans.begin(), spans.end(),
                    [&](const Span& s) { return std::string(s.name) == name; }));
}

/// The decorator's span (and metric) name for each primitive phase.
const char* span_name(Phase p) {
  switch (p) {
    case Phase::kSyncWeights: return "set_params";
    case Phase::kGradient: return "gradient";
    default: return bgqhf::hf::phase_label(p);
  }
}

bool is_primitive(const Span& s) {
  for (Phase p : kPrimitivePhases) {
    if (std::string(s.name) == span_name(p)) return true;
  }
  return false;
}

/// Identity 1, per outer iteration: the primitive spans plus the gaps
/// between them (optimizer self time) cover the iteration's wall time, which
/// runs from its first span to the next span the master records. Overlapping
/// or misattributed spans break it. Appends the iteration windows as spans
/// and returns their lengths.
std::vector<double> check_iterations(TracedRun& t, double tol, Result& res) {
  std::vector<double> walls;
  const std::vector<Span> prims = t.spans;  // chronological
  for (int k = 1;; ++k) {
    std::size_t first = prims.size(), last = 0;
    for (std::size_t i = 0; i < prims.size(); ++i) {
      if (prims[i].parent != k) continue;
      first = std::min(first, i);
      last = i;
    }
    if (first == prims.size()) break;
    const double end =
        last + 1 < prims.size() ? prims[last + 1].start : t.opt_end;
    const double wall = end - prims[first].start;
    double busy = 0.0, self = 0.0;
    for (std::size_t i = first; i <= last; ++i) {
      busy += prims[i].end - prims[i].start;
      const double next = i < last ? prims[i + 1].start : end;
      self += std::max(0.0, next - prims[i].end);
    }
    if (std::fabs(busy + self - wall) > tol * wall) {
      res.fail_check("iteration " + std::to_string(k) +
                     ": spans + self time != iteration wall time");
    }
    walls.push_back(wall);
    t.spans.push_back(Span{"outer_iteration", prims[first].start, end, k});
  }
  return walls;
}

void run_traced(const Args& args, const bgqhf::hf::TrainerConfig& config,
                Result& res) {
  namespace hf = bgqhf::hf;
  constexpr double kTol = 0.03;  // "within a few percent"
  constexpr double kSlack = 0.005;  // seconds, for phases of a few ms

  const double b0 = now_s();
  const hf::Shards shards = hf::build_shards(config);
  const double build_s = now_s() - b0;

  // Untraced reference: the same job through train_distributed, after a
  // zero-iteration call so neither it nor the traced run starts cold.
  bgqhf::hf::TrainerConfig warm = config;
  warm.hf.max_iterations = 0;
  (void)timed_train(warm, /*serial=*/false);
  const TimedRun ref = timed_train(config, /*serial=*/false);
  check_run(ref, res);
  check_reference(args.reference, fingerprint(ref.out.hf, ref.out.theta), res);

  bgqhf::obs::clear_global();
  TracedRun t = train_traced(config, shards);
  const bgqhf::obs::Registry global = bgqhf::obs::collect_global();
  t.spans.insert(t.spans.begin(), Span{"build_shards", b0, b0 + build_s, 0});

  if (!t.excluded.empty()) res.fail_check("a worker was excluded (traced)");
  if (!bitwise_equal(t.theta, ref.out.theta)) {
    res.fail_check("traced final theta differs from train_distributed");
  }

  const TimedRun serial = timed_train(config, /*serial=*/true);
  if (!bitwise_equal(serial.out.theta, ref.out.theta)) {
    res.fail_check("train_serial final theta differs from train_distributed");
  }

  // Identity 1: per iteration, spans + optimizer self time == wall time.
  std::vector<double> walls = check_iterations(t, kTol, res);
  double prim_total = 0.0;
  for (const auto& s : t.spans) {
    if (is_primitive(s)) prim_total += s.end - s.start;
  }

  // Identity 2: per phase, slowest worker busy + wait == master primitive
  // time, with wait >= 0; the decorator's time must also match the
  // program's own PhaseStats for the phase.
  double wait = 0.0;
  std::vector<double> worker_busy(t.worker_phases.size(), 0.0);
  for (std::size_t w = 0; w < t.worker_phases.size(); ++w) {
    for (Phase p : kPrimitivePhases) {
      worker_busy[w] += t.worker_phases[w].seconds(p);
    }
  }
  for (Phase p : kReplyPhases) {
    const double master_s = phase_time(t.spans, span_name(p));
    double slowest = 0.0;
    for (const auto& w : t.worker_phases) {
      slowest = std::max(slowest, w.seconds(p));
    }
    const double phase_wait = master_s - slowest;
    if (phase_wait < -(kTol * master_s + kSlack)) {
      res.fail_check(std::string("phase ") + span_name(p) +
                     ": slowest worker busy exceeds master time");
    }
    if (std::fabs(t.master_phases.seconds(p) - master_s) >
        kTol * master_s + kSlack) {
      res.fail_check(std::string("phase ") + span_name(p) +
                     ": decorator time != master PhaseStats");
    }
    wait += std::max(0.0, phase_wait);
  }
  double busy_sum = 0.0, busy_max = 0.0;
  for (double b : worker_busy) {
    busy_sum += b;
    busy_max = std::max(busy_max, b);
  }
  auto mean_worker = [&](Phase p) {
    double s = 0.0;
    for (const auto& w : t.worker_phases) s += w.seconds(p);
    return s / static_cast<double>(t.worker_phases.size());
  };

  std::size_t cg_iters = 0;
  for (const auto& log : t.hf.iterations) cg_iters += log.cg_iterations;

  auto& schema = bgqhf::obs::Schema::global();
  const auto gemm = global.histogram(schema.histogram("blas.gemm.seconds"));
  const double gemm_flops =
      static_cast<double>(global.counter(schema.counter("blas.gemm.flops")));

  // nn micro-calls on worker 0's shard at this workload's shapes.
  const MicroShape shape = shape_of(shards.train.front(), config.batch_frames);
  const MicroTimes micro = time_micro_calls(shards.net, shape);

  const double ref_iter = mean_iteration_s(ref.iteration_s);
  const double serial_iter = mean_iteration_s(serial.iteration_s);

  res.attempted = primitive_calls(t.master_phases);
  res.failed = res.correct ? 0 : res.attempted;

  res.set("speech.build_shards_s", build_s, "s");
  res.set("speech.train_frames", static_cast<double>(shards.total_train_frames),
          "count");
  res.set("simmpi.load_data_s", t.master_phases.seconds(Phase::kLoadData), "s");
  for (auto [op, name] :
       {std::pair{bgqhf::simmpi::CollOp::kBcast, "bcast"},
        std::pair{bgqhf::simmpi::CollOp::kReduce, "reduce"}}) {
    const auto st = t.comm.op(op);
    res.set(std::string("simmpi.") + name + "_calls",
            static_cast<double>(st.calls), "count");
    res.set(std::string("simmpi.") + name + "_mb",
            static_cast<double>(st.bytes) / 1e6, "MB");
    res.set(std::string("simmpi.") + name + "_s", st.seconds, "s");
  }
  res.set("simmpi.p2p_msgs", static_cast<double>(t.comm.p2p_messages()),
          "count");
  res.set("simmpi.p2p_mb", static_cast<double>(t.comm.p2p_bytes()) / 1e6,
          "MB");
  res.set("simmpi.p2p_s", t.comm.p2p_seconds(), "s");
  for (Phase p : kPrimitivePhases) {
    const char* n = span_name(p);
    res.set(std::string("hf.") + n + "_s", phase_time(t.spans, n), "s");
    res.set(std::string("hf.") + n + "_calls",
            static_cast<double>(phase_calls(t.spans, n)), "count");
  }
  res.set("hf.cg_iters", static_cast<double>(cg_iters), "count");
  res.set("hf.optimizer_self_s", (t.opt_end - t.opt_start) - prim_total, "s");
  res.set("hf.worker.gradient_s", mean_worker(Phase::kGradient), "s");
  res.set("hf.worker.heldout_loss_s", mean_worker(Phase::kHeldoutLoss), "s");
  res.set("hf.worker.curvature_product_s",
          mean_worker(Phase::kCurvatureProduct), "s");
  res.set("hf.wait_s", wait, "s");
  res.set("hf.straggler_ratio",
          busy_sum > 0.0 ? busy_max * static_cast<double>(worker_busy.size()) /
                               busy_sum
                         : 0.0,
          "ratio");
  res.set("hf.serial_iter_s", serial_iter, "s");
  res.set("hf.scaling_eff",
          serial_iter / (static_cast<double>(config.workers) * ref_iter),
          "ratio");
  res.set("obs.trace_overhead_frac", mean_iteration_s(walls) / ref_iter - 1.0,
          "ratio");
  res.set("blas.gemm_calls", static_cast<double>(gemm.count), "count");
  res.set("blas.gemm_s", gemm.sum, "s");
  res.set("blas.gemm_gflops", gemm.sum > 0.0 ? gemm_flops / gemm.sum / 1e9 : 0.0,
          "GFLOP/s");
  set_micro_metrics(micro, res);
  set_idle_serve_metrics(res);
  res.notes.push_back("traced: iterations=" + std::to_string(walls.size()) +
                      " spans=" + std::to_string(t.spans.size()) +
                      " serial_iterations=" +
                      std::to_string(serial.iteration_s.size()));
  write_spans(args.trace_out, t.spans);
}

}  // namespace

void run_training(const Args& args, Result& res) {
  const TrainSpec spec = spec_for(args.workload);
  const std::string store_dir = args.workdir + "/store";
  const bgqhf::hf::TrainerConfig config =
      make_config(spec, args.seed, store_dir);
  stage_store(spec, config, store_dir);
  if (args.trace) {
    run_traced(args, config, res);
  } else {
    run_untraced(args, config, res);
  }
}

}  // namespace perfbench

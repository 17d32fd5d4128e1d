// Serving engine benchmark: what dynamic batching buys.
//
// The sweep pits single-request mode (max_batch_frames=1) against dynamic
// batching at the same thread count under a saturating open-loop load —
// the ratio is the amortization of streaming the weight matrices through
// the GEMM engine once per batch instead of once per request. Latency
// percentiles come from the obs registry histograms (serve.latency_us),
// the same cells a production dashboard would read, cross-checked against
// the load generator's exact client-side sample.
//
//   bench_serving              human-readable tables
//   bench_serving --json       machine-readable BENCH_serve.json body
//   bench_serving ci=1         train -> checkpoint -> serve -> replay a
//                              canned trace; exit 1 unless every request
//                              completed (zero rejects, zero failures).
//                              Honors --trace/--metrics-json (ObsCli).
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "figures_common.h"
#include "hf/checkpoint.h"
#include "hf/trainer.h"
#include "nn/network.h"
#include "serve/engine.h"
#include "serve/loadgen.h"
#include "speech/features.h"
#include "util/rng.h"
#include "util/table.h"

namespace {

using namespace bgqhf;

// Layer shapes in the neighbourhood of the paper's acoustic models,
// scaled down so the sweep finishes in CI time.
constexpr std::size_t kInputDim = 64;
constexpr std::size_t kOutputDim = 32;
constexpr std::size_t kSweepRequests = 1500;

/// Build synthetic trained weights, round-trip them through an HF
/// checkpoint file, and load them back through the serving path — the
/// bench measures exactly what a production engine would run.
std::shared_ptr<const serve::ModelRuntime> sweep_model() {
  nn::Network net = nn::Network::mlp(kInputDim, {256, 256}, kOutputDim);
  util::Rng rng(12345);
  net.init_glorot(rng);

  hf::TrainerCheckpoint ckpt;
  ckpt.completed_iterations = 1;
  ckpt.hf_seed = 12345;
  ckpt.theta.assign(net.params().begin(), net.params().end());
  ckpt.d0.assign(net.num_params(), 0.0f);
  const std::string path = "/tmp/bgqhf_bench_serving.ckpt";
  hf::save_checkpoint(ckpt, path);
  auto model = serve::ModelRuntime::from_checkpoint(
      path, nn::Network::mlp(kInputDim, {256, 256}, kOutputDim));
  std::remove(path.c_str());
  return model;
}

struct SweepPoint {
  std::size_t threads = 0;
  std::size_t batch_frames = 0;
  serve::LoadGenReport report;
  double obs_p50_us = 0.0;  // from the serve.latency_us histogram
  double obs_p99_us = 0.0;
  double mean_batch_frames = 0.0;
  // Per-cause rejection counters from the obs registry — the same cells a
  // dashboard would alert on, split by typed cause instead of one lump.
  std::uint64_t obs_rejects_overloaded = 0;
  std::uint64_t obs_rejects_deadline = 0;
};

SweepPoint run_point(const std::shared_ptr<const serve::ModelRuntime>& model,
                     std::size_t threads, std::size_t batch_frames,
                     double rate_rps, std::size_t num_requests) {
  serve::ServeOptions options;
  options.max_batch_frames = batch_frames;
  options.batch_timeout_us = 200;
  options.queue_capacity = num_requests + 8;
  options.threads = threads;

  obs::clear_global();
  SweepPoint point;
  point.threads = threads;
  point.batch_frames = batch_frames;
  {
    serve::Engine engine(model, options);
    serve::LoadGenOptions load;
    load.num_requests = num_requests;
    load.rate_rps = rate_rps;
    load.seed = 42;
    point.report = serve::run_load(engine, load);
  }  // stop + join before reading the workers' registries

  const obs::Registry reg = obs::collect_global();
  obs::Schema& schema = obs::Schema::global();
  const obs::HistogramCell latency =
      reg.histogram(schema.histogram("serve.latency_us"));
  point.obs_p50_us = latency.percentile(0.50);
  point.obs_p99_us = latency.percentile(0.99);
  const obs::HistogramCell frames =
      reg.histogram(schema.histogram("serve.batch_frames"));
  point.mean_batch_frames =
      frames.count > 0 ? frames.sum / static_cast<double>(frames.count) : 0.0;
  point.obs_rejects_overloaded =
      reg.counter(schema.counter("serve.rejects.overloaded"));
  point.obs_rejects_deadline =
      reg.counter(schema.counter("serve.rejects.deadline"));
  obs::clear_global();
  return point;
}

/// Saturation sweep: threads x {single-request, batched}. Returns the
/// points in (threads, policy) order: single first, batched second.
std::vector<SweepPoint> run_sweep(
    const std::shared_ptr<const serve::ModelRuntime>& model) {
  std::vector<SweepPoint> points;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                    std::size_t{4}}) {
    for (const std::size_t batch : {std::size_t{1}, std::size_t{256}}) {
      points.push_back(
          run_point(model, threads, batch, /*rate_rps=*/0.0, kSweepRequests));
    }
  }
  return points;
}

int run_json() {
  const auto model = sweep_model();
  const std::vector<SweepPoint> points = run_sweep(model);

  std::printf("{\n  \"bench\": \"bench_serving --json\",\n");
  std::printf("  \"units\": \"requests/s (1 frame per request)\",\n");
  std::printf(
      "  \"model\": \"%zu-256-256-%zu MLP, weights loaded through an HF "
      "checkpoint file\",\n",
      kInputDim, kOutputDim);
  std::printf(
      "  \"note\": \"saturating open loop, %zu requests per point; "
      "batch=1 is single-request mode, batch=256 the dynamic batcher at "
      "200us max wait; p50/p99 from the serve.latency_us obs histogram\",\n",
      kSweepRequests);
  std::printf("  \"runs\": [\n");
  for (std::size_t i = 0; i < points.size(); ++i) {
    const SweepPoint& p = points[i];
    std::printf(
        "    {\"threads\": %zu, \"batch_frames\": %zu, "
        "\"requests_per_s\": %.0f, \"mean_batch_frames\": %.1f, "
        "\"latency_mean_us\": %.1f, \"obs_p50_us\": %.1f, "
        "\"obs_p99_us\": %.1f, \"rejects\": {\"overloaded\": %llu, "
        "\"deadline\": %llu}}%s\n",
        p.threads, p.batch_frames, p.report.requests_per_s,
        p.mean_batch_frames, p.report.latency_mean_us, p.obs_p50_us,
        p.obs_p99_us,
        static_cast<unsigned long long>(p.obs_rejects_overloaded),
        static_cast<unsigned long long>(p.obs_rejects_deadline),
        i + 1 < points.size() ? "," : "");
  }
  std::printf("  ],\n");

  double min_speedup = 1e30;
  std::printf("  \"speedup_batched_vs_single\": {");
  for (std::size_t i = 0; i + 1 < points.size(); i += 2) {
    const double speedup = points[i + 1].report.requests_per_s /
                           points[i].report.requests_per_s;
    if (speedup < min_speedup) min_speedup = speedup;
    std::printf("%s\"threads_%zu\": %.2f", i == 0 ? "" : ", ",
                points[i].threads, speedup);
  }
  std::printf("},\n");

  const bool pass = min_speedup >= 3.0;
  std::printf(
      "  \"acceptance\": {\"criterion\": \"dynamic batching >= 3x "
      "single-request throughput at equal thread count\", "
      "\"min_speedup\": %.2f, \"pass\": %s}\n}\n",
      min_speedup, pass ? "true" : "false");
  return pass ? 0 : 1;
}

/// CI gate: really train a tiny model, write its checkpoint, serve it,
/// replay a canned seeded trace, and demand a perfect outcome.
int run_ci(const bench::ObsCli& obs_cli) {
  hf::TrainerConfig cfg;
  cfg.corpus.hours = 0.01;
  cfg.corpus.feature_dim = 8;
  cfg.corpus.num_states = 4;
  cfg.corpus.mean_utt_seconds = 1.0;
  cfg.corpus.seed = 11;
  cfg.context = 1;
  cfg.hidden = {12};
  cfg.hf.max_iterations = 1;
  cfg.hf.hyper.cg_max_iters = 4;
  std::printf("[ci] training tiny model (%.3f h synthetic corpus)...\n",
              cfg.corpus.hours);
  const hf::TrainOutcome out = hf::train_serial(cfg);

  hf::TrainerCheckpoint ckpt;
  ckpt.completed_iterations = out.hf.iterations.size();
  ckpt.hf_seed = 0;
  ckpt.theta = out.theta;
  ckpt.d0.assign(out.theta.size(), 0.0f);
  const std::string path = "/tmp/bgqhf_serving_ci.ckpt";
  hf::save_checkpoint(ckpt, path);
  std::printf("[ci] checkpoint written: %s (%zu params)\n", path.c_str(),
              ckpt.theta.size());

  const std::size_t input_dim =
      speech::stacked_dim(cfg.corpus.feature_dim, cfg.context);
  const nn::Network topology =
      nn::Network::mlp(input_dim, cfg.hidden, cfg.corpus.num_states);

  obs_cli.begin();
  auto model = serve::ModelRuntime::from_checkpoint(path, topology);
  std::remove(path.c_str());

  serve::ServeOptions options = serve::ServeOptions::from_env();
  options.queue_capacity = 1024;
  options.threads = 2;
  serve::LoadGenReport report;
  {
    serve::Engine engine(model, options);
    serve::LoadGenOptions load;
    load.num_requests = 200;
    load.rate_rps = 2000.0;  // paced, well under saturation
    load.min_frames = 1;
    load.max_frames = 4;
    load.seed = 7;
    report = serve::run_load(engine, load);
  }
  obs_cli.finish(obs::Registry{});

  std::printf(
      "[ci] replay: submitted=%zu completed=%zu overloaded=%zu "
      "deadline=%zu failed=%zu (%.0f req/s, p99 %.0f us)\n",
      report.submitted, report.completed, report.rejected_overloaded,
      report.rejected_deadline, report.failed, report.requests_per_s,
      report.latency_p99_us);
  const bool pass = report.submitted == 200 && report.completed == 200 &&
                    report.rejected_overloaded == 0 &&
                    report.rejected_deadline == 0 && report.failed == 0;
  std::printf("[ci] %s\n", pass ? "PASS" : "FAIL");
  return pass ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace bgqhf;
  if (argc > 1 && std::string(argv[1]) == "--json") return run_json();
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "ci=1") {
      return run_ci(bench::ObsCli::from_args(argc, argv));
    }
  }

  const auto model = sweep_model();

  bench::print_header(
      "serving throughput: single-request vs dynamic batching");
  std::printf("(saturating open loop, %zu one-frame requests per point)\n",
              kSweepRequests);
  const std::vector<SweepPoint> points = run_sweep(model);
  util::Table table({"threads", "batch", "req/s", "mean batch", "p50 (us)",
                     "p99 (us)", "speedup"});
  for (std::size_t i = 0; i < points.size(); ++i) {
    const SweepPoint& p = points[i];
    const double speedup =
        p.batch_frames == 1
            ? 1.0
            : p.report.requests_per_s / points[i - 1].report.requests_per_s;
    table.add_row({std::to_string(p.threads),
                   p.batch_frames == 1 ? "off" : "256",
                   util::Table::fmt(p.report.requests_per_s, 0),
                   util::Table::fmt(p.mean_batch_frames, 1),
                   util::Table::fmt(p.obs_p50_us, 0),
                   util::Table::fmt(p.obs_p99_us, 0),
                   util::Table::fmt(speedup, 2)});
  }
  std::printf("%s", table.render().c_str());

  bench::print_header("paced load: latency under the batching policy");
  const SweepPoint paced =
      run_point(model, /*threads=*/2, /*batch_frames=*/256,
                /*rate_rps=*/5000.0, /*num_requests=*/500);
  std::printf(
      "5000 req/s open loop: completed %zu/500, p50 %.0f us, p99 %.0f us "
      "(obs histogram), client-side p99 %.0f us\n",
      paced.report.completed, paced.obs_p50_us, paced.obs_p99_us,
      paced.report.latency_p99_us);

  std::printf(
      "\nBatching amortizes streaming the weight matrices: every batch\n"
      "reads the model once, so req/s scales with how full the batcher\n"
      "can keep its batches (see mean batch column).\n");
  return 0;
}

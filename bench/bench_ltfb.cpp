// LTFB tournament vs. fixed hyperparameters, at equal total rank-seconds.
//
// The population-based-training question: given K * (workers+1) ranks for
// a fixed number of outer HF iterations, is it better to (a) split them
// into K tournament populations that exchange weights and mutate
// hyperparameters every round (run_ltfb), or (b) run the same K
// hyperparameter configurations to completion in isolation and keep the
// best? Both sides run the identical shards, iteration budget, and rank
// count, so the comparison is tournament mechanics only.
//
// Usage:
//   bench_ltfb            human-readable comparison tables
//   bench_ltfb --json     machine-readable BENCH_ltfb.json body on stdout
//   bench_ltfb ci=1       seeded 4-population smoke run, twice; PASS iff
//                         the winner lineage and the winner weights are
//                         bitwise identical across the two runs.
//                         Honors --trace/--metrics-json (ObsCli).
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include <cmath>
#include <cstdio>

#include "bench_main.h"
#include "blas/matrix.h"
#include "figures_common.h"
#include "hf/checkpoint.h"
#include "hf/hyperparams.h"
#include "hf/ltfb/ltfb.h"
#include "hf/ltfb/schedule.h"
#include "hf/trainer.h"
#include "serve/model_runtime.h"
#include "speech/features.h"
#include "util/rng.h"
#include "util/table.h"
#include "util/timer.h"

namespace {

using namespace bgqhf;

hf::TrainerConfig base_config() {
  hf::TrainerConfig cfg;
  cfg.workers = 2;
  cfg.corpus.hours = 0.01;
  cfg.corpus.feature_dim = 12;
  cfg.corpus.num_states = 5;
  cfg.corpus.mean_utt_seconds = 1.5;
  cfg.corpus.seed = 7;
  cfg.context = 2;
  cfg.hidden = {24};
  cfg.heldout_every_kth = 4;
  cfg.hf.hyper.cg_max_iters = 15;
  cfg.hf.hyper.curvature_fraction = 0.10;
  cfg.hf.seed = 11;
  return cfg;
}

hf::ltfb::LtfbOptions bench_options() {
  hf::ltfb::LtfbOptions opts = hf::ltfb::LtfbOptions::from_env();
  opts.rounds = 3;
  return opts;
}

struct FixedRun {
  std::size_t pop = 0;
  hf::HyperParams hyper;
  double heldout = 0.0;
  double seconds = 0.0;
};

/// The isolation baseline: the same K starting configurations the
/// tournament seeds (population 0 = base, p > 0 = perturb(init_rng(p))),
/// each trained standalone for the full rounds * round_iters iterations.
std::vector<FixedRun> run_fixed_configs(const hf::TrainerConfig& base,
                                        const hf::ltfb::LtfbOptions& opts) {
  const hf::ltfb::TournamentSchedule schedule(opts.seed, opts.populations);
  std::vector<FixedRun> runs;
  for (std::size_t p = 0; p < opts.populations; ++p) {
    hf::TrainerConfig cfg = base;
    if (p > 0) {
      util::Rng rng = schedule.init_rng(p);
      cfg.hf.hyper = cfg.hf.hyper.perturb(rng);
    }
    cfg.hf.max_iterations = opts.rounds * opts.round_iters;
    util::Timer t;
    const hf::TrainOutcome out = hf::train_distributed(cfg);
    runs.push_back({p, cfg.hf.hyper, out.hf.final_heldout_loss, t.seconds()});
  }
  return runs;
}

const FixedRun& best_fixed(const std::vector<FixedRun>& runs) {
  std::size_t best = 0;
  for (std::size_t i = 1; i < runs.size(); ++i) {
    if (runs[i].heldout < runs[best].heldout) best = i;
  }
  return runs[best];
}

std::size_t total_adoptions(const hf::ltfb::LtfbResult& r) {
  std::size_t n = 0;
  for (const auto& pop : r.populations) n += pop.adoptions;
  return n;
}

int run_json() {
  const hf::TrainerConfig base = base_config();
  const hf::ltfb::LtfbOptions opts = bench_options();
  const int ranks_per_pop = base.workers + 1;
  const std::size_t total_ranks = opts.populations * ranks_per_pop;

  util::Timer tour_timer;
  const hf::ltfb::LtfbResult tour = hf::ltfb::run_ltfb(base, opts);
  const double tour_seconds = tour_timer.seconds();
  const double tour_rank_seconds =
      tour_seconds * static_cast<double>(total_ranks);

  const std::vector<FixedRun> fixed = run_fixed_configs(base, opts);
  double fixed_rank_seconds = 0.0;
  for (const FixedRun& r : fixed) {
    fixed_rank_seconds += r.seconds * ranks_per_pop;
  }
  const FixedRun& champion = best_fixed(fixed);
  const double winner_ce = tour.populations[tour.winner].heldout_loss;
  const double ratio = winner_ce / champion.heldout;

  std::printf("{\n  \"bench\": \"bench_ltfb --json\",\n");
  std::printf(
      "  \"note\": \"both sides run %zu outer HF iterations per "
      "configuration on identical shards; rank-seconds are wall time x "
      "rank count, tournament populations concurrent, fixed runs "
      "sequential\",\n",
      opts.rounds * opts.round_iters);
  std::printf(
      "  \"shape\": {\"populations\": %zu, \"workers_per_population\": %d, "
      "\"total_ranks\": %zu, \"rounds\": %zu, \"round_iters\": %zu, "
      "\"seed\": %llu, \"exchange_bf16\": %s},\n",
      opts.populations, base.workers, total_ranks, opts.rounds,
      opts.round_iters, static_cast<unsigned long long>(opts.seed),
      opts.exchange_bf16 ? "true" : "false");

  std::printf("  \"tournament\": {\n");
  std::printf(
      "    \"winner\": %d, \"winner_heldout_ce\": %.6f, \"finished\": %zu, "
      "\"forfeited\": %zu, \"adoptions\": %zu,\n",
      tour.winner, winner_ce, tour.finished, tour.forfeited,
      total_adoptions(tour));
  std::printf("    \"seconds\": %.2f, \"rank_seconds\": %.2f,\n",
              tour_seconds, tour_rank_seconds);
  std::printf("    \"populations\": [\n");
  for (std::size_t p = 0; p < tour.populations.size(); ++p) {
    const auto& pop = tour.populations[p];
    std::printf(
        "      {\"pop\": %zu, \"finished\": %s, \"heldout_ce\": %.6f, "
        "\"adoptions\": %zu, \"final_hyper\": \"%s\"}%s\n",
        p, pop.finished ? "true" : "false", pop.heldout_loss, pop.adoptions,
        pop.hyper.to_string().c_str(),
        p + 1 < tour.populations.size() ? "," : "");
  }
  std::printf("    ],\n    \"lineage\": [\n");
  for (std::size_t i = 0; i < tour.lineage.size(); ++i) {
    const auto& m = tour.lineage[i];
    std::printf(
        "      {\"round\": %zu, \"a\": %d, \"b\": %d, \"ce_a\": %.6f, "
        "\"ce_b\": %.6f, \"winner\": %d, \"forfeit\": %s}%s\n",
        m.round, m.pop_a, m.pop_b, m.loss_a, m.loss_b, m.winner,
        m.forfeit ? "true" : "false",
        i + 1 < tour.lineage.size() ? "," : "");
  }
  std::printf("    ]\n  },\n");

  std::printf("  \"fixed_configs\": [\n");
  for (std::size_t i = 0; i < fixed.size(); ++i) {
    const FixedRun& r = fixed[i];
    std::printf(
        "    {\"pop\": %zu, \"heldout_ce\": %.6f, \"seconds\": %.2f, "
        "\"hyper\": \"%s\"}%s\n",
        r.pop, r.heldout, r.seconds, r.hyper.to_string().c_str(),
        i + 1 < fixed.size() ? "," : "");
  }
  std::printf("  ],\n");
  std::printf(
      "  \"best_fixed\": {\"pop\": %zu, \"heldout_ce\": %.6f, "
      "\"rank_seconds_total\": %.2f},\n",
      champion.pop, champion.heldout, fixed_rank_seconds);

  const bool complete = tour.finished + tour.forfeited == opts.populations;
  const bool competitive = ratio <= 1.10;
  std::printf(
      "  \"acceptance\": {\"criterion\": \"bracket completes (populations "
      "== finished + forfeited) and tournament-best held-out CE is within "
      "10%% of the best fixed configuration at equal iteration budget\", "
      "\"tournament_over_best_fixed\": %.4f, \"bracket_complete\": %s, "
      "\"competitive\": %s, \"pass\": %s}\n}\n",
      ratio, complete ? "true" : "false", competitive ? "true" : "false",
      complete && competitive ? "true" : "false");
  return complete && competitive ? 0 : 1;
}

/// CI determinism gate: the same seeded bracket, twice. LTFB's whole
/// claim is replayability — identical lineage and bitwise-identical
/// winner weights — so this is diffed exactly, not approximately.
int run_ci(const bench::ObsCli& obs_cli) {
  hf::TrainerConfig base = base_config();
  base.corpus.hours = 0.004;
  hf::ltfb::LtfbOptions opts;
  opts.populations = 4;
  opts.rounds = 2;
  opts.round_iters = 1;
  opts.seed = 20260808;

  obs_cli.begin();
  std::printf("[ci] ltfb smoke: %zu populations x (%d+1) ranks, %zu rounds\n",
              opts.populations, base.workers, opts.rounds);
  const hf::ltfb::LtfbResult a = hf::ltfb::run_ltfb(base, opts);
  const hf::ltfb::LtfbResult b = hf::ltfb::run_ltfb(base, opts);

  bool pass = a.winner == b.winner && a.winner >= 0;
  pass = pass && a.lineage.size() == b.lineage.size();
  if (pass) {
    for (std::size_t i = 0; i < a.lineage.size(); ++i) {
      const auto& ma = a.lineage[i];
      const auto& mb = b.lineage[i];
      pass = pass && ma.round == mb.round && ma.pop_a == mb.pop_a &&
             ma.pop_b == mb.pop_b && ma.winner == mb.winner &&
             ma.forfeit == mb.forfeit &&
             std::memcmp(&ma.loss_a, &mb.loss_a, sizeof(double)) == 0 &&
             std::memcmp(&ma.loss_b, &mb.loss_b, sizeof(double)) == 0;
    }
  }
  pass = pass && a.winner_theta.size() == b.winner_theta.size();
  std::size_t theta_diffs = 0;
  if (pass) {
    for (std::size_t i = 0; i < a.winner_theta.size(); ++i) {
      if (std::memcmp(&a.winner_theta[i], &b.winner_theta[i],
                      sizeof(float)) != 0) {
        ++theta_diffs;
      }
    }
    pass = pass && theta_diffs == 0;
  }

  std::printf(
      "[ci] run A: winner=%d finished=%zu forfeited=%zu matches=%zu\n"
      "[ci] run B: winner=%d finished=%zu forfeited=%zu matches=%zu\n"
      "[ci] winner theta: %zu params, %zu bitwise diffs\n",
      a.winner, a.finished, a.forfeited, a.lineage.size(), b.winner,
      b.finished, b.forfeited, b.lineage.size(), a.winner_theta.size(),
      theta_diffs);

  // Serve-side reuse: the tournament winner must flow straight into the
  // serving stack — checkpoint the winner theta, load it through the
  // weights-only ModelRuntime path, score a batch, require finite logits.
  if (pass) {
    hf::TrainerCheckpoint ckpt;
    ckpt.completed_iterations = opts.rounds * opts.round_iters;
    ckpt.hf_seed = base.hf.seed;
    ckpt.theta = a.winner_theta;
    ckpt.d0.assign(a.winner_theta.size(), 0.0f);
    const std::string path = "/tmp/bgqhf_ltfb_winner.ckpt";
    hf::save_checkpoint(ckpt, path);

    const std::size_t input_dim =
        speech::stacked_dim(base.corpus.feature_dim, base.context);
    const nn::Network topology =
        nn::Network::mlp(input_dim, base.hidden, base.corpus.num_states);
    const auto model = serve::ModelRuntime::from_checkpoint(path, topology);
    std::remove(path.c_str());

    blas::Matrix<float> x(4, input_dim);
    util::Rng rng(99);
    for (std::size_t i = 0; i < x.size(); ++i) {
      x.data()[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
    }
    const blas::Matrix<float> logits = model->score(x.cview());
    bool finite = logits.rows() == 4 &&
                  logits.cols() == base.corpus.num_states;
    for (std::size_t i = 0; i < logits.size(); ++i) {
      finite = finite && std::isfinite(logits.data()[i]);
    }
    std::printf("[ci] winner served: %zux%zu logits, finite=%s\n",
                logits.rows(), logits.cols(), finite ? "yes" : "no");
    pass = pass && finite;
  }

  std::printf("[ci] %s\n", pass ? "PASS" : "FAIL");

  // finish() folds in obs::collect_global() itself — the ltfb.* counters
  // from both runs land in the --metrics-json dump.
  obs_cli.finish(obs::Registry{});
  return pass ? 0 : 1;
}

int run_human() {
  const hf::TrainerConfig base = base_config();
  const hf::ltfb::LtfbOptions opts = bench_options();

  util::Timer tour_timer;
  const hf::ltfb::LtfbResult tour = hf::ltfb::run_ltfb(base, opts);
  const double tour_seconds = tour_timer.seconds();
  const std::vector<FixedRun> fixed = run_fixed_configs(base, opts);
  const FixedRun& champion = best_fixed(fixed);

  bench::print_header("LTFB tournament populations");
  util::Table tour_table(
      {"pop", "finished", "heldout CE", "adoptions", "final hyper"});
  for (std::size_t p = 0; p < tour.populations.size(); ++p) {
    const auto& pop = tour.populations[p];
    tour_table.add_row({std::to_string(p), pop.finished ? "yes" : "forfeit",
                        util::Table::fmt(pop.heldout_loss, 4),
                        std::to_string(pop.adoptions),
                        pop.hyper.to_string()});
  }
  std::printf("%s", tour_table.render().c_str());
  std::printf("winner: population %d (CE %.4f) in %.2f s wall\n", tour.winner,
              tour.populations[tour.winner].heldout_loss, tour_seconds);

  bench::print_header("fixed configurations, same iteration budget");
  util::Table fixed_table({"pop", "heldout CE", "seconds", "hyper"});
  for (const FixedRun& r : fixed) {
    fixed_table.add_row({std::to_string(r.pop),
                         util::Table::fmt(r.heldout, 4),
                         util::Table::fmt(r.seconds, 2),
                         r.hyper.to_string()});
  }
  std::printf("%s", fixed_table.render().c_str());
  std::printf(
      "best fixed: population %zu (CE %.4f); tournament / best fixed = "
      "%.4f\n",
      champion.pop, champion.heldout,
      tour.populations[tour.winner].heldout_loss / champion.heldout);
  return 0;
}

}  // namespace

static int bench_main(int argc, char** argv) {
  if (argc > 1 && std::string(argv[1]) == "--json") return run_json();
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "ci=1") {
      return run_ci(bgqhf::bench::ObsCli::from_args(argc, argv));
    }
  }
  return run_human();
}

int main(int argc, char** argv) {
  return bgqhf::bench::guarded_main([&] { return bench_main(argc, argv); });
}

// LTFB tournament trainer: the schedule and mutations replay from one
// seed, a whole tournament is bitwise reproducible, losers adopt winner
// weights through the CRC'd codec, and a killed population forfeits its
// bracket without stalling anyone — with `populations = finished +
// forfeited` holding in the ltfb.* metrics.
#include <gtest/gtest.h>

#include <vector>

#include "blas/precision.h"
#include "hf/hyperparams.h"
#include "hf/ltfb/ltfb.h"
#include "hf/ltfb/schedule.h"
#include "obs/registry.h"
#include "util/rng.h"

namespace bgqhf::hf::ltfb {
namespace {

// ---- HyperParams: the values the tournament mutates ----

TEST(HyperParams, PerturbIsDeterministicInTheRngState) {
  const HyperParams base;
  util::Rng a(99), b(99);
  EXPECT_EQ(base.perturb(a), base.perturb(b));
}

TEST(HyperParams, PerturbRespectsEveryClamp) {
  HyperParams extreme;
  extreme.lambda0 = 1e8;
  extreme.cg_max_iters = 4;
  extreme.curvature_fraction = 1.0;
  extreme.damping_grow = 10.0;
  extreme.damping_shrink = 0.95;
  util::Rng rng(7);
  for (int i = 0; i < 50; ++i) {
    const HyperParams p = extreme.perturb(rng);
    EXPECT_LE(p.lambda0, 1e8);
    EXPECT_GE(p.lambda0, 1e-8);
    EXPECT_GE(p.cg_max_iters, 4u);
    EXPECT_LE(p.curvature_fraction, 1.0);
    EXPECT_GE(p.curvature_fraction, 0.001);
    EXPECT_LE(p.damping_grow, 10.0);
    EXPECT_GE(p.damping_grow, 1.05);
    EXPECT_LE(p.damping_shrink, 0.95);
    EXPECT_GE(p.damping_shrink, 0.05);
  }
}

TEST(HyperParams, PackUnpackRoundTrips) {
  HyperParams h;
  h.lambda0 = 0.125;
  h.cg_max_iters = 37;
  h.curvature_fraction = 0.0625;
  h.damping_grow = 1.75;
  h.damping_shrink = 0.5;
  EXPECT_EQ(HyperParams::unpack(h.pack()), h);
}

// ---- TournamentSchedule: replayable bracket + mutation streams ----

TEST(Schedule, PairingReplaysFromTheSeed) {
  const TournamentSchedule a(123, 6), b(123, 6);
  for (std::size_t round = 0; round < 8; ++round) {
    EXPECT_EQ(a.pairing(round), b.pairing(round)) << "round " << round;
  }
}

TEST(Schedule, PairingIsSymmetricAndCoversEveryPopulation) {
  const TournamentSchedule s(5, 8);
  for (std::size_t round = 0; round < 6; ++round) {
    const std::vector<int> p = s.pairing(round);
    for (std::size_t i = 0; i < p.size(); ++i) {
      ASSERT_NE(p[i], static_cast<int>(i));
      ASSERT_GE(p[i], 0);  // even population count: no byes
      EXPECT_EQ(p[static_cast<std::size_t>(p[i])], static_cast<int>(i));
    }
  }
}

TEST(Schedule, OddPopulationCountSitsExactlyOneOutPerRound) {
  const TournamentSchedule s(5, 5);
  for (std::size_t round = 0; round < 6; ++round) {
    const std::vector<int> p = s.pairing(round);
    int byes = 0;
    for (const int partner : p) byes += partner < 0 ? 1 : 0;
    EXPECT_EQ(byes, 1) << "round " << round;
  }
}

TEST(Schedule, DifferentSeedsShuffleTheBracket) {
  const TournamentSchedule a(1, 6), b(2, 6);
  bool any_diff = false;
  for (std::size_t round = 0; round < 8; ++round) {
    any_diff |= a.pairing(round) != b.pairing(round);
  }
  EXPECT_TRUE(any_diff);
}

TEST(Schedule, MutationStreamsReplayAndAreDistinct) {
  const TournamentSchedule s(77, 4);
  util::Rng a = s.mutation_rng(2, 1);
  util::Rng b = s.mutation_rng(2, 1);
  EXPECT_EQ(a.next_u64(), b.next_u64());
  util::Rng c = s.mutation_rng(2, 3);
  util::Rng d = s.mutation_rng(3, 1);
  util::Rng e = s.mutation_rng(2, 1);
  const std::uint64_t base = e.next_u64();
  EXPECT_NE(c.next_u64(), base);
  EXPECT_NE(d.next_u64(), base);
}

// ---- full tournaments over tiny populations ----

TrainerConfig tiny_config() {
  TrainerConfig cfg;
  cfg.workers = 1;
  cfg.corpus.hours = 0.002;
  cfg.corpus.feature_dim = 8;
  cfg.corpus.num_states = 4;
  cfg.corpus.mean_utt_seconds = 1.0;
  cfg.corpus.seed = 303;
  cfg.context = 1;
  cfg.hidden = {12};
  cfg.heldout_every_kth = 4;
  cfg.hf.hyper.curvature_fraction = 0.15;
  cfg.hf.hyper.cg_max_iters = 10;
  cfg.hf.seed = 11;
  return cfg;
}

LtfbOptions tiny_tournament() {
  LtfbOptions opts;
  opts.populations = 2;
  opts.round_iters = 1;
  opts.rounds = 2;
  opts.seed = 4242;
  return opts;
}

void expect_same_lineage(const LtfbResult& a, const LtfbResult& b) {
  ASSERT_EQ(a.lineage.size(), b.lineage.size());
  for (std::size_t i = 0; i < a.lineage.size(); ++i) {
    EXPECT_EQ(a.lineage[i].round, b.lineage[i].round) << "match " << i;
    EXPECT_EQ(a.lineage[i].pop_a, b.lineage[i].pop_a) << "match " << i;
    EXPECT_EQ(a.lineage[i].pop_b, b.lineage[i].pop_b) << "match " << i;
    EXPECT_EQ(a.lineage[i].winner, b.lineage[i].winner) << "match " << i;
    EXPECT_EQ(a.lineage[i].loss_a, b.lineage[i].loss_a) << "match " << i;
    EXPECT_EQ(a.lineage[i].loss_b, b.lineage[i].loss_b) << "match " << i;
    EXPECT_EQ(a.lineage[i].forfeit, b.lineage[i].forfeit) << "match " << i;
  }
}

TEST(Ltfb, SameSeedReplaysBitwiseIdenticalTournaments) {
  const TrainerConfig cfg = tiny_config();
  const LtfbOptions opts = tiny_tournament();
  const LtfbResult first = run_ltfb(cfg, opts);
  const LtfbResult second = run_ltfb(cfg, opts);
  expect_same_lineage(first, second);
  EXPECT_EQ(first.winner, second.winner);
  ASSERT_GE(first.winner, 0);
  ASSERT_EQ(first.winner_theta.size(), second.winner_theta.size());
  for (std::size_t i = 0; i < first.winner_theta.size(); ++i) {
    ASSERT_EQ(first.winner_theta[i], second.winner_theta[i]) << "param " << i;
  }
  for (std::size_t p = 0; p < first.populations.size(); ++p) {
    EXPECT_EQ(first.populations[p].heldout_loss,
              second.populations[p].heldout_loss)
        << "population " << p;
  }
}

TEST(Ltfb, PopulationsStartFromPerturbedHyperparameters) {
  // Every match pits two *different* configurations: losses in the
  // lineage come from genuinely distinct hyperparameters, and each
  // population's iterations were recorded.
  const LtfbResult r = run_ltfb(tiny_config(), tiny_tournament());
  EXPECT_EQ(r.finished, 2u);
  EXPECT_EQ(r.forfeited, 0u);
  for (const PopulationOutcome& pop : r.populations) {
    EXPECT_TRUE(pop.finished);
    EXPECT_EQ(pop.iterations.size(), 2u);  // rounds * round_iters
  }
  EXPECT_NE(r.populations[0].hyper, r.populations[1].hyper);
}

TEST(Ltfb, LoserAdoptsWinnerWeightsBitwiseOverF32Wire) {
  TrainerConfig cfg = tiny_config();
  LtfbOptions opts = tiny_tournament();
  opts.rounds = 1;
  opts.exchange_bf16 = false;
  const LtfbResult r = run_ltfb(cfg, opts);
  ASSERT_EQ(r.lineage.size(), 1u);
  const int winner = r.lineage[0].winner;
  const int loser = 1 - winner;
  ASSERT_GE(winner, 0);
  const auto& w = r.populations[static_cast<std::size_t>(winner)].theta;
  const auto& l = r.populations[static_cast<std::size_t>(loser)].theta;
  ASSERT_EQ(w.size(), l.size());
  EXPECT_EQ(r.populations[static_cast<std::size_t>(loser)].adoptions, 1u);
  for (std::size_t i = 0; i < w.size(); ++i) {
    ASSERT_EQ(w[i], l[i]) << "param " << i;
  }
}

TEST(Ltfb, Bf16WireAdoptsRoundedWinnerWeights) {
  TrainerConfig cfg = tiny_config();
  LtfbOptions opts = tiny_tournament();
  opts.rounds = 1;
  opts.exchange_bf16 = true;
  const LtfbResult r = run_ltfb(cfg, opts);
  ASSERT_EQ(r.lineage.size(), 1u);
  const int winner = r.lineage[0].winner;
  const int loser = 1 - winner;
  const auto& w = r.populations[static_cast<std::size_t>(winner)].theta;
  const auto& l = r.populations[static_cast<std::size_t>(loser)].theta;
  ASSERT_EQ(w.size(), l.size());
  for (std::size_t i = 0; i < w.size(); ++i) {
    ASSERT_EQ(l[i], blas::bf16_round(w[i])) << "param " << i;
  }
}

TEST(Ltfb, KilledPopulationForfeitsAndTheBracketCompletes) {
  obs::clear_global();
  TrainerConfig cfg = tiny_config();
  cfg.aggregation = {};  // FT rejects an env-set codec
  cfg.ft.enabled = true;
  cfg.ft.reply_timeout = 0.5;
  // command_timeout must exceed exchange_timeout (run_ltfb enforces this):
  // the surviving master goes quiet toward its own worker for the full
  // exchange wait, and the worker must not mistake that for master death.
  cfg.ft.command_timeout = 4.0;
  cfg.ft.verbose = false;
  // Population 1's master (world rank 2 with 1 worker per population) dies
  // mid-leg-0, before its first exchange: op 20 is its send of the first
  // prepare-curvature command header.
  cfg.faults.kills.push_back({/*rank=*/2, /*after_ops=*/20});
  LtfbOptions opts = tiny_tournament();
  opts.exchange_timeout = 1.5;
  const LtfbResult r = run_ltfb(cfg, opts);

  EXPECT_EQ(r.finished, 1u);
  EXPECT_EQ(r.forfeited, 1u);
  EXPECT_EQ(r.finished + r.forfeited, opts.populations);
  EXPECT_TRUE(r.populations[0].finished);
  EXPECT_FALSE(r.populations[1].finished);
  EXPECT_EQ(r.winner, 0);
  // The surviving population walked over every round.
  ASSERT_EQ(r.lineage.size(), opts.rounds);
  for (const TournamentMatch& m : r.lineage) {
    EXPECT_TRUE(m.forfeit);
    EXPECT_EQ(m.winner, 0);
    EXPECT_EQ(m.pop_a, 0);
  }
  // populations = finished + forfeited holds in the ltfb.* metrics too.
  const obs::Registry metrics = obs::collect_global();
  obs::Schema& schema = obs::Schema::global();
  const std::uint64_t finished =
      metrics.counter(schema.counter("ltfb.populations_finished"));
  const std::uint64_t forfeited =
      metrics.counter(schema.counter("ltfb.populations_forfeited"));
  EXPECT_EQ(finished, 1u);
  EXPECT_EQ(forfeited, 1u);
  EXPECT_EQ(finished + forfeited, opts.populations);
  EXPECT_GE(metrics.counter(schema.counter("ltfb.forfeits")), 1u);
}

TEST(Ltfb, RejectsDegenerateOptions) {
  const TrainerConfig cfg = tiny_config();
  LtfbOptions opts = tiny_tournament();
  opts.populations = 1;
  EXPECT_THROW(run_ltfb(cfg, opts), std::invalid_argument);
  opts = tiny_tournament();
  opts.rounds = 0;
  EXPECT_THROW(run_ltfb(cfg, opts), std::invalid_argument);
  // FT command_timeout must exceed exchange_timeout (worker starvation).
  opts = tiny_tournament();
  TrainerConfig ft_cfg = tiny_config();
  ft_cfg.aggregation = {};  // FT rejects an env-set codec
  ft_cfg.ft.enabled = true;
  ft_cfg.ft.command_timeout = 1.0;
  opts.exchange_timeout = 2.0;
  EXPECT_THROW(run_ltfb(ft_cfg, opts), std::invalid_argument);
  EXPECT_THROW(TournamentSchedule(1, 1), std::invalid_argument);
}

}  // namespace
}  // namespace bgqhf::hf::ltfb

// LTFB tournament trainer: K concurrent HF populations over split
// sub-communicators (LBANN's Livermore Tournament Fast Batch, carried
// onto the paper's master/worker HF machinery).
//
// The world's K*(workers+1) ranks partition into K populations via
// simmpi::Comm::split; each population is a full master/worker HF trainer
// (every collective, compression, and FT path runs unchanged inside its
// sub-communicator) with seeded-perturbed hyperparameters.
// Every `round_iters` outer HF iterations the population masters pause,
// replay the same seeded TournamentSchedule, and exchange held-out CE +
// weights with their bracket partner over the CRC'd weights-only
// checkpoint codec (dense-bf16 compress-codec body by default); the loser
// adopts the winner's weights and a mutated copy of its hyperparameters.
//
// Determinism: the schedule, every perturbation, and every exchange are
// pure functions of BGQHF_LTFB_SEED, so two runs with the same seed
// produce bitwise-identical winner weights and identical lineage. A
// population whose master is killed by fault injection forfeits its
// remaining matches (partners win by walkover after exchange_timeout) and
// its workers exit through the FT command deadline — the bracket always
// completes, and `populations == finished + forfeited` holds in the
// ltfb.* metrics.
#pragma once

#include <cstdint>
#include <vector>

#include "hf/hyperparams.h"
#include "hf/phase_stats.h"
#include "hf/trainer.h"
#include "simmpi/stats.h"

namespace bgqhf::hf::ltfb {

struct LtfbOptions {
  /// Number of concurrent trainer populations (K).
  std::size_t populations = 4;
  /// Outer HF iterations each population runs between tournaments (R).
  std::size_t round_iters = 2;
  /// Tournament rounds; total training = rounds * round_iters iterations.
  std::size_t rounds = 3;
  /// Seed for the schedule, initial perturbations, and loser mutations.
  std::uint64_t seed = 1234;
  /// How long a master waits for its partner's exchange before declaring
  /// a forfeit (the LTFB analogue of the FT reply deadline). When fault
  /// tolerance is on, ft.command_timeout must exceed this: a master is
  /// silent toward its own workers for the whole wait, and the workers
  /// must not read that silence as master death (run_ltfb enforces it).
  double exchange_timeout = 10.0;
  /// Ship exchanged weights as the compress codec's dense bf16 body
  /// inside the CRC'd blob (half the theta bytes; the loser installs
  /// bf16-rounded weights). Set false for bitwise fp32 adoption.
  bool exchange_bf16 = true;

  /// Defaults overridden by BGQHF_LTFB_POPULATIONS / BGQHF_LTFB_ROUND_ITERS
  /// / BGQHF_LTFB_SEED (via util::RuntimeEnv).
  static LtfbOptions from_env();
};

/// One bracket match, as recorded in the winner lineage. Live matches are
/// recorded by the lower-id participant; walkovers by the survivor.
struct TournamentMatch {
  std::size_t round = 0;
  int pop_a = -1;       // recording population
  int pop_b = -1;       // partner; -1 for a bye round
  double loss_a = 0.0;  // per-frame held-out CE of pop_a
  double loss_b = 0.0;  // per-frame held-out CE of pop_b (walkover: 0)
  int winner = -1;
  bool forfeit = false;  // partner dead: winner by walkover
};

/// Final state of one population.
struct PopulationOutcome {
  /// Master survived every round (false = killed -> bracket forfeited).
  bool finished = false;
  /// Hyperparameters in force after the last round's mutation.
  HyperParams hyper;
  /// Per-frame held-out CE after the final leg.
  double heldout_loss = 0.0;
  std::vector<float> theta;
  /// Concatenated per-leg optimizer logs.
  std::vector<HfIterationLog> iterations;
  /// Times this population lost and adopted a winner's weights.
  std::size_t adoptions = 0;
  PhaseStats master_phases;
  std::vector<PhaseStats> worker_phases;  // indexed by worker (local - 1)
};

struct LtfbResult {
  /// Every match in deterministic (round-major, recorder-id) order.
  std::vector<TournamentMatch> lineage;
  std::vector<PopulationOutcome> populations;
  /// Best finished population by final held-out CE (ties: lowest id).
  int winner = -1;
  std::vector<float> winner_theta;
  std::size_t finished = 0;
  std::size_t forfeited = 0;
  simmpi::CommStats comm;
};

/// Run a full tournament. `base` describes one population's trainer
/// (workers, corpus, criterion, FT, aggregation — everything
/// train_distributed accepts except resume); the world spawned is
/// populations * (workers + 1) ranks. Population 0 trains with the base
/// hyperparameters; population p > 0 starts from perturb(init_rng(p)).
/// With fault injection installed in `base.faults`, base.ft.enabled must
/// be set (as for train_distributed) so an orphaned population's workers
/// can time out and exit.
LtfbResult run_ltfb(const TrainerConfig& base, const LtfbOptions& opts);

}  // namespace bgqhf::hf::ltfb

#include "hf/ltfb/ltfb.h"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "hf/aggregate.h"
#include "hf/checkpoint.h"
#include "hf/ltfb/schedule.h"
#include "hf/master_compute.h"
#include "hf/protocol.h"
#include "obs/registry.h"
#include "obs/span.h"
#include "simmpi/communicator.h"
#include "util/config.h"
#include "util/logging.h"

namespace bgqhf::hf::ltfb {

namespace {

// ltfb.* metrics (interned once; accumulated through the per-thread
// global registries, so population masters on different rank threads
// never contend).
obs::CounterId tournaments_counter() {
  static const obs::CounterId id =
      obs::Schema::global().counter("ltfb.tournaments");
  return id;
}
obs::CounterId adoptions_counter() {
  static const obs::CounterId id =
      obs::Schema::global().counter("ltfb.adoptions");
  return id;
}
obs::CounterId forfeits_counter() {
  static const obs::CounterId id =
      obs::Schema::global().counter("ltfb.forfeits");
  return id;
}
obs::CounterId exchange_bytes_counter() {
  static const obs::CounterId id =
      obs::Schema::global().counter("ltfb.exchange_bytes");
  return id;
}
obs::CounterId finished_counter() {
  static const obs::CounterId id =
      obs::Schema::global().counter("ltfb.populations_finished");
  return id;
}
obs::CounterId forfeited_counter() {
  static const obs::CounterId id =
      obs::Schema::global().counter("ltfb.populations_forfeited");
  return id;
}

/// Fixed-size head of every exchange message; the CRC'd weights blob
/// follows it in the same byte payload. POD so both sides memcpy.
struct ExchangeHead {
  double loss_sum = 0.0;       // held-out CE sum over frames
  std::uint64_t frames = 0;    // held-out frames (weighting denominator)
  std::array<double, 5> hyper{};  // HyperParams::pack()
  double lambda = 0.0;         // sender's final LM lambda this leg
};
static_assert(std::is_trivially_copyable_v<ExchangeHead>);

std::vector<std::byte> encode_exchange(const ExchangeHead& head,
                                       const std::vector<std::byte>& blob) {
  std::vector<std::byte> bytes(sizeof(ExchangeHead) + blob.size());
  std::memcpy(bytes.data(), &head, sizeof(ExchangeHead));
  std::copy(blob.begin(), blob.end(), bytes.begin() + sizeof(ExchangeHead));
  return bytes;
}

struct DecodedExchange {
  ExchangeHead head;
  std::vector<std::byte> blob;
};

DecodedExchange decode_exchange(const std::vector<std::byte>& bytes) {
  if (bytes.size() < sizeof(ExchangeHead)) {
    throw std::length_error("ltfb: exchange message shorter than header");
  }
  DecodedExchange d;
  std::memcpy(&d.head, bytes.data(), sizeof(ExchangeHead));
  d.blob.assign(bytes.begin() + sizeof(ExchangeHead), bytes.end());
  return d;
}

double per_frame(double loss_sum, std::uint64_t frames) {
  return frames == 0 ? 0.0 : loss_sum / static_cast<double>(frames);
}

/// Distinct curvature-sample seed per leg: reusing the base seed every
/// leg would resample the identical curvature subsets round after round.
std::uint64_t leg_seed(std::uint64_t base, std::size_t round) {
  return base + (round + 1) * 0x9E3779B97F4A7C15ULL;
}

/// The whole life of one population master: run legs, hold tournaments,
/// adopt or defend. Throws simmpi::RankKilledError out to the caller when
/// fault injection kills this rank.
void run_population_master(simmpi::Comm& world_comm, simmpi::Comm& pop,
                           std::size_t p, int per_pop,
                           const TrainerConfig& config, const Shards& shards,
                           const LtfbOptions& opts,
                           const TournamentSchedule& schedule,
                           PopulationOutcome& out,
                           std::vector<TournamentMatch>& matches) {
  distribute_shards(pop, config, shards, &out.master_phases);
  MasterCompute compute(pop, shards.net.num_params(),
                        shards.total_train_frames, &out.master_phases,
                        config.ft, config.aggregation,
                        layer_segment_bounds(shards.net));
  std::vector<float> theta(shards.net.params().begin(),
                           shards.net.params().end());
  HyperParams hyper = config.hf.hyper;
  double lambda = hyper.lambda0;
  std::vector<char> dead(schedule.populations(), 0);
  const WeightsWire wire =
      opts.exchange_bf16 ? WeightsWire::kBf16 : WeightsWire::kF32;

  try {
    for (std::size_t round = 0; round < opts.rounds; ++round) {
      // ---- leg: round_iters outer HF iterations under current hypers ----
      {
        BGQHF_SPAN("ltfb", "leg");
        HfOptions leg = config.hf;
        leg.hyper = hyper;
        leg.hyper.lambda0 = lambda;
        leg.max_iterations = opts.round_iters;
        leg.seed = leg_seed(config.hf.seed, round);
        leg.checkpoint_path.clear();
        // Workers picked the fraction up from the config blob at startup;
        // re-broadcast in case a lost match mutated it since.
        compute.set_curvature_fraction(leg.hyper.curvature_fraction);
        HfOptimizer optimizer(leg);
        const HfResult r = optimizer.run(compute, theta);
        lambda = r.final_lambda;
        out.iterations.insert(out.iterations.end(), r.iterations.begin(),
                              r.iterations.end());
      }
      const nn::BatchLoss held = compute.heldout_loss();
      out.heldout_loss = per_frame(held.loss_sum, held.frames);

      // ---- tournament ----
      obs::Span span("ltfb", "tournament");
      obs::global_add(tournaments_counter());
      const int partner = schedule.partner(round, p);
      TournamentMatch m;
      m.round = round;
      m.pop_a = static_cast<int>(p);
      m.pop_b = partner;
      m.loss_a = out.heldout_loss;
      if (partner < 0) {
        // Bye round: train on, record for the lineage.
        m.winner = static_cast<int>(p);
        matches.push_back(m);
        continue;
      }
      const int partner_master = partner * per_pop;
      const int tag = ltfb_round_tag(round);
      if (dead[static_cast<std::size_t>(partner)]) {
        // Partner already forfeited in an earlier round: walkover without
        // waiting out the timeout again.
        m.winner = static_cast<int>(p);
        m.forfeit = true;
        matches.push_back(m);
        obs::global_add(forfeits_counter());
        continue;
      }

      ExchangeHead head;
      head.loss_sum = held.loss_sum;
      head.frames = held.frames;
      head.hyper = hyper.pack();
      head.lambda = lambda;
      CheckpointWeights mine;
      mine.completed_iterations = (round + 1) * opts.round_iters;
      mine.hf_seed = config.hf.seed;
      mine.theta = theta;
      const std::vector<std::byte> payload =
          encode_exchange(head, encode_weights_blob(mine, wire));
      // Send-then-receive: simmpi sends are buffered, so the symmetric
      // exchange cannot deadlock.
      world_comm.send<std::byte>(payload, partner_master, tag);
      obs::global_add(exchange_bytes_counter(), payload.size());
      std::vector<std::byte> reply;
      try {
        reply = world_comm.recv<std::byte>(
            partner_master, tag,
            simmpi::Deadline::in(opts.exchange_timeout));
      } catch (const simmpi::TimeoutError&) {
        // Partner master never produced its exchange: its population is
        // gone. Win by walkover and never wait on it again.
        BGQHF_WARN << "ltfb: population " << p << " round " << round
                   << ": partner " << partner
                   << " silent; winning by walkover";
        dead[static_cast<std::size_t>(partner)] = 1;
        m.winner = static_cast<int>(p);
        m.forfeit = true;
        matches.push_back(m);
        obs::global_add(forfeits_counter());
        continue;
      }
      const DecodedExchange theirs = decode_exchange(reply);
      const double their_ce =
          per_frame(theirs.head.loss_sum, theirs.head.frames);
      m.loss_b = their_ce;
      // Frame-weighted per-frame CE decides; ties go to the lower id so
      // both masters agree without a tiebreak message.
      const bool i_win =
          out.heldout_loss < their_ce ||
          (out.heldout_loss == their_ce && static_cast<int>(p) < partner);
      m.winner = i_win ? static_cast<int>(p) : partner;
      // Live matches are recorded once, by the lower-id participant.
      if (static_cast<int>(p) < partner) matches.push_back(m);
      if (!i_win) {
        // Adopt the winner: its weights (CRC-validated blob) and a mutated
        // copy of its hyperparameters, seeded per (round, loser).
        const CheckpointWeights w = decode_weights_blob(theirs.blob);
        if (w.theta.size() != theta.size()) {
          throw std::length_error("ltfb: exchanged theta size mismatch");
        }
        theta = w.theta;
        HyperParams winner_hyper =
            HyperParams::unpack(theirs.head.hyper);
        winner_hyper.lambda0 = theirs.head.lambda;
        util::Rng rng = schedule.mutation_rng(round, p);
        hyper = winner_hyper.perturb(rng);
        lambda = hyper.lambda0;
        out.adoptions += 1;
        obs::global_add(adoptions_counter());
      }
    }
    out.theta = std::move(theta);
    out.hyper = hyper;
    out.finished = true;
    compute.shutdown();
  } catch (const simmpi::RankKilledError&) {
    throw;  // handled by the rank body (population forfeits)
  } catch (...) {
    // Anything else (corrupt exchange blob, protocol error): release the
    // workers before propagating so run_ranks can join them.
    try {
      compute.shutdown();
    } catch (...) {
    }
    throw;
  }
}

}  // namespace

LtfbOptions LtfbOptions::from_env() {
  LtfbOptions opts;
  const util::RuntimeEnv& env = util::RuntimeEnv::get();
  if (env.ltfb_populations > 0) opts.populations = env.ltfb_populations;
  if (env.ltfb_round_iters > 0) opts.round_iters = env.ltfb_round_iters;
  if (env.ltfb_seed != 0) opts.seed = env.ltfb_seed;
  return opts;
}

LtfbResult run_ltfb(const TrainerConfig& base, const LtfbOptions& opts) {
  if (opts.populations < 2) {
    throw std::invalid_argument("run_ltfb: need at least 2 populations");
  }
  if (opts.round_iters == 0 || opts.rounds == 0) {
    throw std::invalid_argument("run_ltfb: rounds and round_iters must be > 0");
  }
  if (!base.resume_from.empty()) {
    throw std::invalid_argument("run_ltfb: resume_from is not supported");
  }
  // A master waiting on a silent tournament partner sends its own workers
  // nothing for up to exchange_timeout; under FT the workers treat that
  // silence as master death once command_timeout elapses. The timeouts must
  // be ordered or a healthy population loses its workers mid-bracket.
  if (base.ft.enabled && base.ft.command_timeout <= opts.exchange_timeout) {
    throw std::invalid_argument(
        "run_ltfb: ft.command_timeout must exceed exchange_timeout, or the "
        "exchange wait starves healthy workers into declaring master death");
  }
  reject_under_ft(base.aggregation, base.ft.enabled);
  const std::size_t K = opts.populations;
  const int per_pop = base.workers + 1;
  const TournamentSchedule schedule(opts.seed, K);

  // Per-population trainer configs: population 0 keeps the base
  // hyperparameters, the rest start from a seeded perturbation.
  std::vector<TrainerConfig> configs(K, base);
  for (std::size_t p = 1; p < K; ++p) {
    util::Rng rng = schedule.init_rng(p);
    configs[p].hf.hyper = configs[p].hf.hyper.perturb(rng);
  }

  // One shard set shared read-only by every population: the corpus,
  // partition, and network init are hyperparameter-independent, so all
  // populations start from identical data and identical theta0 — the
  // tournament measures hyperparameters, nothing else.
  const Shards shards = build_shards(base);

  LtfbResult result;
  result.populations.resize(K);
  for (auto& pop : result.populations) {
    pop.worker_phases.assign(static_cast<std::size_t>(base.workers),
                             PhaseStats{});
  }
  // Per-population match logs, each written by exactly one master rank.
  std::vector<std::vector<TournamentMatch>> match_log(K);

  simmpi::World world(static_cast<int>(K) * per_pop);
  world.install_faults(base.faults);
  simmpi::run_ranks(world, [&](simmpi::Comm& comm) {
    const auto p = static_cast<std::size_t>(comm.rank() / per_pop);
    const int local = comm.rank() % per_pop;
    simmpi::Comm pop = comm.split(static_cast<int>(p), local);
    if (local != 0) {
      // Workers serve one loop across every leg; they exit on the
      // master's shutdown, or (under FT) on the command deadline when
      // their master was killed.
      run_worker_rank(
          pop, configs[p],
          &result.populations[p]
               .worker_phases[static_cast<std::size_t>(local - 1)]);
      return;
    }
    try {
      run_population_master(comm, pop, p, per_pop, configs[p], shards, opts,
                            schedule, result.populations[p], match_log[p]);
    } catch (const simmpi::RankKilledError&) {
      // This population's bracket dies with its master; partners claim
      // walkovers at their exchange deadlines.
      BGQHF_WARN << "ltfb: population " << p
                 << " master killed by fault injection; forfeiting";
    }
  });
  result.comm = world.total_stats();

  // Deterministic lineage: round-major, then recorder id.
  for (std::size_t round = 0; round < opts.rounds; ++round) {
    for (std::size_t p = 0; p < K; ++p) {
      for (const TournamentMatch& m : match_log[p]) {
        if (m.round == round) result.lineage.push_back(m);
      }
    }
  }
  for (std::size_t p = 0; p < K; ++p) {
    if (result.populations[p].finished) {
      result.finished += 1;
    } else {
      result.forfeited += 1;
    }
  }
  obs::global_add(finished_counter(), result.finished);
  obs::global_add(forfeited_counter(), result.forfeited);
  for (std::size_t p = 0; p < K; ++p) {
    const PopulationOutcome& pop = result.populations[p];
    if (!pop.finished) continue;
    if (result.winner < 0 ||
        pop.heldout_loss <
            result.populations[static_cast<std::size_t>(result.winner)]
                .heldout_loss) {
      result.winner = static_cast<int>(p);
    }
  }
  if (result.winner >= 0) {
    result.winner_theta =
        result.populations[static_cast<std::size_t>(result.winner)].theta;
  }
  return result;
}

}  // namespace bgqhf::hf::ltfb

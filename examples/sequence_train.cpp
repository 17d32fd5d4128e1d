// Sequence-criterion training (the paper's second Table-I row).
//
// Trains the same synthetic task twice — frame-level cross-entropy and the
// utterance-level sequence criterion — and reports both trajectories. The
// sequence criterion needs a forward-backward sweep per utterance, which
// is exactly the extra per-frame cost that makes its BG/Q speedup lower in
// Table I.
//
// Usage: sequence_train [workers=2] [hours=0.004] [iters=4]
#include <cstdio>

#include "hf/trainer.h"
#include "util/config.h"
#include "util/table.h"
#include "util/timer.h"

namespace {

bgqhf::hf::TrainerConfig base_config(const bgqhf::util::Config& cfg) {
  bgqhf::hf::TrainerConfig trainer;
  trainer.workers = static_cast<int>(cfg.get_int("workers", 2));
  trainer.corpus.hours = cfg.get_double("hours", 0.008);
  trainer.corpus.feature_dim = 10;
  trainer.corpus.num_states = 5;
  trainer.corpus.state_dwell_frames = 6.0;
  trainer.corpus.mean_utt_seconds = 1.5;
  trainer.corpus.seed = 99;
  trainer.heldout_every_kth = 4;
  trainer.context = 1;
  trainer.hidden = {20};
  trainer.hf.max_iterations =
      static_cast<std::size_t>(cfg.get_int("iters", 4));
  trainer.hf.hyper.cg_max_iters = 20;
  return trainer;
}

int run(int argc, char** argv) {
  using namespace bgqhf;

  const util::Config cfg = util::Config::from_args(argc, argv);
  hf::TrainerConfig ce_config = base_config(cfg);
  for (const auto& key : cfg.unused_keys()) {
    std::fprintf(stderr, "unknown flag: %s\n", key.c_str());
    return 1;
  }

  hf::TrainerConfig seq_config = ce_config;
  seq_config.criterion = hf::Criterion::kSequence;

  util::Timer ce_timer;
  const hf::TrainOutcome ce = hf::train_distributed(ce_config);
  const double ce_seconds = ce_timer.seconds();
  util::Timer seq_timer;
  const hf::TrainOutcome seq = hf::train_distributed(seq_config);
  const double seq_seconds = seq_timer.seconds();

  util::Table table({"iter", "CE criterion loss", "sequence criterion loss"});
  const std::size_t n = std::min(ce.hf.iterations.size(),
                                 seq.hf.iterations.size());
  for (std::size_t i = 0; i < n; ++i) {
    table.add_row({std::to_string(i + 1),
                   util::Table::fmt(ce.hf.iterations[i].heldout_after, 4),
                   util::Table::fmt(seq.hf.iterations[i].heldout_after, 4)});
  }
  std::printf("%s", table.render().c_str());

  std::printf(
      "\nfinal held-out: CE %.4f (acc %.1f%%, %.2fs)  sequence %.4f "
      "(acc %.1f%%, %.2fs)\n"
      "sequence training cost %.1fx the wall time of cross-entropy on the "
      "same data\n(the paper's Table I shows the same asymmetry at scale)\n",
      ce.hf.final_heldout_loss, 100.0 * ce.hf.final_heldout_accuracy,
      ce_seconds, seq.hf.final_heldout_loss,
      100.0 * seq.hf.final_heldout_accuracy, seq_seconds,
      seq_seconds / ce_seconds);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // A malformed or unknown BGQHF_* knob ends the run with one line naming
  // it, not an uncaught-exception abort.
  try {
    return run(argc, argv);
  } catch (const bgqhf::util::ConfigError& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 1;
  }
}

// Quickstart: train a small DNN with Hessian-free optimization, serially,
// using the library's low-level pieces directly.
//
// This walks the same path the paper's system takes — synthesize a corpus,
// normalize + stack features, build an MLP, run Algorithm 1 — but in one
// process and a few seconds. See speech_train.cpp for the distributed
// master/worker version of the same flow.
//
// Usage: quickstart [hours=0.01] [hidden=32] [iters=8] [verbose]
#include <cstdio>
#include <memory>

#include "hf/serial_compute.h"
#include "hf/speech_workload.h"
#include "hf/trainer.h"
#include "util/config.h"
#include "util/logging.h"
#include "util/table.h"

namespace {

int run(int argc, char** argv) {
  using namespace bgqhf;

  const util::Config cfg = util::Config::from_args(argc, argv);

  hf::TrainerConfig trainer;
  trainer.workers = 1;  // quickstart is serial: one shard
  trainer.corpus.hours = cfg.get_double("hours", 0.01);
  trainer.corpus.feature_dim = 16;
  trainer.corpus.num_states = 6;
  trainer.corpus.seed = 42;
  trainer.context = 2;
  trainer.hidden = {static_cast<std::size_t>(cfg.get_int("hidden", 32))};
  trainer.hf.max_iterations =
      static_cast<std::size_t>(cfg.get_int("iters", 8));
  trainer.hf.hyper.cg_max_iters = 30;
  trainer.hf.verbose = cfg.get_bool("verbose", false);
  if (trainer.hf.verbose) util::set_log_level(util::LogLevel::kInfo);

  for (const auto& key : cfg.unused_keys()) {
    std::fprintf(stderr, "unknown flag: %s\n", key.c_str());
    return 1;
  }

  std::printf("Synthesizing %.3f h of speech-like data and training a "
              "%zu-hidden-unit DNN with Hessian-free optimization...\n",
              trainer.corpus.hours, trainer.hidden[0]);

  const hf::TrainOutcome outcome = hf::train_serial(trainer);

  util::Table table({"iter", "train CE", "held-out CE", "CG iters", "lambda",
                     "alpha"});
  for (const auto& it : outcome.hf.iterations) {
    table.add_row({std::to_string(it.iteration),
                   util::Table::fmt(it.train_loss, 4),
                   util::Table::fmt(it.heldout_after, 4),
                   std::to_string(it.cg_iterations),
                   util::Table::fmt(it.lambda, 3),
                   util::Table::fmt(it.alpha, 3)});
  }
  std::printf("%s", table.render().c_str());
  std::printf(
      "\nFinal held-out cross-entropy: %.4f  frame accuracy: %.1f%%  "
      "(%zu parameters, %.2f s)\n",
      outcome.hf.final_heldout_loss,
      100.0 * outcome.hf.final_heldout_accuracy, outcome.num_params,
      outcome.seconds);
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

// End-to-end recognition: train a DNN with distributed HF, then decode
// held-out utterances with Viterbi over the transition model and report
// the state error rate — the library's proxy for the paper's word error
// rate ("best WER for both cross-entropy and sequence training", Sec.
// VIII).
//
// Usage: recognize [workers=2] [hours=0.01] [iters=6]
#include <cstdio>

#include "hf/trainer.h"
#include "nn/sequence.h"
#include "speech/dataset.h"
#include "util/config.h"
#include "util/table.h"

namespace {

int run(int argc, char** argv) {
  using namespace bgqhf;

  const util::Config cfg = util::Config::from_args(argc, argv);

  hf::TrainerConfig trainer;
  trainer.workers = static_cast<int>(cfg.get_int("workers", 2));
  trainer.corpus.hours = cfg.get_double("hours", 0.01);
  trainer.corpus.feature_dim = 12;
  trainer.corpus.num_states = 5;
  trainer.corpus.mean_utt_seconds = 1.5;
  trainer.corpus.seed = 23;
  trainer.context = 2;
  trainer.hidden = {24};
  trainer.heldout_every_kth = 4;
  trainer.hf.max_iterations =
      static_cast<std::size_t>(cfg.get_int("iters", 6));
  trainer.hf.hyper.cg_max_iters = 25;
  for (const auto& key : cfg.unused_keys()) {
    std::fprintf(stderr, "unknown flag: %s\n", key.c_str());
    return 1;
  }

  std::printf("Training with distributed HF (%d workers)...\n",
              trainer.workers);
  const hf::TrainOutcome out = hf::train_distributed(trainer);

  // Rebuild the evaluation data exactly as the trainer did and install the
  // trained weights into a fresh network.
  hf::Shards shards = hf::build_shards(trainer);
  shards.net.set_params(out.theta);
  const nn::TransitionModel transitions = nn::TransitionModel::left_to_right(
      shards.num_states, shards.advance_prob);

  std::size_t frames = 0, frame_errors_raw = 0;
  double ser_sum = 0.0;
  std::size_t utts = 0;
  for (const auto& shard : shards.heldout) {
    for (std::size_t u = 0; u < shard.num_utterances(); ++u) {
      const blas::Matrix<float> logits =
          shards.net.forward_logits(shard.utt_x(u));
      const auto labels = shard.utt_labels(u);
      // Raw framewise argmax (no decoder).
      for (std::size_t t = 0; t < logits.rows(); ++t) {
        std::size_t argmax = 0;
        for (std::size_t s = 1; s < logits.cols(); ++s) {
          if (logits(t, s) > logits(t, argmax)) argmax = s;
        }
        if (static_cast<int>(argmax) != labels[t]) ++frame_errors_raw;
      }
      frames += logits.rows();
      // Viterbi decode with the transition model.
      const std::vector<int> hyp =
          nn::viterbi_decode(logits.view(), transitions);
      ser_sum += nn::state_error_rate(labels, hyp) *
                 static_cast<double>(labels.size());
      ++utts;
    }
  }

  util::Table table({"metric", "value"});
  table.add_row({"held-out cross-entropy",
                 util::Table::fmt(out.hf.final_heldout_loss, 4)});
  table.add_row({"framewise error rate (argmax)",
                 util::Table::fmt(100.0 * frame_errors_raw / frames, 2) +
                     "%"});
  table.add_row({"state error rate (Viterbi)",
                 util::Table::fmt(100.0 * ser_sum / frames, 2) + "%"});
  table.add_row({"held-out utterances", std::to_string(utts)});
  std::printf("%s", table.render().c_str());
  std::printf(
      "\nThe Viterbi decoder's transition model repairs frame-level "
      "confusions,\nso the decoded state error rate is at or below the raw "
      "framewise rate.\n");
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

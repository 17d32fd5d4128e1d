#include "hf/sgd.h"

#include <gtest/gtest.h>

#include "hf/trainer.h"

namespace bgqhf::hf {
namespace {

struct SgdSetup {
  nn::Network net;
  speech::Dataset train;
  speech::Dataset heldout;
};

SgdSetup make_setup(std::uint64_t seed = 51) {
  TrainerConfig cfg;
  cfg.workers = 1;
  cfg.corpus.hours = 0.004;
  cfg.corpus.feature_dim = 8;
  cfg.corpus.num_states = 4;
  cfg.corpus.mean_utt_seconds = 1.0;
  cfg.corpus.seed = seed;
  cfg.context = 1;
  cfg.hidden = {12};
  cfg.heldout_every_kth = 4;
  Shards shards = build_shards(cfg);
  return SgdSetup{std::move(shards.net),
                  speech::concat_datasets(shards.train),
                  speech::concat_datasets(shards.heldout)};
}

TEST(Sgd, ReducesHeldoutLoss) {
  SgdSetup s = make_setup();
  SgdOptions opts;
  opts.epochs = 5;
  opts.batch_frames = 128;
  const SgdResult result = train_sgd(s.net, s.train, s.heldout, opts);
  ASSERT_EQ(result.epochs.size(), 5u);
  EXPECT_LT(result.final_heldout_loss, 0.7 * result.epochs[0].heldout_loss +
                                           0.3);
  EXPECT_LT(result.epochs.back().heldout_loss,
            result.epochs.front().heldout_loss);
}

TEST(Sgd, ReachesUsableAccuracy) {
  SgdSetup s = make_setup();
  SgdOptions opts;
  opts.epochs = 8;
  const SgdResult result = train_sgd(s.net, s.train, s.heldout, opts);
  EXPECT_GT(result.final_heldout_accuracy, 0.6);
}

TEST(Sgd, DeterministicInSeed) {
  SgdSetup a = make_setup();
  SgdSetup b = make_setup();
  SgdOptions opts;
  opts.epochs = 3;
  const SgdResult ra = train_sgd(a.net, a.train, a.heldout, opts);
  const SgdResult rb = train_sgd(b.net, b.train, b.heldout, opts);
  EXPECT_EQ(ra.final_heldout_loss, rb.final_heldout_loss);
  for (std::size_t i = 0; i < a.net.num_params(); ++i) {
    ASSERT_EQ(a.net.params()[i], b.net.params()[i]);
  }
}

TEST(Sgd, DifferentShuffleSeedChangesTrajectory) {
  SgdSetup a = make_setup();
  SgdSetup b = make_setup();
  SgdOptions o1, o2;
  o1.epochs = o2.epochs = 2;
  o2.seed = o1.seed + 1;
  const SgdResult ra = train_sgd(a.net, a.train, a.heldout, o1);
  const SgdResult rb = train_sgd(b.net, b.train, b.heldout, o2);
  EXPECT_NE(ra.epochs[0].train_loss, rb.epochs[0].train_loss);
}

TEST(Sgd, UpdateCountMatchesSchedule) {
  SgdSetup s = make_setup();
  SgdOptions opts;
  opts.epochs = 3;
  opts.batch_frames = 100;
  const SgdResult result = train_sgd(s.net, s.train, s.heldout, opts);
  const std::size_t frames = s.train.num_frames();
  const std::size_t batches_per_epoch = (frames + 99) / 100;
  EXPECT_EQ(result.updates, 3 * batches_per_epoch);
}

TEST(Sgd, LearningRateDecaysAcrossEpochs) {
  SgdSetup s = make_setup();
  SgdOptions opts;
  opts.epochs = 3;
  opts.learning_rate = 0.2;
  opts.lr_decay = 0.5;
  const SgdResult result = train_sgd(s.net, s.train, s.heldout, opts);
  EXPECT_DOUBLE_EQ(result.epochs[0].learning_rate, 0.2);
  EXPECT_DOUBLE_EQ(result.epochs[1].learning_rate, 0.1);
  EXPECT_DOUBLE_EQ(result.epochs[2].learning_rate, 0.05);
}

TEST(Sgd, InvalidArgumentsThrow) {
  SgdSetup s = make_setup();
  SgdOptions opts;
  opts.batch_frames = 0;
  EXPECT_THROW(train_sgd(s.net, s.train, s.heldout, opts),
               std::invalid_argument);
  speech::Dataset empty;
  SgdOptions ok;
  EXPECT_THROW(train_sgd(s.net, empty, s.heldout, ok),
               std::invalid_argument);
}

TEST(Sgd, TrainLossImprovesOverEpochs) {
  SgdSetup s = make_setup();
  SgdOptions opts;
  opts.epochs = 6;
  const SgdResult result = train_sgd(s.net, s.train, s.heldout, opts);
  EXPECT_LT(result.epochs.back().train_loss,
            result.epochs.front().train_loss);
}

}  // namespace
}  // namespace bgqhf::hf

#include "hf/pretrain.h"

#include <gtest/gtest.h>

#include "hf/serial_compute.h"
#include "hf/trainer.h"
#include "nn/loss.h"

namespace bgqhf::hf {
namespace {

struct Data {
  speech::Dataset train;
  speech::Dataset heldout;
  std::size_t input_dim;
  std::size_t states;
};

Data make_data(std::uint64_t seed = 111) {
  TrainerConfig cfg;
  cfg.workers = 1;
  cfg.corpus.hours = 0.006;
  cfg.corpus.feature_dim = 10;
  cfg.corpus.num_states = 5;
  cfg.corpus.mean_utt_seconds = 1.0;
  cfg.corpus.seed = seed;
  cfg.context = 1;
  cfg.heldout_every_kth = 4;
  Shards shards = build_shards(cfg);
  return Data{speech::concat_datasets(shards.train),
              speech::concat_datasets(shards.heldout),
              speech::stacked_dim(10, 1), 5};
}

double heldout_ce(const nn::Network& net, const speech::Dataset& ds) {
  const blas::Matrix<float> logits = net.forward_logits(ds.x.view());
  return nn::softmax_xent(logits.view(), ds.labels).mean_loss();
}

TEST(Pretrain, ProducesFullDepthNetwork) {
  const Data data = make_data();
  const PretrainResult result = pretrain_layerwise(
      data.input_dim, {16, 12, 8}, data.states, data.train, data.heldout);
  EXPECT_EQ(result.net.num_layers(), 4u);  // 3 hidden + output
  EXPECT_EQ(result.net.input_dim(), data.input_dim);
  EXPECT_EQ(result.net.output_dim(), data.states);
  EXPECT_EQ(result.stage_heldout_loss.size(), 3u);
}

TEST(Pretrain, BeatsRandomInitOnDeepStack) {
  const Data data = make_data();
  const std::vector<std::size_t> hidden{16, 12, 8};
  const PretrainResult pre = pretrain_layerwise(
      data.input_dim, hidden, data.states, data.train, data.heldout);

  nn::Network random_net =
      nn::Network::mlp(data.input_dim, hidden, data.states);
  util::Rng rng(42);
  random_net.init_glorot(rng);

  EXPECT_LT(heldout_ce(pre.net, data.heldout),
            0.8 * heldout_ce(random_net, data.heldout));
}

TEST(Pretrain, StagesGenerallyImprove) {
  const Data data = make_data();
  const PretrainResult result = pretrain_layerwise(
      data.input_dim, {16, 12}, data.states, data.train, data.heldout);
  // Each stage's final held-out loss should stay in trained (not random)
  // territory: well below log(5) ~ 1.61.
  for (const double loss : result.stage_heldout_loss) {
    EXPECT_LT(loss, 1.2);
  }
}

TEST(Pretrain, DeterministicInSeeds) {
  const Data d1 = make_data();
  const Data d2 = make_data();
  const PretrainResult a = pretrain_layerwise(d1.input_dim, {12, 8},
                                              d1.states, d1.train,
                                              d1.heldout);
  const PretrainResult b = pretrain_layerwise(d2.input_dim, {12, 8},
                                              d2.states, d2.train,
                                              d2.heldout);
  ASSERT_EQ(a.net.num_params(), b.net.num_params());
  for (std::size_t i = 0; i < a.net.num_params(); ++i) {
    ASSERT_EQ(a.net.params()[i], b.net.params()[i]);
  }
}

TEST(Pretrain, EmptyHiddenStackRejected) {
  const Data data = make_data();
  EXPECT_THROW(pretrain_layerwise(data.input_dim, {}, data.states,
                                  data.train, data.heldout),
               std::invalid_argument);
}

TEST(Pretrain, PretrainedInitAcceleratesHf) {
  // The workflow the paper's group used in practice: pretrain layer-wise,
  // then run HF from that initialization.
  TrainerConfig cfg;
  cfg.workers = 1;
  cfg.corpus.hours = 0.006;
  cfg.corpus.feature_dim = 10;
  cfg.corpus.num_states = 5;
  cfg.corpus.mean_utt_seconds = 1.0;
  cfg.corpus.seed = 111;
  cfg.context = 1;
  cfg.hidden = {16, 12};
  cfg.heldout_every_kth = 4;
  cfg.hf.max_iterations = 3;
  cfg.hf.hyper.cg_max_iters = 15;

  const Data data = make_data();
  const PretrainResult pre = pretrain_layerwise(
      data.input_dim, cfg.hidden, data.states, data.train, data.heldout);

  Shards shards = build_shards(cfg);
  std::vector<std::unique_ptr<Workload>> wl;
  wl.push_back(std::make_unique<SpeechWorkload>(
      shards.net, speech::concat_datasets(shards.train),
      speech::concat_datasets(shards.heldout), 0,
      make_workload_options(cfg, shards.num_states, shards.advance_prob,
                            nullptr)));
  SerialCompute compute(std::move(wl));

  std::vector<float> theta(pre.net.params().begin(),
                           pre.net.params().end());
  HfOptimizer optimizer(cfg.hf);
  const HfResult result = optimizer.run(compute, theta);
  // Starting from a pretrained net, even the *initial* held-out loss is in
  // trained territory and HF refines from there.
  EXPECT_LT(result.iterations.front().heldout_before, 1.2);
  EXPECT_LE(result.final_heldout_loss,
            result.iterations.front().heldout_before);
}

}  // namespace
}  // namespace bgqhf::hf

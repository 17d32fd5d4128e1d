// Full-pipeline integration test: the life of a production training run.
//
//   synthesize corpus into a sharded store -> stream it back -> RBM
//   pretraining -> distributed HF fine-tuning -> checkpoint -> reload
//   checkpoint -> Viterbi decoding on held-out data
//
// Every boundary crossed here is a real module boundary; the test asserts
// end-to-end properties (losses drop, decode quality beats chance, the
// checkpoint round-trips the exact model) rather than re-testing units.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>

#include "hf/serial_compute.h"
#include "hf/sgd.h"
#include "hf/trainer.h"
#include "nn/rbm.h"
#include "nn/sequence.h"
#include "nn/serialize.h"
#include "speech/dataset.h"
#include "speech/source.h"
#include "speech/store/writer.h"

namespace bgqhf {
namespace {

class PipelineTest : public ::testing::Test {
 protected:
  std::string store_dir_ = ::testing::TempDir() + "bgqhf_pipe_store";
  std::string model_path_ = ::testing::TempDir() + "bgqhf_pipe_model.bin";
  void TearDown() override {
    std::filesystem::remove_all(store_dir_);
    std::remove(model_path_.c_str());
  }
};

TEST_F(PipelineTest, EndToEnd) {
  // ---- 1. synthesize and stage the corpus ----
  speech::CorpusSpec spec;
  spec.hours = 0.01;
  spec.feature_dim = 10;
  spec.num_states = 5;
  spec.mean_utt_seconds = 1.5;
  spec.seed = 161;
  std::filesystem::remove_all(store_dir_);
  speech::store::generate_sharded_corpus(spec, store_dir_);
  speech::SourceOptions sopts;
  sopts.heldout_every_kth = 4;
  const speech::SourceSplit split =
      speech::open_sharded_split(store_dir_, sopts);
  ASSERT_EQ(split.train->total_frames() + split.heldout->total_frames(),
            speech::generate_corpus(spec).total_frames());

  // ---- 2. normalize, build datasets ----
  const speech::Normalizer norm = speech::estimate_normalizer(*split.train);
  const std::size_t context = 1;
  const speech::Dataset train =
      speech::build_full_dataset(*split.train, &norm, context);
  const speech::Dataset held =
      speech::build_full_dataset(*split.heldout, &norm, context);
  ASSERT_GT(train.num_frames(), 0u);
  ASSERT_GT(held.num_frames(), 0u);

  // ---- 3. RBM pretraining of the hidden stack ----
  const std::vector<std::size_t> hidden{16, 12};
  nn::RbmOptions rbm_options;
  rbm_options.epochs = 3;
  rbm_options.gaussian_visible = true;
  nn::Network net = nn::rbm_pretrain_network(train.x.view(), hidden,
                                             spec.num_states, rbm_options);

  // ---- 4. HF fine-tuning from the pretrained init ----
  hf::TrainerConfig cfg;
  cfg.workers = 1;
  cfg.corpus = spec;
  cfg.context = context;
  cfg.hidden = hidden;
  cfg.heldout_every_kth = 4;
  cfg.hf.max_iterations = 6;
  cfg.hf.hyper.cg_max_iters = 25;

  hf::SpeechWorkloadOptions wl_opts;
  wl_opts.curvature_fraction = 0.1;
  std::vector<std::unique_ptr<hf::Workload>> workloads;
  workloads.push_back(std::make_unique<hf::SpeechWorkload>(
      net, train, held, 0, wl_opts));
  hf::SerialCompute compute(std::move(workloads));

  std::vector<float> theta(net.params().begin(), net.params().end());
  hf::HfOptimizer optimizer(cfg.hf);
  const hf::HfResult hf_result = optimizer.run(compute, theta);
  EXPECT_LT(hf_result.final_heldout_loss,
            hf_result.iterations.front().heldout_before);
  EXPECT_GT(hf_result.final_heldout_accuracy, 0.6);

  // ---- 5. checkpoint and reload ----
  net.set_params(theta);
  nn::save_network(net, model_path_);
  const nn::Network restored = nn::load_network(model_path_);
  for (std::size_t i = 0; i < net.num_params(); ++i) {
    ASSERT_EQ(restored.params()[i], net.params()[i]);
  }

  // ---- 6. decode held-out utterances with the restored model ----
  const nn::TransitionModel transitions =
      nn::TransitionModel::left_to_right(spec.num_states,
                                         1.0 / spec.state_dwell_frames);
  double errors = 0.0;
  std::size_t frames = 0;
  for (std::size_t u = 0; u < held.num_utterances(); ++u) {
    const blas::Matrix<float> logits =
        restored.forward_logits(held.utt_x(u));
    const std::vector<int> hyp =
        nn::viterbi_decode(logits.view(), transitions);
    errors += nn::state_error_rate(held.utt_labels(u), hyp) *
              static_cast<double>(hyp.size());
    frames += hyp.size();
  }
  ASSERT_GT(frames, 0u);
  // Chance is ~80% error with 5 states; the trained + decoded system must
  // be far better.
  EXPECT_LT(errors / frames, 0.3);
}

TEST_F(PipelineTest, WeightDecayShrinksParameterNorm) {
  speech::CorpusSpec spec;
  spec.hours = 0.004;
  spec.feature_dim = 8;
  spec.num_states = 4;
  spec.mean_utt_seconds = 1.0;
  spec.seed = 171;
  speech::SourceOptions sopts;
  sopts.heldout_every_kth = 4;
  const speech::SourceSplit split =
      speech::make_in_memory_split(speech::generate_corpus(spec), sopts);
  const speech::Normalizer norm = speech::estimate_normalizer(*split.train);
  const speech::Dataset train =
      speech::build_full_dataset(*split.train, &norm, 1);
  const speech::Dataset held =
      speech::build_full_dataset(*split.heldout, &norm, 1);

  auto train_with_decay = [&](double wd) {
    nn::Network net = nn::Network::mlp(train.x.cols(), {12}, 4);
    util::Rng rng(5);
    net.init_glorot(rng);
    hf::SgdOptions opts;
    opts.epochs = 6;
    opts.weight_decay = wd;
    hf::train_sgd(net, train, held, opts);
    double norm2 = 0.0;
    for (const float p : net.params()) norm2 += double(p) * p;
    return std::sqrt(norm2);
  };
  EXPECT_LT(train_with_decay(0.01), train_with_decay(0.0));
}

}  // namespace
}  // namespace bgqhf

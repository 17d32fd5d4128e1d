#include "micro.h"

#include <cmath>
#include <vector>

#include "nn/backprop.h"
#include "nn/gaussnewton.h"
#include "nn/loss.h"
#include "serve/model_runtime.h"
#include "util/rng.h"

namespace perfbench {

namespace {

template <typename F>
double median_ms(F&& call) {
  constexpr int kReps = 9;
  call();  // warm-up: scratch growth, first-touch pages
  std::vector<double> ms;
  for (int i = 0; i < kReps; ++i) {
    const double t0 = now_s();
    call();
    ms.push_back((now_s() - t0) * 1e3);
  }
  return median(ms);
}

}  // namespace

MicroShape shape_of(const bgqhf::speech::Dataset& shard,
                    std::size_t batch_frames) {
  MicroShape s;
  s.x = shard.x.view();
  s.labels = shard.labels;
  s.batch_frames = batch_frames;
  const double mean = static_cast<double>(shard.num_frames()) /
                      static_cast<double>(shard.num_utterances());
  std::size_t best = 0;
  for (std::size_t u = 1; u < shard.num_utterances(); ++u) {
    const auto d = [&](std::size_t v) {
      return std::fabs(static_cast<double>(shard.utt_frames(v)) - mean);
    };
    if (d(u) < d(best)) best = u;
  }
  s.utterance = shard.utt_x(best);
  return s;
}

MicroTimes time_micro_calls(const bgqhf::nn::Network& net,
                            const MicroShape& shape) {
  namespace nn = bgqhf::nn;
  MicroTimes t;
  const auto batch = shape.x.block(0, 0, shape.batch_frames, shape.x.cols);
  const auto labels = shape.labels.first(shape.batch_frames);
  std::vector<float> grad(net.num_params());

  t.forward_ms = median_ms([&] { (void)net.forward(batch); });
  t.gradient_ms = median_ms([&] {
    const nn::ForwardCache cache = net.forward(batch);
    bgqhf::blas::Matrix<float> delta(batch.rows, net.output_dim());
    bgqhf::blas::MatrixView<float> dv = delta.view();
    (void)nn::softmax_xent(cache.logits(), labels, &dv);
    nn::accumulate_gradient(net, batch, cache, std::move(delta), grad);
  });

  // The curvature sample's activations are cached before CG, so a product
  // reuses them: time the product alone.
  const nn::ForwardCache utt_cache = net.forward(shape.utterance);
  std::vector<float> v(net.num_params()), gv(net.num_params());
  bgqhf::util::Rng rng(7);
  for (float& x : v) x = static_cast<float>(rng.normal());
  t.gn_product_ms = median_ms([&] {
    nn::accumulate_gn_product(net, shape.utterance, utt_cache,
                              nn::CurvatureKind::kSoftmaxCE, v, gv);
  });

  const bgqhf::serve::ModelRuntime runtime(net);
  const auto score_in = shape.x.block(0, 0, shape.score_frames, shape.x.cols);
  bgqhf::blas::Matrix<float> logits(shape.score_frames, net.output_dim());
  nn::ForwardScratch scratch;
  t.score_ms = median_ms(
      [&] { runtime.score(score_in, logits.view(), scratch); });
  return t;
}

void set_micro_metrics(const MicroTimes& t, Result& res) {
  res.set("nn.forward_ms", t.forward_ms, "ms");
  res.set("nn.gradient_ms", t.gradient_ms, "ms");
  res.set("nn.gn_product_ms", t.gn_product_ms, "ms");
  res.set("nn.score_ms", t.score_ms, "ms");
}

void set_idle_serve_metrics(Result& res) {
  for (const char* name : {"serve.p99_ms", "serve.service_ms",
                           "serve.queue_wait_ms", "serve.late_ms"}) {
    res.set(name, 0.0, "ms");
  }
  res.set("serve.goodput_fps", 0.0, "frames/s");
  res.set("serve.mean_batch_frames", 0.0, "frames");
  res.set("serve.batches", 0.0, "count");
  res.set("serve.rejects", 0.0, "count");
}

void set_idle_training_metrics(Result& res) {
  for (const char* name :
       {"speech.build_shards_s", "simmpi.load_data_s", "simmpi.bcast_s",
        "simmpi.reduce_s", "simmpi.p2p_s", "hf.gradient_s",
        "hf.curvature_prepare_s", "hf.curvature_product_s",
        "hf.heldout_loss_s", "hf.set_params_s", "hf.optimizer_self_s",
        "hf.worker.gradient_s", "hf.worker.heldout_loss_s",
        "hf.worker.curvature_product_s", "hf.wait_s", "hf.serial_iter_s"}) {
    res.set(name, 0.0, "s");
  }
  for (const char* name :
       {"speech.train_frames", "simmpi.bcast_calls", "simmpi.reduce_calls",
        "simmpi.p2p_msgs", "hf.gradient_calls", "hf.curvature_prepare_calls",
        "hf.curvature_product_calls", "hf.heldout_loss_calls",
        "hf.set_params_calls", "hf.cg_iters"}) {
    res.set(name, 0.0, "count");
  }
  for (const char* name : {"simmpi.bcast_mb", "simmpi.reduce_mb",
                           "simmpi.p2p_mb"}) {
    res.set(name, 0.0, "MB");
  }
  for (const char* name : {"hf.straggler_ratio", "hf.scaling_eff",
                           "obs.trace_overhead_frac"}) {
    res.set(name, 0.0, "ratio");
  }
}

}  // namespace perfbench

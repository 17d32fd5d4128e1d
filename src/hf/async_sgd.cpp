#include "hf/async_sgd.h"

#include <algorithm>
#include <numeric>

#include "nn/backprop.h"
#include "nn/loss.h"
#include "simmpi/communicator.h"
#include "util/rng.h"
#include "util/timer.h"

namespace bgqhf::hf {

namespace {

// Wire tags of the parameter-server protocol.
constexpr int kTagPush = 200;      // worker -> server: gradient + count
constexpr int kTagPullReq = 201;   // worker -> server: parameter request
constexpr int kTagPullResp = 202;  // server -> worker: parameters
constexpr int kTagDone = 203;      // worker -> server: finished
constexpr int kTagEval = 204;      // worker -> server: heldout stats

nn::BatchLoss local_heldout_loss(const nn::Network& net,
                                 const speech::Dataset& heldout,
                                 std::size_t batch_frames) {
  nn::BatchLoss total;
  const std::size_t frames = heldout.num_frames();
  for (std::size_t begin = 0; begin < frames; begin += batch_frames) {
    const std::size_t count = std::min(batch_frames, frames - begin);
    const auto x = heldout.x.view().block(begin, 0, count, heldout.x.cols());
    const blas::Matrix<float> logits = net.forward_logits(x);
    total += nn::softmax_xent(
        logits.view(),
        std::span<const int>(heldout.labels).subspan(begin, count));
  }
  return total;
}

}  // namespace

AsyncSgdOutcome train_sgd_async(const TrainerConfig& config,
                                const AsyncSgdOptions& options) {
  AsyncSgdOutcome out;
  Shards shards = build_shards(config);
  const std::size_t n = shards.net.num_params();
  const std::size_t dim = shards.train.front().x.cols();
  const SgdOptions& sgd = options.sgd;

  util::Timer total_timer;
  // One worker per shard, so every shard trains; rank 0 serves.
  const int workers = static_cast<int>(shards.train.size());
  simmpi::World world(workers + 1);
  simmpi::run_ranks(world, [&](simmpi::Comm& comm) {
    if (comm.rank() == 0) {
      // ---- parameter server ----
      std::vector<float> params(shards.net.params().begin(),
                                shards.net.params().end());
      std::vector<float> velocity(n, 0.0f);
      int done_workers = 0;
      while (done_workers < workers) {
        // Serve whatever arrives, in arrival order.
        simmpi::Status status;
        const std::vector<float> msg =
            comm.recv<float>(simmpi::kAnySource, simmpi::kAnyTag,
                             simmpi::Deadline::never(), &status);
        switch (status.tag) {
          case kTagPush: {
            // Payload: [grad..., frame_count]. Apply with momentum.
            const float count = std::max(1.0f, msg[n]);
            const float scale =
                static_cast<float>(sgd.learning_rate) / count;
            for (std::size_t i = 0; i < n; ++i) {
              velocity[i] =
                  static_cast<float>(sgd.momentum) * velocity[i] -
                  scale * msg[i];
              params[i] += velocity[i];
            }
            ++out.updates_applied;
            break;
          }
          case kTagPullReq:
            comm.send<float>(params, status.source, kTagPullResp);
            break;
          case kTagDone:
            ++done_workers;
            break;
          default:
            throw std::logic_error("async server: unexpected tag");
        }
      }
      // Final evaluation: push the final params to every worker and fold
      // their held-out stats.
      for (int w = 1; w <= workers; ++w) {
        comm.send<float>(params, w, kTagPullResp);
      }
      nn::BatchLoss total;
      for (int w = 1; w <= workers; ++w) {
        const std::vector<float> stats = comm.recv<float>(w, kTagEval);
        total.loss_sum += stats[0];
        total.frames += static_cast<std::size_t>(stats[1]);
        total.correct += static_cast<std::size_t>(stats[2]);
      }
      out.theta = std::move(params);
      out.final_heldout_loss = total.mean_loss();
      out.final_heldout_accuracy = total.accuracy();
    } else {
      // ---- worker ----
      const auto shard = static_cast<std::size_t>(comm.rank() - 1);
      const speech::Dataset& train = shards.train[shard];
      const speech::Dataset& heldout = shards.heldout[shard];
      nn::Network net = shards.net;
      std::vector<float> push(n + 1);
      std::vector<std::size_t> order(train.num_frames());
      std::iota(order.begin(), order.end(), std::size_t{0});
      util::Rng rng(sgd.seed + 31 * shard);
      blas::Matrix<float> batch_x(sgd.batch_frames, dim);
      std::vector<int> batch_labels(sgd.batch_frames);

      for (std::size_t step = 0; step < options.steps_per_worker; ++step) {
        if (step % options.pull_every == 0) {
          comm.send<float>(std::vector<float>{}, 0, kTagPullReq);
          const std::vector<float> params = comm.recv<float>(0, kTagPullResp);
          net.set_params(params);
        }
        // Random mini-batch from the local shard.
        const std::size_t count =
            std::min<std::size_t>(sgd.batch_frames, train.num_frames());
        if (count == 0) break;
        for (std::size_t i = 0; i < count; ++i) {
          const std::size_t src = rng.below(train.num_frames());
          for (std::size_t c = 0; c < dim; ++c) {
            batch_x(i, c) = train.x(src, c);
          }
          batch_labels[i] = train.labels[src];
        }
        const auto x = batch_x.view().block(0, 0, count, dim);
        const nn::ForwardCache cache = net.forward(x);
        blas::Matrix<float> delta(count, net.output_dim());
        auto dv = delta.view();
        nn::softmax_xent(cache.logits(),
                         std::span<const int>(batch_labels).subspan(0, count),
                         &dv);
        std::fill(push.begin(), push.end(), 0.0f);
        nn::accumulate_gradient(net, x, cache, std::move(delta),
                                std::span<float>(push.data(), n));
        push[n] = static_cast<float>(count);
        comm.send<float>(push, 0, kTagPush);  // fire-and-forget
      }
      comm.send<float>(std::vector<float>{}, 0, kTagDone);
      // Final evaluation on the server's final parameters.
      const std::vector<float> final_params =
          comm.recv<float>(0, kTagPullResp);
      net.set_params(final_params);
      const nn::BatchLoss held =
          local_heldout_loss(net, heldout, sgd.batch_frames);
      comm.send<float>(
          std::vector<float>{static_cast<float>(held.loss_sum),
                             static_cast<float>(held.frames),
                             static_cast<float>(held.correct)},
          0, kTagEval);
    }
  });
  out.comm = world.total_stats();
  out.seconds = total_timer.seconds();
  return out;
}

}  // namespace bgqhf::hf

#include "hf/distributed_sgd.h"

#include <algorithm>
#include <numeric>

#include "hf/aggregate.h"
#include "nn/backprop.h"
#include "nn/loss.h"
#include "simmpi/communicator.h"
#include "simmpi/compress.h"
#include "util/rng.h"
#include "util/timer.h"

namespace bgqhf::hf {

namespace {

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

DistributedSgdOutcome train_sgd_distributed(const TrainerConfig& config,
                                            const SgdOptions& options) {
  DistributedSgdOutcome out;
  Shards shards = build_shards(config);
  const std::size_t n = shards.net.num_params();
  const std::size_t dim = shards.train.front().x.cols();

  // Every rank runs the same number of steps per epoch; ranks whose shard
  // is exhausted contribute empty slices (their local gradient is zero).
  std::size_t max_frames = 0;
  for (const auto& shard : shards.train) {
    max_frames = std::max(max_frames, shard.num_frames());
  }
  const std::size_t steps_per_epoch =
      (max_frames + options.batch_frames - 1) / options.batch_frames;

  util::Timer total_timer;
  // One rank per shard, so every shard trains.
  const std::size_t ranks = shards.train.size();
  simmpi::World world(static_cast<int>(ranks));

  simmpi::run_ranks(world, [&](simmpi::Comm& comm) {
    const auto rank = static_cast<std::size_t>(comm.rank());
    const speech::Dataset& train = shards.train[rank];
    const speech::Dataset& heldout = shards.heldout[rank];

    nn::Network net = shards.net;  // identical init on all ranks
    std::vector<float> velocity(n, 0.0f);
    std::vector<float> grad(n);
    // Compressed data-parallel SGD: each rank accumulates its batch
    // gradient on top of a persistent error-feedback carrier and the
    // allreduce ships blobs; `grad` then receives the decoded global sum
    // (identical on every rank — single source of truth).
    const bool comp = config.aggregation.compress.active();
    std::vector<float> carrier;
    simmpi::CompressState cstate;
    if (comp) carrier.assign(n, 0.0f);
    std::vector<std::size_t> order(train.num_frames());
    std::iota(order.begin(), order.end(), std::size_t{0});
    util::Rng rng(options.seed + 1000 * rank);

    blas::Matrix<float> batch_x(options.batch_frames, dim);
    std::vector<int> batch_labels(options.batch_frames);
    double lr = options.learning_rate;

    SgdResult local;
    for (std::size_t epoch = 1; epoch <= options.epochs; ++epoch) {
      for (std::size_t i = order.size(); i > 1; --i) {
        std::swap(order[i - 1], order[rng.below(i)]);
      }
      double loss_sum = 0.0;
      std::size_t loss_frames = 0;
      for (std::size_t step = 0; step < steps_per_epoch; ++step) {
        const std::size_t begin = step * options.batch_frames;
        const std::size_t count =
            begin < order.size()
                ? std::min(options.batch_frames, order.size() - begin)
                : 0;
        std::span<float> accum = comp ? std::span<float>(carrier)
                                      : std::span<float>(grad);
        if (!comp) std::fill(grad.begin(), grad.end(), 0.0f);
        if (count > 0) {
          for (std::size_t i = 0; i < count; ++i) {
            const std::size_t src = order[begin + i];
            for (std::size_t c = 0; c < dim; ++c) {
              batch_x(i, c) = train.x(src, c);
            }
            batch_labels[i] = train.labels[src];
          }
          const auto x = batch_x.view().block(0, 0, count, dim);
          const nn::ForwardCache cache = net.forward(x);
          blas::Matrix<float> delta(count, net.output_dim());
          auto dv = delta.view();
          const nn::BatchLoss loss = nn::softmax_xent(
              cache.logits(),
              std::span<const int>(batch_labels).subspan(0, count), &dv);
          loss_sum += loss.loss_sum;
          loss_frames += loss.frames;
          nn::accumulate_gradient(net, x, cache, std::move(delta), accum);
        }
        // The parallel-SGD tax: a full-parameter allreduce per update.
        std::vector<float> frame_count{static_cast<float>(count)};
        if (comp) {
          simmpi::compressed_allreduce_sum(comm, carrier, grad,
                                           config.aggregation.compress,
                                           cstate);
        } else {
          comm.allreduce_sum(grad);
        }
        comm.allreduce_sum(frame_count);
        const float global_count = std::max(1.0f, frame_count[0]);
        const float scale = static_cast<float>(lr) / global_count;
        const float wd = static_cast<float>(lr * options.weight_decay);
        auto params = net.params();
        for (std::size_t i = 0; i < n; ++i) {
          velocity[i] = static_cast<float>(options.momentum) * velocity[i] -
                        scale * grad[i] - wd * params[i];
          params[i] += velocity[i];
        }
        ++local.updates;
      }

      // Epoch bookkeeping: global train/held-out losses via allreduce.
      const nn::BatchLoss held =
          local_heldout_loss(net, heldout, options.batch_frames);
      std::vector<double> stats{loss_sum, static_cast<double>(loss_frames),
                                held.loss_sum,
                                static_cast<double>(held.frames),
                                static_cast<double>(held.correct)};
      comm.allreduce_sum(stats);
      SgdEpochLog log;
      log.epoch = epoch;
      log.train_loss = stats[0] / std::max(1.0, stats[1]);
      log.heldout_loss = stats[2] / std::max(1.0, stats[3]);
      log.heldout_accuracy = stats[4] / std::max(1.0, stats[3]);
      log.learning_rate = lr;
      local.epochs.push_back(log);
      lr *= options.lr_decay;
    }

    if (comm.rank() == 0) {
      local.final_heldout_loss = local.epochs.back().heldout_loss;
      local.final_heldout_accuracy = local.epochs.back().heldout_accuracy;
      out.sgd = std::move(local);
      out.theta.assign(net.params().begin(), net.params().end());
    }
  });

  out.comm = world.total_stats();
  out.seconds = total_timer.seconds();
  out.effective_batch_frames = options.batch_frames * ranks;
  return out;
}

}  // namespace bgqhf::hf

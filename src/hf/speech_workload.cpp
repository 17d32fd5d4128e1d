#include "hf/speech_workload.h"

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <string>

#include "hf/aggregate.h"
#include "nn/backprop.h"
#include "nn/loss.h"

namespace bgqhf::hf {

SpeechWorkload::SpeechWorkload(nn::Network net, speech::Dataset train,
                               speech::Dataset heldout, std::size_t shard_id,
                               SpeechWorkloadOptions options)
    : net_(std::move(net)),
      train_(std::move(train)),
      heldout_(std::move(heldout)),
      shard_id_(shard_id),
      options_(std::move(options)) {
  if (options_.criterion == Criterion::kSequence &&
      options_.transitions.num_states != net_.output_dim()) {
    throw std::invalid_argument(
        "SpeechWorkload: transition model does not match output dim");
  }
  set_curvature_fraction(options_.curvature_fraction);
}

void SpeechWorkload::set_curvature_fraction(double fraction) {
  // Also rejects NaN, which would reach an undefined float-to-size_t cast.
  if (!(fraction > 0.0 && fraction <= 1.0)) {
    throw std::invalid_argument(
        "SpeechWorkload: curvature_fraction must be in (0, 1], got " +
        std::to_string(fraction));
  }
  options_.curvature_fraction = fraction;
}

void SpeechWorkload::set_params(std::span<const float> theta) {
  net_.set_params(theta);
  ++params_version_;
}

std::vector<std::size_t> SpeechWorkload::segment_bounds() const {
  return layer_segment_bounds(net_);
}

nn::BatchLoss SpeechWorkload::gradient(std::span<float> grad_accum) {
  return gradient_impl(grad_accum, {});
}

nn::BatchLoss SpeechWorkload::gradient_with_squares(
    std::span<float> grad_accum, std::span<float> grad_sq_accum) {
  if (grad_sq_accum.size() != net_.num_params()) {
    throw std::invalid_argument(
        "gradient_with_squares: squares accumulator size mismatch");
  }
  return gradient_impl(grad_accum, grad_sq_accum);
}

nn::BatchLoss SpeechWorkload::gradient_impl(std::span<float> grad,
                                            std::span<float> grad_sq) {
  if (grad.size() != net_.num_params()) {
    throw std::invalid_argument("gradient: accumulator size mismatch");
  }
  if (!grad_sq.empty()) {
    batch_scratch_.assign(net_.num_params(), 0.0f);
  }
  return options_.criterion == Criterion::kCrossEntropy
             ? gradient_ce(grad, grad_sq)
             : gradient_sequence(grad, grad_sq);
}

void SpeechWorkload::fold_batch(std::span<float> grad,
                                std::span<float> grad_sq) {
  for (std::size_t i = 0; i < grad.size(); ++i) {
    const float g = batch_scratch_[i];
    grad[i] += g;
    grad_sq[i] += g * g;
    batch_scratch_[i] = 0.0f;
  }
}

blas::MatrixView<float> SpeechWorkload::PassBuffers::out_rows(
    std::size_t rows, std::size_t cols) {
  if (out.rows() < rows || out.cols() != cols) {
    out = blas::Matrix<float>(rows, cols);
  }
  return out.view().block(0, 0, rows, cols);
}

nn::BatchLoss SpeechWorkload::gradient_ce(std::span<float> grad,
                                          std::span<float> grad_sq) {
  nn::BatchLoss total;
  const bool squares = !grad_sq.empty();
  PassBuffers buf;
  const std::size_t frames = train_.num_frames();
  for (std::size_t begin = 0; begin < frames;
       begin += options_.batch_frames) {
    const std::size_t count =
        std::min(options_.batch_frames, frames - begin);
    const auto x = train_.x.view().block(begin, 0, count, train_.x.cols());
    net_.forward_into(x, buf.cache, options_.pool);
    auto delta = buf.out_rows(count, net_.output_dim());
    total += nn::softmax_xent(
        buf.cache.logits(),
        std::span<const int>(train_.labels).subspan(begin, count), &delta);
    nn::accumulate_gradient(
        net_, x, buf.cache, delta,
        squares ? std::span<float>(batch_scratch_) : grad, buf.scratch,
        options_.pool);
    if (squares) fold_batch(grad, grad_sq);
  }
  return total;
}

nn::BatchLoss SpeechWorkload::gradient_sequence(std::span<float> grad,
                                                std::span<float> grad_sq) {
  nn::BatchLoss total;
  const bool squares = !grad_sq.empty();
  PassBuffers buf;
  const std::size_t num_utts = train_.num_utterances();
  for (std::size_t u = 0; u < num_utts; ++u) {
    const auto x = train_.utt_x(u);
    net_.forward_into(x, buf.cache, options_.pool);
    auto delta = buf.out_rows(x.rows, net_.output_dim());
    total += nn::sequence_xent(buf.cache.logits(), train_.utt_labels(u),
                               options_.transitions, &delta);
    nn::accumulate_gradient(
        net_, x, buf.cache, delta,
        squares ? std::span<float>(batch_scratch_) : grad, buf.scratch,
        options_.pool);
    if (squares) fold_batch(grad, grad_sq);
  }
  return total;
}

std::vector<SpeechWorkload::RowRange> SpeechWorkload::sample_curvature_rows(
    std::uint64_t seed) const {
  std::vector<RowRange> ranges;
  const std::size_t frames = train_.num_frames();
  if (frames == 0) return ranges;
  // At most `frames`, since the fraction is at most 1.
  const std::size_t budget = std::max<std::size_t>(
      1, static_cast<std::size_t>(options_.curvature_fraction *
                                      static_cast<double>(frames) +
                                  0.5));
  util::Rng rng = util::Rng(seed).fork(shard_id_);
  if (options_.criterion == Criterion::kCrossEntropy) {
    // Frames are independent under CE: sample exactly the budget.
    for (const std::size_t f : rng.sample_without_replacement(frames, budget)) {
      ranges.emplace_back(f, f + 1);
    }
    return ranges;
  }
  // Forward-backward needs whole utterances: take them in seeded random
  // order (a partial Fisher-Yates shuffle) until the budget is met.
  std::vector<std::size_t> order(train_.num_utterances());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::size_t sampled = 0;
  for (std::size_t i = 0; sampled < budget; ++i) {
    std::swap(order[i], order[i + rng.below(order.size() - i)]);
    const std::size_t u = order[i];
    ranges.emplace_back(train_.offsets[u], train_.offsets[u + 1]);
    sampled += train_.utt_frames(u);
  }
  std::sort(ranges.begin(), ranges.end());
  return ranges;
}

SpeechWorkload::CurvatureBatch SpeechWorkload::pack_curvature_block(
    std::span<const RowRange> ranges) const {
  CurvatureBatch batch;
  for (const auto& [begin, end] : ranges) {
    for (std::size_t r = begin; r < end; ++r) batch.rows.push_back(r);
  }
  const std::size_t rows = batch.rows.size();
  const std::size_t cols = train_.x.cols();
  batch.x = blas::Matrix<float>(rows, cols);
  for (std::size_t i = 0; i < rows; ++i) {
    std::copy_n(train_.x.data() + batch.rows[i] * cols, cols,
                batch.x.data() + i * cols);
  }
  batch.cache = net_.forward(batch.x.view(), options_.pool);
  const std::size_t states = net_.output_dim();
  batch.probs = blas::Matrix<float>(rows, states);
  if (options_.criterion == Criterion::kCrossEntropy) {
    nn::softmax_rows(batch.cache.logits(), batch.probs.view());
    return batch;
  }
  std::size_t first = 0;
  for (const auto& [begin, end] : ranges) {
    const std::size_t len = end - begin;
    const nn::SequenceStats stats = nn::forward_backward(
        batch.cache.logits().block(first, 0, len, states),
        options_.transitions);
    std::copy_n(stats.gamma.data(), len * states,
                batch.probs.data() + first * states);
    first += len;
  }
  return batch;
}

void SpeechWorkload::prepare_curvature(std::uint64_t seed) {
  curvature_.clear();
  curvature_frames_ = 0;
  const auto ranges = sample_curvature_rows(seed);
  // Whole ranges, greedily, into blocks of at most batch_frames rows; an
  // utterance longer than that gets a block of its own.
  for (auto first = ranges.begin(); first != ranges.end();) {
    auto last = first;
    std::size_t rows = 0;
    do {
      rows += last->second - last->first;
      ++last;
    } while (last != ranges.end() &&
             rows + (last->second - last->first) <= options_.batch_frames);
    curvature_.push_back(pack_curvature_block({first, last}));
    curvature_frames_ += rows;
    first = last;
  }
  curvature_version_ = params_version_;
}

std::vector<std::span<const std::size_t>> SpeechWorkload::curvature_blocks()
    const {
  std::vector<std::span<const std::size_t>> blocks;
  for (const CurvatureBatch& batch : curvature_) blocks.push_back(batch.rows);
  return blocks;
}

void SpeechWorkload::curvature_product(std::span<const float> v,
                                       std::span<float> out_accum) {
  if (curvature_version_ != params_version_) {
    throw std::logic_error(
        "curvature_product: cached activations are stale; call "
        "prepare_curvature after set_params");
  }
  if (v.size() != net_.num_params() || out_accum.size() != v.size()) {
    throw std::invalid_argument("curvature_product: size mismatch");
  }
  for (const CurvatureBatch& batch : curvature_) {
    nn::accumulate_gn_product_with_distribution(
        net_, batch.x.view(), batch.cache, batch.probs.view(), v, out_accum,
        options_.pool);
  }
}

nn::BatchLoss SpeechWorkload::loss_only(const speech::Dataset& ds) {
  nn::BatchLoss total;
  PassBuffers buf;
  if (options_.criterion == Criterion::kCrossEntropy) {
    const std::size_t frames = ds.num_frames();
    for (std::size_t begin = 0; begin < frames;
         begin += options_.batch_frames) {
      const std::size_t count =
          std::min(options_.batch_frames, frames - begin);
      const auto x = ds.x.view().block(begin, 0, count, ds.x.cols());
      const auto logits = buf.out_rows(count, net_.output_dim());
      net_.forward_logits_into(x, logits, buf.scratch, options_.pool);
      total += nn::softmax_xent(
          logits, std::span<const int>(ds.labels).subspan(begin, count),
          nullptr);
    }
  } else {
    for (std::size_t u = 0; u < ds.num_utterances(); ++u) {
      const auto x = ds.utt_x(u);
      const auto logits = buf.out_rows(x.rows, net_.output_dim());
      net_.forward_logits_into(x, logits, buf.scratch, options_.pool);
      total += nn::sequence_xent(logits, ds.utt_labels(u),
                                 options_.transitions, nullptr);
    }
  }
  return total;
}

nn::BatchLoss SpeechWorkload::heldout_loss() { return loss_only(heldout_); }

}  // namespace bgqhf::hf

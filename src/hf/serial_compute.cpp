#include "hf/serial_compute.h"

#include <algorithm>
#include <stdexcept>

#include "simmpi/collective.h"

namespace bgqhf::hf {

namespace {
std::vector<double> flat_loss(const nn::BatchLoss& loss) {
  return {loss.loss_sum, static_cast<double>(loss.frames),
          static_cast<double>(loss.correct)};
}

nn::BatchLoss unflatten_loss(const std::vector<double>& flat) {
  nn::BatchLoss total;
  total.loss_sum = flat[0];
  total.frames = static_cast<std::size_t>(flat[1]);
  total.correct = static_cast<std::size_t>(flat[2]);
  return total;
}
}  // namespace

SerialCompute::SerialCompute(std::vector<std::unique_ptr<Workload>> shards,
                             AggregationOptions agg)
    : shards_(std::move(shards)), agg_(agg) {
  if (shards_.empty()) {
    throw std::invalid_argument("SerialCompute: needs at least one shard");
  }
  for (const auto& s : shards_) {
    if (s->num_params() != shards_.front()->num_params()) {
      throw std::invalid_argument("SerialCompute: shard param mismatch");
    }
    train_frames_ += s->train_frames();
  }
  const std::size_t n = shards_.front()->num_params();
  scratch_.resize(n);
  if (agg_.compress.active()) {
    bounds_ = shards_.front()->segment_bounds();
    if (bounds_.front() != 0 || bounds_.back() != n) {
      throw std::invalid_argument("SerialCompute: bad segment bounds");
    }
    const std::size_t nseg = bounds_.size() - 1;
    carriers_.assign(shards_.size(), std::vector<float>(n, 0.0f));
    sq_carriers_.assign(shards_.size(), std::vector<float>(n, 0.0f));
    grad_states_.resize(shards_.size());
    sq_states_.resize(shards_.size());
    for (auto& per_slot : grad_states_) per_slot.resize(nseg);
    for (auto& per_slot : sq_states_) per_slot.resize(nseg);
  }
}

void SerialCompute::fold_compressed(
    std::span<float> out, std::vector<std::vector<float>>& carriers,
    std::vector<std::vector<simmpi::CompressState>>& states) {
  for (std::size_t s = 0; s + 1 < bounds_.size(); ++s) {
    const std::size_t off = bounds_[s];
    const std::size_t len = bounds_[s + 1] - off;
    const std::span<float> seg = out.subspan(off, len);
    std::fill(seg.begin(), seg.end(), 0.0f);
    for (std::size_t slot = 0; slot < carriers.size(); ++slot) {
      const simmpi::Payload blob = simmpi::compress(
          std::span<float>(carriers[slot]).subspan(off, len), agg_.compress,
          states[slot][s]);
      simmpi::decode_add({blob.data(), blob.size()}, seg);
    }
  }
}

std::size_t SerialCompute::num_params() const {
  return shards_.front()->num_params();
}

void SerialCompute::set_params(std::span<const float> theta) {
  for (auto& s : shards_) s->set_params(theta);
}

nn::BatchLoss SerialCompute::gradient(std::span<float> grad_out) {
  simmpi::PairwiseFold<double> loss_fold;
  if (agg_.compress.active()) {
    // Compressed mirror: each shard accumulates its fresh gradient on top
    // of its persistent error-feedback carrier, then the blobs fold in the
    // distributed root's rank order.
    for (std::size_t i = 0; i < shards_.size(); ++i) {
      loss_fold.push(flat_loss(shards_[i]->gradient(carriers_[i])));
    }
    fold_compressed(grad_out, carriers_, grad_states_);
  } else {
    simmpi::PairwiseFold<float> fold;
    for (auto& s : shards_) {
      std::fill(scratch_.begin(), scratch_.end(), 0.0f);
      loss_fold.push(flat_loss(s->gradient(scratch_)));
      fold.push(scratch_);
    }
    const std::vector<float> sum = fold.finish();
    std::copy(sum.begin(), sum.end(), grad_out.begin());
  }
  const nn::BatchLoss total = unflatten_loss(loss_fold.finish());
  const float inv = 1.0f / static_cast<float>(total.frames);
  for (auto& g : grad_out) g *= inv;
  return total;
}

nn::BatchLoss SerialCompute::gradient_with_squares(
    std::span<float> grad_out, std::span<float> grad_sq_out) {
  simmpi::PairwiseFold<double> loss_fold;
  if (agg_.compress.active()) {
    for (std::size_t i = 0; i < shards_.size(); ++i) {
      loss_fold.push(flat_loss(
          shards_[i]->gradient_with_squares(carriers_[i], sq_carriers_[i])));
    }
    fold_compressed(grad_out, carriers_, grad_states_);
    fold_compressed(grad_sq_out, sq_carriers_, sq_states_);
  } else {
    simmpi::PairwiseFold<float> fold;
    simmpi::PairwiseFold<float> sq_fold;
    std::vector<float> sq_scratch(grad_sq_out.size());
    for (auto& s : shards_) {
      std::fill(scratch_.begin(), scratch_.end(), 0.0f);
      std::fill(sq_scratch.begin(), sq_scratch.end(), 0.0f);
      loss_fold.push(
          flat_loss(s->gradient_with_squares(scratch_, sq_scratch)));
      fold.push(scratch_);
      sq_fold.push(sq_scratch);
    }
    const std::vector<float> sum = fold.finish();
    std::copy(sum.begin(), sum.end(), grad_out.begin());
    const std::vector<float> sq_sum = sq_fold.finish();
    std::copy(sq_sum.begin(), sq_sum.end(), grad_sq_out.begin());
  }
  const nn::BatchLoss total = unflatten_loss(loss_fold.finish());
  const float inv = 1.0f / static_cast<float>(total.frames);
  for (auto& g : grad_out) g *= inv;
  return total;
}

void SerialCompute::prepare_curvature(std::uint64_t seed) {
  curvature_frames_ = 0;
  for (auto& s : shards_) {
    s->prepare_curvature(seed);
    curvature_frames_ += s->curvature_frames();
  }
}

void SerialCompute::curvature_product(std::span<const float> v,
                                      std::span<float> out) {
  simmpi::PairwiseFold<float> fold;
  for (auto& s : shards_) {
    std::fill(scratch_.begin(), scratch_.end(), 0.0f);
    s->curvature_product(v, scratch_);
    fold.push(scratch_);
  }
  const std::vector<float> sum = fold.finish();
  std::copy(sum.begin(), sum.end(), out.begin());
  if (curvature_frames_ == 0) {
    throw std::logic_error("curvature_product before prepare_curvature");
  }
  const float inv = 1.0f / static_cast<float>(curvature_frames_);
  for (auto& g : out) g *= inv;
}

nn::BatchLoss SerialCompute::heldout_loss() {
  simmpi::PairwiseFold<double> loss_fold;
  for (auto& s : shards_) loss_fold.push(flat_loss(s->heldout_loss()));
  return unflatten_loss(loss_fold.finish());
}

}  // namespace bgqhf::hf

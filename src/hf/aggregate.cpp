#include "hf/aggregate.h"

#include <stdexcept>
#include <string>

#include "util/config.h"

namespace bgqhf::hf {

AggregationOptions AggregationOptions::from_env() {
  AggregationOptions agg;
  agg.compress = simmpi::CompressOptions::from_env();
  agg.overlap = util::RuntimeEnv::get().overlap;
  return agg;
}

void reject_under_ft(const AggregationOptions& agg, bool ft_enabled) {
  if (!ft_enabled || !agg.active()) return;
  const std::string expected =
      "off with fault tolerance (ft.enabled): a re-run primitive needs "
      "exact, blocking sums";
  if (agg.compress.active()) {
    throw util::ConfigError("BGQHF_COMPRESS", to_string(agg.compress.mode),
                            expected);
  }
  throw util::ConfigError("BGQHF_OVERLAP", "1", expected);
}

std::vector<std::size_t> layer_segment_bounds(const nn::Network& net) {
  // Matches Network's flat layout: [W_0, b_0, W_1, b_1, ...], each layer's
  // weight matrix immediately followed by its bias.
  std::vector<std::size_t> bounds;
  bounds.reserve(net.num_layers() + 1);
  bounds.push_back(0);
  for (const auto& spec : net.layers()) {
    bounds.push_back(bounds.back() + spec.out * spec.in + spec.out);
  }
  if (bounds.back() != net.num_params()) {
    throw std::logic_error("layer_segment_bounds: layout mismatch");
  }
  return bounds;
}

void check_stream_capacity(std::size_t num_segments) {
  // Gradient segments use streams [0, S); the squares variant rides
  // [S, 2S) of the same tag ladder.
  if (2 * num_segments > static_cast<std::size_t>(simmpi::kMaxAsyncStreams)) {
    throw std::invalid_argument(
        "aggregate: " + std::to_string(num_segments) +
        " segments exceed the async-reduce stream budget");
  }
}

SegmentSender::SegmentSender(simmpi::Comm& comm, std::span<float> carrier,
                             std::span<float> out,
                             const std::vector<std::size_t>& bounds, int root,
                             int stream_base,
                             const simmpi::CompressOptions* options,
                             std::vector<simmpi::CompressState>* states)
    : comm_(comm),
      carrier_(carrier),
      out_(out),
      bounds_(bounds),
      root_(root),
      stream_base_(stream_base),
      options_(options),
      states_(states),
      handles_(bounds.size() - 1),
      started_(bounds.size() - 1, 0) {
  if (carrier.size() != bounds.back() ||
      (comm.rank() == root && out.size() != carrier.size())) {
    throw std::invalid_argument("SegmentSender: carrier/bounds mismatch");
  }
}

void SegmentSender::start_segment(std::size_t s) {
  started_[s] = 1;
  const std::size_t off = bounds_[s];
  const std::size_t len = bounds_[s + 1] - off;
  simmpi::CompressState* state = states_ ? &(*states_)[s] : nullptr;
  // Off the root the send is buffered and the handle completes at start;
  // the root folds the partials in flush().
  handles_[s] = simmpi::start_reduce_sum(
      comm_, carrier_.subspan(off, len),
      out_.empty() ? std::span<float>{} : out_.subspan(off, len), root_,
      stream_base_ + static_cast<int>(s), options_, state);
}

void SegmentSender::segment_ready(std::size_t s) {
  if (s >= started_.size() || started_[s]) return;
  start_segment(s);
  ++overlapped_;
}

std::size_t SegmentSender::flush() {
  // Every segment starts before the root waits on any, so children's
  // partials for late segments drain into its mailbox while early ones
  // fold.
  for (std::size_t s = 0; s < started_.size(); ++s) {
    if (!started_[s]) start_segment(s);
  }
  for (simmpi::AsyncReduce& h : handles_) h.wait();
  return overlapped_;
}

}  // namespace bgqhf::hf

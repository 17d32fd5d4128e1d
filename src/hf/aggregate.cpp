#include "hf/aggregate.h"

#include <stdexcept>

#include "util/config.h"

namespace bgqhf::hf {

AggregationOptions AggregationOptions::from_env() {
  AggregationOptions agg;
  agg.compress = simmpi::CompressOptions::from_env();
  return agg;
}

void reject_under_ft(const AggregationOptions& agg, bool ft_enabled) {
  if (!ft_enabled || !agg.active()) return;
  throw util::ConfigError("BGQHF_COMPRESS", to_string(agg.compress.mode),
                          "off with fault tolerance (ft.enabled): a re-run "
                          "primitive needs exact sums");
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

}  // namespace bgqhf::hf

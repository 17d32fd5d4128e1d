// Aggregation policy for the HF gradient collectives: which compression
// codec (if any) rides the wire.
//
// Compressed aggregation runs per layer segment. layer_segment_bounds()
// carves the flat parameter vector at layer boundaries ([W_l, b_l] is
// contiguous in nn::Network's layout); each segment gets its own
// error-feedback CompressState on every rank and its own blocking
// compressed reduce. BGQHF_COMPRESS=off keeps the exact bitwise contract:
// one blocking tree reduce over the whole gradient.
#pragma once

#include <cstddef>
#include <vector>

#include "nn/network.h"
#include "simmpi/compress.h"

namespace bgqhf::hf {

struct AggregationOptions {
  simmpi::CompressOptions compress;  // kOff = exact payloads

  /// True when aggregation runs compressed per segment instead of the
  /// single blocking exact reduce.
  bool active() const { return compress.active(); }

  /// BGQHF_COMPRESS* (and BGQHF_PRECISION) via util::RuntimeEnv.
  static AggregationOptions from_env();
};

/// Throws util::ConfigError naming BGQHF_COMPRESS when fault tolerance
/// meets compressed aggregation: FT re-runs a failed primitive, which
/// needs exact sums.
void reject_under_ft(const AggregationOptions& agg, bool ft_enabled);

/// Per-layer segment boundaries of `net`'s flat parameter vector:
/// bounds[l] .. bounds[l+1] covers [W_l, b_l]. Size num_layers() + 1.
std::vector<std::size_t> layer_segment_bounds(const nn::Network& net);

}  // namespace bgqhf::hf

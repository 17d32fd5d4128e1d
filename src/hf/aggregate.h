// Aggregation policy for the HF gradient collectives: which compression
// codec (if any) rides the wire, and whether per-layer segments start
// their reduce while backprop is still retiring lower layers.
//
// Segments are the unit of both features. layer_segment_bounds() carves
// the flat parameter vector at layer boundaries ([W_l, b_l] is contiguous
// in nn::Network's layout); each segment gets its own async-reduce stream
// and its own error-feedback CompressState on every rank, so overlap only
// changes *when* a segment's collective starts, never its arithmetic —
// BGQHF_OVERLAP on/off is bitwise identical at a fixed BGQHF_COMPRESS
// mode, and BGQHF_COMPRESS=off keeps today's exact bitwise contract.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "hf/workload.h"
#include "nn/network.h"
#include "simmpi/compress.h"

namespace bgqhf::hf {

struct AggregationOptions {
  simmpi::CompressOptions compress;  // kOff = exact payloads
  /// Start each layer segment's reduce as backprop retires it (final
  /// batch), instead of one blocking collective after the full gradient.
  bool overlap = false;

  /// True when aggregation runs segmented (compressed and/or overlapped)
  /// instead of the single blocking exact reduce.
  bool active() const { return compress.active() || overlap; }

  /// BGQHF_COMPRESS* + BGQHF_OVERLAP via util::RuntimeEnv.
  static AggregationOptions from_env();
};

/// Throws util::ConfigError naming BGQHF_COMPRESS (or BGQHF_OVERLAP) when
/// fault tolerance meets an active aggregation path: FT re-runs a failed
/// primitive, which needs exact, blocking sums.
void reject_under_ft(const AggregationOptions& agg, bool ft_enabled);

/// Per-layer segment boundaries of `net`'s flat parameter vector:
/// bounds[l] .. bounds[l+1] covers [W_l, b_l]. Size num_layers() + 1.
std::vector<std::size_t> layer_segment_bounds(const nn::Network& net);

/// Throws if `num_segments` gradient streams (plus a squares stream each)
/// would exceed simmpi::kMaxAsyncStreams.
void check_stream_capacity(std::size_t num_segments);

/// GradientSink that starts segment `s`'s nonblocking reduce the moment
/// the workload announces it, so packing + the buffered send of layer l
/// overlap the GEMMs of the layers below. flush() starts whatever was
/// never announced (and everything, when overlap is off), then completes
/// the reduces: on the root the totals land in `out`, elsewhere the sends
/// completed at start.
class SegmentSender : public GradientSink {
 public:
  /// `carrier` is the rank's full-length accumulator (gradient + residual
  /// when compressing); `out` receives the totals on the root and is empty
  /// elsewhere. `states` must outlive the sender and have one entry per
  /// segment (ignored when `options` is null or off).
  SegmentSender(simmpi::Comm& comm, std::span<float> carrier,
                std::span<float> out, const std::vector<std::size_t>& bounds,
                int root, int stream_base,
                const simmpi::CompressOptions* options,
                std::vector<simmpi::CompressState>* states);

  void segment_ready(std::size_t s) override;

  /// Start every segment not yet announced and wait them all; returns how
  /// many segments the sink had already started early (the overlapped
  /// count).
  std::size_t flush();

 private:
  void start_segment(std::size_t s);

  simmpi::Comm& comm_;
  std::span<float> carrier_;
  std::span<float> out_;
  const std::vector<std::size_t>& bounds_;
  int root_;
  int stream_base_;
  const simmpi::CompressOptions* options_;
  std::vector<simmpi::CompressState>* states_;
  std::vector<simmpi::AsyncReduce> handles_;
  std::vector<char> started_;
  std::size_t overlapped_ = 0;
};

}  // namespace bgqhf::hf

// Master/worker wire protocol.
//
// The paper's architecture: "a master/worker architecture in which worker
// processes ... perform data-parallel computation of gradients and
// curvature matrix-vector products and the master implements the
// Hessian-free optimization and coordinates the activity of the workers.
// All communication between the master and workers is via MPI." (Sec. IV)
//
// Commands are broadcast from rank 0 (the master) as a small fixed-size
// header, optionally followed by payload collectives; every rank, rank 0
// included, then computes on its own shard and joins tree reduce_sum
// collectives whose fixed combine order SerialCompute mirrors
// (PairwiseFold), so the arithmetic matches exactly.
#pragma once

#include <cstdint>

namespace bgqhf::hf {

enum class Command : std::uint64_t {
  kSetParams = 1,         // followed by bcast of theta (sync_weights)
  kGradient = 2,          // ranks reduce grad sums + loss stats;
                          // aux=1 additionally reduces squared-grad sums
  kPrepareCurvature = 3,  // aux = sample seed; ranks gather sample frames
  kCurvatureProduct = 4,  // followed by bcast of v; ranks reduce products
  kHeldoutLoss = 5,       // ranks reduce held-out loss stats
  kShutdown = 6,          // workers exit their loop
  kSetCurvature = 7,      // aux = bit_cast<double> curvature fraction; no
                          // reply. LTFB mutation changes the resample rate
                          // of a *running* population between legs.
};

/// Fixed header broadcast before every operation: {command, aux}.
struct CommandHeader {
  Command command;
  std::uint64_t aux = 0;
};

/// Loss statistics exchanged as a flat double triple so they ride a plain
/// reduce_sum: {loss_sum, frames, correct}.
inline constexpr std::size_t kLossStatsLen = 3;

/// Tags for the load_data point-to-point shard distribution phase. Rank 0
/// sends shard 0 to itself like any other, plus the config blob the
/// workers get by broadcast (kTagShardConfig).
inline constexpr int kTagShardMeta = 100;    // offsets + dims
inline constexpr int kTagShardLabels = 101;
inline constexpr int kTagShardX = 102;
inline constexpr int kTagShardHeldMeta = 103;
inline constexpr int kTagShardHeldLabels = 104;
inline constexpr int kTagShardHeldX = 105;
inline constexpr int kTagShardConfig = 106;

/// LTFB tournament exchange between population masters. These messages
/// ride the WORLD communicator while the populations train inside split
/// sub-comms; the per-round tag keeps a straggler's round-r blob from ever
/// being matched against round r+1.
inline constexpr int kTagLtfbBase = 500;
inline constexpr int ltfb_round_tag(std::size_t round) {
  return kTagLtfbBase + static_cast<int>(round);
}

}  // namespace bgqhf::hf

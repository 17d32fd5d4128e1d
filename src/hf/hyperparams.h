// The HF hyperparameters worth searching, in one struct.
//
// Sainath et al. ("Accelerating Hessian-free optimization...") and He &
// Smelyanskiy ("Distributed Hessian-Free Optimization for DNN") both show
// HF quality is acutely sensitive to the initial damping, the CG budget,
// and the curvature sampling rate. These used to be scattered across
// DampingOptions, CgOptions, and TrainerConfig; consolidating them here
// gives the LTFB tournament one value to perturb, exchange, and mutate —
// and every driver one place to set them.
#pragma once

#include <cstddef>
#include <cstdint>
#include <array>
#include <string>

namespace bgqhf::util {
class Rng;
}

namespace bgqhf::hf {

struct HyperParams {
  /// Initial Levenberg-Marquardt damping (Algorithm 1's lambda).
  double lambda0 = 1.0;
  /// Truncated-CG iteration budget per outer iteration.
  std::size_t cg_max_iters = 250;
  /// Fraction of each shard's training frames resampled for each CG call
  /// (the paper's ~1-3% curvature sample), in (0, 1].
  double curvature_fraction = 0.02;
  /// Lambda multipliers on poor / good model agreement (the paper's 3/2
  /// and 2/3; see damping.h for the sign-convention discussion).
  double damping_grow = 1.5;
  double damping_shrink = 2.0 / 3.0;

  /// Overrides from BGQHF_HF_LAMBDA0 / BGQHF_HF_CG_ITERS /
  /// BGQHF_HF_RESAMPLE (unset or 0 keeps each default).
  static HyperParams from_env();

  /// One-line "lambda0=... cg=... resample=... grow=... shrink=..." form
  /// for logs, lineage records, and bench JSON.
  std::string to_string() const;

  /// Seeded multiplicative jitter around this point, the LTFB mutation
  /// step: lambda0 and curvature_fraction move by up to 2x either way
  /// (log-uniform), cg_max_iters by up to ~1.4x, grow/shrink by up to
  /// ~1.2x — all clamped to sane ranges, all drawn in a fixed order so a
  /// given (rng state) always yields the same offspring.
  HyperParams perturb(util::Rng& rng) const;

  /// Wire form for the tournament exchange and the trainer config blob
  /// (bit-exact doubles; cg_max_iters rides as a double losslessly).
  std::array<double, 5> pack() const;
  static HyperParams unpack(const std::array<double, 5>& packed);

  friend bool operator==(const HyperParams&, const HyperParams&) = default;
};

}  // namespace bgqhf::hf

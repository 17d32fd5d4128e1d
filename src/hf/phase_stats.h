// Per-phase wall-time accounting for the functional distributed runtime.
//
// The paper instruments its production runs per function (load_data,
// sync_weights, gradient_loss, worker_curvature_product, heldout_loss) and
// charts them in Figs. 2-5. PhaseStats is the same instrumentation for our
// functional layer: MasterCompute and worker_loop stamp every phase, so
// small real runs produce measured tables with the same row labels the
// model-based benches predict at scale.
//
// PhaseStats is a thin view over an obs::Registry — each phase is the
// histogram "hf.phase.<label>" whose (sum, count) is the (seconds, calls)
// pair the accessors report, and operator+= is Registry::merge. The method
// API and row labels are unchanged from the struct-of-slots version.
#pragma once

#include <cstddef>
#include <string>

#include "obs/registry.h"

namespace bgqhf::hf {

enum class Phase {
  kLoadData = 0,
  kSyncWeights,
  kGradient,
  kCurvaturePrepare,
  kCurvatureProduct,
  kHeldoutLoss,
  kShutdown,
  kCount
};

/// Stable row label ("load_data", ...) — also the trace-span category and
/// the suffix of the phase's registry metric name.
const char* phase_label(Phase phase);

std::string to_string(Phase phase);

class PhaseStats {
 public:
  void add(Phase phase, double seconds) {
    registry_.observe(handle(phase), seconds);
  }

  double seconds(Phase phase) const {
    return registry_.histogram(handle(phase)).sum;
  }
  std::size_t calls(Phase phase) const {
    return registry_.histogram(handle(phase)).count;
  }

  double total_seconds() const;

  PhaseStats& operator+=(const PhaseStats& o) {
    registry_ += o.registry_;
    return *this;
  }

  /// Underlying metric bundle (named "hf.phase.<label>" histograms) for
  /// export alongside other registry-sourced measurements.
  const obs::Registry& registry() const { return registry_; }

 private:
  static obs::HistogramId handle(Phase phase);
  obs::Registry registry_;
};

}  // namespace bgqhf::hf

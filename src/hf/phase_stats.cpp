#include "hf/phase_stats.h"

#include <array>
#include <stdexcept>

namespace bgqhf::hf {

const char* phase_label(Phase phase) {
  switch (phase) {
    case Phase::kLoadData:
      return "load_data";
    case Phase::kSyncWeights:
      return "sync_weights";
    case Phase::kGradient:
      return "gradient_loss";
    case Phase::kCurvaturePrepare:
      return "curvature_prepare";
    case Phase::kCurvatureProduct:
      return "curvature_product";
    case Phase::kHeldoutLoss:
      return "heldout_loss";
    case Phase::kShutdown:
      return "shutdown";
    case Phase::kCount:
      break;
  }
  throw std::invalid_argument("unknown Phase");
}

std::string to_string(Phase phase) { return phase_label(phase); }

namespace {

constexpr std::size_t kNumPhases = static_cast<std::size_t>(Phase::kCount);

std::array<obs::HistogramId, kNumPhases> intern_phase_handles() {
  std::array<obs::HistogramId, kNumPhases> handles{};
  for (std::size_t i = 0; i < kNumPhases; ++i) {
    handles[i] = obs::Schema::global().histogram(
        std::string("hf.phase.") + phase_label(static_cast<Phase>(i)));
  }
  return handles;
}

}  // namespace

obs::HistogramId PhaseStats::handle(Phase phase) {
  static const std::array<obs::HistogramId, kNumPhases> handles =
      intern_phase_handles();
  return handles[static_cast<std::size_t>(phase)];
}

double PhaseStats::total_seconds() const {
  double total = 0.0;
  for (std::size_t i = 0; i < kNumPhases; ++i) {
    total += registry_.histogram(handle(static_cast<Phase>(i))).sum;
  }
  return total;
}

}  // namespace bgqhf::hf

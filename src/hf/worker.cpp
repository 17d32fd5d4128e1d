#include "hf/worker.h"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <string>
#include <vector>

#include "hf/aggregate.h"
#include "hf/protocol.h"
#include "obs/span.h"
#include "util/logging.h"
#include "util/timer.h"

namespace bgqhf::hf {

namespace {

/// The phase a command's handling is charged to (for both the PhaseStats
/// stamp and the trace span's category/row label).
Phase command_phase(Command cmd) {
  switch (cmd) {
    case Command::kSetParams:
      return Phase::kSyncWeights;
    case Command::kGradient:
      return Phase::kGradient;
    case Command::kPrepareCurvature:
      return Phase::kCurvaturePrepare;
    case Command::kCurvatureProduct:
      return Phase::kCurvatureProduct;
    case Command::kHeldoutLoss:
      return Phase::kHeldoutLoss;
    case Command::kShutdown:
      return Phase::kShutdown;
    case Command::kSetCurvature:
      return Phase::kCurvaturePrepare;
  }
  throw std::logic_error("worker_loop: unknown command");
}

}  // namespace

ShardContribution::ShardContribution(simmpi::Comm& comm, Workload& workload,
                                     FtOptions ft, AggregationOptions agg,
                                     std::vector<std::size_t> bounds)
    : comm_(comm),
      workload_(workload),
      ft_(ft),
      agg_(agg),
      bounds_(std::move(bounds)) {
  reject_under_ft(agg_, ft_.enabled);
  const std::size_t n = workload_.num_params();
  scratch_.resize(n);
  if (!agg_.active()) return;
  if (bounds_.empty()) bounds_ = {0, n};
  if (bounds_.front() != 0 || bounds_.back() != n) {
    throw std::invalid_argument("ShardContribution: bad segment bounds");
  }
  grad_states_.resize(bounds_.size() - 1);
  sq_states_.resize(bounds_.size() - 1);
  grad_carrier_.assign(n, 0.0f);
  sq_carrier_.assign(n, 0.0f);
}

simmpi::Deadline ShardContribution::deadline() const {
  return comm_.rank() == 0 ? ft_.reply_deadline() : ft_.command_deadline();
}

void ShardContribution::reduce(std::vector<float>& partial,
                               std::span<float> out) {
  comm_.reduce_sum(partial, 0, deadline());
  if (!out.empty()) std::copy(partial.begin(), partial.end(), out.begin());
}

nn::BatchLoss ShardContribution::reduce_loss(const nn::BatchLoss& mine) {
  std::vector<double> flat{mine.loss_sum, static_cast<double>(mine.frames),
                           static_cast<double>(mine.correct)};
  comm_.reduce_sum(flat, 0, deadline());
  if (comm_.rank() != 0) return mine;
  nn::BatchLoss total;
  total.loss_sum = flat[0];
  total.frames = static_cast<std::size_t>(flat[1]);
  total.correct = static_cast<std::size_t>(flat[2]);
  return total;
}

void ShardContribution::reduce_compressed(
    std::vector<float>& carrier, std::span<float> out,
    std::vector<simmpi::CompressState>& states) {
  for (std::size_t s = 0; s + 1 < bounds_.size(); ++s) {
    const std::size_t off = bounds_[s];
    const std::size_t len = bounds_[s + 1] - off;
    simmpi::compressed_reduce_sum(
        comm_, std::span<float>(carrier).subspan(off, len),
        out.empty() ? std::span<float>{} : out.subspan(off, len), 0,
        agg_.compress, states[s]);
  }
}

nn::BatchLoss ShardContribution::gradient(bool squares,
                                          std::span<float> grad_out,
                                          std::span<float> sq_out) {
  const std::size_t n = workload_.num_params();
  if (agg_.active()) {
    // Compressed path, one blocking reduce per layer segment. The carriers
    // are NOT zeroed: they hold the error-feedback residual, and the
    // workload accumulates the fresh gradient on top of it.
    if (!squares) {
      const nn::BatchLoss loss = workload_.gradient(grad_carrier_);
      reduce_compressed(grad_carrier_, grad_out, grad_states_);
      return reduce_loss(loss);
    }
    const nn::BatchLoss loss =
        workload_.gradient_with_squares(grad_carrier_, sq_carrier_);
    reduce_compressed(grad_carrier_, grad_out, grad_states_);
    reduce_compressed(sq_carrier_, sq_out, sq_states_);
    return reduce_loss(loss);
  }
  scratch_.assign(n, 0.0f);  // a failed reduce may have consumed it
  if (!squares) {
    const nn::BatchLoss loss = workload_.gradient(scratch_);
    reduce(scratch_, grad_out);
    return reduce_loss(loss);
  }
  sq_scratch_.assign(n, 0.0f);
  const nn::BatchLoss loss =
      workload_.gradient_with_squares(scratch_, sq_scratch_);
  reduce(scratch_, grad_out);
  reduce(sq_scratch_, sq_out);
  return reduce_loss(loss);
}

std::vector<std::size_t> ShardContribution::prepare_curvature(
    std::uint64_t seed) {
  workload_.prepare_curvature(seed);
  // Integers carried in double.
  const double count = static_cast<double>(workload_.curvature_frames());
  const std::vector<double> gathered =
      comm_.gather(std::span<const double>(&count, 1), 0, deadline());
  std::vector<std::size_t> counts;
  counts.reserve(gathered.size());
  for (const double c : gathered) {
    counts.push_back(static_cast<std::size_t>(c));
  }
  return counts;
}

void ShardContribution::curvature_product(std::span<const float> v,
                                          std::span<float> out) {
  scratch_.assign(workload_.num_params(), 0.0f);  // as in gradient()
  workload_.curvature_product(v, scratch_);
  reduce(scratch_, out);
}

nn::BatchLoss ShardContribution::heldout_loss() {
  return reduce_loss(workload_.heldout_loss());
}

void worker_loop(simmpi::Comm& parent, Workload& workload, PhaseStats* stats,
                 const FtOptions& ft, const AggregationOptions& agg) {
  if (parent.rank() == 0) {
    throw std::logic_error("worker_loop must not run on the master rank");
  }
  // The handle this loop talks through; replaced by the survivors' comm
  // after a shrink.
  simmpi::Comm comm = parent;
  comm.set_checksums(ft.enabled);
  const int master = comm.world_rank_of(0);
  ShardContribution share(comm, workload, ft, agg, workload.segment_bounds());

  auto stamp = [&](Phase phase, const util::Timer& timer) {
    if (stats != nullptr) stats->add(phase, timer.seconds());
  };
  auto note = [&](const std::string& what) {
    if (ft.verbose) {
      BGQHF_WARN << "worker rank " << parent.rank() << ": " << what;
    }
  };
  // Join the survivors' communicator; false when this worker was left out
  // of it, or the master was.
  auto rejoin = [&] {
    try {
      comm = comm.shrink(ft.command_deadline());
    } catch (const simmpi::Revoked&) {
      note("left out of the survivors; exiting");
      return false;
    }
    if (comm.world_rank_of(0) != master) {
      note("master left the job; exiting");
      return false;
    }
    return true;
  };

  for (;;) {
    bool awaiting_command = true;
    const char* incoming = "command header";  // named in a corruption note
    try {
      std::vector<std::uint64_t> header;
      comm.bcast(header, 0, ft.command_deadline());
      if (header.size() != 2) {
        throw std::logic_error("worker_loop: malformed command header");
      }
      awaiting_command = false;
      incoming = "child's partial";
      const auto cmd = static_cast<Command>(header[0]);
      obs::Span span(phase_label(command_phase(cmd)), "worker");
      util::Timer timer;
      switch (cmd) {
        case Command::kSetParams: {
          std::vector<float> theta;
          incoming = "theta payload";
          comm.bcast(theta, 0, ft.command_deadline());
          workload.set_params(theta);
          stamp(Phase::kSyncWeights, timer);
          break;
        }
        case Command::kGradient:
          // aux == 1: the master also wants squared-gradient sums for the
          // Jacobi preconditioner.
          share.gradient(header[1] != 0, {}, {});
          stamp(Phase::kGradient, timer);
          break;
        case Command::kPrepareCurvature:
          share.prepare_curvature(header[1]);
          stamp(Phase::kCurvaturePrepare, timer);
          break;
        case Command::kCurvatureProduct: {
          std::vector<float> v;
          incoming = "CG vector payload";
          comm.bcast(v, 0, ft.command_deadline());
          incoming = "child's partial";
          share.curvature_product(v, {});
          stamp(Phase::kCurvatureProduct, timer);
          break;
        }
        case Command::kHeldoutLoss:
          share.heldout_loss();
          stamp(Phase::kHeldoutLoss, timer);
          break;
        case Command::kSetCurvature:
          workload.set_curvature_fraction(std::bit_cast<double>(header[1]));
          stamp(Phase::kCurvaturePrepare, timer);
          break;
        case Command::kShutdown:
          stamp(Phase::kShutdown, timer);
          return;
      }
    } catch (const simmpi::CorruptMessage&) {
      if (!ft.enabled) throw;
      // This worker's state can no longer be trusted to match the
      // master's: report and withdraw rather than train on garbage.
      note(std::string("corrupt ") + incoming +
           ", reporting and withdrawing");
      comm.revoke(kCorruptPayloadReason);
      return;
    } catch (const simmpi::TimeoutError&) {
      if (!ft.enabled) throw;
      if (awaiting_command) {
        note("no command within " + std::to_string(ft.command_timeout) +
             " s, presuming master gone; exiting");
        return;
      }
      if (!rejoin()) return;  // the shrink revokes for everyone
    } catch (const simmpi::Revoked&) {
      if (!ft.enabled) throw;
      if (!rejoin()) return;
    }
  }
}

}  // namespace bgqhf::hf

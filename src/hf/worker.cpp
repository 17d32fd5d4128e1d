#include "hf/worker.h"

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
  reject_under_ft(agg, ft.enabled);
  const std::size_t n = workload.num_params();
  std::vector<float> scratch(n);

  // Segmented-aggregation state. The gradient carrier is separate from
  // `scratch` because under compression it holds the error-feedback
  // residual between gradient calls — the curvature path re-zeroing
  // scratch must not wipe it.
  const bool comp = agg.compress.active();
  const simmpi::CompressOptions* copts = comp ? &agg.compress : nullptr;
  std::vector<std::size_t> bounds;
  std::vector<simmpi::CompressState> grad_states;
  std::vector<simmpi::CompressState> sq_states;
  std::vector<float> grad_carrier;
  std::vector<float> sq_carrier;
  if (agg.active()) {
    bounds = workload.segment_bounds();
    check_stream_capacity(bounds.size() - 1);
    if (comp) {
      grad_states.resize(bounds.size() - 1);
      sq_states.resize(bounds.size() - 1);
    }
    grad_carrier.assign(n, 0.0f);
    sq_carrier.assign(n, 0.0f);
  }

  auto reply_loss_stats = [&](const nn::BatchLoss& loss) {
    std::vector<double> flat{loss.loss_sum,
                             static_cast<double>(loss.frames),
                             static_cast<double>(loss.correct)};
    comm.reduce_sum(flat, 0, ft.command_deadline());
  };
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
        case Command::kGradient: {
          if (agg.active()) {
            // Segmented path: per-layer nonblocking reduces (compressed
            // when BGQHF_COMPRESS is on). Under compression the carriers
            // are NOT zeroed — they hold the error-feedback residual, and
            // the workload accumulates the fresh gradient on top of it.
            const std::size_t nseg = bounds.size() - 1;
            if (!comp) {
              std::fill(grad_carrier.begin(), grad_carrier.end(), 0.0f);
            }
            if (header[1] == 0) {
              SegmentSender sink(comm, grad_carrier, bounds, 0, 0, copts,
                                 comp ? &grad_states : nullptr);
              const nn::BatchLoss loss = workload.gradient(
                  grad_carrier,
                  agg.overlap ? static_cast<GradientSink*>(&sink) : nullptr);
              const std::size_t overlapped = sink.flush();
              if (stats != nullptr) stats->add_segments(nseg, overlapped);
              reply_loss_stats(loss);
            } else {
              if (!comp) {
                std::fill(sq_carrier.begin(), sq_carrier.end(), 0.0f);
              }
              const nn::BatchLoss loss =
                  workload.gradient_with_squares(grad_carrier, sq_carrier);
              SegmentSender grad_sink(comm, grad_carrier, bounds, 0, 0,
                                      copts, comp ? &grad_states : nullptr);
              SegmentSender sq_sink(comm, sq_carrier, bounds, 0,
                                    static_cast<int>(nseg), copts,
                                    comp ? &sq_states : nullptr);
              grad_sink.flush();
              sq_sink.flush();
              if (stats != nullptr) stats->add_segments(2 * nseg, 0);
              reply_loss_stats(loss);
            }
            stamp(Phase::kGradient, timer);
            break;
          }
          scratch.assign(n, 0.0f);  // a failed reduce may have consumed it
          if (header[1] == 0) {
            const nn::BatchLoss loss = workload.gradient(scratch);
            comm.reduce_sum(scratch, 0, ft.command_deadline());
            reply_loss_stats(loss);
          } else {
            // aux == 1: the master also wants squared-gradient sums for
            // the Jacobi preconditioner.
            std::vector<float> squares(n, 0.0f);
            const nn::BatchLoss loss =
                workload.gradient_with_squares(scratch, squares);
            comm.reduce_sum(scratch, 0, ft.command_deadline());
            comm.reduce_sum(squares, 0, ft.command_deadline());
            reply_loss_stats(loss);
          }
          stamp(Phase::kGradient, timer);
          break;
        }
        case Command::kPrepareCurvature: {
          workload.prepare_curvature(header[1]);
          // Gathered, not summed: the master keeps per-worker counts so a
          // worker lost mid-CG leaves the product denominator exact.
          const double count =
              static_cast<double>(workload.curvature_frames());
          comm.gather(std::span<const double>(&count, 1), 0,
                      ft.command_deadline());
          stamp(Phase::kCurvaturePrepare, timer);
          break;
        }
        case Command::kCurvatureProduct: {
          std::vector<float> v;
          incoming = "CG vector payload";
          comm.bcast(v, 0, ft.command_deadline());
          incoming = "child's partial";
          scratch.assign(n, 0.0f);  // a failed reduce may have consumed it
          workload.curvature_product(v, scratch);
          comm.reduce_sum(scratch, 0, ft.command_deadline());
          stamp(Phase::kCurvatureProduct, timer);
          break;
        }
        case Command::kHeldoutLoss: {
          reply_loss_stats(workload.heldout_loss());
          stamp(Phase::kHeldoutLoss, timer);
          break;
        }
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

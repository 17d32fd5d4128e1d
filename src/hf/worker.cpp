#include "hf/worker.h"

#include <array>
#include <bit>
#include <stdexcept>
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

void worker_loop_collective(simmpi::Comm& comm, Workload& workload,
                            PhaseStats* stats,
                            const AggregationOptions& agg) {
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
    comm.reduce_sum(flat, 0);
  };
  auto stamp = [&](Phase phase, const util::Timer& timer) {
    if (stats != nullptr) stats->add(phase, timer.seconds());
  };

  for (;;) {
    std::vector<std::uint64_t> header;
    comm.bcast(header, 0);
    if (header.size() != 2) {
      throw std::logic_error("worker_loop: malformed command header");
    }
    const auto cmd = static_cast<Command>(header[0]);
    obs::Span span(phase_label(command_phase(cmd)), "worker");
    util::Timer timer;
    switch (cmd) {
      case Command::kSetParams: {
        std::vector<float> theta;
        comm.bcast(theta, 0);
        workload.set_params(theta);
        stamp(Phase::kSyncWeights, timer);
        break;
      }
      case Command::kGradient: {
        if (agg.active()) {
          // Segmented path: per-layer nonblocking reduces (compressed when
          // BGQHF_COMPRESS is on). Under compression the carriers are NOT
          // zeroed — they hold the error-feedback residual, and the
          // workload accumulates the fresh gradient on top of it.
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
            SegmentSender grad_sink(comm, grad_carrier, bounds, 0, 0, copts,
                                    comp ? &grad_states : nullptr);
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
        std::fill(scratch.begin(), scratch.end(), 0.0f);
        if (header[1] == 0) {
          const nn::BatchLoss loss = workload.gradient(scratch);
          comm.reduce_sum(scratch, 0);
          reply_loss_stats(loss);
        } else {
          // aux == 1: the master also wants squared-gradient sums for the
          // Jacobi preconditioner.
          std::vector<float> squares(n, 0.0f);
          const nn::BatchLoss loss =
              workload.gradient_with_squares(scratch, squares);
          comm.reduce_sum(scratch, 0);
          comm.reduce_sum(squares, 0);
          reply_loss_stats(loss);
        }
        stamp(Phase::kGradient, timer);
        break;
      }
      case Command::kPrepareCurvature: {
        workload.prepare_curvature(header[1]);
        std::vector<double> count{
            static_cast<double>(workload.curvature_frames())};
        comm.reduce_sum(count, 0);
        stamp(Phase::kCurvaturePrepare, timer);
        break;
      }
      case Command::kCurvatureProduct: {
        std::vector<float> v;
        comm.bcast(v, 0);
        std::fill(scratch.begin(), scratch.end(), 0.0f);
        workload.curvature_product(v, scratch);
        comm.reduce_sum(scratch, 0);
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
  }
}

void worker_loop_ft(simmpi::Comm& comm, Workload& workload, PhaseStats* stats,
                    const FtOptions& ft) {
  const std::size_t n = workload.num_params();
  std::vector<float> scratch(n);

  auto stamp = [&](Phase phase, const util::Timer& timer) {
    if (stats != nullptr) stats->add(phase, timer.seconds());
  };
  using Bytes = std::span<const std::byte>;
  using LossStats = std::array<double, kLossStatsLen>;
  auto loss_stats = [](const nn::BatchLoss& loss) {
    return LossStats{loss.loss_sum, static_cast<double>(loss.frames),
                     static_cast<double>(loss.correct)};
  };
  // Each reply is framed straight from its parts: one copy, one checksum.
  auto reply = [&](std::initializer_list<Bytes> parts) {
    comm.send_shared(ft_frame(parts), 0, kTagFtReply);
  };
  // Checksum failed on an incoming payload: the worker's state can no
  // longer be trusted to match the master's, so report and withdraw — the
  // alternative is silently training on garbage.
  auto withdraw_corrupt = [&](const char* what) {
    if (ft.verbose) {
      BGQHF_WARN << "worker rank " << comm.rank() << ": corrupt " << what
                 << ", reporting and withdrawing";
    }
    ft_send<std::byte>(comm, {}, 0, kTagFtFailure,
                       FtStatus::kCorruptPayload);
  };

  for (;;) {
    FtFrame<std::uint64_t> header;
    try {
      header = ft_recv_for<std::uint64_t>(comm, 0, kTagFtCommand,
                                          ft.command_timeout);
    } catch (const simmpi::TimeoutError&) {
      if (ft.verbose) {
        BGQHF_WARN << "worker rank " << comm.rank()
                   << ": no command within " << ft.command_timeout
                   << " s, presuming master gone; exiting";
      }
      return;
    }
    if (!header.ok || header.data.size() != 2) {
      withdraw_corrupt("command header");
      return;
    }
    const auto cmd = static_cast<Command>(header.data[0]);
    obs::Span span(phase_label(command_phase(cmd)), "worker");
    util::Timer timer;
    try {
      switch (cmd) {
      case Command::kSetParams: {
        const FtFrame<float> theta =
            ft_recv_for<float>(comm, 0, kTagFtPayload, ft.command_timeout);
        if (!theta.ok) {
          withdraw_corrupt("theta payload");
          return;
        }
        workload.set_params(theta.data);
        stamp(Phase::kSyncWeights, timer);
        break;
      }
      case Command::kGradient: {
        std::fill(scratch.begin(), scratch.end(), 0.0f);
        if (header.data[1] == 0) {
          const LossStats loss = loss_stats(workload.gradient(scratch));
          reply({std::as_bytes(std::span<const float>(scratch)),
                 std::as_bytes(std::span<const double>(loss))});
        } else {
          std::vector<float> squares(n, 0.0f);
          const LossStats loss =
              loss_stats(workload.gradient_with_squares(scratch, squares));
          reply({std::as_bytes(std::span<const float>(scratch)),
                 std::as_bytes(std::span<const float>(squares)),
                 std::as_bytes(std::span<const double>(loss))});
        }
        stamp(Phase::kGradient, timer);
        break;
      }
      case Command::kPrepareCurvature: {
        workload.prepare_curvature(header.data[1]);
        const double count =
            static_cast<double>(workload.curvature_frames());
        reply({std::as_bytes(std::span<const double>(&count, 1))});
        stamp(Phase::kCurvaturePrepare, timer);
        break;
      }
      case Command::kCurvatureProduct: {
        const FtFrame<float> v =
            ft_recv_for<float>(comm, 0, kTagFtPayload, ft.command_timeout);
        if (!v.ok) {
          withdraw_corrupt("CG vector payload");
          return;
        }
        std::fill(scratch.begin(), scratch.end(), 0.0f);
        workload.curvature_product(v.data, scratch);
        reply({std::as_bytes(std::span<const float>(scratch))});
        stamp(Phase::kCurvatureProduct, timer);
        break;
      }
      case Command::kHeldoutLoss: {
        const LossStats loss = loss_stats(workload.heldout_loss());
        reply({std::as_bytes(std::span<const double>(loss))});
        stamp(Phase::kHeldoutLoss, timer);
        break;
      }
      case Command::kSetCurvature:
        workload.set_curvature_fraction(
            std::bit_cast<double>(header.data[1]));
        stamp(Phase::kCurvaturePrepare, timer);
        break;
      case Command::kShutdown:
        stamp(Phase::kShutdown, timer);
        return;
      }
    } catch (const simmpi::TimeoutError&) {
      // A command arrived but its payload never did (dropped in transit):
      // this worker is out of sync with the master; withdraw cleanly and
      // let the master's reply deadline exclude it.
      if (ft.verbose) {
        BGQHF_WARN << "worker rank " << comm.rank()
                   << ": command payload never arrived; exiting";
      }
      return;
    }
  }
}

}  // namespace

void worker_loop(simmpi::Comm& comm, Workload& workload, PhaseStats* stats,
                 const FtOptions& ft, const AggregationOptions& agg) {
  if (comm.rank() == 0) {
    throw std::logic_error("worker_loop must not run on the master rank");
  }
  if (ft.enabled) {
    // The FT protocol keeps exact CRC-framed payloads: lossy blobs from a
    // rank that later dies would leave its residual permanently dropped,
    // breaking the survivor-reweighting equivalence.
    worker_loop_ft(comm, workload, stats, ft);
  } else {
    worker_loop_collective(comm, workload, stats, agg);
  }
}

}  // namespace bgqhf::hf

#include "hf/master_compute.h"

#include <bit>
#include <stdexcept>

#include "obs/registry.h"
#include "obs/span.h"
#include "util/logging.h"
#include "util/timer.h"

namespace bgqhf::hf {

namespace {
class PhaseTimer {
 public:
  PhaseTimer(PhaseStats* stats, Phase phase)
      : stats_(stats), phase_(phase), span_(phase_label(phase), "master") {}
  ~PhaseTimer() {
    if (stats_ != nullptr) stats_->add(phase_, timer_.seconds());
  }

 private:
  PhaseStats* stats_;
  Phase phase_;
  obs::Span span_;
  util::Timer timer_;
};

// FT bookkeeping the fig-4/faults benches report: how often the master
// waited out a reply, retried, or gave a worker up.
obs::CounterId ft_retries_metric() {
  static const obs::CounterId id =
      obs::Schema::global().counter("hf.ft.retries");
  return id;
}
obs::CounterId ft_excluded_metric() {
  static const obs::CounterId id =
      obs::Schema::global().counter("hf.ft.excluded_workers");
  return id;
}
}  // namespace

MasterCompute::MasterCompute(simmpi::Comm& comm, std::size_t num_params,
                             std::size_t total_train_frames,
                             PhaseStats* stats, FtOptions ft,
                             AggregationOptions agg,
                             std::vector<std::size_t> segment_bounds)
    : comm_(&comm),
      num_params_(num_params),
      train_frames_(total_train_frames),
      stats_(stats),
      agg_(agg),
      bounds_(std::move(segment_bounds)),
      ft_(ft) {
  if (comm.rank() != 0) {
    throw std::logic_error("MasterCompute must run on rank 0");
  }
  if (ft_.enabled) agg_ = {};  // FT keeps the exact CRC-framed protocol
  if (agg_.active()) {
    if (bounds_.empty()) bounds_ = {0, num_params_};
    if (bounds_.front() != 0 || bounds_.back() != num_params_) {
      throw std::invalid_argument("MasterCompute: bad segment bounds");
    }
    check_stream_capacity(bounds_.size() - 1);
    zeros_.assign(num_params_, 0.0f);
    if (agg_.compress.active()) {
      grad_states_.resize(bounds_.size() - 1);
      sq_states_.resize(bounds_.size() - 1);
    }
  }
  alive_.assign(static_cast<std::size_t>(comm.size()), 1);
  curvature_counts_.assign(static_cast<std::size_t>(comm.size()), 0);
}

int MasterCompute::live_workers() const {
  int live = 0;
  for (int r = 1; r < comm_->size(); ++r) {
    if (alive_[static_cast<std::size_t>(r)]) ++live;
  }
  return live;
}

void MasterCompute::exclude(int rank, const char* reason) {
  if (!alive_[static_cast<std::size_t>(rank)]) return;
  alive_[static_cast<std::size_t>(rank)] = 0;
  excluded_.push_back(rank);
  obs::global_add(ft_excluded_metric());
  // A worker that saw a corrupt payload withdraws and leaves a note; the
  // note turns an anonymous timeout into an attributed corruption report.
  if (comm_->probe(rank, kTagFtFailure)) {
    const FtFrame<std::byte> note =
        ft_recv_for<std::byte>(*comm_, rank, kTagFtFailure, /*timeout=*/0.05);
    if (note.ok && note.status == FtStatus::kCorruptPayload) {
      reason = "worker reported corrupt payload";
    }
  }
  if (ft_.verbose) {
    BGQHF_WARN << "master: excluding worker rank " << rank << " (" << reason
               << "); " << live_workers() << " worker(s) remain";
  }
}

void MasterCompute::broadcast_command(Command cmd, std::uint64_t aux) {
  std::vector<std::uint64_t> header{static_cast<std::uint64_t>(cmd), aux};
  if (!ft_.enabled) {
    comm_->bcast(header, 0);
    return;
  }
  ft_send_all(std::as_bytes(std::span<const std::uint64_t>(header)),
              kTagFtCommand);
}

void MasterCompute::ft_send_all(std::span<const std::byte> payload,
                                int tag) {
  // One frame, checksummed once, shared by every live worker's mailbox.
  const simmpi::Payload frame = ft_frame({payload});
  for (int r = 1; r < comm_->size(); ++r) {
    if (!alive_[static_cast<std::size_t>(r)]) continue;
    comm_->send_shared(frame, r, tag);
  }
}

std::vector<FtFrame<std::byte>> MasterCompute::ft_collect_replies() {
  BGQHF_SPAN("fault", "ft_collect_replies");
  std::vector<FtFrame<std::byte>> replies(
      static_cast<std::size_t>(comm_->size()));
  for (int r = 1; r < comm_->size(); ++r) {
    if (!alive_[static_cast<std::size_t>(r)]) continue;
    double timeout = ft_.reply_timeout;
    bool answered = false;
    for (int attempt = 0; attempt <= ft_.max_retries; ++attempt) {
      try {
        FtFrame<std::byte> frame =
            ft_recv_for<std::byte>(*comm_, r, kTagFtReply, timeout);
        answered = true;
        if (!frame.ok) {
          exclude(r, "corrupt reply");
        } else if (frame.status != FtStatus::kOk) {
          exclude(r, "worker withdrew");
        } else {
          replies[static_cast<std::size_t>(r)] = std::move(frame);
        }
        break;
      } catch (const simmpi::TimeoutError&) {
        if (attempt < ft_.max_retries) {
          obs::global_add(ft_retries_metric());
          if (ft_.verbose) {
            BGQHF_WARN << "master: no reply from rank " << r << " within "
                       << timeout << " s, retrying";
          }
        }
        timeout *= ft_.backoff;
      }
    }
    if (!answered) exclude(r, "reply timeout");
  }
  return replies;
}

void MasterCompute::reduce_sum(std::span<float> out) {
  // The master contributes the identity; the tree reduce folds worker
  // partials in log depth and only O(N) bytes ever reach rank 0, versus
  // the P*N the gather-then-sum it replaced buffered at the root.
  std::vector<float> buf(out.size(), 0.0f);
  comm_->reduce_sum(buf, 0);
  std::copy(buf.begin(), buf.end(), out.begin());
}

void MasterCompute::reduce_sum_segmented(
    std::span<float> out, int stream_base,
    std::vector<simmpi::CompressState>* states) {
  // All segment reduces start before any wait, so worker blobs for late
  // segments drain into the mailbox while early ones fold.
  const simmpi::CompressOptions* copts =
      agg_.compress.active() ? &agg_.compress : nullptr;
  const std::size_t nseg = bounds_.size() - 1;
  std::vector<simmpi::AsyncReduce> handles;
  handles.reserve(nseg);
  for (std::size_t s = 0; s < nseg; ++s) {
    const std::size_t off = bounds_[s];
    const std::size_t len = bounds_[s + 1] - off;
    handles.push_back(simmpi::start_reduce_sum(
        *comm_, std::span<float>(zeros_).subspan(off, len),
        out.subspan(off, len), 0, stream_base + static_cast<int>(s), copts,
        states == nullptr ? nullptr : &(*states)[s]));
  }
  for (simmpi::AsyncReduce& h : handles) h.wait();
}

nn::BatchLoss MasterCompute::reduce_loss_stats() {
  std::vector<double> flat(kLossStatsLen, 0.0);
  comm_->reduce_sum(flat, 0);
  nn::BatchLoss total;
  total.loss_sum = flat[0];
  total.frames = static_cast<std::size_t>(flat[1]);
  total.correct = static_cast<std::size_t>(flat[2]);
  return total;
}

void MasterCompute::set_params(std::span<const float> theta) {
  PhaseTimer timer(stats_, Phase::kSyncWeights);
  broadcast_command(Command::kSetParams);
  if (ft_.enabled) {
    ft_send_all(std::as_bytes(theta), kTagFtPayload);
    return;
  }
  std::vector<float> buf(theta.begin(), theta.end());
  comm_->bcast(buf, 0);  // the paper's sync_weights MPI_Bcast
}

nn::BatchLoss MasterCompute::gradient(std::span<float> grad_out) {
  if (grad_out.size() != num_params_) {
    throw std::invalid_argument("MasterCompute::gradient: size mismatch");
  }
  PhaseTimer timer(stats_, Phase::kGradient);
  broadcast_command(Command::kGradient, /*aux=*/0);
  nn::BatchLoss total;
  if (!ft_.enabled) {
    if (agg_.active()) {
      reduce_sum_segmented(grad_out, /*stream_base=*/0,
                           agg_.compress.active() ? &grad_states_ : nullptr);
    } else {
      reduce_sum(grad_out);
    }
    total = reduce_loss_stats();
  } else {
    // Fold replies with the reduce tree's association: one slot per rank
    // (slot 0 = the master's zero contribution; lost or malformed workers
    // contribute the identity), so fault-free this is bitwise identical to
    // the collective path.
    const auto replies = ft_collect_replies();
    simmpi::PairwiseFold<float> fold;
    simmpi::PairwiseFold<double> loss_fold;
    fold.push(std::vector<float>(num_params_, 0.0f));
    loss_fold.push(std::vector<double>(kLossStatsLen, 0.0));
    for (int r = 1; r < comm_->size(); ++r) {
      const auto& reply = replies[static_cast<std::size_t>(r)];
      std::vector<float> slice(num_params_, 0.0f);
      std::vector<double> stats_flat(kLossStatsLen, 0.0);
      if (reply.ok) {
        std::span<const std::byte> in = reply.data;
        if (!consume_pod_span<float>(in, slice) ||
            !consume_pod_span<double>(in, stats_flat) || !in.empty()) {
          exclude(r, "malformed gradient reply");
          slice.assign(num_params_, 0.0f);
          stats_flat.assign(kLossStatsLen, 0.0);
        }
      }
      fold.push(std::move(slice));
      loss_fold.push(std::move(stats_flat));
    }
    const std::vector<float> sum = fold.finish();
    std::copy(sum.begin(), sum.end(), grad_out.begin());
    const std::vector<double> lf = loss_fold.finish();
    total.loss_sum = lf[0];
    total.frames = static_cast<std::size_t>(lf[1]);
    total.correct = static_cast<std::size_t>(lf[2]);
  }
  if (total.frames == 0) {
    throw std::runtime_error(
        "MasterCompute::gradient: no frames reported (all workers lost?)");
  }
  // Survivor reweighting: the sum only covers responding workers, and so
  // does `frames` — dividing by the surviving frame count keeps this the
  // exact mean gradient over the data that is still in the job.
  const float inv = 1.0f / static_cast<float>(total.frames);
  for (auto& g : grad_out) g *= inv;
  return total;
}

nn::BatchLoss MasterCompute::gradient_with_squares(
    std::span<float> grad_out, std::span<float> grad_sq_out) {
  if (grad_out.size() != num_params_ || grad_sq_out.size() != num_params_) {
    throw std::invalid_argument(
        "MasterCompute::gradient_with_squares: size mismatch");
  }
  PhaseTimer timer(stats_, Phase::kGradient);
  broadcast_command(Command::kGradient, /*aux=*/1);
  nn::BatchLoss total;
  if (!ft_.enabled) {
    if (agg_.active()) {
      const bool comp = agg_.compress.active();
      const int nseg = static_cast<int>(bounds_.size() - 1);
      reduce_sum_segmented(grad_out, /*stream_base=*/0,
                           comp ? &grad_states_ : nullptr);
      reduce_sum_segmented(grad_sq_out, /*stream_base=*/nseg,
                           comp ? &sq_states_ : nullptr);
    } else {
      reduce_sum(grad_out);
      reduce_sum(grad_sq_out);
    }
    total = reduce_loss_stats();
  } else {
    const auto replies = ft_collect_replies();
    simmpi::PairwiseFold<float> fold;
    simmpi::PairwiseFold<float> sq_fold;
    simmpi::PairwiseFold<double> loss_fold;
    fold.push(std::vector<float>(num_params_, 0.0f));
    sq_fold.push(std::vector<float>(num_params_, 0.0f));
    loss_fold.push(std::vector<double>(kLossStatsLen, 0.0));
    for (int r = 1; r < comm_->size(); ++r) {
      const auto& reply = replies[static_cast<std::size_t>(r)];
      std::vector<float> slice(num_params_, 0.0f);
      std::vector<float> sq_slice(num_params_, 0.0f);
      std::vector<double> stats_flat(kLossStatsLen, 0.0);
      if (reply.ok) {
        std::span<const std::byte> in = reply.data;
        if (!consume_pod_span<float>(in, slice) ||
            !consume_pod_span<float>(in, sq_slice) ||
            !consume_pod_span<double>(in, stats_flat) || !in.empty()) {
          exclude(r, "malformed gradient reply");
          slice.assign(num_params_, 0.0f);
          sq_slice.assign(num_params_, 0.0f);
          stats_flat.assign(kLossStatsLen, 0.0);
        }
      }
      fold.push(std::move(slice));
      sq_fold.push(std::move(sq_slice));
      loss_fold.push(std::move(stats_flat));
    }
    const std::vector<float> sum = fold.finish();
    std::copy(sum.begin(), sum.end(), grad_out.begin());
    const std::vector<float> sq_sum = sq_fold.finish();
    std::copy(sq_sum.begin(), sq_sum.end(), grad_sq_out.begin());
    const std::vector<double> lf = loss_fold.finish();
    total.loss_sum = lf[0];
    total.frames = static_cast<std::size_t>(lf[1]);
    total.correct = static_cast<std::size_t>(lf[2]);
  }
  if (total.frames == 0) {
    throw std::runtime_error(
        "MasterCompute::gradient: no frames reported (all workers lost?)");
  }
  const float inv = 1.0f / static_cast<float>(total.frames);
  for (auto& g : grad_out) g *= inv;
  return total;
}

void MasterCompute::prepare_curvature(std::uint64_t seed) {
  PhaseTimer timer(stats_, Phase::kCurvaturePrepare);
  broadcast_command(Command::kPrepareCurvature, seed);
  curvature_frames_ = 0;
  if (!ft_.enabled) {
    // Frame counts are integers carried in double; any sum order is exact.
    std::vector<double> count(1, 0.0);
    comm_->reduce_sum(count, 0);
    curvature_frames_ = static_cast<std::size_t>(count[0]);
    return;
  }
  std::fill(curvature_counts_.begin(), curvature_counts_.end(), 0);
  const auto replies = ft_collect_replies();
  for (int r = 1; r < comm_->size(); ++r) {
    const auto& reply = replies[static_cast<std::size_t>(r)];
    if (!reply.ok) continue;
    std::span<const std::byte> in = reply.data;
    double count = 0.0;
    if (!consume_pod_span<double>(in, std::span<double>(&count, 1)) ||
        !in.empty()) {
      exclude(r, "malformed curvature-count reply");
      continue;
    }
    curvature_counts_[static_cast<std::size_t>(r)] =
        static_cast<std::size_t>(count);
    curvature_frames_ += static_cast<std::size_t>(count);
  }
}

void MasterCompute::curvature_product(std::span<const float> v,
                                      std::span<float> out) {
  if (curvature_frames_ == 0) {
    throw std::logic_error("curvature_product before prepare_curvature");
  }
  PhaseTimer timer(stats_, Phase::kCurvatureProduct);
  broadcast_command(Command::kCurvatureProduct);
  if (!ft_.enabled) {
    std::vector<float> buf(v.begin(), v.end());
    comm_->bcast(buf, 0);
    reduce_sum(out);
    const float inv = 1.0f / static_cast<float>(curvature_frames_);
    for (auto& g : out) g *= inv;
    return;
  }
  ft_send_all(std::as_bytes(v), kTagFtPayload);
  const auto replies = ft_collect_replies();
  simmpi::PairwiseFold<float> fold;
  fold.push(std::vector<float>(num_params_, 0.0f));
  std::size_t responding_frames = 0;
  for (int r = 1; r < comm_->size(); ++r) {
    const auto& reply = replies[static_cast<std::size_t>(r)];
    std::vector<float> slice(num_params_, 0.0f);
    if (reply.ok) {
      std::span<const std::byte> in = reply.data;
      if (!consume_pod_span<float>(in, slice) || !in.empty()) {
        exclude(r, "malformed curvature-product reply");
        slice.assign(num_params_, 0.0f);
      } else {
        responding_frames += curvature_counts_[static_cast<std::size_t>(r)];
      }
    }
    fold.push(std::move(slice));
  }
  const std::vector<float> sum = fold.finish();
  std::copy(sum.begin(), sum.end(), out.begin());
  if (responding_frames == 0) {
    throw std::runtime_error(
        "MasterCompute::curvature_product: all workers lost");
  }
  // A worker lost mid-CG is subtracted from the denominator too, keeping
  // the product the exact sample mean over surviving shards.
  curvature_frames_ = responding_frames;
  const float inv = 1.0f / static_cast<float>(responding_frames);
  for (auto& g : out) g *= inv;
}

nn::BatchLoss MasterCompute::heldout_loss() {
  PhaseTimer timer(stats_, Phase::kHeldoutLoss);
  broadcast_command(Command::kHeldoutLoss);
  if (!ft_.enabled) return reduce_loss_stats();
  nn::BatchLoss total;
  const auto replies = ft_collect_replies();
  simmpi::PairwiseFold<double> loss_fold;
  loss_fold.push(std::vector<double>(kLossStatsLen, 0.0));
  for (int r = 1; r < comm_->size(); ++r) {
    const auto& reply = replies[static_cast<std::size_t>(r)];
    std::vector<double> stats_flat(kLossStatsLen, 0.0);
    if (reply.ok) {
      std::span<const std::byte> in = reply.data;
      if (!consume_pod_span<double>(in, stats_flat) || !in.empty()) {
        exclude(r, "malformed held-out reply");
        stats_flat.assign(kLossStatsLen, 0.0);
      }
    }
    loss_fold.push(std::move(stats_flat));
  }
  const std::vector<double> lf = loss_fold.finish();
  total.loss_sum = lf[0];
  total.frames = static_cast<std::size_t>(lf[1]);
  total.correct = static_cast<std::size_t>(lf[2]);
  if (total.frames == 0) {
    throw std::runtime_error(
        "MasterCompute::heldout_loss: no frames reported (all workers "
        "lost?)");
  }
  return total;
}

void MasterCompute::set_curvature_fraction(double fraction) {
  broadcast_command(Command::kSetCurvature,
                    std::bit_cast<std::uint64_t>(fraction));
}

void MasterCompute::shutdown() { broadcast_command(Command::kShutdown); }

}  // namespace bgqhf::hf

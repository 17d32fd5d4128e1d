#include "hf/master_compute.h"

#include <bit>
#include <numeric>
#include <stdexcept>

#include "hf/trainer.h"
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

// FT bookkeeping the fig-4/faults benches report: how many workers the
// master gave up.
obs::CounterId ft_excluded_metric() {
  static const obs::CounterId id =
      obs::Schema::global().counter("hf.ft.excluded_workers");
  return id;
}

/// Rank 0's shard: the one distribute_shards left in its own mailbox, or
/// an empty one when nothing was delivered.
std::unique_ptr<Workload> own_shard(simmpi::Comm& comm, std::size_t num_params,
                                    const FtOptions& ft) {
  if (comm.rank() != 0) {
    throw std::logic_error("MasterCompute must run on rank 0");
  }
  if (!comm.probe(0, kTagShardMeta)) {
    return std::make_unique<EmptyWorkload>(num_params);
  }
  std::unique_ptr<Workload> shard = receive_workload(comm, ft, nullptr);
  if (shard->num_params() != num_params) {
    throw std::invalid_argument("MasterCompute: shard/num_params mismatch");
  }
  return shard;
}
}  // namespace

MasterCompute::MasterCompute(simmpi::Comm& comm, std::size_t num_params,
                             std::size_t total_train_frames,
                             PhaseStats* stats, FtOptions ft,
                             AggregationOptions agg,
                             std::vector<std::size_t> segment_bounds)
    : comm_(comm),
      num_params_(num_params),
      train_frames_(total_train_frames),
      stats_(stats),
      ft_(ft),
      workload_(own_shard(comm_, num_params, ft)),
      share_(comm_, *workload_, ft, agg, std::move(segment_bounds)) {
  comm_.set_checksums(ft_.enabled);
  ranks_.resize(static_cast<std::size_t>(comm.size()));
  std::iota(ranks_.begin(), ranks_.end(), 0);
  curvature_counts_.assign(ranks_.size(), 0);
}

template <typename Fn>
auto MasterCompute::run(Fn&& body) {
  for (int fruitless = 0;;) {
    try {
      if (resync_) {
        // Replay the state every survivor must hold, in its original
        // order; a worker that already holds it recomputes the same.
        resync_ = false;
        if (curvature_fraction_) {
          broadcast_command(Command::kSetCurvature,
                            std::bit_cast<std::uint64_t>(*curvature_fraction_));
        }
        if (!theta_.empty()) send_params(theta_);
        if (prepared_seed_) send_prepare(*prepared_seed_);
      }
      return body();
    } catch (const simmpi::CommError& e) {
      if (!ft_.enabled) throw;
      if (ft_.verbose) {
        BGQHF_WARN << "master: " << e.what() << "; shrinking to survivors";
      }
      const auto* revoked = dynamic_cast<const simmpi::Revoked*>(&e);
      const std::size_t lost =
          revoked != nullptr ? recover(revoked->revoker(), revoked->reason())
                             : recover(-1, {});
      // A transient fault costs one re-run; a second failure that
      // excludes nobody would recur forever.
      if (lost == 0 && ++fruitless > 1) throw;
    }
  }
}

std::size_t MasterCompute::recover(int revoker, const std::string& reason) {
  BGQHF_SPAN("fault", "shrink");
  simmpi::Comm next = comm_.shrink(ft_.reply_deadline());
  std::vector<int> ranks;
  std::vector<std::size_t> counts;
  std::size_t lost = 0;
  for (int r = 0, j = 0; r < comm_.size(); ++r) {
    const auto slot = static_cast<std::size_t>(r);
    const int world = comm_.world_rank_of(r);
    if (j < next.size() && next.world_rank_of(j) == world) {
      ranks.push_back(ranks_[slot]);
      counts.push_back(curvature_counts_[slot]);
      ++j;
      continue;
    }
    ++lost;
    excluded_.push_back(ranks_[slot]);
    obs::global_add(ft_excluded_metric());
    if (ft_.verbose) {
      BGQHF_WARN << "master: excluding worker rank " << ranks_[slot] << " ("
                 << (world == revoker && !reason.empty() ? reason
                                                         : "reply timeout")
                 << "); " << next.size() - 1 << " worker(s) remain";
    }
  }
  comm_ = next;
  ranks_ = std::move(ranks);
  curvature_counts_ = std::move(counts);
  // A worker lost mid-CG leaves the product denominator with it, keeping
  // the product the exact sample mean over the surviving shards.
  curvature_frames_ = std::accumulate(curvature_counts_.begin(),
                                      curvature_counts_.end(),
                                      std::size_t{0});
  resync_ = true;
  return lost;
}

void MasterCompute::broadcast_command(Command cmd, std::uint64_t aux) {
  std::vector<std::uint64_t> header{static_cast<std::uint64_t>(cmd), aux};
  comm_.bcast(header, 0, ft_.reply_deadline());
}

void MasterCompute::send_params(std::span<const float> theta) {
  broadcast_command(Command::kSetParams);
  std::vector<float> buf(theta.begin(), theta.end());
  comm_.bcast(buf, 0, ft_.reply_deadline());  // the paper's sync_weights
  workload_->set_params(theta);
}

void MasterCompute::send_prepare(std::uint64_t seed) {
  broadcast_command(Command::kPrepareCurvature, seed);
  curvature_counts_ = share_.prepare_curvature(seed);
  curvature_frames_ = std::accumulate(curvature_counts_.begin(),
                                      curvature_counts_.end(), std::size_t{0});
}

void MasterCompute::set_params(std::span<const float> theta) {
  PhaseTimer timer(stats_, Phase::kSyncWeights);
  if (ft_.enabled) theta_.assign(theta.begin(), theta.end());
  prepared_seed_.reset();  // new θ invalidates the workers' curvature cache
  run([&] { send_params(theta); });
}

nn::BatchLoss MasterCompute::gradient(std::span<float> grad_out) {
  if (grad_out.size() != num_params_) {
    throw std::invalid_argument("MasterCompute::gradient: size mismatch");
  }
  return gradient_impl(grad_out, {});
}

nn::BatchLoss MasterCompute::gradient_with_squares(
    std::span<float> grad_out, std::span<float> grad_sq_out) {
  if (grad_out.size() != num_params_ || grad_sq_out.size() != num_params_) {
    throw std::invalid_argument(
        "MasterCompute::gradient_with_squares: size mismatch");
  }
  return gradient_impl(grad_out, grad_sq_out);
}

nn::BatchLoss MasterCompute::gradient_impl(std::span<float> grad_out,
                                           std::span<float> grad_sq_out) {
  PhaseTimer timer(stats_, Phase::kGradient);
  const bool squares = grad_sq_out.data() != nullptr;
  const nn::BatchLoss total = run([&] {
    broadcast_command(Command::kGradient, /*aux=*/squares ? 1 : 0);
    return share_.gradient(squares, grad_out, grad_sq_out);
  });
  if (total.frames == 0) {
    throw std::runtime_error(
        "MasterCompute::gradient: no frames reported (all workers lost?)");
  }
  // Survivor reweighting: the sum only covers rank 0 and the responding
  // workers, and so does `frames` — dividing by the surviving frame count
  // keeps this the exact mean gradient over the data still in the job.
  const float inv = 1.0f / static_cast<float>(total.frames);
  for (auto& g : grad_out) g *= inv;
  return total;
}

void MasterCompute::prepare_curvature(std::uint64_t seed) {
  PhaseTimer timer(stats_, Phase::kCurvaturePrepare);
  prepared_seed_ = seed;
  run([&] { send_prepare(seed); });
}

void MasterCompute::curvature_product(std::span<const float> v,
                                      std::span<float> out) {
  if (curvature_frames_ == 0) {
    throw std::logic_error("curvature_product before prepare_curvature");
  }
  PhaseTimer timer(stats_, Phase::kCurvatureProduct);
  std::vector<float> buf(v.begin(), v.end());
  run([&] {
    broadcast_command(Command::kCurvatureProduct);
    comm_.bcast(buf, 0, ft_.reply_deadline());
    share_.curvature_product(v, out);
  });
  if (curvature_frames_ == 0) {
    throw std::runtime_error(
        "MasterCompute::curvature_product: no curvature frames left");
  }
  const float inv = 1.0f / static_cast<float>(curvature_frames_);
  for (auto& g : out) g *= inv;
}

nn::BatchLoss MasterCompute::heldout_loss() {
  PhaseTimer timer(stats_, Phase::kHeldoutLoss);
  const nn::BatchLoss total = run([&] {
    broadcast_command(Command::kHeldoutLoss);
    return share_.heldout_loss();
  });
  if (total.frames == 0) {
    throw std::runtime_error(
        "MasterCompute::heldout_loss: no frames reported (all workers "
        "lost?)");
  }
  return total;
}

void MasterCompute::set_curvature_fraction(double fraction) {
  curvature_fraction_ = fraction;
  run([&] {
    broadcast_command(Command::kSetCurvature,
                      std::bit_cast<std::uint64_t>(fraction));
  });
  workload_->set_curvature_fraction(fraction);
}

void MasterCompute::shutdown() {
  run([&] { broadcast_command(Command::kShutdown); });
}

}  // namespace bgqhf::hf

// Fault tolerance on the collective master/worker path: fault-free it is
// bitwise identical to the plain path (and hence to serial training); under
// injected failures the survivors revoke and shrink, the master excludes the
// dead worker, reweights sums over the survivors, and training still
// converges — the degraded-mode contract.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "hf/fault_tolerance.h"
#include "hf/master_compute.h"
#include "hf/optimizer.h"
#include "hf/protocol.h"
#include "hf/serial_compute.h"
#include "hf/speech_workload.h"
#include "hf/trainer.h"
#include "hf/worker.h"
#include "simmpi/collective.h"
#include "simmpi/communicator.h"
#include "simmpi/fault.h"
#include "util/config.h"
#include "util/timer.h"

namespace bgqhf::hf {
namespace {

FtOptions fast_ft() {
  FtOptions ft;
  ft.enabled = true;
  ft.reply_timeout = 1.875;  // 0.5 s waited out three times, x1.5 backoff
  ft.command_timeout = 10.0;
  ft.verbose = false;
  return ft;
}

TrainerConfig base_config(int workers) {
  TrainerConfig cfg;
  cfg.workers = workers;
  cfg.corpus.hours = 0.01;
  cfg.corpus.feature_dim = 8;
  cfg.corpus.num_states = 4;
  cfg.corpus.mean_utt_seconds = 1.0;
  cfg.corpus.seed = 303;
  cfg.context = 1;
  cfg.hidden = {12};
  cfg.heldout_every_kth = 4;
  cfg.hf.hyper.curvature_fraction = 0.15;
  cfg.hf.max_iterations = 3;
  cfg.hf.hyper.cg_max_iters = 15;
  cfg.hf.seed = 11;
  // FT rejects an active aggregation path; keep an env-set codec out.
  cfg.aggregation = {};
  return cfg;
}

/// Workload with exactly known sums: gradient contribution g per frame,
/// identity per-frame curvature. Makes survivor reweighting checkable in
/// closed form.
class StubWorkload : public Workload {
 public:
  StubWorkload(std::size_t n, std::size_t frames, float g)
      : n_(n), frames_(frames), g_(g) {}

  std::size_t num_params() const override { return n_; }
  std::size_t train_frames() const override { return frames_; }
  void set_params(std::span<const float>) override {}
  nn::BatchLoss gradient(std::span<float> grad_accum) override {
    for (auto& v : grad_accum) v += g_ * static_cast<float>(frames_);
    nn::BatchLoss loss;
    loss.frames = frames_;
    loss.loss_sum = static_cast<double>(frames_) * g_;
    return loss;
  }
  nn::BatchLoss gradient_with_squares(
      std::span<float> grad_accum, std::span<float> grad_sq_accum) override {
    for (auto& v : grad_sq_accum) v += g_ * g_ * static_cast<float>(frames_);
    return gradient(grad_accum);
  }
  void prepare_curvature(std::uint64_t) override {}
  std::size_t curvature_frames() const override { return frames_; }
  void curvature_product(std::span<const float> v,
                         std::span<float> out_accum) override {
    for (std::size_t i = 0; i < v.size(); ++i) {
      out_accum[i] += static_cast<float>(frames_) * v[i];
    }
  }
  nn::BatchLoss heldout_loss() override {
    nn::BatchLoss loss;
    loss.frames = frames_;
    loss.loss_sum = static_cast<double>(frames_) * g_;
    return loss;
  }

 private:
  std::size_t n_;
  std::size_t frames_;
  float g_;
};

TEST(FaultTolerance, FaultFreeFtTrajectoryBitwiseEqualsSerial) {
  TrainerConfig cfg = base_config(3);
  const TrainOutcome serial = train_serial(cfg);
  cfg.ft = fast_ft();
  const TrainOutcome ft = train_distributed(cfg);
  EXPECT_TRUE(ft.excluded_workers.empty());
  ASSERT_EQ(serial.theta.size(), ft.theta.size());
  for (std::size_t i = 0; i < serial.theta.size(); ++i) {
    ASSERT_EQ(serial.theta[i], ft.theta[i]) << "param " << i;
  }
  EXPECT_EQ(serial.hf.final_heldout_loss, ft.hf.final_heldout_loss);
}

TEST(FaultTolerance, RejectsActiveAggregationInsteadOfIgnoringIt) {
  TrainerConfig cfg = base_config(2);
  cfg.ft = fast_ft();
  cfg.aggregation.compress.mode = simmpi::CompressMode::kTopK;
  try {
    (void)train_distributed(cfg);
    ADD_FAILURE() << "FT with compression must be rejected";
  } catch (const util::ConfigError& e) {
    EXPECT_EQ(e.knob(), "BGQHF_COMPRESS");
    EXPECT_EQ(e.value(), "topk");
  }
  // train_over rejects on every rank, before any message moves.
  const Shards shards = build_shards(cfg);
  TrainOutcome out;
  out.worker_phases.resize(2);
  simmpi::World world(3);
  try {
    simmpi::run_ranks(world, [&](simmpi::Comm& comm) {
      train_over(comm, cfg, shards, nullptr, out);
    });
    ADD_FAILURE() << "train_over must reject FT with compression";
  } catch (const std::exception& e) {
    EXPECT_NE(std::string(e.what()).find("BGQHF_COMPRESS"), std::string::npos)
        << e.what();
  }
  EXPECT_EQ(world.total_stats().p2p_messages(), 0u);
  EXPECT_EQ(world.total_stats().collective_calls(), 0u);
}

TEST(FaultTolerance, MidRunWorkerKillCompletesAndStaysClose) {
  TrainerConfig cfg = base_config(3);
  cfg.ft = fast_ft();
  const TrainOutcome clean = train_distributed(cfg);
  ASSERT_TRUE(clean.excluded_workers.empty());

  TrainerConfig faulty = cfg;
  // Dies mid-training, well after startup (config + 6 shard receives):
  // op 26 is its receive of the first prepare-curvature command header.
  faulty.faults.kills.push_back({/*rank=*/2, /*after_ops=*/26});
  const TrainOutcome degraded = train_distributed(faulty);

  // No deadlock: all iterations ran, the dead worker was excluded and the
  // run reports it.
  ASSERT_EQ(degraded.excluded_workers, std::vector<int>{2});
  EXPECT_EQ(degraded.hf.iterations.size(), clean.hf.iterations.size());
  // Degraded-mode quality: held-out loss within 5% of the fault-free run.
  EXPECT_NEAR(degraded.hf.final_heldout_loss, clean.hf.final_heldout_loss,
              0.05 * clean.hf.final_heldout_loss);
}

TEST(FaultTolerance, SurvivorReweightingIsExactMeanOverSurvivors) {
  const std::size_t n = 4;
  // Worker 1: 10 frames of gradient 0.5; worker 2: 30 frames of 1.5.
  // All alive: (10*0.5 + 30*1.5) / 40 = 1.25. Worker 2 dead: 0.5 exactly.
  for (const bool kill_worker2 : {false, true}) {
    simmpi::World world(3);
    FtOptions ft = fast_ft();
    ft.reply_timeout = 0.25;  // 0.1 s waited out twice, x1.5 backoff
    std::vector<float> grad(n, 0.0f);
    std::atomic<std::size_t> frames{0};
    std::vector<int> excluded;
    simmpi::run_ranks(world, [&](simmpi::Comm& comm) {
      if (comm.rank() == 0) {
        MasterCompute compute(comm, n, /*total_train_frames=*/40, nullptr,
                              ft);
        frames = compute.gradient(grad).frames;
        excluded = compute.excluded_workers();
        compute.shutdown();
        return;
      }
      if (comm.rank() == 2 && kill_worker2) return;  // silent death
      StubWorkload workload(n, comm.rank() == 1 ? 10 : 30,
                            comm.rank() == 1 ? 0.5f : 1.5f);
      worker_loop(comm, workload, nullptr, ft);
    });
    const float expected = kill_worker2 ? 0.5f : 1.25f;
    const std::size_t expected_frames = kill_worker2 ? 10u : 40u;
    EXPECT_EQ(frames.load(), expected_frames);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(grad[i], expected) << "kill=" << kill_worker2 << " i=" << i;
    }
    if (kill_worker2) {
      EXPECT_EQ(excluded, std::vector<int>{2});
    } else {
      EXPECT_TRUE(excluded.empty());
    }
  }
}

TEST(FaultTolerance, MasterFinishesOnItsOwnShardWhenEveryWorkerDies) {
  // Both workers die at their first op (the config broadcast), so from the
  // first reply deadline on the master is the whole job: every sum is rank
  // 0's own and every mean divides by shard 0's frames alone. The run
  // therefore equals serial training over shard 0, bitwise.
  TrainerConfig cfg = base_config(2);
  cfg.ft = fast_ft();
  cfg.ft.reply_timeout = 0.25;
  cfg.faults.kills.push_back({/*rank=*/1, /*after_ops=*/0});
  cfg.faults.kills.push_back({/*rank=*/2, /*after_ops=*/0});
  const TrainOutcome alone = train_distributed(cfg);
  EXPECT_EQ(alone.excluded_workers, (std::vector<int>{1, 2}));
  ASSERT_EQ(alone.hf.iterations.size(), cfg.hf.max_iterations);

  Shards shards = build_shards(cfg);
  const SpeechWorkloadOptions opts = make_workload_options(
      cfg, shards.num_states, shards.advance_prob, nullptr);
  std::vector<std::unique_ptr<Workload>> shard0;
  shard0.push_back(std::make_unique<SpeechWorkload>(
      shards.net, std::move(shards.train[0]), std::move(shards.heldout[0]),
      0, opts));
  SerialCompute serial(std::move(shard0));
  std::vector<float> theta(shards.net.params().begin(),
                           shards.net.params().end());
  const HfResult expected = HfOptimizer(cfg.hf).run(serial, theta);
  ASSERT_EQ(theta.size(), alone.theta.size());
  for (std::size_t i = 0; i < theta.size(); ++i) {
    ASSERT_EQ(theta[i], alone.theta[i]) << "param " << i;
  }
  EXPECT_EQ(expected.final_heldout_loss, alone.hf.final_heldout_loss);
}

TEST(FaultTolerance, SurvivorMeansCountTheMastersFrames) {
  // Rank 0 trains on a real shard; workers 1 and 2 are stubs with 10
  // frames of gradient 0.5 and 30 of 1.5. The master's frames stay in
  // every denominator: alive, the mean folds all three partials in rank
  // order; with worker 2 dead, rank 0's and worker 1's.
  TrainerConfig cfg = base_config(2);
  Shards shards = build_shards(cfg);
  const std::size_t n = shards.net.num_params();
  const std::size_t f0 = shards.train[0].num_frames();
  SpeechWorkload own(shards.net, shards.train[0], shards.heldout[0], 0,
                     make_workload_options(cfg, shards.num_states,
                                           shards.advance_prob, nullptr));
  std::vector<float> g0(n, 0.0f);
  const nn::BatchLoss own_loss = own.gradient(g0);
  ASSERT_EQ(own_loss.frames, f0);
  auto stub_sum = [&](float g, std::size_t frames) {
    return std::vector<float>(n, g * static_cast<float>(frames));
  };
  for (const bool kill_worker2 : {false, true}) {
    SCOPED_TRACE(testing::Message() << "kill worker 2: " << kill_worker2);
    simmpi::PairwiseFold<float> fold;
    fold.push(g0);
    fold.push(stub_sum(0.5f, 10));
    if (!kill_worker2) fold.push(stub_sum(1.5f, 30));
    std::vector<float> expected = fold.finish();
    const std::size_t frames = f0 + 10 + (kill_worker2 ? 0 : 30);
    const float inv = 1.0f / static_cast<float>(frames);
    for (auto& v : expected) v *= inv;

    simmpi::World world(3);
    FtOptions ft = fast_ft();
    ft.reply_timeout = 0.25;
    std::vector<float> grad(n, 0.0f);
    std::atomic<std::size_t> got_frames{0};
    std::vector<int> excluded;
    simmpi::run_ranks(world, [&](simmpi::Comm& comm) {
      if (comm.rank() == 0) {
        distribute_shards(comm, cfg, shards, nullptr);
        MasterCompute compute(comm, n, shards.total_train_frames, nullptr,
                              ft);
        compute.set_params(shards.net.params());
        got_frames = compute.gradient(grad).frames;
        excluded = compute.excluded_workers();
        compute.shutdown();
        return;
      }
      std::vector<std::uint64_t> blob;
      comm.bcast(blob, 0);  // the config blob; the shard stays unread
      if (comm.rank() == 2 && kill_worker2) return;  // silent death
      StubWorkload workload(n, comm.rank() == 1 ? 10 : 30,
                            comm.rank() == 1 ? 0.5f : 1.5f);
      worker_loop(comm, workload, nullptr, ft);
    });
    EXPECT_EQ(got_frames.load(), frames);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(grad[i], expected[i]) << "i=" << i;
    }
    EXPECT_EQ(excluded,
              kill_worker2 ? std::vector<int>{2} : std::vector<int>{});
  }
}

/// StubWorkload that keeps the θ it was last given.
class RecordingWorkload : public StubWorkload {
 public:
  using StubWorkload::StubWorkload;
  void set_params(std::span<const float> theta) override {
    theta_.assign(theta.begin(), theta.end());
  }
  const std::vector<float>& theta() const { return theta_; }

 private:
  std::vector<float> theta_;
};

TEST(FaultTolerance, CorruptSharedBroadcastFrameHitsOnlyOneWorker) {
  // set_params broadcasts the command header, then θ, each down the
  // binomial tree 0 -> {2, 1}, 2 -> 3 as one message per edge. The
  // master's sends are the header to workers 2, 1 (0, 1), then θ to
  // workers 2, 1 (2, 3): flipping a bit in send 2 corrupts worker 2's copy
  // of θ alone.
  const std::size_t n = 4;
  simmpi::World world(4);
  simmpi::FaultConfig fc;
  fc.seed = 17;
  fc.corrupt_sends.push_back({/*rank=*/0, /*send_index=*/2});
  world.install_faults(fc);
  FtOptions ft = fast_ft();
  ft.reply_timeout = 0.25;  // 0.1 s waited out twice, x1.5 backoff
  ft.verbose = true;  // exclusion reasons are asserted from the log

  const std::vector<float> theta{0.25f, -1.0f, 3.5f, 8.0f};
  const std::vector<float> v{1.0f, -2.0f, 0.5f, 4.0f};
  std::vector<float> grad(n, 0.0f);
  std::vector<float> product(n, 0.0f);
  std::size_t grad_frames = 0;
  std::vector<int> excluded;
  std::vector<std::vector<float>> seen(4);
  testing::internal::CaptureStderr();
  simmpi::run_ranks(world, [&](simmpi::Comm& comm) {
    if (comm.rank() == 0) {
      MasterCompute compute(comm, n, /*total_train_frames=*/46, nullptr, ft);
      compute.set_params(theta);
      grad_frames = compute.gradient(grad).frames;
      compute.prepare_curvature(/*seed=*/1);
      compute.curvature_product(v, product);
      excluded = compute.excluded_workers();
      compute.shutdown();
      return;
    }
    // Survivors 1 and 3 hold 10 + 6 = 16 frames, so the survivor means
    // below are exact in float: (10*0.5 + 6*2.5) / 16 = 1.25, and the
    // curvature product (10 + 6) * v / 16 = v.
    const int r = comm.rank();
    RecordingWorkload workload(n, r == 1 ? 10 : r == 2 ? 30 : 6,
                               r == 1 ? 0.5f : r == 2 ? 1.5f : 2.5f);
    worker_loop(comm, workload, nullptr, ft);
    seen[static_cast<std::size_t>(r)] = workload.theta();
  });
  const std::string log = testing::internal::GetCapturedStderr();

  EXPECT_EQ(world.faults()->log(0).corruptions, 1u);
  EXPECT_EQ(excluded, std::vector<int>{2});
  EXPECT_NE(log.find("worker rank 2: corrupt theta payload"),
            std::string::npos)
      << log;
  EXPECT_NE(log.find("excluding worker rank 2 (worker reported corrupt "
                     "payload)"),
            std::string::npos)
      << log;
  // Worker 2 rejected θ before using it; the others got it bitwise.
  EXPECT_TRUE(seen[2].empty());
  EXPECT_EQ(seen[1], theta);
  EXPECT_EQ(seen[3], theta);
  EXPECT_EQ(grad_frames, 16u);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(grad[i], 1.25f) << "i=" << i;
    EXPECT_EQ(product[i], v[i]) << "i=" << i;
  }
}

TEST(FaultTolerance, ChecksumCatchesInjectedBitFlip) {
  simmpi::World world(2);
  simmpi::FaultConfig fc;
  fc.seed = 9;
  fc.corrupt_probability = 1.0;
  world.install_faults(fc);
  std::atomic<bool> caught{false};
  simmpi::run_ranks(world, [&](simmpi::Comm& comm) {
    comm.set_checksums(true);
    if (comm.rank() == 0) {
      const std::vector<float> payload{1.0f, 2.0f, 3.0f, 4.0f};
      comm.send<float>(payload, 1, /*tag=*/50);
    } else {
      try {
        (void)comm.recv<float>(0, 50, simmpi::Deadline::in(2.0));
      } catch (const simmpi::CorruptMessage& e) {
        caught = e.source() == 0 && e.tag() == 50;
      }
    }
  });
  EXPECT_TRUE(caught.load());
}

TEST(FaultTolerance, WorkerReportsCorruptCommandAndWithdraws) {
  const FtOptions ft = fast_ft();
  simmpi::World world(2);
  simmpi::FaultConfig fc;
  fc.seed = 5;
  // The master's first send: its command header broadcast to worker 1.
  fc.corrupt_sends.push_back({/*rank=*/0, /*send_index=*/0});
  world.install_faults(fc);
  std::atomic<bool> note_ok{false};
  std::atomic<bool> note_is_corruption_report{false};
  std::atomic<bool> worker_returned{false};
  simmpi::run_ranks(world, [&](simmpi::Comm& comm) {
    if (comm.rank() == 0) {
      comm.set_checksums(true);
      std::vector<std::uint64_t> header{
          static_cast<std::uint64_t>(Command::kHeldoutLoss), 0};
      comm.bcast(header, 0);
      std::vector<double> loss(kLossStatsLen, 0.0);
      try {
        comm.reduce_sum(loss, 0, simmpi::Deadline::in(2.0));
      } catch (const simmpi::Revoked& e) {
        note_ok = e.revoker() == 1;
        note_is_corruption_report = e.reason() == kCorruptPayloadReason;
      }
    } else {
      StubWorkload workload(4, 10, 1.0f);
      worker_loop(comm, workload, nullptr, ft);  // returns after withdrawing
      worker_returned = true;
    }
  });
  EXPECT_TRUE(note_ok.load());
  EXPECT_TRUE(note_is_corruption_report.load());
  EXPECT_TRUE(worker_returned.load());
}

// ---- fault-scenario sweep ----
//
// Every injected fault either completes on the survivors — with exactly
// the expected workers excluded and held-out CE within 5% of the clean
// run — or throws a typed error, and in either case returns within 20x
// the reply deadline. Topology: 3 workers, binomial trees 0 -> {2, 1},
// 2 -> 3, so worker 2 relays to worker 3.

constexpr double kSweepReply = 0.5;

TrainerConfig sweep_config() {
  TrainerConfig cfg = base_config(3);
  cfg.ft = fast_ft();
  cfg.ft.reply_timeout = kSweepReply;
  cfg.ft.command_timeout = 4.0;
  return cfg;
}

void expect_recovers(const TrainerConfig& cfg, const TrainOutcome& clean,
                     const std::vector<int>& excluded) {
  util::Timer timer;
  TrainOutcome out;
  try {
    out = train_distributed(cfg);
  } catch (const simmpi::CommError& e) {
    ADD_FAILURE() << "typed failure instead of recovery: " << e.what();
    EXPECT_LT(timer.seconds(), 20 * kSweepReply);
    return;
  }
  EXPECT_LT(timer.seconds(), 20 * kSweepReply);
  EXPECT_EQ(out.excluded_workers, excluded);
  EXPECT_EQ(out.hf.iterations.size(), clean.hf.iterations.size());
  EXPECT_NEAR(out.hf.final_heldout_loss, clean.hf.final_heldout_loss,
              0.05 * clean.hf.final_heldout_loss);
  if (excluded.empty()) {
    // A re-run over the same workers reproduces the clean trajectory.
    EXPECT_EQ(out.hf.final_heldout_loss, clean.hf.final_heldout_loss);
  }
}

TEST(FaultSweep, KillEachWorkerAtThreeOpCounts) {
  // Early, mid and late in the run, each kill aimed at one message. On
  // leaves 1 and 3, op 20 is a curvature-product reply, op 56 the
  // receive of a held-out-loss command header and op 121 the receive of
  // a θ broadcast. On worker 2, which relays to worker 3, op 18 is the
  // receive of a θ broadcast, and ops 56 and 120 are its relays of a CG
  // vector and of a θ broadcast to worker 3.
  const struct {
    int worker;
    std::size_t ops[3];
  } kills[] = {{1, {20, 56, 121}}, {2, {18, 56, 120}}, {3, {20, 56, 121}}};
  const TrainerConfig cfg = sweep_config();
  const TrainOutcome clean = train_distributed(cfg);
  for (const auto& k : kills) {
    for (const std::size_t ops : k.ops) {
      SCOPED_TRACE(testing::Message() << "worker " << k.worker << " after "
                                      << ops << " ops");
      TrainerConfig faulty = cfg;
      faulty.faults.kills.push_back({k.worker, ops});
      expect_recovers(faulty, clean, {k.worker});
    }
  }
}

TEST(FaultSweep, DroppedBroadcastIsReplayedWithoutExclusion) {
  // The master's sends after startup (2 config-bcast sends, the config
  // and shard 0 to itself, 18 shard sends to the workers: 27 in all) are
  // broadcasts of 2 sends each, to worker 2 then worker 1. Sends 47 and
  // 48 carry the second CG vector to worker 2 and to worker 1; drop one.
  // The starved workers rejoin the shrink, so nobody is
  // excluded and the re-run reproduces the clean trajectory.
  const TrainerConfig cfg = sweep_config();
  const TrainOutcome clean = train_distributed(cfg);
  for (const std::size_t index : {47u, 48u}) {
    SCOPED_TRACE(testing::Message() << "master send " << index);
    TrainerConfig faulty = cfg;
    faulty.faults.drop_sends.push_back({0, index});
    expect_recovers(faulty, clean, {});
  }
}

TEST(FaultSweep, CorruptPayloads) {
  const TrainerConfig cfg = sweep_config();
  const TrainOutcome clean = train_distributed(cfg);
  {
    // Odd master send indices past startup go to worker 2, which
    // withdraws rather than use (or relay) the corrupt payload; send 47 is
    // the second CG vector.
    TrainerConfig faulty = cfg;
    faulty.faults.corrupt_sends.push_back({0, 47});
    expect_recovers(faulty, clean, {2});
  }
  {
    // Worker 1 replies straight to the master, which detects the flip,
    // revokes, and re-runs the primitive with everyone.
    TrainerConfig faulty = cfg;
    faulty.faults.corrupt_sends.push_back({1, 5});
    expect_recovers(faulty, clean, {});
  }
}

TEST(FaultSweep, ReplyDelayedPastTheDeadlineIsExcluded) {
  TrainerConfig cfg = sweep_config();
  const TrainOutcome clean = train_distributed(cfg);
  cfg.faults.delay_sends.push_back({3, 5});
  cfg.faults.delay_seconds = 4 * kSweepReply;
  expect_recovers(cfg, clean, {3});
}

}  // namespace
}  // namespace bgqhf::hf

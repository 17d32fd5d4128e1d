#include "hf/trainer.h"

#include <bit>
#include <memory>
#include <numeric>
#include <stdexcept>

#include "hf/checkpoint.h"
#include "hf/master_compute.h"
#include "hf/pretrain.h"
#include "hf/protocol.h"
#include "hf/serial_compute.h"
#include "hf/worker.h"
#include "nn/rbm.h"
#include "obs/span.h"
#include "simmpi/communicator.h"
#include "simmpi/fault.h"
#include "util/logging.h"
#include "util/timer.h"

namespace bgqhf::hf {

namespace {

// ---- dataset wire format (load_data phase, p2p) ----

void send_dataset(simmpi::Comm& comm, int dest, const speech::Dataset& ds,
                  int meta_tag, int labels_tag, int x_tag) {
  std::vector<std::uint64_t> meta;
  meta.push_back(ds.x.rows());
  meta.push_back(ds.x.cols());
  meta.push_back(ds.offsets.size());
  for (const auto o : ds.offsets) meta.push_back(o);
  comm.send<std::uint64_t>(meta, dest, meta_tag);
  comm.send<int>(ds.labels, dest, labels_tag);
  comm.send<float>(std::span<const float>(ds.x.data(), ds.x.size()), dest,
                   x_tag);
}

speech::Dataset recv_dataset(simmpi::Comm& comm, int src, int meta_tag,
                             int labels_tag, int x_tag, const FtOptions& ft) {
  const std::vector<std::uint64_t> meta =
      comm.recv<std::uint64_t>(src, meta_tag, ft.command_deadline());
  if (meta.size() < 3) throw std::logic_error("recv_dataset: bad meta");
  speech::Dataset ds;
  const std::size_t rows = meta[0];
  const std::size_t cols = meta[1];
  const std::size_t num_offsets = meta[2];
  ds.offsets.assign(meta.begin() + 3,
                    meta.begin() + 3 + static_cast<std::ptrdiff_t>(num_offsets));
  ds.labels = comm.recv<int>(src, labels_tag, ft.command_deadline());
  ds.x = blas::Matrix<float>(rows, cols);
  const std::size_t got =
      comm.recv_into(std::span<float>(ds.x.data(), ds.x.size()), src, x_tag,
                     ft.command_deadline());
  if (got != rows * cols || ds.labels.size() != rows) {
    throw std::logic_error("recv_dataset: size mismatch");
  }
  return ds;
}

// ---- network/criterion config wire format (broadcast once) ----

std::vector<std::uint64_t> encode_config(const TrainerConfig& config,
                                         const Shards& shards) {
  std::vector<std::uint64_t> blob;
  blob.push_back(shards.net.input_dim());
  blob.push_back(shards.num_states);
  blob.push_back(config.hidden.size());
  for (const auto h : config.hidden) blob.push_back(h);
  blob.push_back(static_cast<std::uint64_t>(config.criterion));
  blob.push_back(config.batch_frames);
  blob.push_back(
      std::bit_cast<std::uint64_t>(config.hf.hyper.curvature_fraction));
  blob.push_back(std::bit_cast<std::uint64_t>(shards.advance_prob));
  return blob;
}

struct DecodedConfig {
  std::size_t input_dim = 0;
  std::size_t num_states = 0;
  std::vector<std::size_t> hidden;
  Criterion criterion = Criterion::kCrossEntropy;
  std::size_t batch_frames = 0;
  double curvature_fraction = 0.0;
  double advance_prob = 0.0;
};

DecodedConfig decode_config(const std::vector<std::uint64_t>& blob) {
  if (blob.size() < 4) throw std::logic_error("decode_config: short blob");
  DecodedConfig cfg;
  std::size_t i = 0;
  cfg.input_dim = blob[i++];
  cfg.num_states = blob[i++];
  const std::size_t nh = blob[i++];
  for (std::size_t h = 0; h < nh; ++h) cfg.hidden.push_back(blob[i++]);
  cfg.criterion = static_cast<Criterion>(blob[i++]);
  cfg.batch_frames = blob[i++];
  cfg.curvature_fraction = std::bit_cast<double>(blob[i++]);
  cfg.advance_prob = std::bit_cast<double>(blob[i++]);
  return cfg;
}

}  // namespace

SpeechWorkloadOptions make_workload_options(const TrainerConfig& config,
                                            std::size_t num_states,
                                            double advance_prob,
                                            util::ThreadPool* pool) {
  SpeechWorkloadOptions opts;
  opts.criterion = config.criterion;
  opts.batch_frames = config.batch_frames;
  opts.curvature_fraction = config.hf.hyper.curvature_fraction;
  opts.pool = pool;
  if (config.criterion == Criterion::kSequence) {
    opts.transitions =
        nn::TransitionModel::left_to_right(num_states, advance_prob);
  }
  return opts;
}

Shards build_shards(const TrainerConfig& config) {
  if (config.workers <= 0) {
    throw std::invalid_argument("TrainerConfig: workers must be > 0");
  }
  Shards shards;
  // Data staging flows through the DataSource API: held-out splitting and
  // partition strategies fold into construction options, and the bytes
  // come either from an in-RAM generated corpus or, when a store directory
  // is configured (BGQHF_DATA_DIR), streamed out of core through the
  // prefetching ShardedSource. Both paths present identical utterance
  // order, so the training trajectory is bitwise independent of which one
  // served the data.
  speech::SourceOptions sopts;
  sopts.heldout_every_kth = config.heldout_every_kth;
  sopts.speaker_cmvn = config.speaker_cmvn;
  sopts.partition = config.partition;
  sopts.heldout_partition = speech::PartitionStrategy::kNaiveEqualCount;
  sopts.prefetch_depth = config.data.prefetch_depth;
  speech::SourceSplit split =
      config.data.data_dir.empty()
          ? speech::make_in_memory_split(
                speech::generate_corpus(config.corpus), sopts)
          : speech::open_sharded_split(config.data.data_dir, sopts);
  speech::DataSource& train_src = *split.train;
  if (!config.data.data_dir.empty() &&
      (train_src.feature_dim() != config.corpus.feature_dim ||
       train_src.num_states() != config.corpus.num_states)) {
    throw speech::DataError(
        speech::DataFault::kShapeMismatch,
        "build_shards: store at " + config.data.data_dir + " holds dim=" +
            std::to_string(train_src.feature_dim()) + "/states=" +
            std::to_string(train_src.num_states()) +
            " but the configured corpus expects dim=" +
            std::to_string(config.corpus.feature_dim) + "/states=" +
            std::to_string(config.corpus.num_states));
  }
  if (split.heldout == nullptr || split.heldout->num_utterances() == 0) {
    // Algorithm 1 steers entirely by the held-out loss; an empty held-out
    // set would make every iteration "fail" silently.
    throw std::invalid_argument(
        "build_shards: corpus too small for heldout_every_kth=" +
        std::to_string(config.heldout_every_kth) +
        " (got " + std::to_string(train_src.num_utterances()) +
        " training utterances, 0 held-out); increase corpus.hours or "
        "lower heldout_every_kth");
  }
  speech::DataSource& held_src = *split.heldout;
  if (train_src.num_utterances() == 0) {
    throw std::invalid_argument("build_shards: no training utterances");
  }
  const speech::Normalizer norm = speech::estimate_normalizer(train_src);

  // One shard per rank of the distributed job: the master computes too.
  const std::size_t ranks = static_cast<std::size_t>(config.workers) + 1;
  // Assignment is computed from the sources' length tables alone — for a
  // sharded store that means the index; no shard data is touched.
  const speech::Partition train_part = train_src.partition(ranks);
  const speech::Partition held_part = held_src.partition(ranks);

  for (std::size_t w = 0; w < ranks; ++w) {
    shards.train.push_back(speech::build_dataset(
        train_src, train_part.assignment[w], &norm, config.context));
    shards.heldout.push_back(speech::build_dataset(
        held_src, held_part.assignment[w], &norm, config.context));
    shards.total_train_frames += shards.train.back().num_frames();
  }

  shards.num_states = train_src.num_states();
  shards.advance_prob = 1.0 / config.corpus.state_dwell_frames;
  const std::size_t input_dim =
      speech::stacked_dim(train_src.feature_dim(), config.context);
  switch (config.init) {
    case InitScheme::kGlorot: {
      shards.net =
          nn::Network::mlp(input_dim, config.hidden, shards.num_states);
      util::Rng init_rng(config.init_seed);
      shards.net.init_glorot(init_rng);
      break;
    }
    case InitScheme::kLayerwise: {
      // Pretraining sees the whole training set (the master does this
      // once, before sharding, so serial and distributed runs agree).
      const speech::Dataset full_train =
          speech::build_full_dataset(train_src, &norm, config.context);
      const speech::Dataset full_held =
          speech::build_full_dataset(held_src, &norm, config.context);
      PretrainOptions pre;
      pre.init_seed = config.init_seed;
      shards.net = pretrain_layerwise(input_dim, config.hidden,
                                      shards.num_states, full_train,
                                      full_held, pre, config.pool)
                       .net;
      break;
    }
    case InitScheme::kRbm: {
      const speech::Dataset full_train =
          speech::build_full_dataset(train_src, &norm, config.context);
      nn::RbmOptions rbm;
      rbm.seed = config.init_seed;
      rbm.gaussian_visible = true;
      shards.net = nn::rbm_pretrain_network(
          full_train.x.view(), config.hidden, shards.num_states, rbm);
      break;
    }
  }
  return shards;
}

TrainOutcome train_serial(const TrainerConfig& config) {
  Shards shards = build_shards(config);
  const SpeechWorkloadOptions wl_opts = make_workload_options(
      config, shards.num_states, shards.advance_prob, config.pool);

  std::vector<std::unique_ptr<Workload>> workloads;
  for (std::size_t w = 0; w < shards.train.size(); ++w) {
    workloads.push_back(std::make_unique<SpeechWorkload>(
        shards.net, std::move(shards.train[w]), std::move(shards.heldout[w]),
        w, wl_opts));
  }
  SerialCompute compute(std::move(workloads), config.aggregation);

  TrainOutcome out;
  out.theta.assign(shards.net.params().begin(), shards.net.params().end());
  out.num_params = shards.net.num_params();
  HfOptimizer optimizer(config.hf);
  std::unique_ptr<TrainerCheckpoint> resume;
  if (!config.resume_from.empty()) {
    resume = std::make_unique<TrainerCheckpoint>(
        load_checkpoint(config.resume_from));
  }
  util::Timer timer;
  out.hf = optimizer.run(compute, out.theta, resume.get());
  out.seconds = timer.seconds();
  return out;
}

void distribute_shards(simmpi::Comm& comm, const TrainerConfig& config,
                       const Shards& shards, PhaseStats* master_phases) {
  if (shards.train.size() != static_cast<std::size_t>(comm.size())) {
    throw std::invalid_argument(
        "distribute_shards: need one shard per rank of the communicator");
  }
  std::vector<std::uint64_t> blob = encode_config(config, shards);
  comm.bcast(blob, 0);
  // load_data: ship every rank its shard over point-to-point sends (the
  // phase Figures 2/4 chart as load_data). Rank 0's shard and its copy of
  // the config go to its own mailbox, where MasterCompute picks them up.
  BGQHF_SPAN(phase_label(Phase::kLoadData), "master");
  util::Timer load_timer;
  comm.send<std::uint64_t>(blob, 0, kTagShardConfig);
  for (int r = 0; r < comm.size(); ++r) {
    const auto shard = static_cast<std::size_t>(r);
    send_dataset(comm, r, shards.train[shard], kTagShardMeta,
                 kTagShardLabels, kTagShardX);
    send_dataset(comm, r, shards.heldout[shard], kTagShardHeldMeta,
                 kTagShardHeldLabels, kTagShardHeldX);
  }
  if (master_phases != nullptr) {
    master_phases->add(Phase::kLoadData, load_timer.seconds());
  }
}

std::unique_ptr<SpeechWorkload> receive_workload(simmpi::Comm& comm,
                                                 const FtOptions& ft,
                                                 PhaseStats* phases) {
  std::vector<std::uint64_t> blob;
  if (comm.rank() == 0) {
    blob = comm.recv<std::uint64_t>(0, kTagShardConfig, ft.command_deadline());
  } else {
    comm.bcast(blob, 0, ft.command_deadline());
  }
  const DecodedConfig dc = decode_config(blob);
  util::Timer load_timer;
  speech::Dataset train, heldout;
  {
    BGQHF_SPAN(phase_label(Phase::kLoadData), "worker");
    train = recv_dataset(comm, 0, kTagShardMeta, kTagShardLabels, kTagShardX,
                         ft);
    heldout = recv_dataset(comm, 0, kTagShardHeldMeta, kTagShardHeldLabels,
                           kTagShardHeldX, ft);
  }
  if (phases != nullptr) phases->add(Phase::kLoadData, load_timer.seconds());
  nn::Network net = nn::Network::mlp(dc.input_dim, dc.hidden, dc.num_states);
  SpeechWorkloadOptions wl_opts;
  wl_opts.criterion = dc.criterion;
  wl_opts.batch_frames = dc.batch_frames;
  wl_opts.curvature_fraction = dc.curvature_fraction;
  wl_opts.pool = nullptr;  // every rank is already a thread
  if (dc.criterion == Criterion::kSequence) {
    wl_opts.transitions =
        nn::TransitionModel::left_to_right(dc.num_states, dc.advance_prob);
  }
  return std::make_unique<SpeechWorkload>(
      std::move(net), std::move(train), std::move(heldout),
      static_cast<std::size_t>(comm.rank()), wl_opts);
}

void run_worker_rank(simmpi::Comm& comm, const TrainerConfig& config,
                     PhaseStats* phases) {
  try {
    const std::unique_ptr<SpeechWorkload> workload =
        receive_workload(comm, config.ft, phases);
    worker_loop(comm, *workload, phases, config.ft, config.aggregation);
  } catch (const simmpi::RankKilledError&) {
    // Injected kill: exit the rank cleanly so run_ranks completes; the
    // master observes the silence at its next reply deadline.
    BGQHF_WARN << "worker rank " << comm.rank()
               << ": killed by fault injection; exiting";
  } catch (const simmpi::CommError& e) {
    // A startup message never arrived (or the master revoked the job
    // before it did): withdraw instead of stalling the whole run.
    if (!config.ft.enabled) throw;
    BGQHF_WARN << "worker rank " << comm.rank() << ": startup failed ("
               << e.what() << "); withdrawing";
  }
}

void train_over(simmpi::Comm& comm, const TrainerConfig& config,
                const Shards& shards, const TrainerCheckpoint* resume,
                TrainOutcome& out) {
  if (comm.size() != config.workers + 1) {
    throw std::invalid_argument(
        "train_over: comm size must be config.workers + 1");
  }
  reject_under_ft(config.aggregation, config.ft.enabled);
  if (comm.rank() == 0) {
    // ---- master ----
    distribute_shards(comm, config, shards, &out.master_phases);
    MasterCompute compute(comm, shards.net.num_params(),
                          shards.total_train_frames, &out.master_phases,
                          config.ft, config.aggregation,
                          layer_segment_bounds(shards.net));
    out.theta.assign(shards.net.params().begin(),
                     shards.net.params().end());
    out.num_params = shards.net.num_params();
    HfOptimizer optimizer(config.hf);
    util::Timer timer;
    try {
      out.hf = optimizer.run(compute, out.theta, resume);
    } catch (...) {
      // Optimizer-side failure (e.g. checkpoint seed/size mismatch):
      // release the workers before propagating, so run_ranks can join
      // them instead of deadlocking on a master that never said goodbye.
      try {
        compute.shutdown();
      } catch (...) {
      }
      throw;
    }
    out.seconds = timer.seconds();
    out.excluded_workers = compute.excluded_workers();
    compute.shutdown();
  } else {
    run_worker_rank(
        comm, config,
        &out.worker_phases[static_cast<std::size_t>(comm.rank() - 1)]);
  }
}

TrainOutcome train_distributed(const TrainerConfig& config) {
  // Before any rank starts, so the caller gets the ConfigError itself.
  reject_under_ft(config.aggregation, config.ft.enabled);
  TrainOutcome out;
  out.worker_phases.assign(static_cast<std::size_t>(config.workers),
                           PhaseStats{});
  simmpi::World world(config.workers + 1);
  world.install_faults(config.faults);
  // Load (and CRC-validate) any resume checkpoint before spawning ranks: a
  // corrupt or missing file must fail this call, not strand workers that
  // are already blocked waiting for startup messages.
  std::unique_ptr<TrainerCheckpoint> resume;
  if (!config.resume_from.empty()) {
    resume = std::make_unique<TrainerCheckpoint>(
        load_checkpoint(config.resume_from));
  }
  // Same rule as the checkpoint for data staging: a corrupt store, a
  // shape-mismatched store, or a too-small corpus throws here, on the
  // calling thread — not inside the master rank while workers sit in a
  // startup bcast that will never come. Staging is seeded and comm-free,
  // so where it runs cannot change the trajectory.
  const Shards shards = build_shards(config);
  simmpi::run_ranks(world, [&](simmpi::Comm& comm) {
    train_over(comm, config, shards, resume.get(), out);
  });
  out.comm = world.total_stats();
  return out;
}

}  // namespace bgqhf::hf

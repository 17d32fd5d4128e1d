// End-to-end training drivers.
//
// train_serial() and train_distributed() run the *same* Algorithm-1
// optimizer over the *same* workers + 1 shards; the only difference is
// whether shard sums are folded locally (SerialCompute) or tree-reduced
// over simmpi, one shard per rank (MasterCompute on rank 0 + worker_loop).
// Their training trajectories are bitwise identical, which is the
// reproducible form of the paper's "no loss in accuracy" scaling claim.
//
// Unlike the paper, whose master only coordinates (Sec. IV), rank 0 here
// trains on a shard of its own, so no core idles while the workers
// compute. The bgq performance model keeps the paper's dedicated master.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "hf/aggregate.h"
#include "hf/fault_tolerance.h"
#include "hf/optimizer.h"
#include "hf/phase_stats.h"
#include "hf/speech_workload.h"
#include "nn/network.h"
#include "simmpi/fault.h"
#include "simmpi/stats.h"
#include "speech/corpus.h"
#include "speech/partition.h"
#include "speech/source.h"

namespace bgqhf::hf {

/// How the network is initialized before HF fine-tuning (paper Sec. I:
/// pre-training [2] and better random initialization [3]).
enum class InitScheme {
  kGlorot,     // random init [3]
  kLayerwise,  // greedy discriminative layer-wise pretraining [7]
  kRbm,        // RBM/CD-1 generative pretraining [2]
};

struct TrainerConfig {
  /// Ranks besides the master; the distributed run uses workers+1 ranks
  /// and the data splits into workers+1 shards, one per rank (rank 0, the
  /// master, trains on shard 0).
  int workers = 4;
  speech::CorpusSpec corpus;
  /// Where training data comes from. An empty data_dir generates the
  /// corpus in RAM from `corpus` (the seed behaviour); a non-empty one
  /// streams a pre-staged sharded store (see tools/corpus_shard) through
  /// the prefetching ShardedSource — same utterances, same trajectory,
  /// bounded memory. Defaults honour BGQHF_DATA_DIR / BGQHF_PREFETCH_DEPTH.
  speech::StoreConfig data = speech::StoreConfig::from_env();
  /// +/- context frames stacked into each network input.
  std::size_t context = 2;
  std::vector<std::size_t> hidden{32, 32};
  Criterion criterion = Criterion::kCrossEntropy;
  speech::PartitionStrategy partition =
      speech::PartitionStrategy::kSortedBalanced;
  /// Every k-th utterance goes to the held-out set.
  std::size_t heldout_every_kth = 5;
  /// Apply per-speaker CMVN before the global normalizer (standard speech
  /// front-end; removes channel/speaker offsets).
  bool speaker_cmvn = false;
  /// Network initialization before HF (pretraining runs at shard-building
  /// time, identically in serial and distributed runs).
  InitScheme init = InitScheme::kGlorot;
  std::size_t batch_frames = 1024;
  HfOptions hf;
  std::uint64_t init_seed = 42;
  /// Compute pool for GEMMs (shared across shards in serial mode; ignored
  /// in distributed mode where each worker rank is already a thread).
  util::ThreadPool* pool = nullptr;
  /// Fault tolerance (fault_tolerance.h): per-op deadlines, per-message
  /// CRCs, and revoke-and-shrink recovery with survivor reweighting, on
  /// the same collective path. Fault-free, the FT trajectory is bitwise
  /// identical to the plain one.
  FtOptions ft;
  /// Fault injection installed into the simmpi World (distributed runs
  /// only). Without ft.enabled nothing recovers: an injected fault either
  /// surfaces as an error or, with no deadline to notice a lost message,
  /// blocks.
  simmpi::FaultConfig faults;
  /// When non-empty, load this checkpoint (written via hf.checkpoint_path)
  /// and resume training from its completed iteration.
  std::string resume_from;
  /// Gradient aggregation: the compression codec. Defaults pick up
  /// BGQHF_COMPRESS* / BGQHF_PRECISION so every driver honours the knobs;
  /// serial and distributed runs mirror the same arithmetic.
  /// Must be inactive when ft.enabled (a re-run primitive needs exact
  /// sums): distributed training rejects the pair with util::ConfigError.
  AggregationOptions aggregation = AggregationOptions::from_env();
};

/// Per-rank data shards (workers + 1 of them; shard r belongs to rank r)
/// plus the initialized network.
struct Shards {
  nn::Network net;
  std::vector<speech::Dataset> train;
  std::vector<speech::Dataset> heldout;
  std::size_t num_states = 0;
  double advance_prob = 0.0;  // transition model parameter (sequence crit.)
  std::size_t total_train_frames = 0;
};

/// Deterministically build shards from the config (corpus synthesis,
/// held-out split, normalization, partitioning, network init).
Shards build_shards(const TrainerConfig& config);

/// Build the workload for one shard (shared by serial and worker paths).
SpeechWorkloadOptions make_workload_options(const TrainerConfig& config,
                                            std::size_t num_states,
                                            double advance_prob,
                                            util::ThreadPool* pool);

struct TrainOutcome {
  HfResult hf;
  std::vector<float> theta;
  std::size_t num_params = 0;
  simmpi::CommStats comm;  // all-zero for serial runs
  double seconds = 0.0;
  /// Measured per-phase wall time (distributed runs only): the functional
  /// analogue of the paper's Figs. 2-5 instrumentation. The master's
  /// phases include its own shard's compute.
  PhaseStats master_phases;
  std::vector<PhaseStats> worker_phases;  // indexed by worker (rank - 1)
  /// Worker ranks the master excluded mid-run (FT mode; empty otherwise).
  std::vector<int> excluded_workers;
};

TrainOutcome train_serial(const TrainerConfig& config);
TrainOutcome train_distributed(const TrainerConfig& config);

/// Master-side startup over an arbitrary communicator (rank 0 = master,
/// comm.size()-1 workers, one shard per rank): broadcast the config blob
/// and ship every rank its shard over buffered sends, rank 0's (and a copy
/// of the blob) to its own mailbox, where MasterCompute's constructor
/// receives them. Factored out of train_distributed so the same startup
/// runs inside an LTFB population's split sub-communicator.
void distribute_shards(simmpi::Comm& comm, const TrainerConfig& config,
                       const Shards& shards, PhaseStats* master_phases);

/// Any rank's half of distribute_shards: take the config blob and this
/// rank's shard (each op under ft.command_deadline()) and build the speech
/// workload over them, with shard id = comm.rank(). `phases`, when given,
/// is charged the load_data time.
std::unique_ptr<SpeechWorkload> receive_workload(simmpi::Comm& comm,
                                                 const FtOptions& ft,
                                                 PhaseStats* phases);

/// Worker-side body over an arbitrary communicator: receive_workload, then
/// serve worker_loop until shutdown. An injected kill, and under FT a
/// failed startup op, return normally (after logging).
void run_worker_rank(simmpi::Comm& comm, const TrainerConfig& config,
                     PhaseStats* phases);

/// The per-rank body of train_distributed over an arbitrary communicator:
/// rank 0 drives the HF optimizer through MasterCompute (computing on
/// shard 0 as it goes), other ranks run run_worker_rank. Every rank of
/// `comm` must call this; results land in the shared `out` (master fields
/// from rank 0, worker_phases[r-1] from rank r, which must be pre-sized).
/// comm.size() must be config.workers + 1. Used directly by the split-communicator
/// equivalence tests and the LTFB trainer.
void train_over(simmpi::Comm& comm, const TrainerConfig& config,
                const Shards& shards, const TrainerCheckpoint* resume,
                TrainOutcome& out);

}  // namespace bgqhf::hf
